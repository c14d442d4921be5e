//! Derive macro for `jsonio::ToJson`, implemented directly against the
//! compiler's `proc_macro` API so the workspace needs no external crates
//! (no `syn`, no `quote`).
//!
//! Supported shapes — exactly the ones the laboratory's record types use,
//! mirroring serde's data model:
//!
//! * structs with named fields → JSON objects in declaration order;
//! * tuple structs with one field (newtypes like `SimTime(u64)`) →
//!   transparent, serialize the inner value;
//! * tuple structs with several fields → JSON arrays;
//! * enums: unit variants → `"Variant"`, newtype/struct variants →
//!   externally tagged `{"Variant": ...}`.
//!
//! Generic types and variant discriminants are rejected with a
//! `compile_error!` rather than silently mis-serialized.

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// Derive `jsonio::ToJson` for a struct or enum.
#[proc_macro_derive(ToJson)]
pub fn derive_to_json(input: TokenStream) -> TokenStream {
    match generate(input) {
        Ok(code) => code.parse().expect("generated impl parses"),
        Err(msg) => format!("compile_error!({msg:?});").parse().expect("error parses"),
    }
}

fn generate(input: TokenStream) -> Result<String, String> {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;
    skip_attrs_and_vis(&tokens, &mut i);
    let kind = match &tokens.get(i) {
        Some(TokenTree::Ident(id)) if *id.to_string() == *"struct" => "struct",
        Some(TokenTree::Ident(id)) if *id.to_string() == *"enum" => "enum",
        other => return Err(format!("ToJson: expected struct or enum, found {other:?}")),
    };
    i += 1;
    let name = match &tokens.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => return Err(format!("ToJson: expected type name, found {other:?}")),
    };
    i += 1;
    if matches!(&tokens.get(i), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        return Err(format!("ToJson: generic type {name} is not supported"));
    }

    let body = match kind {
        "struct" => match &tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let fields = parse_named_fields(g.stream())?;
                named_struct_body(&fields)
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                let n = count_tuple_fields(g.stream());
                tuple_struct_body(n)
            }
            _ => "::jsonio::Json::Null".to_string(), // unit struct
        },
        _ => match &tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                enum_body(&name, parse_variants(g.stream())?)?
            }
            other => return Err(format!("ToJson: malformed enum {name}: {other:?}")),
        },
    };

    Ok(format!(
        "#[automatically_derived]\n\
         impl ::jsonio::ToJson for {name} {{\n\
             fn to_json(&self) -> ::jsonio::Json {{\n\
                 {body}\n\
             }}\n\
         }}"
    ))
}

/// Skip leading `#[...]` attributes and `pub` / `pub(...)` visibility.
fn skip_attrs_and_vis(tokens: &[TokenTree], i: &mut usize) {
    loop {
        match tokens.get(*i) {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                *i += 2; // '#' + bracket group
            }
            Some(TokenTree::Ident(id)) if *id.to_string() == *"pub" => {
                *i += 1;
                if matches!(tokens.get(*i), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
                {
                    *i += 1;
                }
            }
            _ => return,
        }
    }
}

/// Skip a type, stopping at a top-level `,` (aware of `<...>` nesting;
/// bracketed constructs like `[T; N]` arrive as single groups).
fn skip_type(tokens: &[TokenTree], i: &mut usize) {
    let mut angle_depth = 0usize;
    while let Some(tok) = tokens.get(*i) {
        match tok {
            TokenTree::Punct(p) if p.as_char() == '<' => angle_depth += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => {
                angle_depth = angle_depth.saturating_sub(1)
            }
            TokenTree::Punct(p) if p.as_char() == ',' && angle_depth == 0 => return,
            _ => {}
        }
        *i += 1;
    }
}

fn parse_named_fields(stream: TokenStream) -> Result<Vec<String>, String> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut fields = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        skip_attrs_and_vis(&tokens, &mut i);
        let Some(TokenTree::Ident(id)) = tokens.get(i) else {
            return Err(format!("ToJson: expected field name, found {:?}", tokens.get(i)));
        };
        fields.push(id.to_string());
        i += 1;
        match tokens.get(i) {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => i += 1,
            other => return Err(format!("ToJson: expected ':', found {other:?}")),
        }
        skip_type(&tokens, &mut i);
        i += 1; // the ',' (or one past the end)
    }
    Ok(fields)
}

fn count_tuple_fields(stream: TokenStream) -> usize {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    if tokens.is_empty() {
        return 0;
    }
    let mut n = 0;
    let mut i = 0;
    while i < tokens.len() {
        skip_attrs_and_vis(&tokens, &mut i);
        n += 1;
        skip_type(&tokens, &mut i);
        i += 1;
    }
    n
}

enum VariantShape {
    Unit,
    Tuple(usize),
    Struct(Vec<String>),
}

fn parse_variants(stream: TokenStream) -> Result<Vec<(String, VariantShape)>, String> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut variants = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        skip_attrs_and_vis(&tokens, &mut i);
        let Some(TokenTree::Ident(id)) = tokens.get(i) else {
            return Err(format!("ToJson: expected variant name, found {:?}", tokens.get(i)));
        };
        let name = id.to_string();
        i += 1;
        let shape = match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                let n = count_tuple_fields(g.stream());
                i += 1;
                VariantShape::Tuple(n)
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let fields = parse_named_fields(g.stream())?;
                i += 1;
                VariantShape::Struct(fields)
            }
            _ => VariantShape::Unit,
        };
        match tokens.get(i) {
            None => {}
            Some(TokenTree::Punct(p)) if p.as_char() == ',' => i += 1,
            Some(TokenTree::Punct(p)) if p.as_char() == '=' => {
                return Err(format!("ToJson: discriminant on variant {name} is not supported"));
            }
            other => return Err(format!("ToJson: expected ',' after variant, found {other:?}")),
        }
        variants.push((name, shape));
    }
    Ok(variants)
}

fn named_struct_body(fields: &[String]) -> String {
    let pushes: Vec<String> = fields
        .iter()
        .map(|f| {
            format!("(::std::string::String::from({f:?}), ::jsonio::ToJson::to_json(&self.{f}))")
        })
        .collect();
    format!("::jsonio::Json::Obj(::std::vec![{}])", pushes.join(", "))
}

fn tuple_struct_body(n: usize) -> String {
    match n {
        0 => "::jsonio::Json::Arr(::std::vec![])".to_string(),
        1 => "::jsonio::ToJson::to_json(&self.0)".to_string(),
        n => {
            let items: Vec<String> =
                (0..n).map(|k| format!("::jsonio::ToJson::to_json(&self.{k})")).collect();
            format!("::jsonio::Json::Arr(::std::vec![{}])", items.join(", "))
        }
    }
}

fn enum_body(name: &str, variants: Vec<(String, VariantShape)>) -> Result<String, String> {
    if variants.is_empty() {
        return Err(format!("ToJson: empty enum {name} cannot be serialized"));
    }
    let mut arms = Vec::new();
    for (vname, shape) in variants {
        let arm = match shape {
            VariantShape::Unit => format!(
                "{name}::{vname} => ::jsonio::Json::Str(::std::string::String::from({vname:?}))"
            ),
            VariantShape::Tuple(1) => format!(
                "{name}::{vname}(f0) => ::jsonio::Json::Obj(::std::vec![\
                 (::std::string::String::from({vname:?}), ::jsonio::ToJson::to_json(f0))])"
            ),
            VariantShape::Tuple(n) => {
                let binders: Vec<String> = (0..n).map(|k| format!("f{k}")).collect();
                let items: Vec<String> =
                    binders.iter().map(|b| format!("::jsonio::ToJson::to_json({b})")).collect();
                format!(
                    "{name}::{vname}({}) => ::jsonio::Json::Obj(::std::vec![\
                     (::std::string::String::from({vname:?}), \
                      ::jsonio::Json::Arr(::std::vec![{}]))])",
                    binders.join(", "),
                    items.join(", ")
                )
            }
            VariantShape::Struct(fields) => {
                let binders = fields.join(", ");
                let pushes: Vec<String> = fields
                    .iter()
                    .map(|f| {
                        format!(
                            "(::std::string::String::from({f:?}), ::jsonio::ToJson::to_json({f}))"
                        )
                    })
                    .collect();
                format!(
                    "{name}::{vname} {{ {binders} }} => ::jsonio::Json::Obj(::std::vec![\
                     (::std::string::String::from({vname:?}), \
                      ::jsonio::Json::Obj(::std::vec![{}]))])",
                    pushes.join(", ")
                )
            }
        };
        arms.push(arm);
    }
    Ok(format!("match self {{\n    {}\n}}", arms.join(",\n    ")))
}
