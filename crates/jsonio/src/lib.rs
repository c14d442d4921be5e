//! # jsonio — minimal JSON for a hermetic workspace
//!
//! A self-contained JSON value type, serializer, parser and derive macro.
//! It replaces `serde`/`serde_json` for everything the laboratory needs —
//! result records, the runner's cache entries and manifests, and the
//! paper reference data — so the whole workspace builds with **zero
//! external crates** (the derive uses only the compiler's own
//! `proc_macro` API).
//!
//! Design points:
//!
//! * [`Json`] objects keep insertion order (`Vec<(String, Json)>`), so
//!   struct serialization is stable and result records are byte-for-byte
//!   reproducible across runs — the property the runner's determinism
//!   guard asserts.
//! * Numbers are kept in three lanes (`I64`/`U64`/`F64`) like
//!   serde_json, and floats render via Rust's shortest-roundtrip `{:?}`
//!   formatting, so parse(write(x)) == x for every finite value.
//! * Non-finite floats serialize as `null` (serde_json errors instead;
//!   the laboratory prefers a total function for telemetry records).
//! * The parser is total: it never panics, bounds its recursion depth,
//!   and reports byte offsets — corrupted cache entries are skipped and
//!   recomputed, never fatal.
//!
//! ```
//! #[derive(jsonio::ToJson)]
//! struct Point { x: f64, label: String }
//!
//! use jsonio::ToJson;
//! let p = Point { x: 1.5, label: "knee".into() };
//! assert_eq!(p.to_json().to_string(), r#"{"x":1.5,"label":"knee"}"#);
//! let back = jsonio::Json::parse(r#"{"x":1.5,"label":"knee"}"#).unwrap();
//! assert_eq!(back.get("x").and_then(|v| v.as_f64()), Some(1.5));
//! ```

#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod checked;
pub mod framed;
mod parse;
mod ser;

pub use jsonio_derive::ToJson;
pub use parse::ParseError;

/// A JSON value. Object keys keep insertion order.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A signed integer (negative integers parse into this lane).
    I64(i64),
    /// An unsigned integer (non-negative integers parse into this lane).
    U64(u64),
    /// A float, or an integer too large for 64 bits.
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parse a JSON document. Total: returns an error (never panics) on
    /// malformed input, including inputs nested deeper than 128 levels.
    pub fn parse(text: &str) -> Result<Json, ParseError> {
        parse::parse(text)
    }

    /// Compact serialization (no whitespace).
    #[allow(clippy::inherent_to_string)]
    pub fn to_string(&self) -> String {
        let mut out = String::new();
        ser::write_compact(self, &mut out);
        out
    }

    /// Pretty serialization (two-space indent, serde_json layout).
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        ser::write_pretty(self, &mut out, 0);
        out
    }

    /// Object field lookup (first match; `None` for non-objects).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Array element lookup (`None` for non-arrays / out of range).
    pub fn idx(&self, i: usize) -> Option<&Json> {
        match self {
            Json::Arr(items) => items.get(i),
            _ => None,
        }
    }

    /// Numeric value as `f64` (all three number lanes coerce).
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::I64(v) => Some(v as f64),
            Json::U64(v) => Some(v as f64),
            Json::F64(v) => Some(v),
            _ => None,
        }
    }

    /// Numeric value as `u64` if exactly representable.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::U64(v) => Some(v),
            Json::I64(v) if v >= 0 => Some(v as u64),
            _ => None,
        }
    }

    /// Numeric value as `u32` if exactly representable.
    pub fn as_u32(&self) -> Option<u32> {
        self.as_u64().and_then(|v| u32::try_from(v).ok())
    }

    /// String value.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Bool value.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Json::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// Array contents.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Is this `Json::Null`?
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }

    /// Build an object from key/value pairs.
    pub fn obj(fields: Vec<(&str, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }
}

/// Serialize a value into a [`Json`] tree.
///
/// Implemented by primitives, strings, `Option`, `Vec`, slices, arrays
/// and small tuples; derive it on structs/enums with
/// `#[derive(jsonio::ToJson)]` (serde-compatible shapes: structs become
/// objects, newtype structs are transparent, unit enum variants become
/// strings, data variants become externally-tagged objects).
pub trait ToJson {
    /// Convert `self` into a JSON value.
    fn to_json(&self) -> Json;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_scalars() {
        for text in ["null", "true", "false", "0", "-7", "18446744073709551615", "1.5", "\"a\\nb\""]
        {
            let v = Json::parse(text).unwrap();
            assert_eq!(Json::parse(&v.to_string()).unwrap(), v, "{text}");
        }
    }

    #[test]
    fn object_preserves_order() {
        let v = Json::obj(vec![("z", Json::U64(1)), ("a", Json::U64(2))]);
        assert_eq!(v.to_string(), r#"{"z":1,"a":2}"#);
    }

    #[test]
    fn pretty_matches_serde_layout() {
        let v = Json::obj(vec![
            ("name", Json::Str("ep".into())),
            ("reps", Json::Arr(vec![Json::U64(1), Json::U64(2)])),
            ("empty", Json::Arr(vec![])),
        ]);
        assert_eq!(
            v.to_string_pretty(),
            "{\n  \"name\": \"ep\",\n  \"reps\": [\n    1,\n    2\n  ],\n  \"empty\": []\n}"
        );
    }

    #[test]
    fn float_roundtrip_is_exact() {
        for x in [0.1, 1.0 / 3.0, 1e-300, 6.02e23, -0.0, 105.5] {
            let v = Json::F64(x);
            let back = Json::parse(&v.to_string()).unwrap();
            assert_eq!(back.as_f64().unwrap().to_bits(), x.to_bits(), "{x}");
        }
    }

    #[test]
    fn non_finite_floats_are_null() {
        assert_eq!(Json::F64(f64::NAN).to_string(), "null");
        assert_eq!(Json::F64(f64::INFINITY).to_string(), "null");
    }

    #[test]
    fn accessors() {
        let v = Json::parse(r#"{"a":[1,2.5],"b":"x","c":true,"d":null}"#).unwrap();
        assert_eq!(v.get("a").unwrap().idx(0).unwrap().as_u64(), Some(1));
        assert_eq!(v.get("a").unwrap().idx(1).unwrap().as_f64(), Some(2.5));
        assert_eq!(v.get("b").unwrap().as_str(), Some("x"));
        assert_eq!(v.get("c").unwrap().as_bool(), Some(true));
        assert!(v.get("d").unwrap().is_null());
        assert!(v.get("missing").is_none());
    }
}
