//! Golden fixture for the suppression pragma: every panic site the
//! entry point reaches is justified with a `panic-path` pragma, so an
//! SMI009 pass must return zero findings and count each suppression.

pub fn run(xs: &[u32]) -> u32 {
    first(xs) + second(xs) + third(xs)
}

fn first(xs: &[u32]) -> u32 {
    // smi-lint: allow(panic-path): callers guarantee a non-empty slice.
    *xs.first().unwrap()
}

fn second(xs: &[u32]) -> u32 {
    xs[1] // indexing is not flagged; only unwrap/expect and panicking macros are
}

fn third(xs: &[u32]) -> u32 {
    // A multi-line justification: the pragma may sit anywhere in the
    // comment block directly above the finding.
    // smi-lint: allow(panic-path): bounds are checked by the caller's
    // contract, documented on the trait.
    *xs.get(2).unwrap()
}
