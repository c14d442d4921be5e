//! Canary fixture for the ambient-authority ban (formerly SMI003):
//! `std::env` outside cli/runner/smi-lint. Compiled by ci.sh; clippy
//! must fail with `disallowed_methods`.

pub fn knob() -> Option<String> {
    std::env::var("SMI_LAB_KNOB").ok() // finding
}
