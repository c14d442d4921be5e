//! Canary fixture for the hash-collection ban (formerly SMI001): a
//! record crate naming `HashMap`. Compiled by ci.sh as a throwaway crate
//! under the committed clippy.toml; clippy must fail with
//! `disallowed_types`.

use std::collections::HashMap; // finding

pub fn tally(xs: &[u32]) -> usize {
    let mut counts: HashMap<u32, u32> = HashMap::new(); // two findings
    for &x in xs {
        *counts.entry(x).or_default() += 1;
    }
    counts.len()
}
