//! Canary fixture for the wall-clock ban (formerly SMI002): reading host
//! time from code that must be a function of the seed alone. Compiled by
//! ci.sh; clippy must fail with `disallowed_methods`.

use std::time::Instant;

pub fn measure() -> u64 {
    let start = Instant::now(); // finding
    start.elapsed().as_nanos() as u64
}
