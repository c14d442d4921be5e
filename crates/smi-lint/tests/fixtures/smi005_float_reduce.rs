//! Canary fixture for the float-reduce rule (formerly SMI005): a float
//! sum over a hash-collection iterator. A record crate cannot name the
//! hash collection at all, so clippy must fail with `disallowed_types`.

use std::collections::HashMap;

pub fn mean(samples: &HashMap<String, f64>) -> f64 {
    let m: HashMap<String, f64> = samples.clone();
    let total = m.values().sum::<f64>(); // finding
    total / m.len() as f64
}
