//! Canary fixture for the library no-panic rule (formerly SMI004):
//! `unwrap` in non-test library code. Compiled by ci.sh under a record
//! crate's root attributes; clippy must fail with `unwrap_used`, and the
//! `#[cfg(test)]` unwrap must not count.

pub fn first(xs: &[u32]) -> u32 {
    *xs.first().unwrap() // finding
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_code_may_unwrap() {
        let v: Option<u32> = Some(3);
        assert_eq!(v.unwrap(), 3); // no finding: inside #[cfg(test)]
    }
}
