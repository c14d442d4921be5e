//! SMI009 fixture for the strict simulation path, entered the way
//! campaigns enter the engine (`Job::new`, then `Job::run`): the assert
//! family counts as a panic site like `unwrap`, a pragma naming the
//! retired `no-panic` rule justifies nothing, and `debug_assert!` and
//! test code stay legal.

pub struct Job;

impl Job {
    pub fn new(x: u32) -> Job {
        checked(x);
        Job
    }

    pub fn run(&self, a: u32, b: u32, xs: &[u32]) -> u32 {
        eq(a, b);
        justified(xs) + exhaustive(a) + cheap_invariant(b)
    }
}

fn checked(x: u32) -> u32 {
    assert!(x > 0, "zero"); // line 22: finding
    x
}

fn eq(a: u32, b: u32) {
    assert_eq!(a, b); // line 27: finding
}

fn justified(xs: &[u32]) -> u32 {
    // smi-lint: allow(no-panic): names a retired rule, so it justifies nothing.
    *xs.first().unwrap() // line 32: finding despite the pragma
}

fn exhaustive(k: u32) -> u32 {
    match k {
        0 => 1,
        _ => unreachable!("callers pass 0"), // line 38: finding
    }
}

fn cheap_invariant(x: u32) -> u32 {
    debug_assert!(x < 100, "release builds elide this"); // no finding
    x
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_code_may_assert() {
        assert_eq!(super::cheap_invariant(3), 3); // no finding: test code
    }
}
