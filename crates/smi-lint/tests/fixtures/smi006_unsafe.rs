//! Canary fixture for the unsafe ban (formerly SMI006): an `unsafe`
//! block in a workspace crate. Compiled by ci.sh under the committed
//! `[workspace.lints]`; rustc must fail with `unsafe_code`.

pub fn answer() -> u32 {
    let x = 42u32;
    // SAFETY: `x` is a live, aligned local.
    unsafe { std::ptr::read(&x) }
}
