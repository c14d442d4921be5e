//! Fixture worker for the process-isolation tests (chaos gate only).
//!
//! Speaks the framed worker protocol on stdin/stdout over the shared
//! [`runner::testcells`] cells, with process-level faults injected on
//! request so the supervisor's crash discipline can be exercised with a
//! *real* subprocess: `abort` dies mid-cell the way a SIGKILLed or
//! segfaulted worker does, `hang` wedges forever so only the watchdog
//! can end it, and the panic/invalid faults reuse the in-process chaos
//! harness to prove those verdicts cross the pipe unchanged.
//!
//! The cell count, seed and faults arrive in the campaign frame:
//!
//! ```text
//! {"cells":8,"seed":3,"faults":"c3=abort;c5=panic1"}
//! ```

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use jsonio::Json;
use runner::chaos::{self, ChaosPlan, Fault};
use runner::{testcells, Cell};

fn parse_fault(name: &str) -> Option<Fault> {
    match name {
        "abort" => Some(Fault::Abort),
        "hang" => Some(Fault::Hang),
        "panic" => Some(Fault::PanicAlways),
        "panic1" => Some(Fault::PanicFirst(1)),
        "invalid" => Some(Fault::Invalid),
        _ => None,
    }
}

/// The campaign's cells, afflicted with its faults.
fn build(campaign: &Json) -> Result<Vec<Cell>, String> {
    let count = |name| campaign.get(name).and_then(Json::as_u64).ok_or(format!("no {name} count"));
    let faults = campaign.get("faults").and_then(Json::as_str).ok_or("no faults string")?;
    let mut plan = ChaosPlan::calm(0);
    for pair in faults.split(';').filter(|p| !p.is_empty()) {
        let fault = pair.split_once('=').and_then(|(cell, f)| Some((cell, parse_fault(f)?)));
        let (cell, fault) = fault.ok_or(format!("bad fault {pair:?}"))?;
        plan.pinned.push((cell.to_string(), fault));
    }
    Ok(chaos::afflict(&plan, testcells::fixture_cells(count("cells")?, count("seed")?)))
}

fn main() {
    chaos::quiet_injected_panics();
    let probe = Some(testcells::fixture_probe());
    let (input, output) = (std::io::stdin().lock(), std::io::stdout().lock());
    std::process::exit(runner::worker::serve(build, probe, input, output));
}
