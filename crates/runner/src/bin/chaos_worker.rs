//! Fixture worker for the process-isolation tests (chaos gate only).
//!
//! Speaks the framed worker protocol on stdin/stdout over the shared
//! [`runner::testcells`] catalog, with process-level faults injected on
//! request so the supervisor's crash discipline can be exercised with a
//! *real* subprocess: `abort` dies mid-cell the way a SIGKILLed or
//! segfaulted worker does, `hang` wedges forever so only the watchdog
//! can end it, and the panic/invalid faults reuse the in-process chaos
//! harness to prove those verdicts cross the pipe unchanged.
//!
//! Faults are configured on the command line (not the environment:
//! parallel test binaries share an environment, argv is private):
//!
//! ```text
//! chaos-worker --cells 8 --seed 3 --faults c3=abort;c5=panic1
//! ```

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use runner::chaos::{self, ChaosPlan, Fault};
use runner::testcells;

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

fn main() {
    let mut cells: u64 = 8;
    let mut seed: u64 = 3;
    let mut plan = ChaosPlan::calm(0);
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let value = |it: &mut std::slice::Iter<'_, String>| -> String {
            it.next().cloned().unwrap_or_default()
        };
        match arg.as_str() {
            "--cells" => cells = value(&mut it).parse().unwrap_or(8),
            "--seed" => seed = value(&mut it).parse().unwrap_or(3),
            "--faults" => {
                for pair in value(&mut it).split(';').filter(|p| !p.is_empty()) {
                    if let Some((cell, fault)) = pair.split_once('=') {
                        if let Some(fault) = parse_fault(fault) {
                            plan.pinned.push((cell.to_string(), fault));
                        } else {
                            eprintln!("chaos-worker: unknown fault in {pair:?}");
                            std::process::exit(2);
                        }
                    }
                }
            }
            other => {
                eprintln!("chaos-worker: unknown argument {other:?}");
                std::process::exit(2);
            }
        }
    }
    chaos::quiet_injected_panics();
    let catalog = chaos::afflict(&plan, testcells::fixture_cells(cells, seed));
    std::process::exit(runner::worker::serve(catalog, Some(testcells::fixture_probe())));
}
