//! Seeded, deterministic fault injection for the runner's recovery
//! paths — the lab pointing its own instrument at itself.
//!
//! The paper's method is injecting controlled interrupts and measuring
//! degradation; this module does the same to the experiment runner. A
//! [`ChaosPlan`] is a pure function from a seed and a cell identity to a
//! [`Fault`], so a fault schedule is exactly as reproducible as the
//! experiments it disturbs: the same plan over the same campaign injects
//! the same panics, stragglers, and cache corruptions every time, on any
//! thread count.
//!
//! Compiled only for tests and the `chaos` cargo feature (the CI chaos
//! gate runs `cargo test -p runner --features chaos`); it never ships in
//! a measurement binary. Injected panic messages all carry the
//! `"chaos:"` marker so [`quiet_injected_panics`] can keep expected
//! panics out of test output while letting real ones through.

use crate::cache::{self, CacheKey};
use crate::{Cell, CellSpec};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

/// The fault a plan assigns to one cell.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// Leave the cell alone.
    None,
    /// Panic on the first `n` attempts, then let the real work run —
    /// a transient fault a bounded retry budget must absorb.
    PanicFirst(u32),
    /// Panic on every attempt — a permanent fault that must quarantine
    /// exactly this cell and nothing else.
    PanicAlways,
    /// Reject the cell with a structured reason instead of running the
    /// real work — what a simulator `SimError` looks like to the runner.
    /// Must quarantine immediately (no retries) and degrade, not fail,
    /// the campaign.
    Invalid,
    /// Sleep this many milliseconds before the real work — an
    /// artificial straggler. Slows the campaign; must never change its
    /// bytes.
    Straggle(u64),
    /// `std::process::abort()` on every attempt — kills the *whole
    /// process*, no unwinding, no journal line from the victim. Only
    /// meaningful under process isolation, where the supervisor must
    /// survive it; in-process it would (correctly) take the test down.
    Abort,
    /// Never return: sleep in a loop forever. Under process isolation
    /// the supervisor's wall-clock watchdog must shoot the worker.
    Hang,
}

/// A deterministic fault schedule over a campaign.
///
/// Probabilities are per-mille (0..=1000) and drawn independently per
/// cell from `hash(seed, experiment, cell)`; `pinned` entries override
/// the draw for named cells, which is how tests aim a specific fault at
/// a specific cell.
#[derive(Clone, Debug)]
pub struct ChaosPlan {
    /// Root seed of the schedule.
    pub seed: u64,
    /// Per-mille chance a cell gets [`Fault::PanicFirst`].
    pub transient_per_mille: u32,
    /// Per-mille chance a cell gets [`Fault::PanicAlways`].
    pub permanent_per_mille: u32,
    /// Per-mille chance a cell gets [`Fault::Straggle`].
    pub straggler_per_mille: u32,
    /// Per-mille chance a cell gets [`Fault::Abort`] (process death —
    /// draw only makes sense for isolated-mode campaigns).
    pub abort_per_mille: u32,
    /// Per-mille chance a cell gets [`Fault::Hang`] (wedged forever —
    /// draw only makes sense for isolated-mode campaigns).
    pub hang_per_mille: u32,
    /// Attempts a transient fault consumes before the work succeeds.
    pub transient_attempts: u32,
    /// Straggler sleep, in milliseconds.
    pub straggle_millis: u64,
    /// `(cell label, fault)` overrides applied before any random draw.
    pub pinned: Vec<(String, Fault)>,
}

impl ChaosPlan {
    /// A plan that injects nothing (override with `pinned` to aim
    /// specific faults).
    pub fn calm(seed: u64) -> ChaosPlan {
        ChaosPlan {
            seed,
            transient_per_mille: 0,
            permanent_per_mille: 0,
            straggler_per_mille: 0,
            abort_per_mille: 0,
            hang_per_mille: 0,
            transient_attempts: 1,
            straggle_millis: 1,
            pinned: Vec::new(),
        }
    }

    /// The fault this plan assigns to a cell — a pure function of the
    /// plan and the cell identity.
    pub fn fault_for(&self, spec: &CellSpec) -> Fault {
        if let Some((_, fault)) = self.pinned.iter().find(|(label, _)| *label == spec.cell) {
            return *fault;
        }
        // Independent per-mille draws from disjoint lanes of the same
        // per-cell hash, checked in severity order.
        let h = cell_mix(self.seed, spec);
        if ((h % 1000) as u32) < self.permanent_per_mille {
            return Fault::PanicAlways;
        }
        if (((h >> 10) % 1000) as u32) < self.transient_per_mille {
            return Fault::PanicFirst(self.transient_attempts.max(1));
        }
        if (((h >> 20) % 1000) as u32) < self.straggler_per_mille {
            return Fault::Straggle(self.straggle_millis);
        }
        if (((h >> 30) % 1000) as u32) < self.abort_per_mille {
            return Fault::Abort;
        }
        if (((h >> 40) % 1000) as u32) < self.hang_per_mille {
            return Fault::Hang;
        }
        Fault::None
    }
}

/// FNV-1a over (experiment, cell) xor-seeded, folded through splitmix
/// for avalanche — the same construction the cache key uses, so per-cell
/// draws are well spread even for dense cell labels like `c0..c49`.
fn cell_mix(seed: u64, spec: &CellSpec) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325 ^ seed;
    for b in spec.experiment.bytes().chain([0u8]).chain(spec.cell.bytes()) {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    let mut z = h;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Wrap each cell's work closure with the fault its plan assigns it.
/// Unafflicted cells pass through untouched; afflicted cells keep their
/// identity (and therefore their cache key) — only the work misbehaves.
pub fn afflict(plan: &ChaosPlan, cells: Vec<Cell>) -> Vec<Cell> {
    cells
        .into_iter()
        .map(|cell| {
            let fault = plan.fault_for(&cell.spec);
            if fault == Fault::None {
                return cell;
            }
            let attempts = Arc::new(AtomicU32::new(0));
            let inner = cell.work;
            let cell_label = cell.spec.cell.clone();
            Cell {
                spec: cell.spec,
                work: Box::new(move || {
                    let attempt = attempts.fetch_add(1, Ordering::Relaxed);
                    match fault {
                        Fault::None => {}
                        #[expect(clippy::panic, reason = "the injected fault is the panic")]
                        Fault::PanicFirst(n) if attempt < n => {
                            panic!("chaos: transient fault in {cell_label} (attempt {attempt})");
                        }
                        Fault::PanicFirst(_) => {}
                        #[expect(clippy::panic, reason = "the injected fault is the panic")]
                        Fault::PanicAlways => {
                            panic!("chaos: permanent fault in {cell_label}");
                        }
                        Fault::Invalid => {
                            return Err(jsonio::Json::obj(vec![
                                ("kind", jsonio::Json::Str("chaos-invalid".into())),
                                (
                                    "message",
                                    jsonio::Json::Str(format!(
                                        "chaos: injected invalid cell {cell_label}"
                                    )),
                                ),
                            ]));
                        }
                        Fault::Straggle(millis) => {
                            std::thread::sleep(std::time::Duration::from_millis(millis));
                        }
                        Fault::Abort => {
                            eprintln!("chaos: aborting process in {cell_label}");
                            std::process::abort();
                        }
                        Fault::Hang => loop {
                            std::thread::sleep(std::time::Duration::from_secs(3600));
                        },
                    }
                    inner()
                }),
            }
        })
        .collect()
}

/// Overwrite a cell's cache entry with bytes that are not JSON — a
/// rotted disk block. Returns false if the entry does not exist.
pub fn corrupt_entry(dir: &Path, key: CacheKey) -> bool {
    let path = cache::entry_path(dir, key);
    path.is_file() && std::fs::write(&path, b"\x00chaos rot\xff\xfe not json").is_ok()
}

/// Truncate a cell's cache entry to half its length — the torn tail a
/// kill mid-write (without the tmp+rename discipline) would leave.
/// Byte-based on purpose: truncation must not care about UTF-8
/// boundaries. Returns false if the entry does not exist.
pub fn truncate_entry(dir: &Path, key: CacheKey) -> bool {
    let path = cache::entry_path(dir, key);
    let Ok(bytes) = std::fs::read(&path) else { return false };
    std::fs::write(&path, &bytes[..bytes.len() / 2]).is_ok()
}

/// Strand a fake `*.tmp.*` temp-file sibling next to a cell's entry —
/// what a SIGKILL between temp write and rename leaves behind for
/// `cache::sweep_stats` to collect. Returns the stranded path.
pub fn strand_tmp(dir: &Path, key: CacheKey) -> std::io::Result<PathBuf> {
    let path = cache::entry_path(dir, key);
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    let tmp = path.with_file_name(format!(
        "{}.tmp.999999.0",
        path.file_name().map(|n| n.to_string_lossy().into_owned()).unwrap_or_default()
    ));
    std::fs::write(&tmp, "chaos: torn half-written entry")?;
    Ok(tmp)
}

/// Install (once, process-wide) a panic hook that silences panics whose
/// message carries the `"chaos:"` marker and forwards everything else to
/// the previous hook. Worker-thread panics are not captured by the test
/// harness, so without this every *expected* injected fault would spray
/// backtrace noise over the test output and bury a real failure.
pub fn quiet_injected_panics() {
    use std::sync::Once;
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .map(|s| s.contains("chaos:"))
                .unwrap_or(false)
                || info
                    .payload()
                    .downcast_ref::<&str>()
                    .map(|s| s.contains("chaos:"))
                    .unwrap_or(false);
            if !injected {
                default(info);
            }
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use jsonio::Json;

    fn spec(cell: &str) -> CellSpec {
        CellSpec {
            experiment: "chaos-test".into(),
            cell: cell.into(),
            params: Json::Null,
            seed: 7,
            reps: 1,
        }
    }

    #[test]
    fn schedules_are_deterministic_and_seed_sensitive() {
        let mut plan = ChaosPlan::calm(42);
        plan.transient_per_mille = 300;
        plan.permanent_per_mille = 100;
        plan.straggler_per_mille = 200;
        let draws: Vec<Fault> = (0..64).map(|i| plan.fault_for(&spec(&format!("c{i}")))).collect();
        let again: Vec<Fault> = (0..64).map(|i| plan.fault_for(&spec(&format!("c{i}")))).collect();
        assert_eq!(draws, again, "same plan, same schedule");
        let mut other = plan.clone();
        other.seed = 43;
        let moved: Vec<Fault> = (0..64).map(|i| other.fault_for(&spec(&format!("c{i}")))).collect();
        assert_ne!(draws, moved, "a different seed must move the schedule");
        assert!(
            draws.iter().any(|f| *f != Fault::None),
            "with these rates, 64 cells must draw at least one fault"
        );
    }

    #[test]
    fn pinned_faults_override_draws() {
        let mut plan = ChaosPlan::calm(1);
        plan.pinned.push(("c3".into(), Fault::PanicAlways));
        assert_eq!(plan.fault_for(&spec("c3")), Fault::PanicAlways);
        assert_eq!(plan.fault_for(&spec("c4")), Fault::None);
    }

    #[test]
    fn afflicted_transient_cell_panics_then_recovers() {
        quiet_injected_panics();
        let mut plan = ChaosPlan::calm(1);
        plan.pinned.push(("c0".into(), Fault::PanicFirst(2)));
        let cells = vec![Cell::new(spec("c0"), || Json::U64(11))];
        let cells = afflict(&plan, cells);
        let work = &cells[0].work;
        for _ in 0..2 {
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(work));
            assert!(r.is_err(), "first two attempts panic");
        }
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(work));
        assert_eq!(r.ok(), Some(Ok(Json::U64(11))), "third attempt yields the real payload");
    }

    #[test]
    fn invalid_fault_rejects_with_a_structured_reason() {
        let mut plan = ChaosPlan::calm(1);
        plan.pinned.push(("c0".into(), Fault::Invalid));
        let cells = afflict(&plan, vec![Cell::new(spec("c0"), || Json::U64(11))]);
        let reason = (cells[0].work)().expect_err("invalid fault must reject");
        assert_eq!(reason.get("kind").and_then(|k| k.as_str()), Some("chaos-invalid"));
        assert!(reason.get("message").and_then(|m| m.as_str()).is_some_and(|m| m.contains("c0")));
    }
}
