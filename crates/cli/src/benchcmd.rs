//! `smi-lab bench` — run the engine hot-path benchmark suite and write
//! the `BENCH_engine.json` perf-trajectory point.
//!
//! Own flag grammar (like `smi-lab lint`), routed before the experiment
//! arg parser:
//!
//! ```text
//! smi-lab bench [--samples N] [--out PATH]
//!               [--gate BASELINE.json] [--gate-margin PCT]
//! ```
//!
//! The suite (see `bench::suite`) is run at exactly `--samples` timed
//! passes per case; the report records min/median/p95/max over every
//! sample and the distribution-free confidence interval on the median
//! (`bench::median_ci_ranks`). After writing, the file is read back and
//! re-verified through `jsonio` — it must parse, contain every suite
//! case at the requested sample count, and keep each case's statistics
//! ordered `min ≤ ci_lo ≤ median ≤ ci_hi ≤ max` — so CI's bench-smoke
//! stage can trust a zero exit.
//!
//! `--gate BASELINE.json` turns the run into a regression gate: each
//! case's median interval is compared against the baseline's
//! `[ci_lo_ns, ci_hi_ns]` widened by `--gate-margin` percent (default
//! 25). Disjoint-and-slower is a `regression`, disjoint-and-faster an
//! `improvement`, overlapping `ok`, and a case absent from the baseline
//! `new` — overlapping confidence intervals are *indistinguishable*, so
//! median-ratio noise can no longer fail a build on its own. The
//! baseline must be of the current schema: an older report holds a
//! different statistic, so gating against it is a usage error. The
//! verdicts are printed as one machine-readable JSON document on
//! stdout. Exit codes: 0 report written/verified and no regression,
//! 1 verification failed or any case regressed, 2 usage error
//! (including an unreadable or older-schema baseline).

use bench::fmt_ns;
use bench::suite::{engine_suite_names, run_engine_suite, suite_json, BENCH_SCHEMA};
use jsonio::Json;

/// Default timed passes per case: enough for a stable median on the
/// sub-millisecond cases without making the end-to-end engine case slow.
const DEFAULT_SAMPLES: usize = 40;
const DEFAULT_OUT: &str = "results/BENCH_engine.json";

/// Baseline intervals widened by this percentage before the overlap
/// test, absorbing machine-to-machine spread when gating against a
/// committed baseline.
const DEFAULT_GATE_MARGIN_PCT: f64 = 25.0;

struct BenchArgs {
    samples: usize,
    out: String,
    gate: Option<String>,
    gate_margin_pct: f64,
}

fn parse(argv: &[String]) -> Result<BenchArgs, String> {
    let mut args = BenchArgs {
        samples: DEFAULT_SAMPLES,
        out: DEFAULT_OUT.to_string(),
        gate: None,
        gate_margin_pct: DEFAULT_GATE_MARGIN_PCT,
    };
    let mut gate_margin_set = false;
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--samples" => {
                let v = it.next().ok_or("--samples needs a value")?;
                args.samples = v.parse().map_err(|_| format!("bad --samples {v}"))?;
                if args.samples == 0 {
                    return Err("--samples must be at least 1".to_string());
                }
            }
            "--out" => {
                args.out = it.next().ok_or("--out needs a value")?.clone();
            }
            "--gate" => {
                args.gate = Some(it.next().ok_or("--gate needs a baseline json path")?.clone());
            }
            "--gate-margin" => {
                let v = it.next().ok_or("--gate-margin needs a percentage")?;
                args.gate_margin_pct = v.parse().map_err(|_| format!("bad --gate-margin {v}"))?;
                if !(args.gate_margin_pct >= 0.0 && args.gate_margin_pct.is_finite()) {
                    return Err("--gate-margin must be a finite percentage >= 0".to_string());
                }
                gate_margin_set = true;
            }
            other => return Err(format!("unknown bench flag {other:?}")),
        }
    }
    if gate_margin_set && args.gate.is_none() {
        return Err("--gate-margin needs --gate".to_string());
    }
    Ok(args)
}

/// Verify a written report: parses via jsonio, right schema/suite,
/// every expected case present with exactly `samples` samples, and each
/// case's statistics ordered `min ≤ ci_lo ≤ median ≤ ci_hi ≤ max`, so a
/// report cannot put a statistic outside its own interval.
fn verify_report(text: &str, samples: usize) -> Result<(), String> {
    let doc = Json::parse(text).map_err(|e| format!("report does not parse: {e:?}"))?;
    if doc.get("schema").and_then(|s| s.as_u64()) != Some(BENCH_SCHEMA) {
        return Err(format!("schema is not {BENCH_SCHEMA}"));
    }
    if doc.get("suite").and_then(|s| s.as_str()) != Some("engine") {
        return Err("suite is not \"engine\"".to_string());
    }
    let benches =
        doc.get("benchmarks").and_then(|b| b.as_array()).ok_or("missing benchmarks array")?;
    for name in engine_suite_names() {
        let entry = benches
            .iter()
            .find(|b| b.get("name").and_then(|n| n.as_str()) == Some(name))
            .ok_or_else(|| format!("benchmark {name:?} missing from report"))?;
        if entry.get("samples").and_then(|s| s.as_u64()) != Some(samples as u64) {
            return Err(format!("benchmark {name:?} did not run {samples} samples"));
        }
        let field = |f: &str| {
            entry.get(f).and_then(|v| v.as_u64()).ok_or(format!("benchmark {name:?} missing {f}"))
        };
        field("p95_ns")?;
        let chain = ["min_ns", "ci_lo_ns", "median_ns", "ci_hi_ns", "max_ns"];
        let values = chain.iter().map(|f| field(f)).collect::<Result<Vec<u64>, String>>()?;
        if let Some(k) = (1..chain.len()).find(|&k| values[k - 1] > values[k]) {
            return Err(format!(
                "benchmark {name:?}: {} {} exceeds {} {}",
                chain[k - 1],
                values[k - 1],
                chain[k],
                values[k]
            ));
        }
    }
    Ok(())
}

/// Read a `--gate` baseline: it must parse and be of the current schema.
/// An older report carries a different statistic (schema 2 a bootstrap
/// interval on the mean, schema 1 none at all), so it is refused.
fn read_baseline(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    let doc = Json::parse(&text).map_err(|e| format!("does not parse: {e:?}"))?;
    match doc.get("schema").and_then(|s| s.as_u64()) {
        Some(BENCH_SCHEMA) => Ok(doc),
        other => Err(format!(
            "schema {} is not {BENCH_SCHEMA}; regenerate the baseline with `smi-lab bench`",
            other.map_or_else(|| "missing".to_string(), |v| v.to_string())
        )),
    }
}

/// A case's median confidence interval, `[ci_lo_ns, ci_hi_ns]`.
fn case_interval(entry: &Json) -> Option<(f64, f64)> {
    let get = |k: &str| entry.get(k).and_then(|v| v.as_u64()).map(|v| v as f64);
    Some((get("ci_lo_ns")?, get("ci_hi_ns")?))
}

/// One per-case gate verdict.
struct GateVerdict {
    name: String,
    verdict: &'static str,
    current: (f64, f64),
    baseline: Option<(f64, f64)>,
}

/// Compare a fresh report against a baseline document case by case:
/// intervals that overlap (after widening the baseline by
/// `margin_pct` %) are statistically indistinguishable (`ok`); a
/// current interval entirely above the widened baseline is a
/// `regression`, entirely below an `improvement`; cases the baseline
/// lacks are `new`.
fn gate_verdicts(current: &Json, baseline: &Json, margin_pct: f64) -> Vec<GateVerdict> {
    let empty = Vec::new();
    let base_entries = baseline.get("benchmarks").and_then(|b| b.as_array()).unwrap_or(&empty);
    let cur_entries = current.get("benchmarks").and_then(|b| b.as_array()).unwrap_or(&empty);
    let scale = margin_pct / 100.0;
    cur_entries
        .iter()
        .filter_map(|entry| {
            let name = entry.get("name").and_then(|n| n.as_str())?.to_string();
            let cur = case_interval(entry)?;
            let base = base_entries
                .iter()
                .find(|b| b.get("name").and_then(|n| n.as_str()).is_some_and(|n| n == name))
                .and_then(case_interval);
            let verdict = match base {
                None => "new",
                Some((blo, bhi)) => {
                    let wlo = blo * (1.0 - scale);
                    let whi = bhi * (1.0 + scale);
                    if cur.0 > whi {
                        "regression"
                    } else if cur.1 < wlo {
                        "improvement"
                    } else {
                        "ok"
                    }
                }
            };
            Some(GateVerdict { name, verdict, current: cur, baseline: base })
        })
        .collect()
}

/// Render gate verdicts as the machine-readable stdout document.
fn gate_json(baseline_path: &str, margin_pct: f64, verdicts: &[GateVerdict]) -> Json {
    let regressions = verdicts.iter().filter(|v| v.verdict == "regression").count();
    Json::obj(vec![(
        "gate",
        Json::obj(vec![
            ("baseline", Json::Str(baseline_path.to_string())),
            ("margin_pct", Json::F64(margin_pct)),
            ("regressions", Json::U64(regressions as u64)),
            (
                "verdicts",
                Json::Arr(
                    verdicts
                        .iter()
                        .map(|v| {
                            let mut fields = vec![
                                ("name".to_string(), Json::Str(v.name.clone())),
                                ("verdict".to_string(), Json::Str(v.verdict.to_string())),
                                ("current_lo_ns".to_string(), Json::F64(v.current.0)),
                                ("current_hi_ns".to_string(), Json::F64(v.current.1)),
                            ];
                            if let Some((blo, bhi)) = v.baseline {
                                fields.push(("baseline_lo_ns".to_string(), Json::F64(blo)));
                                fields.push(("baseline_hi_ns".to_string(), Json::F64(bhi)));
                            }
                            Json::Obj(fields)
                        })
                        .collect(),
                ),
            ),
        ]),
    )])
}

/// Entry point for `smi-lab bench <flags>`; returns the process exit code.
pub fn run_cli(argv: &[String]) -> i32 {
    let args = match parse(argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: smi-lab bench [--samples N] [--out PATH] \
                 [--gate BASELINE.json] [--gate-margin PCT]"
            );
            return 2;
        }
    };
    // Read the baseline before spending bench time: an unreadable gate
    // input is a usage error, not a regression.
    let gate_baseline = match &args.gate {
        None => None,
        Some(path) => match read_baseline(path) {
            Ok(doc) => Some((path.clone(), doc)),
            Err(e) => {
                eprintln!("error: gate baseline {path}: {e}");
                return 2;
            }
        },
    };
    eprintln!("running engine suite ({} samples per case)...", args.samples);
    let results = run_engine_suite(args.samples);
    for s in &results {
        eprintln!(
            "bench {:<32} [min {} p50 {} p95 {}]",
            s.name,
            fmt_ns(s.min_ns()),
            fmt_ns(s.median_ns()),
            fmt_ns(s.p95_ns()),
        );
    }
    let doc = suite_json(args.samples, &results);
    let text = doc.to_string_pretty();
    if let Some(parent) = std::path::Path::new(&args.out).parent() {
        if !parent.as_os_str().is_empty() {
            if let Err(e) = std::fs::create_dir_all(parent) {
                eprintln!("error: create {}: {e}", parent.display());
                return 1;
            }
        }
    }
    if let Err(e) = std::fs::write(&args.out, &text) {
        eprintln!("error: write {}: {e}", args.out);
        return 1;
    }
    // Trust nothing: re-read what landed on disk and verify it.
    let on_disk = match std::fs::read_to_string(&args.out) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: re-read {}: {e}", args.out);
            return 1;
        }
    };
    if let Err(e) = verify_report(&on_disk, args.samples) {
        eprintln!("error: report verification failed: {e}");
        return 1;
    }
    eprintln!("wrote {} ({} benchmarks, verified)", args.out, results.len());
    if let Some((path, baseline)) = gate_baseline {
        let verdicts = gate_verdicts(&doc, &baseline, args.gate_margin_pct);
        println!("{}", gate_json(&path, args.gate_margin_pct, &verdicts).to_string_pretty());
        let mut regressed = false;
        for v in &verdicts {
            let base = v
                .baseline
                .map(|(lo, hi)| format!("[{} .. {}]", fmt_ns(lo as u64), fmt_ns(hi as u64)))
                .unwrap_or_else(|| "(absent)".to_string());
            eprintln!(
                "gate {:<32} {:<11} current [{} .. {}] baseline {base}",
                v.name,
                v.verdict,
                fmt_ns(v.current.0 as u64),
                fmt_ns(v.current.1 as u64),
            );
            regressed |= v.verdict == "regression";
        }
        if regressed {
            eprintln!(
                "gate FAILED against {path}: confidence intervals are disjoint beyond the \
                 {}% margin",
                args.gate_margin_pct
            );
            return 1;
        }
        eprintln!("gate passed against {path} ({} cases)", verdicts.len());
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;
    use bench::Summary;

    #[test]
    fn parse_defaults_and_flags() {
        let a = parse(&[]).expect("defaults");
        assert_eq!(a.samples, DEFAULT_SAMPLES);
        assert_eq!(a.out, DEFAULT_OUT);
        assert!(a.gate.is_none());
        assert_eq!(a.gate_margin_pct, DEFAULT_GATE_MARGIN_PCT);
        let argv: Vec<String> =
            ["--samples", "3", "--out", "x.json", "--gate", "b.json", "--gate-margin", "10"]
                .iter()
                .map(|s| s.to_string())
                .collect();
        let a = parse(&argv).expect("flags");
        assert_eq!(a.samples, 3);
        assert_eq!(a.out, "x.json");
        assert_eq!(a.gate.as_deref(), Some("b.json"));
        assert_eq!(a.gate_margin_pct, 10.0);
        assert!(parse(&["--json".to_string()]).is_err(), "--json is gone");
        assert!(parse(&["--samples".to_string(), "0".to_string()]).is_err());
        assert!(parse(&["--wat".to_string()]).is_err());
        assert!(
            parse(&["--gate-margin".to_string(), "10".to_string()]).is_err(),
            "--gate-margin without --gate"
        );
        assert!(parse(&[
            "--gate".to_string(),
            "b.json".to_string(),
            "--gate-margin".to_string(),
            "-1".to_string()
        ])
        .is_err());
    }

    /// A minimal current-schema report with one case at the given interval.
    fn report_with(name: &str, lo: u64, hi: u64) -> Json {
        Json::obj(vec![
            ("schema", Json::U64(BENCH_SCHEMA)),
            ("suite", Json::Str("engine".into())),
            (
                "benchmarks",
                Json::Arr(vec![Json::obj(vec![
                    ("name", Json::Str(name.to_string())),
                    ("ci_lo_ns", Json::U64(lo)),
                    ("ci_hi_ns", Json::U64(hi)),
                ])]),
            ),
        ])
    }

    #[test]
    fn gate_verdicts_classify_by_interval_overlap() {
        // Overlap (even partial) is indistinguishable: ok.
        let v = gate_verdicts(&report_with("c", 90, 110), &report_with("c", 100, 120), 0.0);
        assert_eq!(v[0].verdict, "ok");
        // Entirely above the widened baseline: regression.
        let v = gate_verdicts(&report_with("c", 200, 220), &report_with("c", 100, 120), 0.0);
        assert_eq!(v[0].verdict, "regression");
        // ... but a margin can absorb the gap: 100% widens 120 to 240.
        let v = gate_verdicts(&report_with("c", 200, 220), &report_with("c", 100, 120), 100.0);
        assert_eq!(v[0].verdict, "ok");
        // Entirely below: improvement.
        let v = gate_verdicts(&report_with("c", 10, 20), &report_with("c", 100, 120), 0.0);
        assert_eq!(v[0].verdict, "improvement");
        // Absent from the baseline: new (never fails the gate).
        let v = gate_verdicts(&report_with("fresh", 10, 20), &report_with("other", 1, 2), 0.0);
        assert_eq!(v[0].verdict, "new");
        assert!(v[0].baseline.is_none());
        // The machine-readable document counts regressions.
        let doc = gate_json(
            "b.json",
            0.0,
            &gate_verdicts(&report_with("c", 200, 220), &report_with("c", 100, 120), 0.0),
        );
        let gate = doc.get("gate").expect("gate object");
        assert_eq!(gate.get("regressions").and_then(|r| r.as_u64()), Some(1));
        let verdicts = gate.get("verdicts").and_then(|v| v.as_array()).expect("verdicts");
        assert_eq!(verdicts[0].get("verdict").and_then(|v| v.as_str()), Some("regression"));
    }

    #[test]
    fn gate_reads_only_current_schema_baselines() {
        let committed = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/BENCH_engine.json");
        read_baseline(committed).expect("the committed baseline is gateable");
        // The pre-optimization record is schema 1: kept, but not gateable.
        let pre = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/BENCH_engine_pre.json");
        let err = read_baseline(pre).expect_err("schema 1 refused");
        assert!(err.contains("schema 1 is not"), "{err}");
        assert!(read_baseline("/nonexistent/baseline.json").is_err());
    }

    /// A report of every suite case with the scripted samples.
    fn scripted_report(samples_ns: &[u64]) -> Json {
        let results: Vec<Summary> = engine_suite_names()
            .into_iter()
            .map(|name| Summary { name: name.to_string(), samples_ns: samples_ns.to_vec() })
            .collect();
        suite_json(samples_ns.len(), &results)
    }

    #[test]
    fn verify_report_catches_missing_cases_and_misplaced_statistics() {
        let samples: Vec<u64> = (1..=40).collect();
        let good = scripted_report(&samples).to_string_pretty();
        verify_report(&good, 40).expect("full report verifies");
        assert!(verify_report(&good, 3).is_err(), "wrong sample count");
        let one = [Summary { name: "event_queue_near_monotone".into(), samples_ns: samples }];
        let partial = suite_json(40, &one).to_string_pretty();
        assert!(verify_report(&partial, 40).is_err(), "missing cases");
        assert!(verify_report("{not json", 40).is_err());
        assert!(verify_report("{\"schema\": 2}", 40).is_err());
        // Ranks 13..28 of 1..=40: the interval is [13, 28] around 20. A
        // median outside it, as a schema-2 mean interval allowed, or an
        // interval end outside the sample range, fails.
        for (from, to) in [
            ("\"median_ns\": 20,", "\"median_ns\": 29,"),
            ("\"median_ns\": 20,", "\"median_ns\": 12,"),
            ("\"ci_hi_ns\": 28", "\"ci_hi_ns\": 41"),
            ("\"min_ns\": 1,", "\"min_ns\": 14,"),
        ] {
            assert!(good.contains(from), "{from} in {good}");
            let bad = good.replacen(from, to, 1);
            let err = verify_report(&bad, 40).expect_err(to);
            assert!(err.contains("exceeds"), "{err}");
        }
    }
}
