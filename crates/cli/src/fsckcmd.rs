//! `smi-lab fsck` — audit (and optionally repair) the shared result
//! store: orphaned temp files, torn or misfiled entries, dangling index
//! references, unresolved write intents, and torn journal tails.
//! Campaign lock files are never findings and are never removed: the
//! kernel lock on one dies with its holder.
//!
//! ```text
//! smi-lab fsck [--cache-dir DIR] [--repair] [--compact] [--format text|json]
//! ```
//!
//! Exit code 0 means the store is Clean — after repair, when `--repair`
//! was given (the audit re-scans to prove the repair took). Exit 1 means
//! findings remain; exit 2 is a usage error. `--compact` additionally
//! reclaims objects no campaign index references (implies nothing about
//! repair; the two compose).

use jsonio::Json;
use runner::store;
use runner::vfs::Vfs;
use std::path::PathBuf;

const USAGE: &str =
    "usage: smi-lab fsck [--cache-dir DIR] [--repair] [--compact] [--format text|json]";

struct FsckArgs {
    cache_dir: PathBuf,
    repair: bool,
    compact: bool,
    json: bool,
}

fn parse(argv: &[String]) -> Result<FsckArgs, String> {
    let mut args = FsckArgs {
        cache_dir: PathBuf::from("results/cache"),
        repair: false,
        compact: false,
        json: false,
    };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--cache-dir" => {
                args.cache_dir = it.next().ok_or("--cache-dir needs a directory")?.into();
            }
            "--repair" => args.repair = true,
            "--compact" => args.compact = true,
            "--format" => match it.next().map(String::as_str) {
                Some("text") => args.json = false,
                Some("json") => args.json = true,
                other => return Err(format!("--format wants text or json, got {other:?}")),
            },
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

pub fn run_cli(argv: &[String]) -> i32 {
    let args = match parse(argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return 2;
        }
    };
    // A store that was never created has nothing to audit — that is
    // Clean, not an error, so CI can fsck before any campaign ran.
    if !args.cache_dir.is_dir() {
        if args.json {
            println!(
                "{}",
                Json::obj(vec![
                    ("clean", Json::Bool(true)),
                    ("repaired", Json::U64(0)),
                    ("findings", Json::Arr(Vec::new())),
                ])
                .to_string()
            );
        } else {
            eprintln!("fsck: {} does not exist; nothing to audit", args.cache_dir.display());
        }
        return 0;
    }

    let audit = store::fsck(&args.cache_dir, args.repair);
    // After a repair pass, a fresh audit is the proof the repair took:
    // its verdict (not the repairing pass's) decides the exit code.
    let verdict = if args.repair { store::fsck(&args.cache_dir, false) } else { audit.clone() };
    let compacted = args.compact.then(|| store::compact(&args.cache_dir, &Vfs::real()));

    if args.json {
        // The findings listed are the repairing pass's (what was found
        // and fixed); `clean` is the re-scan's verdict.
        let mut doc = audit.to_json();
        if let Json::Obj(fields) = &mut doc {
            for (k, v) in fields.iter_mut() {
                if k == "clean" {
                    *v = Json::Bool(verdict.is_clean());
                }
            }
            if let Some(c) = &compacted {
                fields.push((
                    "compacted".to_string(),
                    Json::obj(vec![
                        ("index_files", Json::U64(c.index_files)),
                        ("referenced", Json::U64(c.referenced)),
                        ("removed", Json::U64(c.removed)),
                        ("kept", Json::U64(c.kept)),
                    ]),
                ));
            }
        }
        println!("{}", doc.to_string());
    } else {
        for f in &audit.findings {
            println!("{}: {} ({})", f.kind.label(), f.path, f.detail);
        }
        if let Some(c) = &compacted {
            eprintln!(
                "fsck: compacted — {} object(s) removed, {} kept ({} referenced by {} index(es))",
                c.removed, c.kept, c.referenced, c.index_files
            );
        }
        let state = if verdict.is_clean() { "Clean" } else { "damaged" };
        eprintln!(
            "fsck: {} — {} finding(s), {} repaired ({})",
            state,
            audit.findings.len(),
            audit.repaired,
            args.cache_dir.display()
        );
    }
    if verdict.is_clean() {
        0
    } else {
        1
    }
}
