//! End-to-end guard on `smi-lab all`, driven through the real binary:
//! one `all --quick` campaign, then every artifact's own command with
//! `--resume` on the same cache. Each single command must be served
//! entirely from the cells `all` stored, and together they must
//! reproduce `all`'s records and stdout byte for byte — so `all` and the
//! single commands build the same cells and print the same artifacts.

use std::path::{Path, PathBuf};
use std::process::Command;

/// Every artifact command in `all` order; `true` marks an X study,
/// after which `all` prints one extra blank line.
const COMMANDS: [(&str, bool); 17] = [
    ("table1", false),
    ("table2", false),
    ("table3", false),
    ("table4", false),
    ("table5", false),
    ("figure1", false),
    ("figure2", false),
    ("noise", false),
    ("detect", true),
    ("bits", true),
    ("attribution", true),
    ("absorption", true),
    ("unixbench", true),
    ("scale", true),
    ("variance", true),
    ("energy", true),
    ("mops", true),
];

fn tmp_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("smi-lab-artifacts-e2e-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create tmp dir");
    dir
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// Run `smi-lab <command> --quick --jobs 2 [extra..]` on `cache`, write
/// records to `records`, and return stdout; the run must exit clean.
fn smi_lab(command: &str, cache: &Path, records: &Path, extra: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_smi-lab"))
        .args([command, "--quick", "--jobs", "2", "--cache-dir"])
        .arg(cache)
        .arg("--records")
        .arg(records)
        .args(extra)
        .output()
        .expect("run smi-lab");
    assert!(out.status.success(), "{command}: {}", String::from_utf8_lossy(&out.stderr));
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

/// `(cells_cached, cells_total)` of a campaign's manifest.
fn cached_and_total(cache: &Path, label: &str) -> (u64, u64) {
    let manifest = read(&cache.join(format!("manifests/{label}.json")));
    let parsed = jsonio::Json::parse(&manifest).expect("manifest parses");
    let count = |k: &str| parsed.get(k).and_then(|v| v.as_u64()).expect("manifest count");
    (count("cells_cached"), count("cells_total"))
}

#[test]
fn single_commands_resume_from_all_and_reproduce_its_bytes() {
    let dir = tmp_dir("all");
    let cache = dir.join("cache");
    let all_stdout = smi_lab("all", &cache, &dir.join("all.jsonl"), &[]);

    let mut records = String::new();
    let mut stdout = String::new();
    for (command, study) in COMMANDS {
        let path = dir.join(format!("{command}.jsonl"));
        stdout.push_str(&smi_lab(command, &cache, &path, &["--resume"]));
        if study {
            stdout.push('\n');
        }
        records.push_str(&read(&path));
        let label = if study { format!("x-{command}") } else { command.to_string() };
        let (cached, total) = cached_and_total(&cache, &label);
        assert!(total > 0, "{command} ran cells");
        assert_eq!(cached, total, "{command} must be served entirely from `all`'s cells");
    }
    assert_eq!(records, read(&dir.join("all.jsonl")), "per-command records concatenate to all's");
    assert_eq!(stdout, all_stdout, "per-command stdout concatenates to all's");
    let _ = std::fs::remove_dir_all(&dir);
}
