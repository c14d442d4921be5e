//! Crash-safe resume: a campaign killed mid-flight (simulated by
//! truncating the completion journal and deleting the cache entries of
//! the cells that "never ran") resumes recomputing exactly the missing
//! cells, and the journal read-back accounts for the prior progress.

use jsonio::Json;
use runner::journal::{journal_path, Journal, Status};
use runner::{cache, Cell, CellSpec, Runner};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("smi-lab-journal-resume-{}-{}", std::process::id(), tag));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create tmp cache dir");
    dir
}

fn campaign(n: u64, executions: &Arc<AtomicU64>) -> Vec<Cell> {
    (0..n)
        .map(|i| {
            let executions = Arc::clone(executions);
            Cell::new(
                CellSpec {
                    experiment: "resume".into(),
                    cell: format!("c{i}"),
                    params: Json::obj(vec![("i", Json::U64(i))]),
                    seed: 99,
                    reps: 1,
                },
                move || {
                    executions.fetch_add(1, Ordering::Relaxed);
                    Json::obj(vec![("value", Json::U64(i * 7))])
                },
            )
        })
        .collect()
}

#[test]
fn sigkilled_campaign_resumes_recomputing_only_unjournaled_cells() {
    let dir = tmp_dir("sigkill");
    let executions = Arc::new(AtomicU64::new(0));
    const N: u64 = 10;
    const SURVIVED: usize = 4;

    // Serial so journal completion order is submission order — the
    // truncation below then maps to a known prefix of cells.
    let mut runner = Runner::new(1);
    runner.cache_dir = dir.clone();
    runner.verbose = false;
    let reference = runner.run("camp", campaign(N, &executions));
    assert_eq!(executions.load(Ordering::Relaxed), N);

    // Simulate SIGKILL after the fourth cell completed: keep the first
    // four journal lines plus a torn fragment of the fifth (the one
    // write_all the kill interrupted), and erase the cache entries of
    // every cell past the fourth — at kill time they had not run.
    let jpath = journal_path(&dir, "camp");
    let text = std::fs::read_to_string(&jpath).expect("journal exists");
    assert_eq!(text.lines().count() as u64, N, "one journal line per cell");
    let mut kept: String = text.lines().take(SURVIVED).map(|l| format!("{l}\n")).collect();
    kept.push_str("{\"schema\":1,\"key\":\"00ab");
    std::fs::write(&jpath, kept).expect("truncate journal");
    for outcome in reference.outcomes.iter().skip(SURVIVED) {
        std::fs::remove_file(cache::entry_path(&dir, outcome.key)).expect("erase cache entry");
    }

    // Resume: only the un-journaled cells recompute.
    let resumed = runner.run("camp", campaign(N, &executions));
    assert_eq!(
        executions.load(Ordering::Relaxed),
        N + (N - SURVIVED as u64),
        "resume recomputes exactly the cells the kill lost"
    );
    assert_eq!(resumed.journal_prior_ok, SURVIVED as u64, "torn tail ignored, prefix counted");
    assert_eq!(resumed.cells_cached, SURVIVED as u64);
    assert_eq!(resumed.cells_failed, 0);
    assert_eq!(
        resumed.records_jsonl(),
        reference.records_jsonl(),
        "resumed campaign is byte-identical to the uninterrupted one"
    );

    // The healed journal now covers every cell again.
    let journal = Journal::load(&jpath);
    for outcome in &resumed.outcomes {
        assert_eq!(journal.status(outcome.key), Some(Status::Ok));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn journal_accumulates_across_distinct_labels_independently() {
    let dir = tmp_dir("labels");
    let executions = Arc::new(AtomicU64::new(0));
    let mut runner = Runner::new(2);
    runner.cache_dir = dir.clone();
    runner.verbose = false;
    runner.run("alpha", campaign(3, &executions));
    runner.run("beta", campaign(3, &executions));
    assert!(journal_path(&dir, "alpha").is_file());
    assert!(journal_path(&dir, "beta").is_file());
    assert_eq!(Journal::load(&journal_path(&dir, "alpha")).len(), 3);
    // Same cells, same cache keys: beta's run hit the cache alpha warmed,
    // and journaled those hits in its own file.
    assert_eq!(executions.load(Ordering::Relaxed), 3);
    assert_eq!(Journal::load(&journal_path(&dir, "beta")).len(), 3);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fully_cached_resume_leaves_the_journal_byte_identical() {
    let dir = tmp_dir("cached-resume");
    let executions = Arc::new(AtomicU64::new(0));
    const N: u64 = 6;
    let mut runner = Runner::new(2);
    runner.cache_dir = dir.clone();
    runner.verbose = false;
    let cold = runner.run("camp", campaign(N, &executions));
    let jpath = journal_path(&dir, "camp");
    let after_cold = std::fs::read(&jpath).expect("journal exists");
    assert_eq!(after_cold.iter().filter(|&&b| b == b'\n').count() as u64, N);
    for round in 1..=2 {
        let resumed = runner.run("camp", campaign(N, &executions));
        assert_eq!(resumed.cells_cached, N, "round {round}: every cell is a store hit");
        assert_eq!(resumed.journal_prior_ok, N, "round {round}: every cell journaled ok");
        assert_eq!(resumed.records_jsonl(), cold.records_jsonl());
        assert_eq!(
            std::fs::read(&jpath).expect("journal exists"),
            after_cold,
            "round {round}: a fully cached resume appends nothing"
        );
    }
    assert_eq!(executions.load(Ordering::Relaxed), N);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_failed_line_is_followed_by_ok_on_resume() {
    let dir = tmp_dir("failed-then-hit");
    let executions = Arc::new(AtomicU64::new(0));
    let mut runner = Runner::new(1);
    runner.cache_dir = dir.clone();
    runner.verbose = false;
    let cold = runner.run("camp", campaign(3, &executions));
    // Leave c1's last journal line `failed`, as a later run that
    // quarantined the cell would, while its store entry stays intact.
    let jpath = journal_path(&dir, "camp");
    let failed_key = cold.outcomes[1].key;
    let line = Json::obj(vec![
        ("schema", Json::U64(1)),
        ("key", Json::Str(failed_key.hex())),
        ("cell", Json::Str("c1".into())),
        ("status", Json::Str("failed".into())),
        ("attempts", Json::U64(3)),
    ]);
    let mut text = std::fs::read_to_string(&jpath).expect("journal exists");
    text.push_str(&line.to_string());
    text.push('\n');
    std::fs::write(&jpath, &text).expect("append failed line");
    assert_eq!(Journal::load(&jpath).status(failed_key), Some(Status::Failed));

    let resumed = runner.run("camp", campaign(3, &executions));
    assert_eq!(resumed.cells_cached, 3, "c1 now hits the store");
    assert_eq!(resumed.journal_prior_ok, 2, "c1's last line said failed");
    let after = std::fs::read_to_string(&jpath).expect("journal exists");
    let appended: Vec<&str> = after[text.len()..].lines().collect();
    assert_eq!(appended.len(), 1, "only the cell whose status changed is journaled");
    let appended = Json::parse(appended[0]).expect("journal line parses");
    assert_eq!(appended.get("key").and_then(Json::as_str), Some(failed_key.hex().as_str()));
    assert_eq!(appended.get("status").and_then(Json::as_str), Some("ok"));
    assert_eq!(Journal::load(&jpath).status(failed_key), Some(Status::Ok));
    assert_eq!(executions.load(Ordering::Relaxed), 3);
    let _ = std::fs::remove_dir_all(&dir);
}
