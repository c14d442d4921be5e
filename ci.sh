#!/bin/sh
# Hermetic CI gate: build, test, and lint the whole workspace with no
# network access. Any external dependency in any manifest breaks the
# --offline resolution here — see DESIGN.md §6 (dependency policy).
set -eux

cargo build --release --workspace --offline
# The campaign benchmark's traced replica (perfbench/tracer) links the
# runner's public API: build it here so an API change that breaks it
# fails CI, not the benchmark run.
cargo build --release --offline --locked --manifest-path perfbench/tracer/Cargo.toml
cargo test -q --workspace --offline
# Chaos gate: the seeded fault-injection suite (runner::chaos) proving
# panic isolation, retry/quarantine, cache-corruption recovery, orphan
# sweeping, and crash-safe resume — plus fault-path equivalence of the
# optimized engine hot path (radix-heap event queue / per-cell job
# lowering / freeze-window cursor / arena):
# real simulation cells retried under injected faults must reproduce
# the fault-free bytes (tests/chaos_engine_equivalence.rs), and the
# process-isolation gate (tests/isolate.rs): campaigns against a real
# worker subprocess surviving SIGKILL, abort(), hangs, and deadline
# kills with byte-identical surviving records. See DESIGN.md "Failure
# semantics", §10 "Performance methodology", and §13.
cargo test -q -p runner --features chaos --offline
cargo clippy --workspace --all-targets --offline -- -D warnings
cargo clippy -p runner --features chaos --all-targets --offline -- -D warnings
cargo fmt --check
# Lint-config canary (DESIGN.md §7): the line checks live in clippy.toml,
# [workspace.lints] and the record crates' root attributes, where a
# dropped entry fails nothing. Each fixture below is compiled as a
# throwaway record crate under the committed settings, and clippy must
# reject it naming the lint that replaced the retired smi-lint rule.
CANARY_DIR="$(mktemp -d)"
canary() { # fixture lint
    mkdir -p "$CANARY_DIR/$1/src"
    cp clippy.toml "$CANARY_DIR/$1/"
    {
        printf '[package]\nname = "canary"\nversion = "0.0.0"\nedition = "2021"\n\n[workspace]\n\n'
        sed -n '/^\[workspace\.lints/,/^$/p' Cargo.toml
        printf '[lints]\nworkspace = true\n'
    } > "$CANARY_DIR/$1/Cargo.toml"
    {
        grep '^#!\[deny(clippy::' crates/sim-core/src/lib.rs
        cat "crates/smi-lint/tests/fixtures/$1.rs"
    } > "$CANARY_DIR/$1/src/lib.rs"
    rc=0
    cargo clippy --offline --manifest-path "$CANARY_DIR/$1/Cargo.toml" \
        --target-dir "$CANARY_DIR/target" -- -D warnings > "$CANARY_DIR/$1.log" 2>&1 || rc=$?
    test "$rc" -ne 0
    grep -Eq "$2" "$CANARY_DIR/$1.log"
}
canary smi001_hash_iter 'disallowed[-_]types'
canary smi002_wall_clock 'disallowed[-_]methods'
canary smi003_hermeticity 'disallowed[-_]methods'
canary smi004_no_panic 'unwrap[-_]used'
canary smi005_float_reduce 'disallowed[-_]types'
canary smi006_unsafe 'unsafe[-_]code'
rm -rf "$CANARY_DIR"
# Call-graph determinism lint (crates/smi-lint): fails on any finding of
# the whole-workspace passes (SMI007 taint reachability, SMI008
# lock-order cycles, SMI009 panic paths). See DESIGN.md §7 and §12. The
# JSON report (call chains included) must survive a jsonio round-trip.
LINT_SCRATCH="$(mktemp -d)"
cargo run -q --release -p smi-lint --offline -- --format json > "$LINT_SCRATCH/lint.json"
cargo run -q --release -p smi-lint --offline -- --verify-report "$LINT_SCRATCH/lint.json"
# Graph export smoke: both DOT renderings must produce parseable output.
cargo run -q --release -p smi-lint --offline -- --graph call > "$LINT_SCRATCH/calls.dot"
cargo run -q --release -p smi-lint --offline -- --graph lock > "$LINT_SCRATCH/locks.dot"
grep -q '^digraph calls' "$LINT_SCRATCH/calls.dot"
grep -q '^digraph locks' "$LINT_SCRATCH/locks.dot"
rm -rf "$LINT_SCRATCH"
# Validity gate: one table regeneration under the engine's full opt-in
# audit (--validate; DESIGN.md §9 "Simulation validity"). --no-cache so
# every cell actually runs the simulation instead of a cache hit.
# Tables 1 and 3 carry the paper-scale 64-rank (16 nodes x 4 ranks) BT
# and FT cells, so message conservation and the byte tally are audited
# at the scale the match queues see the most traffic.
# Each Tables 1/3 run also pins the engine work its manifest's "engine"
# block reports: events popped and engine runs (calibration iterations
# plus repetitions), so a change that adds or drops an engine run, or
# moves an event, fails here and not only in the campaign benchmark.
VALID_DIR="$(mktemp -d)"
engine_counts() { # manifest events runs
    grep -A5 '"engine": {' "$1" | grep -q "\"events_popped\": $2,"
    grep -A5 '"engine": {' "$1" | grep -q "\"runs\": $3,"
}
./target/release/smi-lab table2 --quick --validate --no-cache >/dev/null
./target/release/smi-lab table1 --quick --validate --no-cache \
    --cache-dir "$VALID_DIR/t1" >/dev/null
engine_counts "$VALID_DIR/t1/manifests/table1.json" 4519797 141
./target/release/smi-lab table3 --quick --validate --no-cache \
    --cache-dir "$VALID_DIR/t3" >/dev/null
engine_counts "$VALID_DIR/t3/manifests/table3.json" 2824722 222
# Again on the campaign benchmark's held-out seed: a second set of SMI
# phases through the freeze walk, so the freeze-coverage audit (work +
# frozen == span per schedule) sees window edges the default seed does not.
./target/release/smi-lab table1 --quick --validate --no-cache --seed 20167816 \
    --cache-dir "$VALID_DIR/t1s" >/dev/null
engine_counts "$VALID_DIR/t1s/manifests/table1.json" 4519797 141
./target/release/smi-lab table3 --quick --validate --no-cache --seed 20167816 \
    --cache-dir "$VALID_DIR/t3s" >/dev/null
engine_counts "$VALID_DIR/t3s/manifests/table3.json" 2824722 222
rm -rf "$VALID_DIR"
# Noise smoke: the noise-model subsystem end-to-end (crates/noise) —
# one campaign cell per fixed-budget scenario family through the real
# runner into a scratch cache. The binary itself re-reads the run
# manifest and re-parses it via jsonio (cli::verify_manifest); a
# non-zero exit means a cell quarantined or the manifest was malformed.
NOISE_SMOKE_DIR="$(mktemp -d)"
./target/release/smi-lab noise --quick --no-cache --cache-dir "$NOISE_SMOKE_DIR" >/dev/null
rm -rf "$NOISE_SMOKE_DIR"
# Isolation smoke: process-isolated campaign execution end-to-end
# (DESIGN.md §13). One campaign under --isolate with a worker SIGKILLed
# on a named cell must exit degraded (1) with the cell quarantined as
# worker-crash; a --resume without the kill must heal to exit 0
# recomputing only that cell; and the final records must be
# byte-identical to a plain in-process run — subprocess transport,
# crash recovery, and cache replay all invisible in the record bytes.
ISO_SMOKE_DIR="$(mktemp -d)"
./target/release/smi-lab table2 --quick --no-cache \
    --cache-dir "$ISO_SMOKE_DIR/cache" \
    --records "$ISO_SMOKE_DIR/inproc.jsonl" >/dev/null
rc=0
./target/release/smi-lab table2 --quick --jobs 2 --isolate \
    --isolate-kill A-n1-r1 \
    --cache-dir "$ISO_SMOKE_DIR/cache" >/dev/null 2>&1 || rc=$?
test "$rc" -eq 1
grep -q '"worker-crash"' "$ISO_SMOKE_DIR/cache/manifests/table2.json"
./target/release/smi-lab table2 --quick --jobs 2 --isolate --resume \
    --cache-dir "$ISO_SMOKE_DIR/cache" \
    --records "$ISO_SMOKE_DIR/isolated.jsonl" >/dev/null
cmp "$ISO_SMOKE_DIR/inproc.jsonl" "$ISO_SMOKE_DIR/isolated.jsonl"
rm -rf "$ISO_SMOKE_DIR"
# Durability gate: the content-addressed store and vfs fault injection
# end-to-end (DESIGN.md §14). A campaign under a seed-driven storm of
# torn writes, short reads, ENOSPC, EIO, rename failures, and dropped
# fsyncs must drain (exit 0 or degraded 1, never wedge); `smi-lab fsck
# --repair` must restore the store to Clean and a plain re-audit must
# agree; a clean --resume must recompute exactly the lost cells and
# produce records byte-identical to a fault-free run; and the final
# manifest must carry the typed storage account.
DUR_DIR="$(mktemp -d)"
./target/release/smi-lab table2 --quick --no-cache \
    --cache-dir "$DUR_DIR/ref-cache" \
    --records "$DUR_DIR/reference.jsonl" >/dev/null
rc=0
./target/release/smi-lab table2 --quick --jobs 1 \
    --cache-dir "$DUR_DIR/cache" \
    --vfs-faults "seed=7,torn=60,shortread=40,enospc=60,eio=40,renamefail=60,dropfsync=80" \
    >/dev/null 2>&1 || rc=$?
test "$rc" -le 1
./target/release/smi-lab fsck --cache-dir "$DUR_DIR/cache" --repair >/dev/null
./target/release/smi-lab fsck --cache-dir "$DUR_DIR/cache"
./target/release/smi-lab table2 --quick --jobs 1 --resume \
    --cache-dir "$DUR_DIR/cache" \
    --records "$DUR_DIR/survivors.jsonl" >/dev/null
cmp "$DUR_DIR/reference.jsonl" "$DUR_DIR/survivors.jsonl"
grep -q '"storage"' "$DUR_DIR/cache/manifests/table2.json"
rm -rf "$DUR_DIR"
# Resume start-up gate: the warm-resume start-up path end-to-end
# (DESIGN.md §14 "Start-up cost"). After a cold run, plant a stranded
# `.tmp.` file in one object shard, in journal/ and in manifests/, and
# tear the journal's tail mid-line. The --resume must exit 0, sweep one
# orphan per area, truncate the torn tail, replay the journal, produce
# records byte-identical to the cold run, leave the journal exactly as
# the cold run wrote it (the tail truncated, no line re-appended for a
# cell already journaled ok), and leave a store fsck calls Clean (exit 0).
RESUME_DIR="$(mktemp -d)"
./target/release/smi-lab table2 --quick --cache-dir "$RESUME_DIR/cache" \
    --records "$RESUME_DIR/cold.jsonl" >/dev/null
RESUME_SHARD="$(find "$RESUME_DIR/cache" -mindepth 1 -maxdepth 1 -type d -name '[0-9a-f][0-9a-f]' | sort | head -n 1)"
echo torn > "$RESUME_SHARD/planted.json.tmp.1.0"
echo torn > "$RESUME_DIR/cache/journal/table2.jsonl.tmp.1.0"
echo torn > "$RESUME_DIR/cache/manifests/table2.json.tmp.1.0"
cp "$RESUME_DIR/cache/journal/table2.jsonl" "$RESUME_DIR/cold-journal.jsonl"
printf '{"schema":1,"key":"00' >> "$RESUME_DIR/cache/journal/table2.jsonl"
./target/release/smi-lab table2 --quick --resume --cache-dir "$RESUME_DIR/cache" \
    --records "$RESUME_DIR/warm.jsonl" >/dev/null
cmp "$RESUME_DIR/cold.jsonl" "$RESUME_DIR/warm.jsonl"
cmp "$RESUME_DIR/cold-journal.jsonl" "$RESUME_DIR/cache/journal/table2.jsonl"
grep -q '"journal_torn_bytes": [1-9]' "$RESUME_DIR/cache/manifests/table2.json"
grep -q '"cache_tmp": 1,' "$RESUME_DIR/cache/manifests/table2.json"
grep -q '"journal_tmp": 1,' "$RESUME_DIR/cache/manifests/table2.json"
grep -q '"manifest_tmp": 1$' "$RESUME_DIR/cache/manifests/table2.json"
./target/release/smi-lab fsck --cache-dir "$RESUME_DIR/cache"
# A second fully cached --resume frees no disk block: it leaves the
# intent log byte-identical, and writes its manifest into the inode the
# previous write replaced (the spare), keeping the new one as the spare.
cp "$RESUME_DIR/cache/intent/table2.log" "$RESUME_DIR/warm-intent.log"
RESUME_SPARE_INO="$(stat -c %i "$RESUME_DIR/cache/manifests/table2.json.spare")"
./target/release/smi-lab table2 --quick --resume --cache-dir "$RESUME_DIR/cache" \
    --records "$RESUME_DIR/warm2.jsonl" >/dev/null
cmp "$RESUME_DIR/cold.jsonl" "$RESUME_DIR/warm2.jsonl"
cmp "$RESUME_DIR/warm-intent.log" "$RESUME_DIR/cache/intent/table2.log"
cmp "$RESUME_DIR/cold-journal.jsonl" "$RESUME_DIR/cache/journal/table2.jsonl"
test "$(ls "$RESUME_DIR/cache/manifests" | tr '\n' ' ')" = "table2.json table2.json.spare "
test "$(stat -c %i "$RESUME_DIR/cache/manifests/table2.json")" = "$RESUME_SPARE_INO"
./target/release/smi-lab fsck --cache-dir "$RESUME_DIR/cache"
rm -rf "$RESUME_DIR"
# Bench smoke: the perf harness end-to-end at a tiny sample count,
# writing to a scratch path so the committed BENCH_engine.json baseline
# (recorded at the default 40 samples) is never clobbered by CI. A zero
# exit certifies the report re-parsed via jsonio, every suite case ran
# at the requested sample count, and each case's statistics sit in the
# order min <= ci_lo <= median <= ci_hi <= max
# (cli::benchcmd::verify_report).
BENCH_SMOKE_OUT="$(mktemp -d)/BENCH_engine.json"
./target/release/smi-lab bench --samples 2 --out "$BENCH_SMOKE_OUT" >/dev/null
rm -rf "$(dirname "$BENCH_SMOKE_OUT")"
# Stats gate: adaptive sampling and CI-overlap bench gating end-to-end
# (DESIGN.md §15). An adaptive campaign at two-rep minimum must drain
# into a schema-6 manifest whose `stats` block carries the power check
# (the binary re-reads and re-parses the manifest itself via
# cli::verify_manifest; the greps below pin the machine-readable shape).
STATS_DIR="$(mktemp -d)"
./target/release/smi-lab table2 --quick --adaptive --max-reps 4 \
    --ci-target 0.02 --no-cache --cache-dir "$STATS_DIR/cache" >/dev/null
grep -q '"schema": 6' "$STATS_DIR/cache/manifests/table2.json"
grep -q '"designed"' "$STATS_DIR/cache/manifests/table2.json"
grep -q '"power"' "$STATS_DIR/cache/manifests/table2.json"
# A planted regression — one case whose baseline median interval sits
# far below anything the engine can do — must fail `bench --gate` with
# exit 1; the same baseline at schema 2 (a bootstrap interval on the
# mean, a different statistic) is refused as a usage error, exit 2,
# before the suite runs; and gating against the committed baseline
# (wide margin to absorb machine-to-machine noise at 2 samples) must
# pass with exit 0.
cat > "$STATS_DIR/planted.json" <<'EOF'
{
  "schema": 3,
  "benchmarks": [
    {"name": "event_queue_near_monotone", "ci_lo_ns": 1, "ci_hi_ns": 2}
  ]
}
EOF
rc=0
./target/release/smi-lab bench --samples 2 --out "$STATS_DIR/gated.json" \
    --gate "$STATS_DIR/planted.json" >/dev/null 2>&1 || rc=$?
test "$rc" -eq 1
sed 's/"schema": 3/"schema": 2/' "$STATS_DIR/planted.json" > "$STATS_DIR/schema2.json"
rc=0
./target/release/smi-lab bench --samples 2 --out "$STATS_DIR/gated.json" \
    --gate "$STATS_DIR/schema2.json" >/dev/null 2>&1 || rc=$?
test "$rc" -eq 2
./target/release/smi-lab bench --samples 2 --out "$STATS_DIR/gated.json" \
    --gate results/BENCH_engine.json --gate-margin 400 >/dev/null
rm -rf "$STATS_DIR"
