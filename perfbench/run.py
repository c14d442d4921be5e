#!/usr/bin/env python3
"""Campaign benchmark for smi-lab: end-to-end runs of the real binary,
a traced per-layer run, output checks, and a steadiness report.

Run from the root of a checkout:

    python3 perfbench/run.py --workload mpi-paper-cold --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --steadiness 10 --seconds 40 [--workload NAME]
    python3 perfbench/run.py --record-reference

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".bench_work"
REFERENCE = BENCH / "reference.json"

# The benchmark seed picks one of POOL recorded input sets, so every
# run's records can be checked against digests recorded at the commit
# that defined the benchmark. Pool entry i drives the program with seed
# BASE_SEED + 1000 * i (entry 0 is the paper's default seed); the sweeps
# use SWEEP_SEEDS consecutive seeds from there.
POOL = 8
BASE_SEED = 20160816
SWEEP_SEEDS = 32
DEFAULT_SEED = 0
HELDOUT_SEED = 7

# Traced-run integrity: per-layer self times must sum to the traced wall
# within this share of it.
SELF_SUM_TOLERANCE = 0.05
# Every program a run starts is killed once the run has lasted this long
# (and counted as failed), so a run always ends in bounded time.
RUN_TIMEOUT_S = 170.0
# A mpi-paper-cold run holds a single iteration, so two set-ups. It adds
# this many set-up rounds (see setup_probes), so its setup_s is a median
# like the sweeps'.
SETUP_PROBES = 8
_deadline = [0.0]


def start_run_clock():
    _deadline[0] = time.perf_counter() + RUN_TIMEOUT_S


def time_left():
    return max(_deadline[0] - time.perf_counter(), 0.0)

WORKLOADS = ("mpi-paper-cold", "ep-sweep-resume")
# Not a workload: the isolated cold sweep whose store ep-sweep-resume
# resumes. It runs outside the timed window, once per run.
PREFILL = "sweep-prefill"


def die(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


# ------------------------------------------------------------------ build

def target_dir():
    t = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return t if t.is_absolute() else ROOT / t


def dep_info_sources(binary):
    """The source files cargo's dep-info file (`<binary>.d`) says the
    binary was built from: the src/ files of the crates it links, and
    nothing from tests/, benches/ or crates it does not depend on."""
    try:
        text = Path(str(binary) + ".d").read_text()
    except OSError as e:
        die(f"no dep-info for {binary}: {e}", 1)
    _, sep, deps = text.replace("\\ ", "\0").partition(": ")
    srcs = [Path(d.replace("\0", " ")) for d in deps.split()]
    if not sep or not srcs:
        die(f"dep-info for {binary} names no sources", 1)
    return [s if s.is_absolute() else ROOT / s for s in srcs]


def build():
    """Build smi-lab and the tracer from this checkout; refuse a binary
    older than any source file it was built from."""
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates" / "cli").is_dir():
        die("run from the root of an smi-lab checkout (no Cargo.toml / crates/cli here)")
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    for cmd in (["cargo", "build", "--release", "--offline", "-p", "cli"],
                ["cargo", "build", "--release", "--offline", "--manifest-path",
                 str(BENCH / "tracer" / "Cargo.toml")]):
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT)
        if r.returncode != 0:
            sys.stderr.write(r.stdout.decode(errors="replace")[-4000:])
            die(f"build failed: {' '.join(cmd)}", 1)
    bins = {"smi-lab": target_dir() / "release" / "smi-lab",
            "tracer": target_dir() / "release" / "perfbench-tracer"}
    for path in bins.values():
        if not path.is_file():
            die(f"build produced no {path}", 1)
        built = path.stat().st_mtime
        for src in dep_info_sources(path):
            if not src.is_file():
                die(f"{path} was built from {src}, which this checkout lacks: "
                    f"stale binary refused", 1)
            if src.stat().st_mtime > built:
                die(f"{path} is older than {src}: stale binary refused", 1)
    return bins


# -------------------------------------------------------------- workloads

def pool_index(seed):
    return seed % POOL


def campaigns(workload, seed):
    """(label, bench, program seed, reps) for each CLI invocation."""
    base = BASE_SEED + 1000 * pool_index(seed)
    if workload == "mpi-paper-cold":
        return [("table1", "BT", base, 6), ("table3", "FT", base, 6)]
    return [("table2", "EP", base + j, 2) for j in range(SWEEP_SEEDS)]


def cli_argv(smi_lab, workload, camp, store, records):
    label, _, seed, _ = camp
    argv = [str(smi_lab), label]
    if workload != "mpi-paper-cold":
        argv.append("--quick")
    argv += ["--seed", str(seed), "--jobs", "1", "--cache-dir", str(store),
             "--records", str(records)]
    if workload in ("mpi-paper-cold", PREFILL):
        argv.append("--isolate")
    if workload == "ep-sweep-resume":
        argv.append("--resume")
    return argv


def ref_key(camp):
    return f"{camp[0]}:{camp[2]}"


def load_reference():
    try:
        return json.loads(REFERENCE.read_text())
    except (OSError, ValueError) as e:
        die(f"cannot read {REFERENCE}: {e}", 1)


def sha256_file(path):
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except OSError:
        return None


# ------------------------------------------------------------- invocation

def adopt_orphans():
    """Become the reaper of orphaned descendants (PR_SET_CHILD_SUBREAPER),
    so an --isolate worker whose supervisor was killed is still waited for."""
    try:
        import ctypes
        ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def end_group(pgid):
    """Kill whatever is left of a process group started with its own
    session, then wait until every child and adopted orphan has ended."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass
    while True:
        try:
            os.waitpid(-1, 0)
        except ChildProcessError:
            return


def invoke(argv, stop_at_first=False):
    """Run one CLI invocation to completion (or, with stop_at_first, kill
    it at its first progress line); host time, CPU and RSS of its whole
    process tree, and when its first '[runner] n/N cells' line came."""
    t0 = time.perf_counter()
    p = subprocess.Popen(argv, cwd=ROOT, stdin=subprocess.DEVNULL,
                         stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                         start_new_session=True)
    fd = p.stderr.fileno()
    buf = b""
    first = None
    timed_out = False
    while True:
        left = time_left()
        if left <= 0:
            os.killpg(p.pid, signal.SIGKILL)
            timed_out = True
            break
        ready, _, _ = select.select([fd], [], [], left)
        if not ready:
            continue
        chunk = os.read(fd, 65536)
        if not chunk:
            break
        buf += chunk
        if first is None and b"[runner] " in buf and b" cells |" in buf:
            first = time.perf_counter()
            if stop_at_first:
                os.killpg(p.pid, signal.SIGKILL)
                break
        buf = buf[-8192:]
    p.stderr.close()
    _, status, ru = os.wait4(p.pid, 0)
    t1 = time.perf_counter()
    end_group(p.pid)
    p.returncode = os.waitstatus_to_exitcode(status)
    return {"wall": t1 - t0, "cpu": ru.ru_utime + ru.ru_stime,
            "rss_mib": ru.ru_maxrss / 1024.0,
            "first": None if first is None else first - t0,
            "code": -1 if timed_out else p.returncode,
            "stderr": buf.decode(errors="replace")}


def check_invocation(workload, camp, inv, store, records, ref):
    """Cells attempted and failed by one invocation, and its setup time."""
    expect = ref["campaigns"].get(ref_key(camp))
    problems = []
    manifest = None
    try:
        manifest = json.loads((store / "manifests" / f"{camp[0]}.json").read_text())
    except (OSError, ValueError) as e:
        problems.append(f"manifest unreadable: {e}")
    cells = expect["cells"] if expect else (manifest or {}).get("cells_total", 1)
    if expect is None:
        problems.append(f"no reference for {ref_key(camp)}")
    if inv["code"] != 0:
        problems.append(f"exit code {inv['code']}")
    if manifest is not None and expect is not None:
        for field in ("cells_failed", "cells_invalid", "cells_crashed", "cells_deadline"):
            if manifest.get(field, 0) != 0:
                problems.append(f"{field}={manifest.get(field)}")
        if manifest.get("cells_total") != cells:
            problems.append(f"cells_total {manifest.get('cells_total')} != {cells}")
        eng = manifest.get("engine", {})
        want = (0, 0) if workload == "ep-sweep-resume" else (expect["events"], expect["runs"])
        got = (eng.get("events_popped"), eng.get("runs"))
        if got != want:
            problems.append(f"engine events/runs {got} != {want}")
        if workload == "ep-sweep-resume" and manifest.get("cells_cached") != cells:
            problems.append(f"resume served {manifest.get('cells_cached')}/{cells} from the store")
    if expect is not None and sha256_file(records) != expect["records_sha256"]:
        problems.append("record bytes differ from the reference")
    setup = None
    if inv["first"] is not None and manifest and manifest.get("cells"):
        setup = inv["first"] - manifest["cells"][0]["micros"] / 1e6
    elif not problems:
        problems.append("no progress line on stderr")
    for msg in problems:
        print(f"perfbench: {workload} {ref_key(camp)}: {msg}", file=sys.stderr)
    if problems and inv["stderr"]:
        sys.stderr.write(inv["stderr"][-2000:] + "\n")
    failed = cells if problems else 0
    return cells, failed, setup


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)


def prepare_store(workload, wdir):
    """Outside the timed window: an empty store for the cold workloads, a
    byte-identical restore of the prefilled snapshot for the resume."""
    store = wdir / "store"
    shutil.rmtree(store, ignore_errors=True)
    if workload == "ep-sweep-resume":
        shutil.copytree(wdir / "snapshot", store, symlinks=True)
    else:
        store.mkdir(parents=True)
    # Flush the dirty pages the restore (or the last iteration's clean-up)
    # left, so the next timed fsync does not pay for them.
    os.sync()
    return store


def prefill_snapshot(bins, seed, wdir, ref):
    """The store the cold isolated sweep leaves, kept as the resume's
    starting state. Its records are checked like any other run's."""
    snap = wdir / "snapshot"
    fresh_dir(snap)
    rec = wdir / "prefill-records"
    fresh_dir(rec)
    ok = True
    for i, camp in enumerate(campaigns(PREFILL, seed)):
        path = rec / f"{i}.jsonl"
        inv = invoke(cli_argv(bins["smi-lab"], PREFILL, camp, snap, path))
        _, failed, _ = check_invocation(PREFILL, camp, inv, snap, path, ref)
        ok = ok and failed == 0
    return ok


def iteration(bins, workload, seed, wdir, ref):
    """One pass over the workload's invocations, back to back."""
    store = prepare_store(workload, wdir)
    rec = wdir / "records"
    fresh_dir(rec)
    invs = []
    attempted = failed = 0
    setups = []
    for i, camp in enumerate(campaigns(workload, seed)):
        # Checked right away: the sweeps' invocations share one manifest
        # path. Only the invocations themselves count toward wall time.
        inv = invoke(cli_argv(bins["smi-lab"], workload, camp, store, rec / f"{i}.jsonl"))
        invs.append(inv)
        a, f, s = check_invocation(workload, camp, inv, store, rec / f"{i}.jsonl", ref)
        attempted += a
        failed += f
        if s is not None:
            setups.append(s)
    return {"wall": sum(v["wall"] for v in invs),
            "cpu": sum(v["cpu"] for v in invs),
            "rss_mib": max(v["rss_mib"] for v in invs),
            "setup": sum(setups) if setups else None,
            "attempted": attempted, "failed": failed}


def setup_probes(bins, workload, seed, wdir):
    """More set-up rounds, outside the timed window. Each invocation runs
    again into a fresh store that holds only the object of its first cell
    (taken from the store the timed iteration left), so that cell is a
    cache hit of a few tens of microseconds. The probe is killed at its
    first progress line, and the time to that line is its set-up."""
    firsts = []
    for camp in campaigns(workload, seed):
        try:
            man = json.loads((wdir / "store" / "manifests" / f"{camp[0]}.json").read_text())
            (obj,) = (wdir / "store").glob(f"*/{man['cells'][0]['key']}.json")
            firsts.append((obj.parent.name, obj.name, obj.read_bytes()))
        except (OSError, ValueError, LookupError):
            return []
    store = wdir / "probe-store"
    rounds = []
    for _ in range(SETUP_PROBES):
        total = 0.0
        for camp, (sub, name, data) in zip(campaigns(workload, seed), firsts):
            fresh_dir(store / sub)
            (store / sub / name).write_bytes(data)
            os.sync()
            argv = cli_argv(bins["smi-lab"], workload, camp, store, wdir / "probe.jsonl")
            inv = invoke(argv, stop_at_first=True)
            shutil.rmtree(store, ignore_errors=True)
            if inv["first"] is None or "| 1 cached" not in inv["stderr"]:
                return rounds
            total += inv["first"]
        rounds.append(total)
    return rounds


def measure(bins, workload, seed, seconds, ref):
    start_run_clock()
    wdir = WORK / workload
    fresh_dir(wdir)
    attempted = failed = 0
    if workload == "ep-sweep-resume" and not prefill_snapshot(bins, seed, wdir, ref):
        print("perfbench: prefilled snapshot failed its checks", file=sys.stderr)
    iters = []
    started = time.perf_counter()
    while True:
        t = time.perf_counter()
        it = iteration(bins, workload, seed, wdir, ref)
        iters.append(it)
        attempted += it["attempted"]
        failed += it["failed"]
        last = time.perf_counter() - t
        if time.perf_counter() - started + last > seconds:
            break
    setups = [it["setup"] for it in iters if it["setup"] is not None]
    if workload == "mpi-paper-cold":
        setups += setup_probes(bins, workload, seed, wdir)
    metrics = {
        "wall_s": (statistics.median(it["wall"] for it in iters), "s"),
        "cpu_s": (statistics.median(it["cpu"] for it in iters), "s"),
        "peak_rss_mib": (max(it["rss_mib"] for it in iters), "MiB"),
        "setup_s": (statistics.median(setups) if setups else 0.0, "s"),
        "ok_frac": (1.0 - failed / attempted if attempted else 0.0, "ratio"),
    }
    print(f"perfbench: {workload} seed {seed}: {len(iters)} iterations of "
          f"{len(campaigns(workload, seed))} invocations, "
          f"wall per iteration {[round(it['wall'], 4) for it in iters]}, "
          f"set-up per round {[round(v, 5) for v in setups]}", file=sys.stderr)
    return {"attempted": attempted, "failed": failed, "metrics": metrics}


# ------------------------------------------------------------------ trace

def traced(bins, workload, seed, ref):
    """One untraced iteration, then the same campaigns through the tracer
    from the same starting state; per-layer metrics plus integrity checks."""
    start_run_clock()
    wdir = WORK / workload
    fresh_dir(wdir)
    if workload == "ep-sweep-resume":
        prefill_snapshot(bins, seed, wdir, ref)
    untraced = iteration(bins, workload, seed, wdir, ref)
    attempted, failed = untraced["attempted"], untraced["failed"]

    store = prepare_store(workload, wdir)
    rec = wdir / "traced-records"
    fresh_dir(rec)
    camps = campaigns(workload, seed)
    code_version = ref["code_version"]
    argv = [str(bins["tracer"]),
            "--mode", "isolate" if workload == "mpi-paper-cold" else "inproc",
            "--store", str(store), "--records-dir", str(rec),
            "--smi-lab", str(bins["smi-lab"]), "--code-version", code_version,
            "--spans", str(wdir / "spans.jsonl")]
    for camp in camps:
        argv += ["--campaign", ",".join(str(x) for x in camp)]
    problems = []
    summary = None
    p = subprocess.Popen(argv, cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                         stderr=subprocess.PIPE, start_new_session=True)
    try:
        out, err = p.communicate(timeout=time_left())
        if p.returncode != 0:
            problems.append(f"tracer exited {p.returncode}: {err.decode(errors='replace')[-2000:]}")
        else:
            summary = json.loads(out.decode().strip().splitlines()[-1])
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.communicate()
        problems.append("tracer ran out of time")
    except (ValueError, IndexError) as e:
        problems.append(f"tracer output unreadable: {e}")
    finally:
        end_group(p.pid)
    # The traced payloads must equal the untraced records byte for byte.
    for i, camp in enumerate(camps):
        expect = ref["campaigns"].get(ref_key(camp))
        attempted += expect["cells"] if expect else 1
        if expect is None or sha256_file(rec / f"{i}.jsonl") != expect["records_sha256"]:
            failed += expect["cells"] if expect else 1
            problems.append(f"traced records for {ref_key(camp)} differ from the untraced records")
    metrics = {}
    if summary is not None:
        units = {"_s": "s", "bytes": "B", "bytes_written": "B", "ns_per_event": "ns",
                 "hit_ratio": "ratio"}
        for name, value in summary["metrics"].items():
            unit = next((u for suffix, u in units.items() if name.endswith(suffix)), "count")
            metrics[name] = (value, unit)
        layer_self = summary["layer_self_s"]
        for layer, value in layer_self.items():
            metrics[f"{layer}.self_s"] = (value, "s")
        # The traced engine work must repeat the untraced counts exactly.
        refs = [ref["campaigns"].get(ref_key(c)) or {} for c in camps]
        for name, field in (("engine.events", "events"), ("engine.runs", "runs")):
            want = 0 if workload == "ep-sweep-resume" else sum(r.get(field, 0) for r in refs)
            if summary["metrics"][name] != want:
                problems.append(f"traced {name} {summary['metrics'][name]:.0f} != {want}")
        # Time under no layer span (the campaign glue) is unattributed,
        # so the self times cover the wall only as far as the spans do.
        wall, self_sum = summary["wall_s"], summary["self_sum_s"]
        metrics["trace.wall_s"] = (wall, "s")
        metrics["trace.untraced_wall_s"] = (untraced["wall"], "s")
        metrics["trace.overhead_s"] = (wall - untraced["wall"], "s")
        metrics["trace.self_sum_s"] = (self_sum, "s")
        metrics["trace.unattributed_s"] = (summary["unattributed_s"], "s")
        metrics["trace.coverage"] = (self_sum / wall if wall > 0 else 0.0, "ratio")
        metrics["trace.replay_s"] = (summary["replay_s"], "s")
        if wall <= 0 or abs(self_sum - wall) > SELF_SUM_TOLERANCE * wall:
            problems.append(f"layer self times sum to {self_sum:.4f} s, traced wall {wall:.4f} s "
                            f"(tolerance {SELF_SUM_TOLERANCE:.0%})")
        layers = sorted(layer_self, key=lambda l: -layer_self[l])
        total = sum(layer_self.values()) or 1.0
        print(f"perfbench: {workload}: traced wall {wall:.4f} s, untraced wall "
              f"{untraced['wall']:.4f} s, tracing overhead {wall - untraced['wall']:+.4f} s, "
              f"unattributed {summary['unattributed_s']:.4f} s")
        print(f"perfbench: {workload}: dominant layer {layers[0]} "
              f"({layer_self[layers[0]] / total:.1%} of traced self time); "
              + ", ".join(f"{l} {layer_self[l] / total:.1%}" for l in layers[1:]))
    for msg in problems:
        print(f"perfbench: {workload}: {msg}", file=sys.stderr)
    return {"attempted": attempted, "failed": failed, "metrics": metrics,
            "integrity_ok": not problems}


# ------------------------------------------------------------------ modes

def result_line(res, correct):
    return json.dumps({
        "correct": correct,
        "attempted": int(res["attempted"]),
        "failed": int(res["failed"]),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in res["metrics"].items()},
    })


def record_reference(bins):
    """Run every pool entry once (in-process) and record record digests and
    engine counts. Only for the commit that (re)defines the benchmark."""
    wdir = WORK / "reference"
    out = {"campaigns": {}}
    for idx in range(POOL):
        for workload in ("mpi-paper-cold", "ep-sweep-resume"):
            fresh_dir(wdir)
            for camp in campaigns(workload, idx):
                rec = wdir / f"{camp[0]}-{camp[2]}.jsonl"
                argv = [str(bins["smi-lab"]), camp[0], "--reps", str(camp[3]),
                        "--seed", str(camp[2]), "--jobs", "2",
                        "--cache-dir", str(wdir / "store"), "--records", str(rec)]
                start_run_clock()
                inv = invoke(argv)
                man = json.loads((wdir / "store" / "manifests" / f"{camp[0]}.json").read_text())
                if inv["code"] != 0 or man["status"] != "clean":
                    die(f"reference run {ref_key(camp)} failed", 1)
                out["code_version"] = man["code"]
                out["campaigns"][ref_key(camp)] = {
                    "cells": man["cells_total"], "records_sha256": sha256_file(rec),
                    "events": man["engine"]["events_popped"], "runs": man["engine"]["runs"]}
                shutil.rmtree(wdir / "store")
        print(f"perfbench: recorded pool entry {idx}", file=sys.stderr)
    REFERENCE.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    shutil.rmtree(wdir, ignore_errors=True)


def steadiness(bins, names, runs, seconds, ref):
    """Run each workload `runs` times (seeds 0..runs-1) and report each
    end-to-end metric's median, quartiles and spread against its bound."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    flagged = 0
    for workload in names:
        values = {}
        for seed in range(runs):
            res = measure(bins, workload, seed, seconds, ref)
            for k, (v, _) in res["metrics"].items():
                values.setdefault(k, []).append(v)
            print(f"perfbench: {workload} seed {seed}: "
                  + json.dumps({k: round(v, 6) for k, (v, _) in res["metrics"].items()}))
            shutil.rmtree(WORK / workload, ignore_errors=True)
            os.sync()
        for k, vs in values.items():
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(k)
            flag = bound is not None and spread > bound
            flagged += flag
            print(f"{workload:18} {k:14} median {med:.6g} q1 {q1:.6g} q3 {q3:.6g} "
                  f"spread {spread:.3f} bound {bound}{'  EXCEEDS BOUND' if flag else ''}")
    return flagged


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help=f"workload seed (default {DEFAULT_SEED}; held-out seed {HELDOUT_SEED})")
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steadiness", type=int, metavar="N",
                    help="run each workload N times and report spreads")
    ap.add_argument("--record-reference", action="store_true")
    args = ap.parse_args()

    adopt_orphans()
    bins = build()
    if args.record_reference:
        record_reference(bins)
        return 0
    ref = load_reference()
    if args.steadiness:
        names = [args.workload] if args.workload else list(WORKLOADS)
        flagged = steadiness(bins, names, args.steadiness, args.seconds, ref)
        shutil.rmtree(WORK, ignore_errors=True)
        return 1 if flagged else 0
    if not args.workload:
        die("--workload is required")
    if args.trace:
        res = traced(bins, args.workload, args.seed, ref)
        correct = res["failed"] == 0 and res["integrity_ok"]
    else:
        res = measure(bins, args.workload, args.seed, args.seconds, ref)
        correct = res["failed"] == 0
    shutil.rmtree(WORK, ignore_errors=True)
    os.sync()
    print(result_line(res, correct))
    return 0


if __name__ == "__main__":
    sys.exit(main())
