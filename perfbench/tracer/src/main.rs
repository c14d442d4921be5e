//! Traced replay of one perfbench workload.
//!
//! The end-to-end numbers come from the real `smi-lab` binary; this
//! program supplies the per-layer breakdown. It runs the same campaigns
//! in-process, one cell at a time on one thread, by calling each crate's
//! public functions itself and timing every call:
//!
//! * cell compute: each `runner::Cell`'s `work` closure is wrapped, and
//!   inside it `nas::programs`, the calibration loop of
//!   `nas::calibrate_extra`, the `smi_driver` schedules and
//!   `mpi_sim::run_with` are timed, with event counts from
//!   `sim_core::perf`;
//! * storage: `Store::open`, `Store::load`, `Store::put`,
//!   `journal::Journal::load`, `journal::Writer::append`,
//!   `RunReport::write_manifest`;
//! * IPC: `proto` encode/decode through `jsonio::framed`, and
//!   `worker::serve_io` over in-memory pipes, plus one real worker spawn
//!   per campaign;
//! * cli: one bare `smi-lab` process start per campaign and the records
//!   file.
//!
//! jsonio work that happens *inside* an opaque runner call (the crc64
//! seal of an object inside `Store::put`, the parse inside `Store::load`)
//! cannot be timed from outside it. It is attributed by replay: right
//! after the call, the same jsonio function runs again on the same bytes
//! with the span clock paused, and that time moves from the runner span
//! to a jsonio child span. Replays never count toward the traced wall.
//!
//! Each campaign runs inside a root span. Its own time (the glue between
//! the timed calls, and the tracer's bookkeeping) is reported as
//! unattributed and given to no layer, so the layer self times account
//! for the traced wall only as far as the spans really cover it.
//!
//! This is a replica of the campaign loop, not the program's own: the
//! runner's dispatch, its supervisor and the `smi-lab` front end are not
//! run here, and a change to them moves the end-to-end metrics but not
//! these figures.
//!
//! Spans are kept in memory and written out (JSONL) when the run ends;
//! the summary goes to stdout as one JSON object.
//!
//! Usage:
//! `perfbench-tracer --mode inproc|isolate --store DIR --records-dir DIR
//!  --smi-lab BIN --code-version TAG --spans FILE
//!  --campaign LABEL,BENCH,SEED,REPS [--campaign ...]`

#![deny(unsafe_code)]

use analysis::mpi_tables::{Measured, SMM_CLASSES};
use analysis::RunOptions;
use jsonio::framed::{FrameReader, FrameWriter};
use jsonio::{checked, Json, ToJson};
use mpi_sim::{ClusterSpec, NetworkParams, NodeState};
use nas::{Bench, Class};
use runner::{cache, journal, lockfile, proto, store, telemetry, worker};
use runner::{Cell, CellOutcome, CellValue, EnginePerf, RunReport};
use sim_core::stats::Accumulator;
use sim_core::SimRng;
use smi_driver::{SmiDriver, SmiDriverConfig};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::Instant;

// ---------------------------------------------------------------- spans

struct Span {
    layer: &'static str,
    name: &'static str,
    start_ns: u64,
    dur_ns: u64,
    child_ns: u64,
    parent: Option<usize>,
    replayed: bool,
}

struct Tracer {
    t0: Instant,
    /// Wall time spent in replay probes; subtracted from the span clock.
    paused_ns: u64,
    spans: Vec<Span>,
    stack: Vec<usize>,
    counts: BTreeMap<&'static str, f64>,
}

impl Tracer {
    fn new() -> Self {
        Tracer {
            t0: Instant::now(),
            paused_ns: 0,
            spans: Vec::new(),
            stack: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    fn now(&self) -> u64 {
        (self.t0.elapsed().as_nanos() as u64).saturating_sub(self.paused_ns)
    }
}

thread_local! {
    static TRACE: RefCell<Tracer> = RefCell::new(Tracer::new());
}

/// Run `f` inside a span; returns its result and the span's index.
fn span_idx<T>(layer: &'static str, name: &'static str, f: impl FnOnce() -> T) -> (T, usize) {
    let idx = TRACE.with(|t| {
        let mut t = t.borrow_mut();
        let start_ns = t.now();
        let parent = t.stack.last().copied();
        t.spans.push(Span {
            layer,
            name,
            start_ns,
            dur_ns: 0,
            child_ns: 0,
            parent,
            replayed: false,
        });
        let idx = t.spans.len() - 1;
        t.stack.push(idx);
        idx
    });
    let out = f();
    TRACE.with(|t| {
        let mut t = t.borrow_mut();
        let end = t.now();
        t.stack.pop();
        let dur = end.saturating_sub(t.spans[idx].start_ns);
        t.spans[idx].dur_ns = dur;
        if let Some(p) = t.spans[idx].parent {
            t.spans[p].child_ns += dur;
        }
    });
    (out, idx)
}

fn span<T>(layer: &'static str, name: &'static str, f: impl FnOnce() -> T) -> T {
    span_idx(layer, name, f).0
}

/// Run `f` with the span clock stopped (replays, file-size probes).
fn paused<T>(f: impl FnOnce() -> T) -> T {
    let started = Instant::now();
    let out = f();
    let ns = started.elapsed().as_nanos() as u64;
    TRACE.with(|t| t.borrow_mut().paused_ns += ns);
    out
}

/// Time `f` with a plain stopwatch (used inside `paused` replays).
fn timed<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let started = Instant::now();
    let out = f();
    (out, started.elapsed().as_nanos() as u64)
}

/// Move `ns` of `parent`'s self time into a replayed child span, clamped
/// so a parent's self time never goes negative.
fn attribute(parent: usize, layer: &'static str, name: &'static str, ns: u64) {
    TRACE.with(|t| {
        let mut t = t.borrow_mut();
        let room = t.spans[parent].dur_ns.saturating_sub(t.spans[parent].child_ns);
        let dur_ns = ns.min(room);
        let start_ns = t.spans[parent].start_ns;
        t.spans[parent].child_ns += dur_ns;
        t.spans.push(Span {
            layer,
            name,
            start_ns,
            dur_ns,
            child_ns: 0,
            parent: Some(parent),
            replayed: true,
        });
    });
}

fn count(name: &'static str, delta: f64) {
    TRACE.with(|t| *t.borrow_mut().counts.entry(name).or_insert(0.0) += delta);
}

fn count_max(name: &'static str, v: f64) {
    TRACE.with(|t| {
        let mut t = t.borrow_mut();
        let e = t.counts.entry(name).or_insert(0.0);
        *e = e.max(v);
    });
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map(|m| m.len()).unwrap_or(0)
}

// ---------------------------------------------------------- jsonio replays

/// Replay `checked::unseal` on each sealed line, splitting its time into
/// the checksum/framing part (`unseal`) and the JSON parse (`parse`).
fn replay_unseal(parent: usize, lines: &[String]) {
    let (mut unseal_ns, mut parse_ns, mut bytes) = (0u64, 0u64, 0u64);
    paused(|| {
        for line in lines {
            let (_, u) = timed(|| checked::unseal(line));
            let body = line.trim_end_matches('\n').split_once(' ').map(|(_, b)| b).unwrap_or("");
            let (_, p) = timed(|| Json::parse(body));
            unseal_ns += u.saturating_sub(p);
            parse_ns += p;
            bytes += body.len() as u64;
        }
    });
    attribute(parent, "jsonio", "parse", parse_ns);
    attribute(parent, "jsonio", "unseal", unseal_ns);
    count("jsonio.parse_bytes", bytes as f64);
}

/// Replay `Json::parse` on each plain JSON line.
fn replay_parse(parent: usize, lines: &[String]) {
    let (mut ns, mut bytes) = (0u64, 0u64);
    paused(|| {
        for line in lines {
            ns += timed(|| Json::parse(line)).1;
            bytes += line.len() as u64;
        }
    });
    attribute(parent, "jsonio", "parse", ns);
    count("jsonio.parse_bytes", bytes as f64);
}

/// Replay `Json::to_string` on each value.
fn replay_encode(parent: usize, values: &[Json]) {
    let (mut ns, mut bytes) = (0u64, 0u64);
    paused(|| {
        for v in values {
            let (s, t) = timed(|| v.to_string());
            ns += t;
            bytes += s.len() as u64;
        }
    });
    attribute(parent, "jsonio", "encode", ns);
    count("jsonio.encode_bytes", bytes as f64);
}

/// Replay `checked::seal` on each value, splitting out its `to_string`.
fn replay_seal(parent: usize, values: &[Json]) {
    let (mut seal_ns, mut encode_ns, mut bytes) = (0u64, 0u64, 0u64);
    paused(|| {
        for v in values {
            let (_, s) = timed(|| checked::seal(v));
            let (body, e) = timed(|| v.to_string());
            seal_ns += s.saturating_sub(e);
            encode_ns += e;
            bytes += body.len() as u64;
        }
    });
    attribute(parent, "jsonio", "encode", encode_ns);
    attribute(parent, "jsonio", "seal", seal_ns);
    count("jsonio.encode_bytes", bytes as f64);
}

fn read_lines(path: &Path) -> Vec<String> {
    std::fs::read_to_string(path)
        .map(|t| t.lines().map(str::to_string).collect())
        .unwrap_or_default()
}

// ------------------------------------------------------------ cell work

fn class_of(letter: &str) -> Option<Class> {
    match letter {
        "A" => Some(Class::A),
        "B" => Some(Class::B),
        "C" => Some(Class::C),
        "S" => Some(Class::S),
        "W" => Some(Class::W),
        _ => None,
    }
}

/// One engine run, timed, with its event counts.
fn engine_run(
    f: impl FnOnce() -> Result<mpi_sim::RunOutcome, mpi_sim::SimError>,
) -> Result<f64, Json> {
    let before = sim_core::perf::snapshot();
    let out = span("engine", "run", f);
    let after = sim_core::perf::snapshot();
    count("engine.events", after.events_popped.wrapping_sub(before.events_popped) as f64);
    count("engine.runs", after.runs.wrapping_sub(before.runs) as f64);
    count_max("engine.queue_peak", after.queue_peak as f64);
    out.map(|o| o.seconds()).map_err(|e| e.reason_json())
}

/// `nas::calibrate_extra`'s fixed-point loop, kept statement for
/// statement in step with `crates/nas/src/model.rs`, with its `programs`
/// and engine calls timed as children.
fn calibrate(
    bench: Bench,
    class: Class,
    spec: &ClusterSpec,
    network: &NetworkParams,
    target_secs: f64,
) -> Result<f64, Json> {
    span("nas", "calibrate", || {
        if target_secs.is_nan() || target_secs <= 0.0 {
            return Err(Json::Str(format!("non-positive target {target_secs} s")));
        }
        let ones = vec![1.0; spec.total_ranks() as usize];
        let mut extra = 0.0f64;
        for _ in 0..6 {
            let progs = span("nas", "programs", || nas::programs(bench, class, spec, extra, &ones));
            // Built on every iteration, as `calibrate_extra` does; its
            // time stays in the calibration loop's self time.
            let quiet = nas::quiet_nodes(spec);
            let t = engine_run(|| mpi_sim::run(spec, &quiet, &progs, network))?;
            let diff = target_secs - t;
            if diff.abs() < 0.005 * target_secs {
                break;
            }
            extra += diff;
        }
        Ok(extra)
    })
}

/// The Tables 1–3 cell computation (`analysis::cells::table_cells` →
/// `measure_cell` → `measure_rep`), kept statement for statement in step
/// with `crates/analysis/src`, with every crate call timed. Its payload
/// must equal the untraced cell's byte for byte; the harness checks that.
fn table_work(
    bench: Bench,
    class: Class,
    nodes: u32,
    rpn: u32,
    label: &str,
    opts: &RunOptions,
) -> Result<Json, Json> {
    let paper = nas::table_cell(bench, class, nodes, rpn).map(|c| c.smm).unwrap_or([None; 3]);
    let measured: [Option<Measured>; 3] = match paper[0] {
        None => [None, None, None],
        Some(target) => {
            let network = NetworkParams::gigabit_cluster();
            let spec = ClusterSpec::wyeast(nodes, rpn, false).map_err(|e| e.reason_json())?;
            let extra = calibrate(bench, class, &spec, &network, target)?;
            let mut out = [None, None, None];
            for (k, smm) in SMM_CLASSES.into_iter().enumerate() {
                let mut acc = Accumulator::new();
                let config = opts.engine_config();
                for rep in 0..opts.reps {
                    let mut rng = SimRng::from_path(
                        opts.seed,
                        &[bench.name(), label, smm.label(), &format!("rep{rep}")],
                    );
                    let jitters: Vec<f64> =
                        (0..spec.total_ranks()).map(|_| rng.jitter(opts.jitter)).collect();
                    let progs = span("nas", "programs", || {
                        nas::programs(bench, class, &spec, extra, &jitters)
                    });
                    let node_states: Vec<NodeState> = span("smi_driver", "schedule", || {
                        let driver = SmiDriver::new(SmiDriverConfig::mpi_study(smm));
                        (0..spec.nodes)
                            .map(|_| NodeState {
                                schedule: driver.schedule_for_node(&mut rng),
                                effects: driver.side_effects(spec.htt),
                                online_cpus: spec.online_cpus(),
                                per_core: Vec::new(),
                            })
                            .collect()
                    });
                    acc.push(engine_run(|| {
                        mpi_sim::run_with(&spec, &node_states, &progs, &network, &config)
                    })?);
                }
                out[k] = Some(Measured { mean: acc.mean(), std: acc.stddev(), reps: opts.reps });
            }
            out
        }
    };
    Ok(Json::obj(vec![("measured", measured.to_json())]))
}

/// The campaign's cells: identities from `analysis::cells::table_cells`,
/// work closures replaced by the traced computation above, wrapped in
/// an `analysis/cell` span.
fn traced_cells(bench: Bench, opts: RunOptions) -> Vec<Cell> {
    analysis::cells::table_cells(bench, &opts)
        .into_iter()
        .map(|real| {
            let spec = real.spec;
            let p = &spec.params;
            let class = p.get("class").and_then(Json::as_str).and_then(class_of);
            let nodes = p.get("nodes").and_then(Json::as_u64).unwrap_or(0) as u32;
            let rpn = p.get("rpn").and_then(Json::as_u64).unwrap_or(0) as u32;
            let label = spec.cell.clone();
            Cell::fallible(spec, move || {
                span("analysis", "cell", || {
                    let class =
                        class.ok_or_else(|| Json::Str("unknown class in cell params".into()))?;
                    table_work(bench, class, nodes, rpn, &label, &opts)
                })
            })
        })
        .collect()
}

// ------------------------------------------------------------- campaign

struct CampaignSpec {
    label: String,
    bench: Bench,
    seed: u64,
    reps: u32,
}

fn parse_campaign(text: &str) -> Result<CampaignSpec, String> {
    let parts: Vec<&str> = text.split(',').collect();
    let [label, bench, seed, reps] = parts.as_slice() else {
        return Err(format!("bad --campaign {text:?} (want LABEL,BENCH,SEED,REPS)"));
    };
    let bench = match *bench {
        "BT" => Bench::Bt,
        "EP" => Bench::Ep,
        "FT" => Bench::Ft,
        other => return Err(format!("unknown bench {other:?}")),
    };
    Ok(CampaignSpec {
        label: label.to_string(),
        bench,
        seed: seed.parse().map_err(|_| format!("bad seed {seed:?}"))?,
        reps: reps.parse().map_err(|_| format!("bad reps {reps:?}"))?,
    })
}

struct Config {
    isolate: bool,
    store: PathBuf,
    records_dir: PathBuf,
    smi_lab: PathBuf,
    code_version: String,
}

fn perf_probe() -> runner::PerfProbe {
    Arc::new(|| {
        let p = sim_core::perf::take();
        EnginePerf { events_popped: p.events_popped, queue_peak: p.queue_peak, runs: p.runs }
    })
}

/// One bare `smi-lab` process start (no command: usage error, exit 2).
fn start_probe(cfg: &Config) -> Result<(), String> {
    span("cli", "start", || {
        Command::new(&cfg.smi_lab)
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .status()
            .map(|_| ())
            .map_err(|e| format!("spawn {}: {e}", cfg.smi_lab.display()))
    })
}

/// Spawn one real `smi-lab worker`, wait for its Hello frame (the worker
/// builds its full cell catalog first), then shut it down.
fn spawn_probe(cfg: &Config, camp: &CampaignSpec) -> Result<(), String> {
    span("ipc", "spawn", || -> Result<(), String> {
        let mut child = Command::new(&cfg.smi_lab)
            .args(["worker", "--reps", &camp.reps.to_string(), "--seed", &camp.seed.to_string()])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn worker: {e}"))?;
        let stdout = child.stdout.take().ok_or("worker stdout")?;
        let stdin = child.stdin.take().ok_or("worker stdin")?;
        let hello = FrameReader::new(stdout).read().map_err(|e| format!("hello: {e:?}"))?;
        match hello.as_ref().map(proto::FromWorker::from_json) {
            Some(Ok(proto::FromWorker::Hello { .. })) => {}
            _ => return Err("worker sent no Hello frame".into()),
        }
        let shutdown = proto::ToWorker::Shutdown.to_json();
        FrameWriter::new(stdin).write(&shutdown).map_err(|e| format!("shutdown: {e:?}"))?;
        let status = child.wait().map_err(|e| format!("wait worker: {e}"))?;
        if !status.success() {
            return Err(format!("worker exited {status}"));
        }
        count("ipc.frames", 2.0);
        Ok(())
    })
}

/// Execute cache-miss cells through `worker::serve_io` over in-memory
/// pipes; returns (cell index, outcome) pairs in dispatch order.
fn serve_misses(
    cells: Vec<Cell>,
    misses: &[usize],
) -> Result<Vec<(usize, proto::WorkOutcome)>, String> {
    let specs: Vec<runner::CellSpec> = cells.iter().map(|c| c.spec.clone()).collect();
    let mut input = Vec::new();
    {
        let mut w = FrameWriter::new(&mut input);
        for (id, &i) in misses.iter().enumerate() {
            let (msg, idx) = span_idx("ipc", "encode", || {
                let msg = proto::ToWorker::Run {
                    id: id as u64,
                    attempt: 1,
                    budget_units: 0,
                    spec: specs[i].clone(),
                }
                .to_json();
                w.write(&msg).map(|_| msg)
            });
            let msg = msg.map_err(|e| format!("encode run frame: {e:?}"))?;
            replay_encode(idx, &[msg]);
        }
    }
    let mut output = Vec::new();
    let (code, serve_idx) = span_idx("ipc", "serve", || {
        worker::serve_io(cells, Some(perf_probe()), &input[..], &mut output)
    });
    if code != 0 {
        return Err(format!("serve_io returned {code}"));
    }
    // The worker decoded every Run frame and encoded Hello + every Done.
    let (ins, outs) = paused(|| (frame_bodies(&input), frame_bodies(&output)));
    replay_parse(serve_idx, &ins);
    let out_values: Vec<Json> =
        paused(|| outs.iter().filter_map(|b| Json::parse(b).ok()).collect());
    replay_encode(serve_idx, &out_values);
    count("ipc.frames", (ins.len() + outs.len()) as f64);
    count("ipc.bytes", (input.len() + output.len()) as f64);

    let mut reader = FrameReader::new(&output[..]);
    let mut done = Vec::new();
    loop {
        let (frame, idx) = span_idx("ipc", "decode", || {
            reader.read().map(|f| f.map(|j| (proto::FromWorker::from_json(&j), j)))
        });
        let Some((msg, json)) = frame.map_err(|e| format!("decode frame: {e:?}"))? else { break };
        let text = paused(|| json.to_string());
        replay_parse(idx, &[text]);
        match msg.map_err(|e| format!("decode frame: {}", e.0))? {
            proto::FromWorker::Hello { .. } => {}
            proto::FromWorker::Done { id, outcome } => {
                let i = *misses.get(id as usize).ok_or("Done for unknown id")?;
                done.push((i, outcome));
            }
        }
    }
    Ok(done)
}

/// The bodies of every length-prefixed frame in a byte buffer.
fn frame_bodies(buf: &[u8]) -> Vec<String> {
    let mut out = Vec::new();
    let mut at = 0usize;
    while at + 4 <= buf.len() {
        let len = u32::from_be_bytes([buf[at], buf[at + 1], buf[at + 2], buf[at + 3]]) as usize;
        let end = (at + 4 + len).min(buf.len());
        out.push(String::from_utf8_lossy(&buf[at + 4..end]).into_owned());
        at = end;
    }
    out
}

/// Publish one computed payload and journal it.
fn put_and_journal(
    st: &store::Store,
    writer: &journal::Writer,
    root: &Path,
    label: &str,
    key: cache::CacheKey,
    spec: &runner::CellSpec,
    payload: &Json,
) -> Result<(), String> {
    let idx_path = store::index_path(root, label);
    let intent_path = store::intent_path(root, label);
    let before = paused(|| file_len(&idx_path) + file_len(&intent_path));
    let (res, idx) = span_idx("store", "put", || st.put(key, spec, payload));
    res.map_err(|e| format!("store put {}: {e}", spec.cell))?;
    count("store.puts", 1.0);
    // Replay the seals `put` made: the object entry, two intent lines
    // and the index reference.
    let (entry, grown) = paused(|| {
        let text = std::fs::read_to_string(cache::entry_path(root, key)).unwrap_or_default();
        let size = text.len() as u64;
        let grown = file_len(&idx_path) + file_len(&intent_path) - before;
        (checked::unseal(&text).ok().map(|e| (e, size)), grown)
    });
    let hex = Json::Str(key.hex());
    let mut sealed = vec![
        Json::obj(vec![("op", Json::Str("begin".into())), ("key", hex.clone())]),
        Json::obj(vec![("op", Json::Str("end".into())), ("key", hex.clone())]),
        Json::obj(vec![("key", hex)]),
    ];
    let mut written = grown;
    if let Some((entry, size)) = entry {
        sealed.push(entry);
        written += size;
    }
    replay_seal(idx, &sealed);
    count("store.bytes_written", written as f64);
    journal_append(writer, key, &spec.cell, 1)
}

fn journal_append(
    writer: &journal::Writer,
    key: cache::CacheKey,
    cell: &str,
    attempts: u32,
) -> Result<(), String> {
    let (res, idx) =
        span_idx("journal", "append", || writer.append(key, cell, journal::Status::Ok, attempts));
    res.map_err(|e| format!("journal append: {e}"))?;
    count("journal.appends", 1.0);
    let line = Json::obj(vec![
        ("schema", Json::U64(journal::JOURNAL_SCHEMA)),
        ("key", Json::Str(key.hex())),
        ("cell", Json::Str(cell.to_string())),
        ("status", Json::Str(journal::Status::Ok.label().to_string())),
        ("attempts", Json::U64(attempts as u64)),
    ]);
    replay_encode(idx, &[line]);
    Ok(())
}

fn run_campaign(cfg: &Config, camp: &CampaignSpec, records_path: &Path) -> Result<(), String> {
    start_probe(cfg)?;
    let root = cfg.store.as_path();
    let label = camp.label.as_str();
    let wall = Instant::now();
    let opts = RunOptions::default().with_reps(camp.reps).with_seed(camp.seed);
    let cells = span("cli", "catalog", || traced_cells(camp.bench, opts));
    let lock = span("cli", "lock", || lockfile::CampaignLock::acquire(root, label))
        .map_err(|held| format!("campaign lock: {held}"))?;
    let journal_path = journal::journal_path(root, label);
    span("journal", "sweep", || journal::sweep_torn_tail(&journal_path));

    // Store::open: replays the intent log and loads the index.
    let (index_lines, intent_lines) = paused(|| {
        (read_lines(&store::index_path(root, label)), read_lines(&store::intent_path(root, label)))
    });
    let ((st, _open_stats), open_idx) = span_idx("store", "open", || {
        store::Store::open(runner::vfs::Vfs::real(), root, label, &cfg.code_version)
    });
    count("store.index_lines", index_lines.len() as f64);
    let mut sealed_lines = index_lines;
    sealed_lines.extend(intent_lines);
    replay_unseal(open_idx, &sealed_lines);

    let journal_lines = paused(|| read_lines(&journal_path));
    let (prior, load_idx) = span_idx("journal", "load", || journal::Journal::load(&journal_path));
    replay_parse(load_idx, &journal_lines);
    let prior_ok = span("journal", "prior", || {
        cells
            .iter()
            .filter(|c| {
                prior.status(cache::cell_key(&cfg.code_version, &c.spec))
                    == Some(journal::Status::Ok)
            })
            .count() as u64
    });
    let journal_bytes_before = paused(|| file_len(&journal_path));
    let writer = span("journal", "open", || {
        journal::Writer::open_with(&journal_path, runner::vfs::Vfs::real())
    })
    .map_err(|e| format!("journal open: {e}"))?;

    let progress = telemetry::Progress::new(cells.len() as u64, false);
    let keys: Vec<cache::CacheKey> = span("cli", "keys", || {
        cells.iter().map(|c| cache::cell_key(&cfg.code_version, &c.spec)).collect()
    });
    let mut slots: Vec<Option<CellValue>> = (0..cells.len()).map(|_| None).collect();
    let mut misses = Vec::new();
    for (i, cell) in cells.iter().enumerate() {
        let started = Instant::now();
        let (lookup, idx) = span_idx("store", "load", || st.load(keys[i], &cell.spec));
        count("store.loads", 1.0);
        match lookup {
            cache::Lookup::Hit(payload) => {
                count("store.hits", 1.0);
                let text = paused(|| {
                    std::fs::read_to_string(cache::entry_path(root, keys[i])).unwrap_or_default()
                });
                replay_unseal(idx, &[text]);
                let micros = started.elapsed().as_micros() as u64;
                progress.cell_done(&cell.spec.cell, micros, true);
                journal_append(&writer, keys[i], &cell.spec.cell, 0)?;
                slots[i] = Some(CellValue { payload, cached: true, attempts: 0, micros });
            }
            cache::Lookup::Miss => misses.push(i),
            cache::Lookup::Corrupt => {
                return Err(format!("corrupt store entry {}", cell.spec.cell))
            }
        }
    }

    let specs: Vec<runner::CellSpec> = cells.iter().map(|c| c.spec.clone()).collect();
    let mut engine = EnginePerf::default();
    if cfg.isolate {
        if !misses.is_empty() {
            spawn_probe(cfg, camp)?;
            for (i, outcome) in serve_misses(cells, &misses)? {
                let proto::WorkOutcome::Ok { payload, perf } = outcome else {
                    return Err(format!("cell {} did not complete: {outcome:?}", specs[i].cell));
                };
                engine.events_popped += perf.events_popped;
                engine.runs += perf.runs;
                engine.queue_peak = engine.queue_peak.max(perf.queue_peak);
                put_and_journal(&st, &writer, root, label, keys[i], &specs[i], &payload)?;
                progress.cell_done(&specs[i].cell, 0, false);
                slots[i] = Some(CellValue { payload, cached: false, attempts: 1, micros: 0 });
            }
        }
    } else {
        let probe = perf_probe();
        for &i in &misses {
            let started = Instant::now();
            let _ = probe();
            let payload = (cells[i].work)().map_err(|reason| {
                format!("cell {} rejected: {}", specs[i].cell, reason.to_string())
            })?;
            let perf = probe();
            engine.events_popped += perf.events_popped;
            engine.runs += perf.runs;
            engine.queue_peak = engine.queue_peak.max(perf.queue_peak);
            put_and_journal(&st, &writer, root, label, keys[i], &specs[i], &payload)?;
            let micros = started.elapsed().as_micros() as u64;
            progress.cell_done(&specs[i].cell, micros, false);
            slots[i] = Some(CellValue { payload, cached: false, attempts: 1, micros });
        }
    }
    let outcomes: Vec<CellOutcome> = specs
        .into_iter()
        .zip(keys)
        .zip(slots)
        .map(|((spec, key), slot)| {
            slot.map(|value| CellOutcome { spec, key, result: Ok(value) })
                .ok_or_else(|| "cell left without an outcome".to_string())
        })
        .collect::<Result<_, _>>()?;
    let journal_grown = paused(|| file_len(&journal_path) - journal_bytes_before);
    count("journal.bytes", journal_grown as f64);

    // Records file: one `CellOutcome::record` line per cell.
    let (res, rec_idx) = span_idx("cli", "records", || {
        let mut text = String::new();
        for o in &outcomes {
            if let Some(line) = o.record() {
                text.push_str(&line);
                text.push('\n');
            }
        }
        std::fs::write(records_path, text)
    });
    res.map_err(|e| format!("write records: {e}"))?;
    let record_values: Vec<Json> = paused(|| {
        outcomes
            .iter()
            .filter_map(|o| o.record())
            .filter_map(|line| Json::parse(&line).ok())
            .collect()
    });
    replay_encode(rec_idx, &record_values);

    let payloads: Vec<Json> =
        outcomes.iter().map(|o| o.payload().cloned().unwrap_or(Json::Null)).collect();
    let table_no: u32 = label.trim_start_matches("table").parse().unwrap_or(0);
    span("analysis", "assemble", || {
        let result = analysis::cells::assemble_table(camp.bench, &payloads);
        std::hint::black_box(analysis::render_table(&result, table_no));
    });

    let (done, cached, _) = progress.totals();
    let report = RunReport {
        label: label.to_string(),
        jobs: 1,
        code_version: cfg.code_version.clone(),
        cells_total: done,
        cells_cached: cached,
        cells_failed: 0,
        cells_invalid: 0,
        cells_crashed: 0,
        cells_deadline: 0,
        retries: 0,
        cache_store_errors: 0,
        cache_load_corruptions: 0,
        orphans_swept: 0,
        sweep: cache::SweepStats::default(),
        intents_resolved: 0,
        torn_entries_removed: 0,
        journal_torn_bytes: 0,
        journal_prior_ok: prior_ok,
        lock_broken: None,
        store: st.counters(),
        storage_bypass: false,
        bypassed_writes: 0,
        disk_fault_limit: 32,
        wall_seconds: wall.elapsed().as_secs_f64(),
        engine,
        exec_micros: progress.exec_micros_total(),
        latency_histogram: progress.histogram(),
        p50_micros: progress.quantile_micros(0.50),
        p90_micros: progress.quantile_micros(0.90),
        quarantined: Vec::new(),
        outcomes,
        isolate: None,
    };
    let (path, man_idx) = span_idx("manifest", "write", || report.write_manifest(root));
    let path = path.map_err(|e| format!("write manifest: {e}"))?;
    let body = paused(|| report.manifest());
    let (pretty_ns, pretty_len) = paused(|| {
        let (s, ns) = timed(|| body.to_string_pretty());
        (ns, s.len())
    });
    attribute(man_idx, "jsonio", "encode", pretty_ns);
    count("jsonio.encode_bytes", pretty_len as f64);
    count("manifest.bytes", paused(|| file_len(&path)) as f64);
    count("manifest.writes", 1.0);
    drop(st);
    span("cli", "unlock", || drop(lock));
    Ok(())
}

// -------------------------------------------------------------- summary

fn summarize(wall_ns: u64) -> Json {
    TRACE.with(|t| {
        let t = t.borrow();
        let mut by_name: BTreeMap<(&str, &str), u64> = BTreeMap::new();
        let mut by_layer: BTreeMap<&str, u64> = BTreeMap::new();
        let mut unattributed = 0u64;
        for s in &t.spans {
            let own = s.dur_ns.saturating_sub(s.child_ns);
            if s.parent.is_none() {
                // A campaign's root span: time no layer span covers.
                unattributed += own;
                continue;
            }
            *by_name.entry((s.layer, s.name)).or_insert(0) += own;
            *by_layer.entry(s.layer).or_insert(0) += own;
        }
        let secs = |ns: u64| ns as f64 / 1e9;
        let own = |layer: &str, name: &str| secs(by_name.get(&(layer, name)).copied().unwrap_or(0));
        let c = |name: &str| t.counts.get(name).copied().unwrap_or(0.0);
        let mut m: Vec<(String, f64)> = Vec::new();
        let mut put = |k: &str, v: f64| m.push((k.to_string(), v));
        let busy = own("engine", "run");
        put("engine.busy_s", busy);
        put("engine.events", c("engine.events"));
        put("engine.runs", c("engine.runs"));
        put(
            "engine.ns_per_event",
            if c("engine.events") > 0.0 { busy * 1e9 / c("engine.events") } else { 0.0 },
        );
        put("engine.queue_peak", c("engine.queue_peak"));
        put("nas.programs_s", own("nas", "programs"));
        put("nas.calibrate_self_s", own("nas", "calibrate"));
        put("smi_driver.schedule_s", own("smi_driver", "schedule"));
        put("analysis.cell_self_s", own("analysis", "cell"));
        put("analysis.assemble_s", own("analysis", "assemble"));
        put("jsonio.encode_s", own("jsonio", "encode"));
        put("jsonio.encode_bytes", c("jsonio.encode_bytes"));
        put("jsonio.seal_s", own("jsonio", "seal"));
        put("jsonio.unseal_s", own("jsonio", "unseal"));
        put("jsonio.parse_s", own("jsonio", "parse"));
        put("jsonio.parse_bytes", c("jsonio.parse_bytes"));
        put("store.open_s", own("store", "open"));
        put("store.index_lines", c("store.index_lines"));
        put("store.loads", c("store.loads"));
        put("store.load_s", own("store", "load"));
        put(
            "store.hit_ratio",
            if c("store.loads") > 0.0 { c("store.hits") / c("store.loads") } else { 0.0 },
        );
        put("store.puts", c("store.puts"));
        put("store.put_s", own("store", "put"));
        put("store.fsyncs", c("store.puts") + c("manifest.writes"));
        put("store.bytes_written", c("store.bytes_written"));
        put("journal.load_s", own("journal", "load"));
        put("journal.appends", c("journal.appends"));
        put("journal.append_s", own("journal", "append"));
        put("journal.bytes", c("journal.bytes"));
        put("manifest.write_s", own("manifest", "write"));
        put("manifest.bytes", c("manifest.bytes"));
        put("ipc.spawn_s", own("ipc", "spawn"));
        put("ipc.frames", c("ipc.frames"));
        put("ipc.bytes", c("ipc.bytes"));
        put("ipc.codec_s", own("ipc", "encode") + own("ipc", "decode"));
        put("cli.start_s", own("cli", "start"));
        put("cli.records_s", own("cli", "records"));
        let mut self_sum = 0u64;
        let mut layers = Vec::new();
        for layer in LAYERS {
            let ns = by_layer.get(layer).copied().unwrap_or(0);
            self_sum += ns;
            layers.push((layer.to_string(), Json::F64(secs(ns))));
        }
        let unknown: u64 =
            by_layer.iter().filter(|(l, _)| !LAYERS.contains(l)).map(|(_, ns)| *ns).sum();
        self_sum += unknown;
        let metrics = Json::Obj(m.into_iter().map(|(k, v)| (k, Json::F64(v))).collect());
        Json::obj(vec![
            ("metrics", metrics),
            ("layer_self_s", Json::Obj(layers)),
            ("self_sum_s", Json::F64(secs(self_sum))),
            ("unattributed_s", Json::F64(secs(unattributed))),
            ("wall_s", Json::F64(secs(wall_ns))),
            ("replay_s", Json::F64(secs(t.paused_ns))),
            ("spans", Json::U64(t.spans.len() as u64)),
        ])
    })
}

/// The layers self time is reported for, in report order.
const LAYERS: [&str; 10] = [
    "engine",
    "nas",
    "smi_driver",
    "analysis",
    "jsonio",
    "store",
    "journal",
    "manifest",
    "ipc",
    "cli",
];

fn write_spans(path: &Path) -> std::io::Result<()> {
    TRACE.with(|t| {
        let t = t.borrow();
        let mut out = String::new();
        for (i, s) in t.spans.iter().enumerate() {
            let line = Json::obj(vec![
                ("id", Json::U64(i as u64)),
                ("parent", s.parent.map(|p| Json::U64(p as u64)).unwrap_or(Json::Null)),
                ("layer", Json::Str(s.layer.into())),
                ("name", Json::Str(s.name.into())),
                ("start_ns", Json::U64(s.start_ns)),
                ("dur_ns", Json::U64(s.dur_ns)),
                ("self_ns", Json::U64(s.dur_ns.saturating_sub(s.child_ns))),
                ("replayed", Json::Bool(s.replayed)),
            ]);
            out.push_str(&line.to_string());
            out.push('\n');
        }
        std::fs::write(path, out)
    })
}

fn main() {
    if let Err(e) = real_main() {
        eprintln!("perfbench-tracer: {e}");
        std::process::exit(1);
    }
}

fn real_main() -> Result<(), String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    let (mut mode, mut store, mut records, mut bin, mut code, mut spans) =
        (None, None, None, None, None, None);
    let mut campaigns = Vec::new();
    while let Some(arg) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--mode" => mode = Some(value()?),
            "--store" => store = Some(PathBuf::from(value()?)),
            "--records-dir" => records = Some(PathBuf::from(value()?)),
            "--smi-lab" => bin = Some(PathBuf::from(value()?)),
            "--code-version" => code = Some(value()?),
            "--spans" => spans = Some(PathBuf::from(value()?)),
            "--campaign" => campaigns.push(parse_campaign(&value()?)?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let isolate = match mode.as_deref() {
        Some("inproc") => false,
        Some("isolate") => true,
        other => return Err(format!("--mode must be inproc or isolate, got {other:?}")),
    };
    let cfg = Config {
        isolate,
        store: store.ok_or("--store is required")?,
        records_dir: records.ok_or("--records-dir is required")?,
        smi_lab: bin.ok_or("--smi-lab is required")?,
        code_version: code.ok_or("--code-version is required")?,
    };
    let spans = spans.ok_or("--spans is required")?;
    if campaigns.is_empty() {
        return Err("at least one --campaign is required".into());
    }
    std::fs::create_dir_all(&cfg.records_dir).map_err(|e| format!("records dir: {e}"))?;
    // Discard engine counts from anything before the first campaign.
    let _ = sim_core::perf::take();
    let t0 = TRACE.with(|t| t.borrow().now());
    for (i, camp) in campaigns.iter().enumerate() {
        let path = cfg.records_dir.join(format!("{i}.jsonl"));
        span("cli", "campaign", || run_campaign(&cfg, camp, &path))?;
    }
    let wall_ns = TRACE.with(|t| t.borrow().now()) - t0;
    let summary = summarize(wall_ns);
    write_spans(&spans).map_err(|e| format!("write spans: {e}"))?;
    println!("{}", summary.to_string());
    Ok(())
}
