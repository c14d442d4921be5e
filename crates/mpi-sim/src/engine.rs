//! The cluster discrete-event engine.
//!
//! Executes one lowered [`LowOp`] per event per rank, in global time
//! order, so message matching and NIC reservations happen causally. Every
//! timestamp a rank produces is mapped through its node's
//! [`FreezeSchedule`](sim_core::FreezeSchedule): compute segments via
//! `NodeExecutor` (which adds SMI rendezvous and
//! cache-refill overhead per window), message completions via
//! `advance`/`unfreeze`. The paper's central result — long-SMI
//! perturbation growing with node count — emerges from unsynchronized
//! per-node schedules delaying different collective rounds on different
//! nodes.
//!
//! # Message matching
//!
//! Each receiving rank owns two match queues, kept in arrival order: the
//! receives it has posted and the sends addressed to it that no receive
//! has matched yet (the unexpected queue). A send or receive takes the
//! oldest entry with the same `(src, tag)`, so matching is FIFO per
//! `(src, dst, tag)` channel. The queues hold only outstanding
//! operations and live in the per-thread arena, so a run's matching
//! memory is O(ranks + outstanding operations) however many distinct
//! tags its collectives use.
//!
//! # Validity
//!
//! The engine never panics on bad input. [`run`], the configurable
//! [`run_with`], [`Job::new`] and [`Job::run`] return `Result`s:
//!
//! * malformed jobs — wrong lengths, out-of-range peers, self-messaging,
//!   out-of-domain intensities — are rejected up front as
//!   [`SimError::InvalidSpec`];
//! * a drained event queue with unfinished ranks is diagnosed as
//!   [`SimError::Deadlock`], naming the stuck ranks and the
//!   send/recv operations they are blocked on;
//! * an event count beyond any bound a well-formed job can reach is cut
//!   off as [`SimError::Stalled`] rather than looping forever;
//! * engine self-checks (time monotonicity, blocking-part accounting, NIC
//!   routing) report [`SimError::InvariantViolation`]. The always-on
//!   checks are O(1) per event; [`RunConfig::validate`] adds end-of-run
//!   message conservation, byte-tally, and freeze-schedule coverage
//!   audits that cost one pass over the freeze windows (the byte tally's
//!   expected counts are taken once, when the job is lowered).

use crate::cluster::{ClusterSpec, NodeState};
use crate::network::{NetworkParams, NicState};
use crate::program::{lower_into, LowOp, RankProgram};
use machine::NodeExecutor;
use sim_core::{BlockedOp, BlockedOpKind, EventQueue, SimDuration, SimError, SimTime};

/// Outcome of one MPI job execution.
#[derive(Clone, Debug, jsonio::ToJson)]
pub struct RunOutcome {
    /// Wall-clock duration of the job (last rank's finish).
    pub makespan: SimDuration,
    /// Per-rank wall finish instants.
    pub rank_finish: Vec<SimTime>,
    /// Messages transferred (p2p, after lowering).
    pub messages: u64,
    /// Total payload bytes moved.
    pub bytes: u64,
    /// Sum over nodes of SMM residency during the job.
    pub total_frozen: SimDuration,
    /// Sum over nodes of SMM windows that began during the job.
    pub smi_count: usize,
}

impl RunOutcome {
    /// Job duration in seconds (the unit the paper's tables use).
    pub fn seconds(&self) -> f64 {
        self.makespan.as_secs_f64()
    }
}

/// Engine knobs beyond the job description itself.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RunConfig {
    /// Run the opt-in end-of-run audits (message conservation, byte
    /// tallies, freeze-schedule coverage, node-shape cross-checks) in
    /// addition to the always-on per-event invariants. Surfaced on the
    /// command line as `smi-lab --validate`.
    pub validate: bool,
}

impl RunConfig {
    /// Configuration with the opt-in audits enabled.
    pub fn validating() -> Self {
        RunConfig { validate: true }
    }
}

#[derive(Clone, Copy, Debug)]
struct PendingSend {
    post_time: SimTime,
    bytes: u64,
    rendezvous: bool,
}

/// One receiving rank's match queues, as in MPICH: the receives it has
/// posted that no send has matched yet, and the sends addressed to it
/// that arrived before a matching receive (the unexpected queue). Both
/// hold `(src, tag, payload)` in arrival order (a posted receive's
/// payload is its post time); a match takes the oldest entry with the
/// same `(src, tag)`, which is exactly FIFO per `(src, dst, tag)`
/// channel. Queues hold only outstanding operations, so they stay short
/// however many distinct tags a run uses.
#[derive(Debug, Default)]
struct MatchQueues {
    posted: Vec<(u32, u64, SimTime)>,
    unexpected: Vec<(u32, u64, PendingSend)>,
}

/// Remove and return the oldest entry from `src` with `tag`, keeping the
/// rest in order.
fn take_match<T: Copy>(queue: &mut Vec<(u32, u64, T)>, src: u32, tag: u64) -> Option<T> {
    let i = queue.iter().position(|&(s, t, _)| s == src && t == tag)?;
    Some(queue.remove(i).2)
}

/// Run an MPI job: one [`RankProgram`] per rank over the given nodes,
/// with default [`RunConfig`] (always-on invariants only).
pub fn run(
    spec: &ClusterSpec,
    nodes: &[NodeState],
    programs: &[RankProgram],
    network: &NetworkParams,
) -> Result<RunOutcome, SimError> {
    run_with(spec, nodes, programs, network, &RunConfig::default())
}

/// Reusable per-thread scratch state for the event loop: the rank-indexed
/// buffers (node indices, program counters, outstanding blocking parts,
/// availability clocks, finish times, per-rank match queues) and the
/// event queue survive across runs (a campaign executes
/// thousands of cells per worker thread, and these were the allocation
/// churn), while anything borrowing run inputs is rebuilt per run.
#[derive(Debug, Default)]
struct SimArena {
    node: Vec<usize>,
    pc: Vec<usize>,
    parts: Vec<u32>,
    avail: Vec<SimTime>,
    done: Vec<Option<SimTime>>,
    inbox: Vec<MatchQueues>,
    queue: EventQueue<u32>,
}

impl SimArena {
    /// Make every buffer hold exactly `n_ranks` zeroed entries, empty
    /// every match queue, and empty the event queue (also resetting its
    /// counters), keeping capacity.
    fn reset(&mut self, n_ranks: usize) {
        for q in &mut self.inbox {
            q.posted.clear();
            q.unexpected.clear();
        }
        self.inbox.resize_with(n_ranks, MatchQueues::default);
        self.pc.clear();
        self.pc.resize(n_ranks, 0);
        self.parts.clear();
        self.parts.resize(n_ranks, 0);
        self.avail.clear();
        self.avail.resize(n_ranks, SimTime::ZERO);
        self.done.clear();
        self.done.resize(n_ranks, None);
        self.queue.clear();
    }
}

thread_local! {
    static ARENA: std::cell::Cell<Option<Box<SimArena>>> =
        const { std::cell::Cell::new(None) };
}

fn take_arena() -> Box<SimArena> {
    ARENA.with(|a| a.take()).unwrap_or_default()
}

fn put_arena(arena: Box<SimArena>) {
    ARENA.with(|a| a.set(Some(arena)));
}

/// Run an MPI job with explicit engine configuration: [`Job::new`] and
/// [`Job::run`] with the programs' own compute durations. Malformed input
/// is checked in one fixed order — the spec, the node count, the program
/// count, each node, each program — so a job with several faults reports
/// the first in that order.
pub fn run_with(
    spec: &ClusterSpec,
    nodes: &[NodeState],
    programs: &[RankProgram],
    network: &NetworkParams,
    config: &RunConfig,
) -> Result<RunOutcome, SimError> {
    spec.validate()?;
    check_node_count(spec, nodes)?;
    check_program_count(spec, programs)?;
    check_nodes(spec, nodes, config)?;
    check_programs(programs)?;
    let job = Job::lower(spec, programs, network);
    job.execute(nodes, &job.durations, config)
}

fn check_node_count(spec: &ClusterSpec, nodes: &[NodeState]) -> Result<(), SimError> {
    if nodes.len() != spec.nodes as usize {
        return Err(SimError::invalid(
            "job",
            format!("{} node state(s) for a {}-node cluster", nodes.len(), spec.nodes),
        ));
    }
    Ok(())
}

fn check_program_count(spec: &ClusterSpec, programs: &[RankProgram]) -> Result<(), SimError> {
    let n_ranks = spec.total_ranks() as usize;
    if programs.len() != n_ranks {
        return Err(SimError::invalid(
            "job",
            format!("{} rank program(s) for {} rank(s)", programs.len(), n_ranks),
        ));
    }
    if n_ranks == 0 {
        return Err(SimError::invalid("job", "zero ranks"));
    }
    Ok(())
}

/// Each node's own checks, plus `--validate`'s cross-check of its online
/// CPUs against the spec.
fn check_nodes(
    spec: &ClusterSpec,
    nodes: &[NodeState],
    config: &RunConfig,
) -> Result<(), SimError> {
    for (i, node) in nodes.iter().enumerate() {
        node.validate().map_err(|e| match e {
            SimError::InvalidSpec { context, problem } => {
                SimError::invalid(format!("node {i} {context}"), problem)
            }
            other => other,
        })?;
        if config.validate && node.online_cpus != spec.online_cpus() {
            return Err(SimError::invalid(
                format!("node {i} state"),
                format!(
                    "{} online CPUs disagrees with the cluster spec's {}",
                    node.online_cpus,
                    spec.online_cpus()
                ),
            ));
        }
    }
    Ok(())
}

fn check_programs(programs: &[RankProgram]) -> Result<(), SimError> {
    let n_ranks = programs.len() as u32;
    for (r, program) in programs.iter().enumerate() {
        program.validate(r as u32, n_ranks)?;
    }
    Ok(())
}

/// A lowered op as a [`Job`] stores it: each of the programs' own compute
/// segments is an index into the run's duration slice; everything else,
/// including the combining work of reductions, stays a [`LowOp`].
#[derive(Clone, Copy, Debug)]
enum Step {
    Work(u32),
    Low(LowOp),
}

impl From<LowOp> for Step {
    fn from(op: LowOp) -> Self {
        Step::Low(op)
    }
}

/// An MPI job validated and lowered once, to run many times.
///
/// A job holds what every repetition of a campaign cell shares: the
/// cluster shape, the network, every rank's lowered program, and each
/// rank's memory and communication intensity. What varies per repetition
/// is passed to [`run`](Job::run): the node states (freeze schedules) and
/// the compute durations. Each rank has a table of the distinct durations
/// its program's `Op::Compute`s carry, in first-use order;
/// [`durations`](Job::durations) is every rank's table concatenated in
/// rank order, and `run` takes a slice of the same layout. A run with
/// other durations gives exactly what [`run_with`] gives on the programs
/// with those durations written into their `Compute` ops.
#[derive(Clone, Debug)]
pub struct Job {
    spec: ClusterSpec,
    network: NetworkParams,
    /// One lowered program per rank.
    steps: Vec<Vec<Step>>,
    /// The programs' own compute durations, every rank's table in turn.
    durations: Vec<SimDuration>,
    /// Per-rank `(memory, comm)` intensity.
    intensities: Vec<(f64, f64)>,
    /// Messages and payload bytes the lowered programs call for.
    planned: (u64, u64),
}

impl Job {
    /// Validate `spec` and `programs` (one per rank) and lower every rank
    /// once.
    pub fn new(
        spec: &ClusterSpec,
        programs: &[RankProgram],
        network: &NetworkParams,
    ) -> Result<Job, SimError> {
        spec.validate()?;
        check_program_count(spec, programs)?;
        check_programs(programs)?;
        Ok(Job::lower(spec, programs, network))
    }

    /// Lower programs that have passed `check_programs`.
    fn lower(spec: &ClusterSpec, programs: &[RankProgram], network: &NetworkParams) -> Job {
        let size = programs.len() as u32;
        let mut steps = Vec::with_capacity(programs.len());
        let mut durations: Vec<SimDuration> = Vec::new();
        let mut planned = (0u64, 0u64);
        for (r, p) in programs.iter().enumerate() {
            let first = durations.len();
            let mut out = Vec::with_capacity(p.ops.len() * 2);
            let reduce_cost = |b| network.reduce_cost(b);
            lower_into(&mut out, p, r as u32, size, reduce_cost, |w| {
                let i = match durations[first..].iter().position(|&d| d == w) {
                    Some(i) => first + i,
                    None => {
                        durations.push(w);
                        durations.len() - 1
                    }
                };
                Step::Work(i as u32)
            });
            for step in &out {
                if let Step::Low(LowOp::Send { bytes, .. } | LowOp::SendRecv { bytes, .. }) = step {
                    planned.0 += 1;
                    planned.1 += bytes;
                }
            }
            steps.push(out);
        }
        let intensities = programs.iter().map(|p| (p.memory_intensity, p.comm_intensity)).collect();
        Job { spec: *spec, network: *network, steps, durations, intensities, planned }
    }

    /// The programs' own compute durations: each rank's table of distinct
    /// values in first-use order, concatenated in rank order.
    pub fn durations(&self) -> &[SimDuration] {
        &self.durations
    }

    /// Run the job over `nodes` with `durations` in place of the programs'
    /// own (same layout as [`durations`](Job::durations)).
    pub fn run(
        &self,
        nodes: &[NodeState],
        durations: &[SimDuration],
        config: &RunConfig,
    ) -> Result<RunOutcome, SimError> {
        check_node_count(&self.spec, nodes)?;
        check_nodes(&self.spec, nodes, config)?;
        if durations.len() != self.durations.len() {
            return Err(SimError::invalid(
                "job",
                format!(
                    "{} compute duration(s) for a job whose tables hold {}",
                    durations.len(),
                    self.durations.len()
                ),
            ));
        }
        self.execute(nodes, durations, config)
    }

    /// The event loop, on checked nodes and a full duration slice.
    fn execute(
        &self,
        nodes: &[NodeState],
        durations: &[SimDuration],
        config: &RunConfig,
    ) -> Result<RunOutcome, SimError> {
        // The arena is taken (not borrowed) so an early `?` cannot leave a
        // thread-local in a half-used state; it is returned on every path.
        let mut arena = take_arena();
        let result = run_core(self, &mut arena, nodes, durations, config);
        if result.is_ok() {
            sim_core::perf::record_run(arena.queue.stats());
        }
        put_arena(arena);
        result
    }
}

/// The event loop of [`Job::run`].
fn run_core(
    job: &Job,
    arena: &mut SimArena,
    nodes: &[NodeState],
    durations: &[SimDuration],
    config: &RunConfig,
) -> Result<RunOutcome, SimError> {
    let Job { spec, network, steps, intensities, planned, .. } = job;
    let n_ranks = steps.len();
    arena.reset(n_ranks);
    let SimArena { node, pc, parts, avail, done, inbox, queue } = arena;

    // Per-rank executors (borrow the schedule of the core hosting the
    // rank: a per-core override when the noise model is core-local, the
    // node-global schedule otherwise).
    let rpn = spec.ranks_per_node.max(1);
    node.clear();
    node.extend((0..n_ranks as u32).map(|r| spec.node_of(r) as usize));
    let executors: Vec<NodeExecutor<'_>> = (0..n_ranks)
        .map(|r| {
            let state = &nodes[node[r]];
            let (mi, ci) = intensities[r];
            NodeExecutor::try_new(
                state.schedule_for_core(r as u32 % rpn),
                state.effects,
                state.online_cpus,
                mi,
                ci,
            )
        })
        .collect::<Result<_, _>>()?;
    let node = &*node;

    let mut nic = NicState::new(spec.nodes as usize);
    let mut messages = 0u64;
    let mut bytes_total = 0u64;

    for r in 0..n_ranks {
        queue.push(SimTime::ZERO, r as u32);
    }

    let sched = |r: usize| executors[r].schedule();

    // Price one transfer and reserve the NICs. Returns the completion
    // instant of the payload at the receiving node.
    let mut transfer = |nic: &mut NicState,
                        src: usize,
                        dst: usize,
                        bytes: u64,
                        send_ready: SimTime,
                        recv_ready: SimTime|
     -> Result<SimTime, SimError> {
        if src == dst {
            return Err(SimError::invariant(
                "message routing",
                format!("rank {src} matched a message with itself"),
            ));
        }
        messages += 1;
        bytes_total += bytes;
        let (sn, dn) = (node[src], node[dst]);
        let earliest = send_ready.max(recv_ready);
        if sn == dn {
            Ok(earliest + network.shm_latency + network.shm_time(bytes))
        } else {
            let (_, wire_end) = nic.reserve(sn, dn, earliest, network.wire_time(bytes))?;
            Ok(wire_end + network.net_latency)
        }
    };

    // A blocking part of rank `r` completed at `time`.
    macro_rules! part_done {
        ($r:expr, $time:expr) => {{
            let r = $r;
            if parts[r] == 0 {
                return Err(SimError::invariant(
                    "blocking-part accounting",
                    format!("rank {r} completed a blocking part it never posted"),
                ));
            }
            parts[r] -= 1;
            avail[r] = avail[r].max($time);
            if parts[r] == 0 {
                queue.push(avail[r], r as u32);
            }
        }};
    }

    // A well-formed job pops each rank's events a small constant number
    // of times per lowered op; anything far beyond that bound means the
    // loop is spinning without making virtual-time progress.
    let total_ops: usize = steps.iter().map(Vec::len).sum();
    let stall_bound = 8 * total_ops as u64 + 16 * n_ranks as u64 + 256;
    let mut pops = 0u64;
    let mut last_pop = SimTime::ZERO;

    while let Some((t, r32)) = queue.pop() {
        pops += 1;
        if pops > stall_bound {
            return Err(SimError::Stalled {
                at_nanos: t.since(SimTime::ZERO).as_nanos(),
                rounds: pops,
            });
        }
        if t < last_pop {
            return Err(SimError::invariant(
                "time monotonicity",
                format!("event at {t:?} popped after {last_pop:?}"),
            ));
        }
        last_pop = t;
        let r = r32 as usize;
        if done[r].is_some() {
            continue;
        }
        let t = t.max(avail[r]);
        let op = match steps[r].get(pc[r]) {
            Some(&Step::Work(i)) => LowOp::Compute(durations[i as usize]),
            Some(&Step::Low(op)) => op,
            None => {
                done[r] = Some(t);
                continue;
            }
        };
        match op {
            LowOp::Compute(w) => {
                let end = executors[r].execute(t, w).wall_end;
                pc[r] += 1;
                queue.push(end, r32);
            }
            LowOp::Send { dst, bytes, tag } => {
                let dst = dst as usize;
                let t_post = sched(r).advance(t, network.send_overhead);
                let rendezvous = bytes > network.eager_threshold;
                pc[r] += 1;
                if let Some(recv_post) = take_match(&mut inbox[dst].posted, r32, tag) {
                    let completion = transfer(&mut nic, r, dst, bytes, t_post, recv_post)?;
                    let resume_recv = sched(dst).advance(completion, network.recv_overhead);
                    part_done!(dst, resume_recv);
                    let resume_self =
                        if rendezvous { t_post.max(sched(r).unfreeze(completion)) } else { t_post };
                    queue.push(resume_self, r32);
                } else {
                    let send = PendingSend { post_time: t_post, bytes, rendezvous };
                    inbox[dst].unexpected.push((r32, tag, send));
                    if rendezvous {
                        parts[r] = 1;
                        avail[r] = t_post;
                    } else {
                        queue.push(t_post, r32);
                    }
                }
            }
            LowOp::Recv { src, tag } => {
                let src = src as usize;
                pc[r] += 1;
                if let Some(send) = take_match(&mut inbox[r].unexpected, src as u32, tag) {
                    let completion = transfer(&mut nic, src, r, send.bytes, send.post_time, t)?;
                    if send.rendezvous {
                        part_done!(src, sched(src).unfreeze(completion));
                    }
                    let resume = sched(r).advance(completion, network.recv_overhead);
                    queue.push(resume, r32);
                } else {
                    inbox[r].posted.push((src as u32, tag, t));
                    parts[r] = 1;
                    avail[r] = t;
                }
            }
            LowOp::SendRecv { dst, src, bytes, tag } => {
                let dst = dst as usize;
                let src = src as usize;
                let t_post = sched(r).advance(t, network.send_overhead);
                let rendezvous = bytes > network.eager_threshold;
                pc[r] += 1;
                parts[r] = 0;
                avail[r] = t_post;
                // Outgoing half.
                if let Some(recv_post) = take_match(&mut inbox[dst].posted, r32, tag) {
                    let completion = transfer(&mut nic, r, dst, bytes, t_post, recv_post)?;
                    let resume_recv = sched(dst).advance(completion, network.recv_overhead);
                    part_done!(dst, resume_recv);
                    if rendezvous {
                        avail[r] = avail[r].max(sched(r).unfreeze(completion));
                    }
                } else {
                    let send = PendingSend { post_time: t_post, bytes, rendezvous };
                    inbox[dst].unexpected.push((r32, tag, send));
                    if rendezvous {
                        parts[r] += 1;
                    }
                }
                // Incoming half.
                if let Some(send) = take_match(&mut inbox[r].unexpected, src as u32, tag) {
                    let completion =
                        transfer(&mut nic, src, r, send.bytes, send.post_time, t_post)?;
                    if send.rendezvous {
                        part_done!(src, sched(src).unfreeze(completion));
                    }
                    avail[r] = avail[r].max(sched(r).advance(completion, network.recv_overhead));
                } else {
                    inbox[r].posted.push((src as u32, tag, t_post));
                    parts[r] += 1;
                }
                if parts[r] == 0 {
                    queue.push(avail[r], r32);
                }
            }
        }
    }

    // Every rank must have finished; a drained queue with unfinished
    // ranks is a deadlock — diagnose it from the posted-but-unmatched
    // operations instead of panicking.
    let waiting_ranks: Vec<u32> =
        (0..n_ranks as u32).filter(|&r| done[r as usize].is_none()).collect();
    if !waiting_ranks.is_empty() {
        // Every posted receive goes in before any send, so a rendezvous
        // `SendRecv` whose halves share a peer and tag lists its `Recv`
        // first after the stable sort.
        let mut blocked_ops = Vec::new();
        for (dst, q) in inbox.iter().enumerate() {
            for &(src, tag, _) in &q.posted {
                blocked_ops.push(BlockedOp {
                    rank: dst as u32,
                    kind: BlockedOpKind::Recv,
                    peer: src,
                    tag,
                });
            }
        }
        for (dst, q) in inbox.iter().enumerate() {
            for &(src, tag, send) in &q.unexpected {
                if send.rendezvous {
                    blocked_ops.push(BlockedOp {
                        rank: src,
                        kind: BlockedOpKind::Send,
                        peer: dst as u32,
                        tag,
                    });
                }
            }
        }
        blocked_ops.sort_by_key(|b| (b.rank, b.peer, b.tag));
        return Err(SimError::Deadlock { waiting_ranks, blocked_ops });
    }

    let rank_finish: Vec<SimTime> = done.iter().copied().flatten().collect();
    let Some(end) = rank_finish.iter().copied().max() else {
        return Err(SimError::invariant("rank accounting", "no rank produced a finish time"));
    };

    if config.validate {
        audit_run(inbox, (messages, bytes_total), *planned, nodes, end)?;
    }

    let mut total_frozen = SimDuration::ZERO;
    let mut smi_count = 0usize;
    for node in nodes {
        if node.per_core.is_empty() {
            total_frozen += node.schedule.frozen_between(SimTime::ZERO, end);
            smi_count += node.schedule.count_between(SimTime::ZERO, end);
        } else {
            // Per-core noise: report the worst core's stolen time (the
            // node-level analogue of a node-global freeze) and the total
            // event count across cores.
            let mut worst = SimDuration::ZERO;
            for s in &node.per_core {
                worst = worst.max(s.frozen_between(SimTime::ZERO, end));
                smi_count += s.count_between(SimTime::ZERO, end);
            }
            total_frozen += worst;
        }
    }
    Ok(RunOutcome {
        makespan: end.since(SimTime::ZERO),
        rank_finish,
        messages,
        bytes: bytes_total,
        total_frozen,
        smi_count,
    })
}

/// The `--validate` end-of-run audits: message conservation, byte
/// tallies, and freeze-schedule coverage.
fn audit_run(
    inbox: &[MatchQueues],
    (messages, bytes_total): (u64, u64),
    (expect_messages, expect_bytes): (u64, u64),
    nodes: &[NodeState],
    end: SimTime,
) -> Result<(), SimError> {
    // Message conservation: with every rank finished, nothing may remain
    // posted. (Leftover eager sends are the silent variant — the sender
    // completed without its message ever being consumed.)
    let leftover_sends: usize = inbox.iter().map(|q| q.unexpected.len()).sum();
    let leftover_recvs: usize = inbox.iter().map(|q| q.posted.len()).sum();
    if leftover_sends + leftover_recvs > 0 {
        return Err(SimError::invariant(
            "message conservation",
            format!(
                "{leftover_sends} unconsumed send(s) and {leftover_recvs} unmatched recv(s) \
                 after all ranks finished"
            ),
        ));
    }
    // Byte tally: every lowered Send/SendRecv moves exactly one message.
    if messages != expect_messages || bytes_total != expect_bytes {
        return Err(SimError::invariant(
            "byte tally",
            format!(
                "transferred {messages} message(s)/{bytes_total} byte(s), lowered programs \
                 call for {expect_messages}/{expect_bytes}"
            ),
        ));
    }
    // Freeze coverage: every schedule's wall span must decompose exactly
    // into working time plus stolen time — per core where overrides
    // exist, node-globally otherwise.
    let span = end.since(SimTime::ZERO);
    for (i, node) in nodes.iter().enumerate() {
        let schedules: Vec<&sim_core::FreezeSchedule> = if node.per_core.is_empty() {
            vec![&node.schedule]
        } else {
            node.per_core.iter().collect()
        };
        for (c, s) in schedules.iter().enumerate() {
            let frozen = s.frozen_between(SimTime::ZERO, end);
            let work = s.work_between(SimTime::ZERO, end);
            if work + frozen != span {
                return Err(SimError::invariant(
                    "freeze coverage",
                    format!(
                        "node {i} core {c}: work {work:?} + frozen {frozen:?} != span {span:?}"
                    ),
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::Op;
    use machine::SmiSideEffects;
    use sim_core::{DurationModel, FreezeSchedule, PeriodicFreeze, SimRng, TriggerPolicy};

    fn quiet_nodes(n: u32) -> Vec<NodeState> {
        (0..n)
            .map(|_| NodeState {
                schedule: FreezeSchedule::none(),
                effects: SmiSideEffects::none(),
                online_cpus: 4,
                per_core: Vec::new(),
            })
            .collect()
    }

    fn noisy_nodes(n: u32, seed: u64) -> Vec<NodeState> {
        let mut rng = SimRng::new(seed);
        (0..n)
            .map(|_| NodeState {
                schedule: FreezeSchedule::periodic(PeriodicFreeze::with_random_phase(
                    SimDuration::from_secs(1),
                    DurationModel::long_smi(),
                    &mut rng,
                )),
                effects: SmiSideEffects::none(),
                online_cpus: 4,
                per_core: Vec::new(),
            })
            .collect()
    }

    fn net() -> NetworkParams {
        NetworkParams::gigabit_cluster()
    }

    fn wyeast(nodes: u32, rpn: u32, htt: bool) -> ClusterSpec {
        ClusterSpec::wyeast(nodes, rpn, htt).expect("valid shape")
    }

    #[test]
    fn single_rank_compute_only() {
        let spec = wyeast(1, 1, false);
        let prog = RankProgram::new(vec![Op::Compute(SimDuration::from_secs(2))]);
        let out = run(&spec, &quiet_nodes(1), &[prog], &net()).expect("valid job");
        assert_eq!(out.makespan, SimDuration::from_secs(2));
        assert_eq!(out.messages, 0);
    }

    #[test]
    fn eager_ping_pong_latency() {
        let spec = wyeast(2, 1, false);
        let p0 = RankProgram::new(vec![
            Op::Send { dst: 1, bytes: 8, tag: 1 },
            Op::Recv { src: 1, tag: 2 },
        ]);
        let p1 = RankProgram::new(vec![
            Op::Recv { src: 0, tag: 1 },
            Op::Send { dst: 0, bytes: 8, tag: 2 },
        ]);
        let out = run(&spec, &quiet_nodes(2), &[p0, p1], &net()).expect("valid job");
        // Round trip: 2 x (send overhead + latency + wire + recv overhead).
        let expect = 2.0
            * (net().send_overhead.as_secs_f64()
                + net().net_latency.as_secs_f64()
                + net().wire_time(8).as_secs_f64()
                + net().recv_overhead.as_secs_f64());
        assert!(
            (out.makespan.as_secs_f64() - expect).abs() < 1e-6,
            "makespan {} vs expected {expect}",
            out.makespan.as_secs_f64()
        );
        assert_eq!(out.messages, 2);
        assert_eq!(out.bytes, 16);
    }

    #[test]
    fn intra_node_messages_skip_the_nic() {
        let spec = wyeast(1, 2, false);
        let p0 = RankProgram::new(vec![Op::Send { dst: 1, bytes: 1 << 20, tag: 1 }]);
        let p1 = RankProgram::new(vec![Op::Recv { src: 0, tag: 1 }]);
        let out = run(&spec, &quiet_nodes(1), &[p0, p1], &net()).expect("valid job");
        // 1 MiB over shared memory is sub-millisecond; over the wire it
        // would be ~9 ms.
        assert!(out.makespan < SimDuration::from_millis(2), "{:?}", out.makespan);
    }

    #[test]
    fn rendezvous_sender_waits_for_receiver() {
        let spec = wyeast(2, 1, false);
        let big = 10 << 20; // 10 MiB >> eager threshold
        let p0 = RankProgram::new(vec![Op::Send { dst: 1, bytes: big, tag: 1 }]);
        let p1 = RankProgram::new(vec![
            Op::Compute(SimDuration::from_secs(1)),
            Op::Recv { src: 0, tag: 1 },
        ]);
        let out = run(&spec, &quiet_nodes(2), &[p0.clone(), p1], &net()).expect("valid job");
        // Sender finishes only after the late receiver posts + transfer.
        assert!(out.rank_finish[0] > SimTime::from_secs(1));

        // Control: an eager-sized send returns immediately.
        let p0e = RankProgram::new(vec![Op::Send { dst: 1, bytes: 8, tag: 1 }]);
        let p1e = RankProgram::new(vec![
            Op::Compute(SimDuration::from_secs(1)),
            Op::Recv { src: 0, tag: 1 },
        ]);
        let out2 = run(&spec, &quiet_nodes(2), &[p0e, p1e], &net()).expect("valid job");
        assert!(out2.rank_finish[0] < SimTime::from_millis(1));
    }

    #[test]
    fn barrier_synchronizes_uneven_ranks() {
        let spec = wyeast(4, 1, false);
        let progs: Vec<RankProgram> = (0..4)
            .map(|r| {
                RankProgram::new(vec![
                    Op::Compute(SimDuration::from_millis(100 * (r + 1) as u64)),
                    Op::Barrier,
                ])
            })
            .collect();
        let out = run(&spec, &quiet_nodes(4), &progs, &net()).expect("valid job");
        // Everyone leaves the barrier at or after the slowest arrival.
        for f in &out.rank_finish {
            assert!(*f >= SimTime::from_millis(400), "finish {f:?}");
        }
        assert!(out.makespan < SimDuration::from_millis(402), "{:?}", out.makespan);
    }

    #[test]
    fn allreduce_completes_and_costs_log_rounds() {
        let spec = wyeast(8, 1, false);
        let progs: Vec<RankProgram> =
            (0..8).map(|_| RankProgram::new(vec![Op::Allreduce { bytes: 8 }])).collect();
        let out = run(&spec, &quiet_nodes(8), &progs, &net()).expect("valid job");
        // 3 rounds x 8 ranks = 24 messages.
        assert_eq!(out.messages, 24);
        // Three latency-bound rounds: roughly 3 x (overheads + latency).
        let per_round = net().send_overhead.as_secs_f64()
            + net().net_latency.as_secs_f64()
            + net().recv_overhead.as_secs_f64();
        let secs = out.makespan.as_secs_f64();
        assert!(secs >= 3.0 * net().net_latency.as_secs_f64());
        assert!(secs < 6.0 * per_round, "makespan {secs}");
    }

    #[test]
    fn alltoall_serializes_on_the_nic() {
        // 4 ranks on 1 node vs 4 ranks on 4 nodes, 1 MiB per pair.
        let shm_spec = wyeast(1, 4, false);
        let progs: Vec<RankProgram> = (0..4)
            .map(|_| RankProgram::new(vec![Op::Alltoall { bytes_per_pair: 1 << 20 }]))
            .collect();
        let shm = run(&shm_spec, &quiet_nodes(1), &progs, &net()).expect("valid job");

        let net_spec = wyeast(4, 1, false);
        let wire = run(&net_spec, &quiet_nodes(4), &progs, &net()).expect("valid job");
        assert!(
            wire.makespan > shm.makespan * 4,
            "wire {:?} should dwarf shm {:?}",
            wire.makespan,
            shm.makespan
        );
    }

    #[test]
    fn single_node_long_smi_adds_duty_cycle() {
        let spec = wyeast(1, 1, false);
        let prog = RankProgram::new(vec![Op::Compute(SimDuration::from_secs(20))]);
        let base =
            run(&spec, &quiet_nodes(1), std::slice::from_ref(&prog), &net()).expect("valid job");
        let noisy = run(&spec, &noisy_nodes(1, 42), &[prog], &net()).expect("valid job");
        let slowdown = noisy.seconds() / base.seconds();
        assert!((1.09..1.13).contains(&slowdown), "slowdown {slowdown}");
        assert!(noisy.smi_count >= 20);
    }

    #[test]
    fn unsynchronized_smis_amplify_with_nodes() {
        // Iterated barriers: with more nodes, each round waits for any
        // node that froze; unsynchronized schedules freeze different
        // rounds on different nodes, so perturbation grows with N.
        let mk_progs = |n: u32| -> Vec<RankProgram> {
            (0..n)
                .map(|_| {
                    let mut ops = Vec::new();
                    for _ in 0..200 {
                        ops.push(Op::Compute(SimDuration::from_millis(50)));
                        ops.push(Op::Barrier);
                    }
                    RankProgram::new(ops)
                })
                .collect()
        };
        let mut slowdowns = Vec::new();
        for n in [1u32, 4, 16] {
            let spec = wyeast(n, 1, false);
            let base = run(&spec, &quiet_nodes(n), &mk_progs(n), &net()).expect("valid job");
            let noisy = run(&spec, &noisy_nodes(n, 7), &mk_progs(n), &net()).expect("valid job");
            slowdowns.push(noisy.seconds() / base.seconds());
        }
        assert!(
            slowdowns[1] > slowdowns[0] + 0.02,
            "4 nodes {} should exceed 1 node {}",
            slowdowns[1],
            slowdowns[0]
        );
        assert!(
            slowdowns[2] > slowdowns[1],
            "16 nodes {} should exceed 4 nodes {}",
            slowdowns[2],
            slowdowns[1]
        );
    }

    #[test]
    fn synchronized_smis_do_not_amplify() {
        // Ablation: if every node freezes at the same instants, barriers
        // absorb the noise and the slowdown stays near the duty cycle.
        use crate::network::NetworkParams;
        let n = 8u32;
        let progs: Vec<RankProgram> = (0..n)
            .map(|_| {
                let mut ops = Vec::new();
                for _ in 0..100 {
                    ops.push(Op::Compute(SimDuration::from_millis(50)));
                    ops.push(Op::Barrier);
                }
                RankProgram::new(ops)
            })
            .collect();
        let spec = wyeast(n, 1, false);
        let base = run(&spec, &quiet_nodes(n), &progs, &NetworkParams::gigabit_cluster())
            .expect("valid job");

        let mut rng = SimRng::new(3);
        let phase = SimDuration::from_millis(rng.below(1000));
        let seed = rng.next();
        let sync_nodes: Vec<NodeState> = (0..n)
            .map(|_| NodeState {
                schedule: FreezeSchedule::periodic(PeriodicFreeze {
                    first_trigger: SimTime::ZERO + phase,
                    period: SimDuration::from_secs(1),
                    durations: DurationModel::Fixed(SimDuration::from_millis(105)),
                    policy: TriggerPolicy::SkipWhileFrozen,
                    seed,
                }),
                effects: SmiSideEffects::none(),
                online_cpus: 4,
                per_core: Vec::new(),
            })
            .collect();
        let sync =
            run(&spec, &sync_nodes, &progs, &NetworkParams::gigabit_cluster()).expect("valid job");
        let slowdown = sync.seconds() / base.seconds();
        assert!((1.08..1.16).contains(&slowdown), "synchronized slowdown {slowdown}");
    }

    #[test]
    fn unmatched_recv_is_a_typed_deadlock() {
        let spec = wyeast(2, 1, false);
        let p0 = RankProgram::new(vec![Op::Recv { src: 1, tag: 9 }]);
        let p1 = RankProgram::new(vec![Op::Compute(SimDuration::from_millis(1))]);
        match run(&spec, &quiet_nodes(2), &[p0, p1], &net()) {
            Err(SimError::Deadlock { waiting_ranks, blocked_ops }) => {
                assert_eq!(waiting_ranks, vec![0]);
                assert_eq!(
                    blocked_ops,
                    vec![BlockedOp { rank: 0, kind: BlockedOpKind::Recv, peer: 1, tag: 9 }]
                );
            }
            other => panic!("expected Deadlock, got {other:?}"),
        }
    }

    #[test]
    fn unmatched_rendezvous_send_is_a_typed_deadlock() {
        let spec = wyeast(2, 1, false);
        let big = 10 << 20;
        let p0 = RankProgram::new(vec![Op::Send { dst: 1, bytes: big, tag: 3 }]);
        let p1 = RankProgram::new(vec![Op::Compute(SimDuration::from_millis(1))]);
        match run(&spec, &quiet_nodes(2), &[p0, p1], &net()) {
            Err(SimError::Deadlock { waiting_ranks, blocked_ops }) => {
                assert_eq!(waiting_ranks, vec![0]);
                assert_eq!(
                    blocked_ops,
                    vec![BlockedOp { rank: 0, kind: BlockedOpKind::Send, peer: 1, tag: 3 }]
                );
            }
            other => panic!("expected Deadlock, got {other:?}"),
        }
    }

    #[test]
    fn mismatched_lengths_are_invalid_specs() {
        let spec = wyeast(2, 1, false);
        let prog = RankProgram::new(vec![Op::Compute(SimDuration::from_millis(1))]);
        // Too few node states.
        let r = run(&spec, &quiet_nodes(1), &[prog.clone(), prog.clone()], &net());
        assert!(matches!(r, Err(SimError::InvalidSpec { .. })), "{r:?}");
        // Too few programs.
        let r = run(&spec, &quiet_nodes(2), std::slice::from_ref(&prog), &net());
        assert!(matches!(r, Err(SimError::InvalidSpec { .. })), "{r:?}");
        // Malformed spec smuggled around the constructor.
        let mut bad = spec;
        bad.nodes = 0;
        let r = run(&bad, &[], &[], &net());
        assert!(matches!(r, Err(SimError::InvalidSpec { .. })), "{r:?}");
    }

    #[test]
    fn validate_mode_matches_default_mode_on_clean_jobs() {
        let spec = wyeast(4, 1, false);
        let progs: Vec<RankProgram> = (0..4)
            .map(|_| {
                RankProgram::new(vec![
                    Op::Compute(SimDuration::from_millis(20)),
                    Op::Allreduce { bytes: 512 },
                    Op::Alltoall { bytes_per_pair: 4096 },
                ])
            })
            .collect();
        let plain = run(&spec, &noisy_nodes(4, 9), &progs, &net()).expect("valid job");
        let audited = run_with(&spec, &noisy_nodes(4, 9), &progs, &net(), &RunConfig::validating())
            .expect("audits pass");
        assert_eq!(plain.makespan, audited.makespan);
        assert_eq!(plain.rank_finish, audited.rank_finish);
        assert_eq!(plain.messages, audited.messages);
        assert_eq!(plain.bytes, audited.bytes);
    }

    #[test]
    fn validate_mode_catches_an_unconsumed_eager_send() {
        // The eager sender finishes without its message ever being
        // received: a silent loss by default, a conservation failure
        // under the audit.
        let spec = wyeast(2, 1, false);
        let progs = [
            RankProgram::new(vec![Op::Send { dst: 1, bytes: 8, tag: 3 }]),
            RankProgram::new(vec![Op::Compute(SimDuration::from_millis(1))]),
        ];
        let plain = run(&spec, &quiet_nodes(2), &progs, &net()).expect("eager send completes");
        assert_eq!(plain.messages, 0);
        match run_with(&spec, &quiet_nodes(2), &progs, &net(), &RunConfig::validating()) {
            Err(SimError::InvariantViolation { invariant, .. }) => {
                assert_eq!(invariant, "message conservation")
            }
            other => panic!("expected a conservation failure, got {other:?}"),
        }
    }

    #[test]
    fn validate_mode_cross_checks_node_shape() {
        let spec = wyeast(1, 1, false);
        let mut nodes = quiet_nodes(1);
        nodes[0].online_cpus = 2; // disagrees with spec.online_cpus() == 4
        let prog = RankProgram::new(vec![Op::Compute(SimDuration::from_millis(1))]);
        // Tolerated by default (an intentional what-if knob)...
        assert!(run(&spec, &nodes, std::slice::from_ref(&prog), &net()).is_ok());
        // ...but flagged under --validate.
        let r = run_with(&spec, &nodes, &[prog], &net(), &RunConfig::validating());
        assert!(matches!(r, Err(SimError::InvalidSpec { .. })), "{r:?}");
    }

    /// Both matching-order cases below queue two sends at the receiver
    /// before it posts anything (it computes 1 ms first): an eager
    /// `SMALL` one and a rendezvous `BIG` one, whose sender is released
    /// only when `BIG` lands. Which receive gets which message therefore
    /// shows in the finish times.
    const SMALL: u64 = 100;
    const BIG: u64 = 200_000;

    /// The receiver's program: 1 ms of compute, then `recvs` in order.
    fn late_receiver(recvs: &[(u32, u32)]) -> RankProgram {
        let mut ops = vec![Op::Compute(SimDuration::from_millis(1))];
        ops.extend(recvs.iter().map(|&(src, tag)| Op::Recv { src, tag }));
        RankProgram::new(ops)
    }

    /// One inter-node hop of `bytes` from an idle NIC, to the payload's
    /// arrival at the receiving node.
    fn hop(bytes: u64) -> SimDuration {
        net().wire_time(bytes) + net().net_latency
    }

    #[test]
    fn message_order_is_fifo_per_channel() {
        // Same channel, same tag: the first receive takes the first send.
        let spec = wyeast(2, 1, false);
        let p0 = RankProgram::new(vec![
            Op::Send { dst: 1, bytes: SMALL, tag: 5 },
            Op::Send { dst: 1, bytes: BIG, tag: 5 },
        ]);
        let p1 = late_receiver(&[(0, 5), (0, 5)]);
        let out = run(&spec, &quiet_nodes(2), &[p0, p1], &net()).expect("valid job");
        let o = net().recv_overhead;
        let small_done = SimTime::from_millis(1) + hop(SMALL);
        let big_done = small_done + o + hop(BIG);
        // LIFO would release rank 0 at 1 ms + hop(BIG) instead.
        assert_eq!(out.rank_finish, vec![big_done, big_done + o]);
        assert_eq!((out.messages, out.bytes), (2, SMALL + BIG));
    }

    #[test]
    fn receives_match_by_tag_not_arrival() {
        // Tags 7 then 5 on one channel; the receiver asks for 5 first and
        // must skip the earlier tag-7 message to get it.
        let spec = wyeast(2, 1, false);
        let p0 = RankProgram::new(vec![
            Op::Send { dst: 1, bytes: SMALL, tag: 7 },
            Op::Send { dst: 1, bytes: BIG, tag: 5 },
        ]);
        let p1 = late_receiver(&[(0, 5), (0, 7)]);
        let out = run(&spec, &quiet_nodes(2), &[p0, p1], &net()).expect("valid job");
        let o = net().recv_overhead;
        let big_done = SimTime::from_millis(1) + hop(BIG);
        let small_done = big_done + o + hop(SMALL);
        assert_eq!(out.rank_finish, vec![big_done, small_done + o]);
    }

    #[test]
    fn receives_match_by_source_under_a_shared_tag() {
        // Ranks 0 and 2 both send tag 5 to rank 1 (rank 0's arrives
        // first); rank 1 asks for rank 2's message first.
        let spec = wyeast(3, 1, false);
        let p0 = RankProgram::new(vec![Op::Send { dst: 1, bytes: SMALL, tag: 5 }]);
        let p1 = late_receiver(&[(2, 5), (0, 5)]);
        let p2 = RankProgram::new(vec![Op::Send { dst: 1, bytes: BIG, tag: 5 }]);
        let out = run(&spec, &quiet_nodes(3), &[p0, p1, p2], &net()).expect("valid job");
        let o = net().recv_overhead;
        let big_done = SimTime::from_millis(1) + hop(BIG);
        let small_done = big_done + o + hop(SMALL);
        let eager_return = SimTime::ZERO + net().send_overhead;
        assert_eq!(out.rank_finish, vec![eager_return, small_done + o, big_done]);
    }
}
