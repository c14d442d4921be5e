//! Property-based tests for the cluster engine and collective lowering.

use machine::SmiSideEffects;
use mpi_sim::{
    lower, ClusterSpec, LowOp, NetworkParams, NodeState, Op, RankProgram, RunConfig, SimError,
};
use quickprop::{check, Gen};
use sim_core::{DurationModel, FreezeSchedule, PeriodicFreeze, SimDuration, SimRng};
use std::collections::BTreeMap;

/// One arbitrary SPMD collective op (every rank runs the same ops, so
/// matching must hold by construction). Roots are drawn in `0..4` and
/// clamped into range by the caller.
fn collective_op(g: &mut Gen) -> Op {
    match g.u32(0..6) {
        0 => Op::Compute(SimDuration::from_millis(g.u64(1..50))),
        1 => Op::Barrier,
        2 => Op::Bcast { root: g.u32(0..4), bytes: g.u64(1..100_000) },
        3 => Op::Reduce { root: g.u32(0..4), bytes: g.u64(1..100_000) },
        4 => Op::Allreduce { bytes: g.u64(1..100_000) },
        _ => Op::Alltoall { bytes_per_pair: g.u64(1..10_000) },
    }
}

fn clamped_ops(g: &mut Gen, len: std::ops::Range<usize>, size: u32) -> Vec<Op> {
    g.vec(len, collective_op)
        .into_iter()
        .map(|op| match op {
            Op::Bcast { root, bytes } => Op::Bcast { root: root % size, bytes },
            Op::Reduce { root, bytes } => Op::Reduce { root: root % size, bytes },
            other => other,
        })
        .collect()
}

/// Check send/recv matching across all lowered rank programs.
fn assert_matched(programs: &[Vec<LowOp>]) {
    let mut balance: BTreeMap<(u32, u32, u64), i64> = BTreeMap::new();
    for (r, prog) in programs.iter().enumerate() {
        for op in prog {
            match *op {
                LowOp::Send { dst, tag, .. } => {
                    *balance.entry((r as u32, dst, tag)).or_insert(0) += 1
                }
                LowOp::Recv { src, tag } => *balance.entry((src, r as u32, tag)).or_insert(0) -= 1,
                LowOp::SendRecv { dst, src, tag, .. } => {
                    *balance.entry((r as u32, dst, tag)).or_insert(0) += 1;
                    *balance.entry((src, r as u32, tag)).or_insert(0) -= 1;
                }
                LowOp::Compute(_) => {}
            }
        }
    }
    for (k, v) in balance {
        assert_eq!(v, 0, "unmatched channel {k:?}");
    }
}

fn quiet_nodes(nodes: u32) -> Vec<NodeState> {
    (0..nodes)
        .map(|_| NodeState {
            schedule: FreezeSchedule::none(),
            effects: SmiSideEffects::none(),
            online_cpus: 4,
            per_core: Vec::new(),
        })
        .collect()
}

fn wyeast(nodes: u32, rpn: u32, htt: bool) -> ClusterSpec {
    ClusterSpec::wyeast(nodes, rpn, htt).expect("valid shape")
}

#[test]
fn lowering_is_always_matched() {
    check("lowering_is_always_matched", 48, |g| {
        let size = g.pick(&[2u32, 3, 4, 5, 8, 16]);
        let ops = clamped_ops(g, 1..8, size);
        let programs: Vec<Vec<LowOp>> = (0..size)
            .map(|r| {
                lower(&RankProgram::new(ops.clone()), r, size, |_| SimDuration::ZERO)
                    .expect("SPMD collective programs lower")
            })
            .collect();
        assert_matched(&programs);
    });
}

#[test]
fn spmd_collective_jobs_always_terminate() {
    check("spmd_collective_jobs_always_terminate", 48, |g| {
        let nodes = g.pick(&[2u32, 4, 8]);
        let ops = clamped_ops(g, 1..6, nodes);
        let spec = wyeast(nodes, 1, false);
        let programs: Vec<RankProgram> =
            (0..nodes).map(|_| RankProgram::new(ops.clone())).collect();
        // Completing without error — under the audits — is the property.
        let out = mpi_sim::run_with(
            &spec,
            &quiet_nodes(nodes),
            &programs,
            &NetworkParams::gigabit_cluster(),
            &RunConfig::validating(),
        )
        .expect("SPMD collective jobs terminate cleanly");
        assert!(out.makespan >= SimDuration::ZERO);
        // Makespan is at least the per-rank compute.
        let compute = programs[0].total_compute();
        assert!(out.makespan >= compute);
    });
}

#[test]
fn noise_never_speeds_a_job_up() {
    check("noise_never_speeds_a_job_up", 48, |g| {
        let compute_ms = g.u64(20..200);
        let iters = g.u32(1..10);
        let seed = g.any_u64();
        let nodes = 4u32;
        let spec = wyeast(nodes, 1, false);
        let programs: Vec<RankProgram> = (0..nodes)
            .map(|_| {
                let mut ops = Vec::new();
                for _ in 0..iters {
                    ops.push(Op::Compute(SimDuration::from_millis(compute_ms)));
                    ops.push(Op::Barrier);
                }
                RankProgram::new(ops)
            })
            .collect();
        let net = NetworkParams::gigabit_cluster();
        let base =
            mpi_sim::run(&spec, &quiet_nodes(nodes), &programs, &net).expect("valid job").makespan;

        let mut rng = SimRng::new(seed);
        let noisy: Vec<NodeState> = (0..nodes)
            .map(|_| NodeState {
                schedule: FreezeSchedule::periodic(PeriodicFreeze::with_random_phase(
                    SimDuration::from_millis(300),
                    DurationModel::short_smi(),
                    &mut rng,
                )),
                effects: SmiSideEffects::none(),
                online_cpus: 4,
                per_core: Vec::new(),
            })
            .collect();
        let noised = mpi_sim::run(&spec, &noisy, &programs, &net).expect("valid job").makespan;
        assert!(noised >= base, "noise sped the job up: {noised:?} < {base:?}");
    });
}

#[test]
fn engine_is_deterministic() {
    check("engine_is_deterministic", 48, |g| {
        let bytes = g.u64(1..500_000);
        let nodes = g.pick(&[2u32, 4]);
        let seed = g.any_u64();
        let spec = wyeast(nodes, 1, false);
        let programs: Vec<RankProgram> = (0..nodes)
            .map(|_| {
                RankProgram::new(vec![
                    Op::Compute(SimDuration::from_millis(10)),
                    Op::Allreduce { bytes },
                    Op::Alltoall { bytes_per_pair: bytes / 4 + 1 },
                ])
            })
            .collect();
        let net = NetworkParams::gigabit_cluster();
        let mk_nodes = || -> Vec<NodeState> {
            let mut rng = SimRng::new(seed);
            (0..nodes)
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
        };
        let a = mpi_sim::run(&spec, &mk_nodes(), &programs, &net).expect("valid job");
        let b = mpi_sim::run(&spec, &mk_nodes(), &programs, &net).expect("valid job");
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.messages, b.messages);
        assert_eq!(a.bytes, b.bytes);
    });
}

#[test]
fn barrier_count_scales_messages_linearly() {
    check("barrier_count_scales_messages_linearly", 48, |g| {
        let barriers = g.usize(1..10);
        let nodes = 8u32;
        let spec = wyeast(nodes, 1, false);
        let programs: Vec<RankProgram> =
            (0..nodes).map(|_| RankProgram::new(vec![Op::Barrier; barriers])).collect();
        let out =
            mpi_sim::run(&spec, &quiet_nodes(nodes), &programs, &NetworkParams::gigabit_cluster())
                .expect("valid job");
        // Dissemination barrier: n x log2(n) sendrecvs per barrier.
        assert_eq!(out.messages, (barriers as u64) * 8 * 3);
    });
}

// ---------------------------------------------------------------------------
// Validity properties: mutated (broken) jobs must come back as typed
// errors — never a hang, never a panic.
// ---------------------------------------------------------------------------

/// The mutated-job property shared by the cases below: running the
/// programs yields a structured rejection within the engine's stall
/// bound. `Stalled` is also accepted — it is the engine's own bounded
/// cut-off — but silent success and panics are failures.
fn assert_rejected(spec: &ClusterSpec, programs: &[RankProgram], what: &str) {
    let result = mpi_sim::run_with(
        spec,
        &quiet_nodes(spec.nodes),
        programs,
        &NetworkParams::gigabit_cluster(),
        &RunConfig::validating(),
    );
    match result {
        Err(SimError::Deadlock { ref waiting_ranks, .. }) => {
            assert!(!waiting_ranks.is_empty(), "{what}: deadlock without stuck ranks");
        }
        Err(SimError::InvalidSpec { .. })
        | Err(SimError::InvariantViolation { .. })
        | Err(SimError::Stalled { .. }) => {}
        Ok(_) => panic!("{what}: mutated job completed successfully"),
    }
}

#[test]
fn dropped_sends_are_diagnosed_not_hung() {
    check("dropped_sends_are_diagnosed_not_hung", 32, |g| {
        let nodes = g.pick(&[2u32, 4, 8]);
        // A ring of eager-or-rendezvous point-to-point traffic...
        let bytes = if g.bool() { 128 } else { 10 << 20 };
        let mut programs: Vec<RankProgram> = (0..nodes)
            .map(|r| {
                let dst = (r + 1) % nodes;
                let src = (r + nodes - 1) % nodes;
                RankProgram::new(vec![Op::Send { dst, bytes, tag: 5 }, Op::Recv { src, tag: 5 }])
            })
            .collect();
        // ...with one victim rank's send deleted, so its neighbour's recv
        // can never match.
        let victim = g.u32(0..nodes) as usize;
        programs[victim].ops.retain(|op| !matches!(op, Op::Send { .. }));
        let spec = wyeast(nodes, 1, false);
        assert_rejected(&spec, &programs, "dropped send");
    });
}

#[test]
fn self_messages_are_invalid_specs() {
    check("self_messages_are_invalid_specs", 32, |g| {
        let nodes = g.pick(&[2u32, 4]);
        let rank = g.u32(0..nodes);
        let op = if g.bool() {
            Op::Send { dst: rank, bytes: g.u64(1..10_000), tag: 1 }
        } else {
            Op::Recv { src: rank, tag: 1 }
        };
        let mut programs: Vec<RankProgram> =
            (0..nodes).map(|_| RankProgram::new(vec![Op::Barrier])).collect();
        programs[rank as usize].ops.push(op);
        let spec = wyeast(nodes, 1, false);
        let r =
            mpi_sim::run(&spec, &quiet_nodes(nodes), &programs, &NetworkParams::gigabit_cluster());
        assert!(matches!(r, Err(SimError::InvalidSpec { .. })), "self-message gave {r:?}");
    });
}

#[test]
fn truncated_collectives_are_diagnosed_not_hung() {
    check("truncated_collectives_are_diagnosed_not_hung", 32, |g| {
        let nodes = g.pick(&[2u32, 4, 8]);
        let ops = clamped_ops(g, 1..5, nodes);
        // Require at least one communicating collective to truncate.
        if !ops.iter().any(|op| !matches!(op, Op::Compute(_))) {
            return;
        }
        let mut programs: Vec<RankProgram> =
            (0..nodes).map(|_| RankProgram::new(ops.clone())).collect();
        // One victim rank stops right before its final communicating op:
        // its peers' matching rounds can then never complete.
        let victim = g.u32(0..nodes) as usize;
        let cut = programs[victim]
            .ops
            .iter()
            .rposition(|op| !matches!(op, Op::Compute(_)))
            .expect("communicating op present");
        programs[victim].ops.truncate(cut);
        let spec = wyeast(nodes, 1, false);
        assert_rejected(&spec, &programs, "truncated collective");
    });
}

// ---------------------------------------------------------------------------
// Matching digest: the engine's message matching pinned across rewrites.
// ---------------------------------------------------------------------------

/// FNV-1a 64 over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Fold one run's full result: every `RunOutcome` field, or the
    /// complete deadlock diagnosis, or the kind of any other error.
    fn outcome(&mut self, result: &Result<mpi_sim::RunOutcome, SimError>) {
        match result {
            Ok(out) => {
                self.word(0);
                self.word(out.makespan.as_nanos());
                self.word(out.rank_finish.len() as u64);
                for t in &out.rank_finish {
                    self.word(t.as_nanos());
                }
                self.word(out.messages);
                self.word(out.bytes);
                self.word(out.total_frozen.as_nanos());
                self.word(out.smi_count as u64);
            }
            Err(SimError::Deadlock { waiting_ranks, blocked_ops }) => {
                self.word(1);
                self.word(waiting_ranks.len() as u64);
                for &r in waiting_ranks {
                    self.word(r as u64);
                }
                self.word(blocked_ops.len() as u64);
                for b in blocked_ops {
                    self.word(b.rank as u64);
                    self.word(matches!(b.kind, mpi_sim::BlockedOpKind::Recv) as u64);
                    self.word(b.peer as u64);
                    self.word(b.tag);
                }
            }
            Err(other) => {
                self.word(2);
                for b in other.kind().bytes() {
                    self.word(b as u64);
                }
            }
        }
    }
}

/// Shuffle in place (Fisher–Yates driven by the case generator).
fn shuffle<T>(g: &mut Gen, xs: &mut [T]) {
    for i in (1..xs.len()).rev() {
        xs.swap(i, g.usize(0..i + 1));
    }
}

/// One seeded random point-to-point job. Phases of
/// * message batches — few tags, so channels carry repeated and
///   interleaved tags, and receivers post their receives in a shuffled
///   order (out-of-order tags, same tag from several sources), with one
///   message in five rendezvous-sized;
/// * ring-shift `Exchange`s (fused send+receive), some rendezvous-sized;
/// * per-rank compute of random length, so arrivals and posts race;
///
/// and, in one job of four, a dropped send that must deadlock. Nodes are
/// quiet or carry short periodic SMIs, so freezes reorder arrivals too.
fn p2p_job(g: &mut Gen) -> (ClusterSpec, Vec<NodeState>, Vec<RankProgram>) {
    let nodes = g.pick(&[1u32, 2, 3, 4]);
    let rpn = if nodes == 1 { 2 } else { g.pick(&[1u32, 2]) };
    let n = nodes * rpn;
    let mut ops: Vec<Vec<Op>> = vec![Vec::new(); n as usize];
    let size = |g: &mut Gen| if g.u32(0..5) == 0 { g.u64(65_537..400_000) } else { g.u64(0..8192) };
    for _ in 0..g.usize(1..6) {
        match g.u32(0..4) {
            0 | 1 => {
                let mut batch: Vec<Vec<Op>> = vec![Vec::new(); n as usize];
                for _ in 0..g.usize(1..12) {
                    let src = g.u32(0..n);
                    let dst = (src + 1 + g.u32(0..n - 1)) % n;
                    let tag = g.u32(0..3);
                    batch[src as usize].push(Op::Send { dst, bytes: size(g), tag });
                    batch[dst as usize].push(Op::Recv { src, tag });
                }
                for (r, mut b) in batch.into_iter().enumerate() {
                    if g.bool() {
                        shuffle(g, &mut b);
                    } else {
                        // Sends first (in order), receives shuffled.
                        b.sort_by_key(|op| matches!(op, Op::Recv { .. }));
                        let sends = b.iter().filter(|op| matches!(op, Op::Send { .. })).count();
                        shuffle(g, &mut b[sends..]);
                    }
                    ops[r].extend(b);
                }
            }
            2 => {
                let k = g.u32(1..n);
                let bytes = size(g);
                let tag = g.u32(0..3);
                for r in 0..n {
                    ops[r as usize].push(Op::Exchange {
                        send_to: (r + k) % n,
                        recv_from: (r + n - k) % n,
                        bytes,
                        tag,
                    });
                }
            }
            _ => {
                for prog in ops.iter_mut() {
                    prog.push(Op::Compute(SimDuration::from_micros(g.u64(1..3000))));
                }
            }
        }
    }
    if g.u32(0..4) == 0 {
        let senders: Vec<usize> = (0..n as usize)
            .filter(|&r| ops[r].iter().any(|op| matches!(op, Op::Send { .. })))
            .collect();
        if !senders.is_empty() {
            let r = senders[g.usize(0..senders.len())];
            let sends: Vec<usize> =
                (0..ops[r].len()).filter(|&i| matches!(ops[r][i], Op::Send { .. })).collect();
            ops[r].remove(sends[g.usize(0..sends.len())]);
        }
    }
    let node_states = if g.bool() {
        quiet_nodes(nodes)
    } else {
        let mut rng = SimRng::new(g.any_u64());
        (0..nodes)
            .map(|_| NodeState {
                schedule: FreezeSchedule::periodic(PeriodicFreeze::with_random_phase(
                    SimDuration::from_millis(7),
                    DurationModel::short_smi(),
                    &mut rng,
                )),
                effects: SmiSideEffects::none(),
                online_cpus: 4,
                per_core: Vec::new(),
            })
            .collect()
    };
    let programs = ops.into_iter().map(RankProgram::new).collect();
    (wyeast(nodes, rpn, false), node_states, programs)
}

/// A rendezvous `Exchange` whose two halves share one peer and tag, on a
/// job where the peer never answers: the diagnosis must list the stuck
/// rank's `Recv` before its `Send` (both sort under the same key).
fn shared_peer_exchange_deadlock() -> Result<mpi_sim::RunOutcome, SimError> {
    let spec = wyeast(2, 1, false);
    let programs = vec![
        RankProgram::new(vec![Op::Exchange { send_to: 1, recv_from: 1, bytes: 1 << 20, tag: 4 }]),
        RankProgram::new(vec![Op::Compute(SimDuration::from_millis(1))]),
    ];
    mpi_sim::run(&spec, &quiet_nodes(2), &programs, &NetworkParams::gigabit_cluster())
}

/// Cases folded into the matching digest. The case inputs come from
/// fixed quickprop seeds (not `quickprop::check`, whose case count and
/// root seed follow the environment), so the digest is a constant.
const MATCHING_CASES: u64 = 400;

/// Recorded from the per-key `(src, dst, tag)` map matcher this engine
/// replaced; any change to match order, deadlock diagnosis or outcome
/// fields moves it.
const MATCHING_DIGEST: u64 = 0x8a6f_c574_b9c0_3747;

#[test]
fn p2p_matching_digest_is_pinned() {
    let net = NetworkParams::gigabit_cluster();
    let mut digest = Fnv::new();
    let (mut ok, mut deadlocks) = (0, 0);
    for case in 0..MATCHING_CASES {
        let mut g = Gen::from_seed(0x5eed_0000 + case);
        let (spec, nodes, programs) = p2p_job(&mut g);
        let result = mpi_sim::run(&spec, &nodes, &programs, &net);
        match &result {
            Ok(_) => ok += 1,
            Err(SimError::Deadlock { .. }) => deadlocks += 1,
            Err(e) => panic!("case {case}: unexpected {e:?}"),
        }
        digest.outcome(&result);
    }
    digest.outcome(&shared_peer_exchange_deadlock());
    // Both branches are well exercised.
    assert!(ok >= MATCHING_CASES / 3 && deadlocks >= MATCHING_CASES / 5, "{ok} ok, {deadlocks}");
    assert_eq!(digest.0, MATCHING_DIGEST, "matching digest {:#018x}", digest.0);
}

#[test]
fn p2p_jobs_pass_the_audit() {
    check("p2p_jobs_pass_the_audit", 64, |g| {
        let (spec, nodes, programs) = p2p_job(g);
        let net = NetworkParams::gigabit_cluster();
        let plain = mpi_sim::run(&spec, &nodes, &programs, &net);
        let audited = mpi_sim::run_with(&spec, &nodes, &programs, &net, &RunConfig::validating());
        let (mut a, mut b) = (Fnv::new(), Fnv::new());
        a.outcome(&plain);
        b.outcome(&audited);
        assert_eq!(a.0, b.0, "the audit changed the result: {plain:?} vs {audited:?}");
        if let Err(SimError::Deadlock { waiting_ranks, blocked_ops }) = &plain {
            assert!(!waiting_ranks.is_empty() && !blocked_ops.is_empty());
        }
    });
}

#[test]
fn shared_peer_exchange_lists_recv_before_send() {
    match shared_peer_exchange_deadlock() {
        Err(SimError::Deadlock { waiting_ranks, blocked_ops }) => {
            assert_eq!(waiting_ranks, vec![0]);
            let ops: Vec<_> = blocked_ops.iter().map(|b| (b.rank, b.kind, b.peer, b.tag)).collect();
            assert_eq!(
                ops,
                vec![
                    (0, mpi_sim::BlockedOpKind::Recv, 1, 4),
                    (0, mpi_sim::BlockedOpKind::Send, 1, 4)
                ]
            );
        }
        other => panic!("expected Deadlock, got {other:?}"),
    }
}

// ---------------------------------------------------------------------------
// Job equivalence: a job lowered once and run with per-rank duration
// tables must be `run_with` on the programs with those durations written
// into their `Compute` ops.
// ---------------------------------------------------------------------------

/// Each rank's distinct `Compute` durations in first-use order — the
/// table layout `Job` documents, derived here from the programs alone.
fn own_tables(programs: &[RankProgram]) -> Vec<Vec<SimDuration>> {
    programs
        .iter()
        .map(|p| {
            let mut table: Vec<SimDuration> = Vec::new();
            for op in &p.ops {
                if let Op::Compute(w) = *op {
                    if !table.contains(&w) {
                        table.push(w);
                    }
                }
            }
            table
        })
        .collect()
}

/// Random replacement tables of the same shape (zero durations and
/// repeated values included).
fn random_tables(g: &mut Gen, tables: &[Vec<SimDuration>]) -> Vec<Vec<SimDuration>> {
    tables
        .iter()
        .map(|t| t.iter().map(|_| SimDuration::from_micros(g.u64(0..40_000))).collect())
        .collect()
}

/// The programs with every `Compute` of rank `r` that carried
/// `own[r][i]` now carrying `new[r][i]`.
fn substitute(
    programs: &[RankProgram],
    own: &[Vec<SimDuration>],
    new: &[Vec<SimDuration>],
) -> Vec<RankProgram> {
    programs
        .iter()
        .enumerate()
        .map(|(r, p)| {
            let mut p = p.clone();
            for op in &mut p.ops {
                if let Op::Compute(w) = op {
                    let i = own[r].iter().position(|d| d == w).expect("every duration is tabled");
                    *w = new[r][i];
                }
            }
            p
        })
        .collect()
}

/// Everything a run reports, errors included, as one comparable string.
fn result_text(result: &Result<mpi_sim::RunOutcome, SimError>) -> String {
    format!("{result:?}")
}

/// Node states for `spec` under one of: no noise, short periodic SMIs
/// on a 7 ms period, the MPI study's long SMIs, or a fixed-budget
/// `noise` scenario (per-core models fill `per_core`).
fn noisy_nodes(g: &mut Gen, spec: &ClusterSpec) -> Vec<NodeState> {
    let periodic = |period: SimDuration, model: DurationModel, seed: u64| -> Vec<NodeState> {
        let mut rng = SimRng::new(seed);
        (0..spec.nodes)
            .map(|_| NodeState {
                schedule: FreezeSchedule::periodic(PeriodicFreeze::with_random_phase(
                    period,
                    model.clone(),
                    &mut rng,
                )),
                effects: SmiSideEffects::none(),
                online_cpus: spec.online_cpus(),
                per_core: Vec::new(),
            })
            .collect()
    };
    let seed = g.any_u64();
    match g.u32(0..4) {
        0 => quiet_nodes(spec.nodes),
        1 => periodic(SimDuration::from_millis(7), DurationModel::short_smi(), seed),
        2 => periodic(SimDuration::from_millis(300), DurationModel::long_smi(), seed),
        _ => {
            let text = g.pick(&noise::FIXED_BUDGET_SPECS);
            noise::NoiseSpec::parse(text)
                .expect("fixed-budget specs parse")
                .node_states(spec, SimDuration::from_secs(60), seed)
                .expect("fixed-budget specs build")
        }
    }
}

/// A random SPMD collective job whose ranks share one op list, over one
/// or two ranks per node.
fn collective_job(g: &mut Gen) -> (ClusterSpec, Vec<RankProgram>) {
    let nodes = g.pick(&[1u32, 2, 3, 4, 8]);
    let rpn = g.pick(&[1u32, 2]);
    let spec = wyeast(nodes, rpn, false);
    let ops = clamped_ops(g, 1..8, spec.total_ranks());
    (spec, (0..spec.total_ranks()).map(|_| RankProgram::new(ops.clone())).collect())
}

fn any_job(g: &mut Gen) -> (ClusterSpec, Vec<NodeState>, Vec<RankProgram>) {
    if g.bool() {
        let (spec, _, programs) = p2p_job(g);
        (spec, noisy_nodes(g, &spec), programs)
    } else {
        let (spec, programs) = collective_job(g);
        (spec, noisy_nodes(g, &spec), programs)
    }
}

#[test]
fn job_runs_equal_run_with_on_substituted_programs() {
    check("job_runs_equal_run_with_on_substituted_programs", 96, |g| {
        let (spec, nodes, programs) = any_job(g);
        let net = NetworkParams::gigabit_cluster();
        let config = if g.bool() { RunConfig::validating() } else { RunConfig::default() };
        let job = mpi_sim::Job::new(&spec, &programs, &net).expect("generated programs are valid");
        let own = own_tables(&programs);
        assert_eq!(job.durations(), own.concat().as_slice(), "table layout");
        let new = random_tables(g, &own);
        let expect =
            mpi_sim::run_with(&spec, &nodes, &substitute(&programs, &own, &new), &net, &config);
        let got = job.run(&nodes, &new.concat(), &config);
        assert_eq!(result_text(&got), result_text(&expect));
        // The programs' own durations reproduce plain `run_with`.
        let plain = mpi_sim::run_with(&spec, &nodes, &programs, &net, &config);
        assert_eq!(result_text(&job.run(&nodes, job.durations(), &config)), result_text(&plain));
    });
}

#[test]
fn one_job_reused_across_nodes_matches_fresh_jobs() {
    check("one_job_reused_across_nodes_matches_fresh_jobs", 48, |g| {
        let (spec, _, programs) = any_job(g);
        let net = NetworkParams::gigabit_cluster();
        let shared = mpi_sim::Job::new(&spec, &programs, &net).expect("valid programs");
        let own = own_tables(&programs);
        for _ in 0..3 {
            let nodes = noisy_nodes(g, &spec);
            let durations = random_tables(g, &own).concat();
            let config = if g.bool() { RunConfig::validating() } else { RunConfig::default() };
            let fresh = mpi_sim::Job::new(&spec, &programs, &net).expect("valid programs");
            let want = fresh.run(&nodes, &durations, &config);
            // Another job in between leaves the thread's arena dirty.
            let (other_spec, other_nodes, other) = any_job(g);
            let other_job = mpi_sim::Job::new(&other_spec, &other, &net).expect("valid programs");
            let _ = other_job.run(&other_nodes, other_job.durations(), &config);
            assert_eq!(result_text(&shared.run(&nodes, &durations, &config)), result_text(&want));
        }
    });
}

#[test]
fn job_and_run_with_reject_malformed_input_alike() {
    check("job_and_run_with_reject_malformed_input_alike", 48, |g| {
        let (spec, nodes, mut programs) = any_job(g);
        let net = NetworkParams::gigabit_cluster();
        let n = spec.total_ranks();
        let victim = g.usize(0..programs.len());
        match g.u32(0..4) {
            0 => programs[victim].ops.push(Op::Send { dst: victim as u32, bytes: 8, tag: 1 }),
            1 => programs[victim].ops.push(Op::Recv { src: n + g.u32(0..4), tag: 1 }),
            2 => programs[victim].ops.push(Op::Bcast { root: n, bytes: 8 }),
            _ => programs[victim].memory_intensity = 1.5,
        }
        let config = RunConfig::default();
        let expect = mpi_sim::run_with(&spec, &nodes, &programs, &net, &config);
        assert!(matches!(expect, Err(SimError::InvalidSpec { .. })), "{expect:?}");
        let got = mpi_sim::Job::new(&spec, &programs, &net).map(|_| ());
        assert_eq!(got, expect.map(|_| ()));
    });
}

#[test]
fn job_runs_check_nodes_and_durations() {
    let spec = wyeast(2, 1, false);
    let programs: Vec<RankProgram> = (0..2)
        .map(|_| RankProgram::new(vec![Op::Compute(SimDuration::from_millis(1)), Op::Barrier]))
        .collect();
    let net = NetworkParams::gigabit_cluster();
    let job = mpi_sim::Job::new(&spec, &programs, &net).expect("valid programs");
    assert_eq!(job.durations(), &[SimDuration::from_millis(1); 2]);
    // The node checks are run_with's, in run_with's words.
    for (nodes, config) in [
        (quiet_nodes(1), RunConfig::default()),
        (
            {
                let mut n = quiet_nodes(2);
                n[1].online_cpus = 2;
                n
            },
            RunConfig::validating(),
        ),
    ] {
        let got = job.run(&nodes, job.durations(), &config).map(|o| o.makespan);
        let want = mpi_sim::run_with(&spec, &nodes, &programs, &net, &config).map(|o| o.makespan);
        assert!(matches!(got, Err(SimError::InvalidSpec { .. })), "{got:?}");
        assert_eq!(got, want);
    }
    // A duration slice of the wrong length is rejected, not read past.
    let short = [SimDuration::from_millis(1)];
    let r = job.run(&quiet_nodes(2), &short, &RunConfig::default());
    assert!(matches!(r, Err(SimError::InvalidSpec { .. })), "{r:?}");
}
