//! Rank programs and collective lowering.
//!
//! A rank's behaviour is an SPMD list of high-level [`Op`]s. Before
//! execution the engine lowers collectives into point-to-point rounds
//! using the textbook algorithms MPICH of the era used on small
//! clusters: dissemination barrier, binomial-tree broadcast/reduce,
//! recursive-doubling allreduce (power-of-two sizes; reduce+bcast
//! otherwise), and pairwise-exchange all-to-all. Lowering to real p2p
//! rounds — rather than a closed-form cost — is what lets per-node SMI
//! freezes interact with every round, producing the paper's
//! amplification at scale.

use sim_core::{SimDuration, SimError};

/// High-level MPI operation.
#[derive(Clone, Debug, PartialEq, jsonio::ToJson)]
pub enum Op {
    /// Local computation for `work` of solo time.
    Compute(SimDuration),
    /// Point-to-point send of `bytes` to `dst` with `tag`.
    Send {
        /// Destination rank.
        dst: u32,
        /// Message size in bytes.
        bytes: u64,
        /// Match tag.
        tag: u32,
    },
    /// Point-to-point receive from `src` with `tag`.
    Recv {
        /// Source rank.
        src: u32,
        /// Match tag.
        tag: u32,
    },
    /// Barrier over all ranks.
    Barrier,
    /// Broadcast `bytes` from `root`.
    Bcast {
        /// Root rank.
        root: u32,
        /// Payload size.
        bytes: u64,
    },
    /// Reduce `bytes` to `root`.
    Reduce {
        /// Root rank.
        root: u32,
        /// Payload size.
        bytes: u64,
    },
    /// Allreduce of `bytes` across all ranks.
    Allreduce {
        /// Payload size.
        bytes: u64,
    },
    /// All-to-all with `bytes_per_pair` exchanged between every rank pair.
    Alltoall {
        /// Bytes sent from each rank to each other rank.
        bytes_per_pair: u64,
    },
    /// Shift exchange: send `bytes` to `send_to` while receiving from
    /// `recv_from` — the halo-swap / ring-shift primitive (MPI_Sendrecv).
    /// Lowered to a fused send+receive so rendezvous-sized payloads
    /// cannot deadlock. In an SPMD program where every rank shifts by the
    /// same offset, `recv_from` is the rank whose `send_to` is this rank.
    Exchange {
        /// Destination of the outgoing halo.
        send_to: u32,
        /// Source of the incoming halo.
        recv_from: u32,
        /// Bytes sent in each direction.
        bytes: u64,
        /// Match tag.
        tag: u32,
    },
}

/// A rank's complete program plus its node-level workload character.
#[derive(Clone, Debug, jsonio::ToJson)]
pub struct RankProgram {
    /// Operations in order.
    pub ops: Vec<Op>,
    /// Memory intensity in `[0, 1]`, used to scale post-SMI cache refill.
    pub memory_intensity: f64,
    /// Communication intensity in `[0, 1]`, used to scale the post-SMI
    /// interrupt/progress backlog cost.
    pub comm_intensity: f64,
}

impl RankProgram {
    /// A program with default (moderate) memory and comm intensity.
    pub fn new(ops: Vec<Op>) -> Self {
        RankProgram { ops, memory_intensity: 0.5, comm_intensity: 0.2 }
    }

    /// Set the memory intensity. Out-of-domain values are clamped into
    /// `[0, 1]` (NaN maps to 0); the engine's validation path reports a
    /// typed [`SimError::InvalidSpec`] for raw out-of-domain fields.
    pub fn with_memory_intensity(mut self, mi: f64) -> Self {
        self.memory_intensity = if mi.is_nan() { 0.0 } else { mi.clamp(0.0, 1.0) };
        self
    }

    /// Set the communication intensity, clamped like
    /// [`with_memory_intensity`](Self::with_memory_intensity).
    pub fn with_comm_intensity(mut self, ci: f64) -> Self {
        self.comm_intensity = if ci.is_nan() { 0.0 } else { ci.clamp(0.0, 1.0) };
        self
    }

    /// Check every operation targets a real, distinct peer for a job of
    /// `size` ranks when this program runs as `rank`.
    pub fn validate(&self, rank: u32, size: u32) -> Result<(), SimError> {
        let ctx = || format!("rank {rank} program");
        if rank >= size {
            return Err(SimError::invalid(ctx(), format!("rank out of range for size {size}")));
        }
        let peer = |what: &str, p: u32| -> Result<(), SimError> {
            if p >= size {
                Err(SimError::invalid(ctx(), format!("{what} rank {p} out of range (size {size})")))
            } else if p == rank {
                Err(SimError::invalid(ctx(), format!("{what} rank {p} is the rank itself")))
            } else {
                Ok(())
            }
        };
        for op in &self.ops {
            match *op {
                Op::Compute(_) | Op::Barrier | Op::Allreduce { .. } | Op::Alltoall { .. } => {}
                Op::Send { dst, .. } => peer("send to", dst)?,
                Op::Recv { src, .. } => peer("recv from", src)?,
                Op::Bcast { root, .. } | Op::Reduce { root, .. } => {
                    if root >= size {
                        return Err(SimError::invalid(
                            ctx(),
                            format!("collective root {root} out of range (size {size})"),
                        ));
                    }
                }
                Op::Exchange { send_to, recv_from, .. } => {
                    peer("exchange to", send_to)?;
                    peer("exchange from", recv_from)?;
                }
            }
        }
        for (name, v) in
            [("memory intensity", self.memory_intensity), ("comm intensity", self.comm_intensity)]
        {
            if !v.is_finite() || !(0.0..=1.0).contains(&v) {
                return Err(SimError::invalid(ctx(), format!("{name} {v} outside [0, 1]")));
            }
        }
        Ok(())
    }

    /// Total local compute in the program.
    pub fn total_compute(&self) -> SimDuration {
        let mut t = SimDuration::ZERO;
        for op in &self.ops {
            if let Op::Compute(w) = op {
                t += *w;
            }
        }
        t
    }
}

/// Lowered point-to-point operation.
#[derive(Clone, Copy, Debug, PartialEq, jsonio::ToJson)]
pub enum LowOp {
    /// Local computation.
    Compute(SimDuration),
    /// Send `bytes` to `dst` with `tag`.
    Send {
        /// Destination rank.
        dst: u32,
        /// Message size.
        bytes: u64,
        /// Match tag.
        tag: u64,
    },
    /// Receive from `src` with `tag`.
    Recv {
        /// Source rank.
        src: u32,
        /// Match tag.
        tag: u64,
    },
    /// Simultaneous send+receive (both posted, op completes when both
    /// complete). Used by exchange-style collective rounds to avoid the
    /// rendezvous deadlock a Send-then-Recv ordering would have.
    SendRecv {
        /// Destination of the outgoing message.
        dst: u32,
        /// Source of the incoming message.
        src: u32,
        /// Outgoing bytes.
        bytes: u64,
        /// Outgoing match tag.
        tag: u64,
    },
}

/// Tag-space layout for lowered programs: user tags live below
/// `COLLECTIVE_TAG_BASE`; each collective instance `i` uses tags
/// `COLLECTIVE_TAG_BASE + i * TAGS_PER_COLLECTIVE + round`.
pub const COLLECTIVE_TAG_BASE: u64 = 1 << 32;
/// Tag stride reserved per collective instance.
pub const TAGS_PER_COLLECTIVE: u64 = 4096;

/// Lower a rank's program. `rank` and `size` follow MPI conventions;
/// `reduce_cost` prices the combining work per reduction round. The
/// program is [`validate`](RankProgram::validate)d first, so malformed
/// peers or roots surface as [`SimError::InvalidSpec`] instead of
/// producing a lowered program that can never match.
pub fn lower(
    program: &RankProgram,
    rank: u32,
    size: u32,
    reduce_cost: impl Fn(u64) -> SimDuration,
) -> Result<Vec<LowOp>, SimError> {
    program.validate(rank, size)?;
    let mut out = Vec::with_capacity(program.ops.len() * 2);
    lower_into(&mut out, program, rank, size, reduce_cost, LowOp::Compute);
    Ok(out)
}

/// [`lower`] without the validation, appending to `out`: for callers that
/// have already validated `program` for this `rank` and `size`. Each of
/// the program's own `Op::Compute`s becomes `user_compute(duration)`;
/// every other op, including the combining work of reductions, becomes
/// its [`LowOp`]s.
pub(crate) fn lower_into<O: From<LowOp>>(
    out: &mut Vec<O>,
    program: &RankProgram,
    rank: u32,
    size: u32,
    reduce_cost: impl Fn(u64) -> SimDuration,
    mut user_compute: impl FnMut(SimDuration) -> O,
) {
    let mut collective_idx = 0u64;
    for op in &program.ops {
        match *op {
            Op::Compute(w) => out.push(user_compute(w)),
            Op::Send { dst, bytes, tag } => {
                out.push(LowOp::Send { dst, bytes, tag: tag as u64 }.into())
            }
            Op::Recv { src, tag } => out.push(LowOp::Recv { src, tag: tag as u64 }.into()),
            Op::Barrier => {
                lower_barrier(out, rank, size, base_tag(&mut collective_idx));
            }
            Op::Bcast { root, bytes } => {
                lower_bcast(out, rank, size, root, bytes, base_tag(&mut collective_idx));
            }
            Op::Reduce { root, bytes } => {
                lower_reduce(
                    out,
                    rank,
                    size,
                    root,
                    bytes,
                    base_tag(&mut collective_idx),
                    &reduce_cost,
                );
            }
            Op::Allreduce { bytes } => {
                let tag = base_tag(&mut collective_idx);
                if size.is_power_of_two() {
                    lower_allreduce_rd(out, rank, size, bytes, tag, &reduce_cost);
                } else {
                    lower_reduce(out, rank, size, 0, bytes, tag, &reduce_cost);
                    lower_bcast(out, rank, size, 0, bytes, tag + 2048);
                }
            }
            Op::Alltoall { bytes_per_pair } => {
                lower_alltoall(out, rank, size, bytes_per_pair, base_tag(&mut collective_idx));
            }
            Op::Exchange { send_to, recv_from, bytes, tag } => out.push(
                LowOp::SendRecv { dst: send_to, src: recv_from, bytes, tag: tag as u64 }.into(),
            ),
        }
    }
}

fn base_tag(collective_idx: &mut u64) -> u64 {
    let t = COLLECTIVE_TAG_BASE + *collective_idx * TAGS_PER_COLLECTIVE;
    *collective_idx += 1;
    t
}

/// Dissemination barrier: ceil(log2 n) rounds of 0-byte exchanges with
/// partners at distance 2^k.
fn lower_barrier<O: From<LowOp>>(out: &mut Vec<O>, rank: u32, size: u32, tag: u64) {
    if size <= 1 {
        return;
    }
    let mut k = 0u64;
    let mut dist = 1u32;
    while dist < size {
        let dst = (rank + dist) % size;
        let src = (rank + size - dist) % size;
        out.push(LowOp::SendRecv { dst, src, bytes: 0, tag: tag + k }.into());
        dist *= 2;
        k += 1;
    }
}

/// Binomial-tree broadcast rooted at `root` (range-checked by `lower`).
fn lower_bcast<O: From<LowOp>>(
    out: &mut Vec<O>,
    rank: u32,
    size: u32,
    root: u32,
    bytes: u64,
    tag: u64,
) {
    if size <= 1 {
        return;
    }
    let vr = (rank + size - root) % size; // virtual rank: root = 0
                                          // Non-roots receive once, from the parent at their lowest set bit;
                                          // the root's loop simply runs mask past `size` without receiving.
    let mut mask = 1u32;
    while mask < size {
        if vr & mask != 0 {
            let parent = (vr - mask + root) % size;
            out.push(LowOp::Recv { src: parent, tag }.into());
            break;
        }
        mask <<= 1;
    }
    // Forward to children vr + m for every m below the entry mask.
    let mut m = mask >> 1;
    while m >= 1 {
        if vr + m < size {
            let child = (vr + m + root) % size;
            out.push(LowOp::Send { dst: child, bytes, tag }.into());
        }
        if m == 1 {
            break;
        }
        m >>= 1;
    }
}

/// Binomial-tree reduce to `root` (mirror of bcast; data flows up).
fn lower_reduce<O: From<LowOp>>(
    out: &mut Vec<O>,
    rank: u32,
    size: u32,
    root: u32,
    bytes: u64,
    tag: u64,
    reduce_cost: &impl Fn(u64) -> SimDuration,
) {
    if size <= 1 {
        return;
    }
    let vr = (rank + size - root) % size;
    let mut mask = 1u32;
    while mask < size {
        if vr & mask != 0 {
            let parent = (vr - mask + root) % size;
            out.push(LowOp::Send { dst: parent, bytes, tag }.into());
            break;
        } else if vr + mask < size {
            let child = (vr + mask + root) % size;
            out.push(LowOp::Recv { src: child, tag }.into());
            let cost = reduce_cost(bytes);
            if !cost.is_zero() {
                out.push(LowOp::Compute(cost).into());
            }
        }
        mask <<= 1;
    }
}

/// Recursive-doubling allreduce (requires power-of-two size).
fn lower_allreduce_rd<O: From<LowOp>>(
    out: &mut Vec<O>,
    rank: u32,
    size: u32,
    bytes: u64,
    tag: u64,
    reduce_cost: &impl Fn(u64) -> SimDuration,
) {
    // `lower` only picks recursive doubling for power-of-two sizes.
    if size <= 1 {
        return;
    }
    let mut mask = 1u32;
    let mut k = 0u64;
    while mask < size {
        let partner = rank ^ mask;
        out.push(LowOp::SendRecv { dst: partner, src: partner, bytes, tag: tag + k }.into());
        let cost = reduce_cost(bytes);
        if !cost.is_zero() {
            out.push(LowOp::Compute(cost).into());
        }
        mask <<= 1;
        k += 1;
    }
}

/// Pairwise-exchange all-to-all: `size - 1` rounds; in round `s` each rank
/// sends to `(r+s) mod n` and receives from `(r-s) mod n`.
fn lower_alltoall<O: From<LowOp>>(out: &mut Vec<O>, rank: u32, size: u32, bytes: u64, tag: u64) {
    if size <= 1 {
        return;
    }
    for s in 1..size {
        let dst = (rank + s) % size;
        let src = (rank + size - s) % size;
        out.push(LowOp::SendRecv { dst, src, bytes, tag: tag + s as u64 }.into());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn no_cost(_: u64) -> SimDuration {
        SimDuration::ZERO
    }

    /// Check that every Send/SendRecv has a matching Recv/SendRecv on the
    /// peer with the same tag, across all ranks of a lowered collective.
    fn check_matching(programs: &[Vec<LowOp>]) {
        use std::collections::BTreeMap;
        // (src, dst, tag) -> count
        let mut sends: BTreeMap<(u32, u32, u64), i64> = BTreeMap::new();
        for (r, prog) in programs.iter().enumerate() {
            for op in prog {
                match *op {
                    LowOp::Send { dst, tag, .. } => {
                        *sends.entry((r as u32, dst, tag)).or_insert(0) += 1;
                    }
                    LowOp::Recv { src, tag } => {
                        *sends.entry((src, r as u32, tag)).or_insert(0) -= 1;
                    }
                    LowOp::SendRecv { dst, src, tag, .. } => {
                        *sends.entry((r as u32, dst, tag)).or_insert(0) += 1;
                        *sends.entry((src, r as u32, tag)).or_insert(0) -= 1;
                    }
                    LowOp::Compute(_) => {}
                }
            }
        }
        for (k, v) in sends {
            assert_eq!(v, 0, "unmatched message {k:?}");
        }
    }

    fn lower_all(op: Op, size: u32) -> Vec<Vec<LowOp>> {
        (0..size)
            .map(|r| lower(&RankProgram::new(vec![op.clone()]), r, size, no_cost).expect("lowers"))
            .collect()
    }

    #[test]
    fn barrier_rounds_and_matching() {
        for size in [2u32, 3, 4, 7, 8, 16, 64] {
            let progs = lower_all(Op::Barrier, size);
            let rounds = (size as f64).log2().ceil() as usize;
            for p in &progs {
                assert_eq!(p.len(), rounds, "size {size}");
            }
            check_matching(&progs);
        }
    }

    #[test]
    fn barrier_on_one_rank_is_empty() {
        let progs = lower_all(Op::Barrier, 1);
        assert!(progs[0].is_empty());
    }

    #[test]
    fn bcast_matching_various_sizes() {
        for size in [2u32, 3, 4, 5, 8, 13, 16] {
            for root in [0, size - 1, size / 2] {
                let progs = lower_all(Op::Bcast { root, bytes: 1024 }, size);
                check_matching(&progs);
                // Root sends, never receives.
                let root_prog = &progs[root as usize];
                assert!(root_prog.iter().all(|o| !matches!(o, LowOp::Recv { .. })));
                // Every non-root receives exactly once.
                for (r, p) in progs.iter().enumerate() {
                    if r as u32 != root {
                        let recvs = p.iter().filter(|o| matches!(o, LowOp::Recv { .. })).count();
                        assert_eq!(recvs, 1, "rank {r} size {size} root {root}");
                    }
                }
            }
        }
    }

    #[test]
    fn bcast_total_messages_is_n_minus_one() {
        for size in [2u32, 4, 6, 16] {
            let progs = lower_all(Op::Bcast { root: 0, bytes: 8 }, size);
            let sends: usize = progs
                .iter()
                .map(|p| p.iter().filter(|o| matches!(o, LowOp::Send { .. })).count())
                .sum();
            assert_eq!(sends, (size - 1) as usize);
        }
    }

    #[test]
    fn reduce_mirrors_bcast() {
        for size in [2u32, 3, 8, 16] {
            let progs = lower_all(Op::Reduce { root: 0, bytes: 64 }, size);
            check_matching(&progs);
            // Root never sends.
            assert!(progs[0].iter().all(|o| !matches!(o, LowOp::Send { .. })));
            let sends: usize = progs
                .iter()
                .map(|p| p.iter().filter(|o| matches!(o, LowOp::Send { .. })).count())
                .sum();
            assert_eq!(sends, (size - 1) as usize);
        }
    }

    #[test]
    fn reduce_charges_combining_cost() {
        let cost = |b: u64| SimDuration::from_nanos(b);
        let prog = lower(&RankProgram::new(vec![Op::Reduce { root: 0, bytes: 100 }]), 0, 4, cost)
            .expect("lowers");
        let computes = prog.iter().filter(|o| matches!(o, LowOp::Compute(_))).count();
        // Rank 0 receives from ranks 1 and 2 directly: two combines.
        assert_eq!(computes, 2);
    }

    #[test]
    fn allreduce_recursive_doubling_rounds() {
        for size in [2u32, 4, 8, 16, 64] {
            let progs = lower_all(Op::Allreduce { bytes: 8 }, size);
            check_matching(&progs);
            let rounds = size.trailing_zeros() as usize;
            for p in &progs {
                let xchg = p.iter().filter(|o| matches!(o, LowOp::SendRecv { .. })).count();
                assert_eq!(xchg, rounds);
            }
        }
    }

    #[test]
    fn allreduce_non_power_of_two_falls_back() {
        let progs = lower_all(Op::Allreduce { bytes: 8 }, 6);
        check_matching(&progs);
    }

    #[test]
    fn alltoall_pairwise_covers_all_pairs() {
        for size in [2u32, 4, 8] {
            let progs = lower_all(Op::Alltoall { bytes_per_pair: 512 }, size);
            check_matching(&progs);
            for (r, p) in progs.iter().enumerate() {
                let mut dsts: Vec<u32> = p
                    .iter()
                    .filter_map(|o| match o {
                        LowOp::SendRecv { dst, .. } => Some(*dst),
                        _ => None,
                    })
                    .collect();
                dsts.sort_unstable();
                let expected: Vec<u32> = (0..size).filter(|&d| d != r as u32).collect();
                let mut expected = expected;
                expected.sort_unstable();
                assert_eq!(dsts, expected, "rank {r} size {size}");
            }
        }
    }

    #[test]
    fn user_p2p_passes_through() {
        let prog = RankProgram::new(vec![
            Op::Compute(SimDuration::from_millis(1)),
            Op::Send { dst: 1, bytes: 100, tag: 7 },
            Op::Recv { src: 1, tag: 8 },
        ]);
        let low = lower(&prog, 0, 2, no_cost).expect("lowers");
        assert_eq!(low.len(), 3);
        assert_eq!(low[1], LowOp::Send { dst: 1, bytes: 100, tag: 7 });
        assert_eq!(low[2], LowOp::Recv { src: 1, tag: 8 });
    }

    #[test]
    fn collective_instances_get_distinct_tags() {
        let prog = RankProgram::new(vec![Op::Barrier, Op::Barrier]);
        let low = lower(&prog, 0, 4, no_cost).expect("lowers");
        let tags: Vec<u64> = low
            .iter()
            .filter_map(|o| match o {
                LowOp::SendRecv { tag, .. } => Some(*tag),
                _ => None,
            })
            .collect();
        assert_eq!(tags.len(), 4);
        let mut unique = tags.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), 4, "tags {tags:?}");
    }

    #[test]
    fn rejects_bad_rank_with_typed_error() {
        let err = lower(&RankProgram::new(vec![]), 5, 4, no_cost);
        match err {
            Err(SimError::InvalidSpec { problem, .. }) => {
                assert!(problem.contains("out of range"), "{problem:?}")
            }
            other => panic!("expected InvalidSpec, got {other:?}"),
        }
    }

    #[test]
    fn rejects_self_messaging_and_bad_peers() {
        let cases = vec![
            Op::Send { dst: 0, bytes: 8, tag: 1 },
            Op::Recv { src: 0, tag: 1 },
            Op::Send { dst: 9, bytes: 8, tag: 1 },
            Op::Recv { src: 9, tag: 1 },
            Op::Bcast { root: 9, bytes: 8 },
            Op::Reduce { root: 9, bytes: 8 },
            Op::Exchange { send_to: 0, recv_from: 1, bytes: 8, tag: 1 },
            Op::Exchange { send_to: 1, recv_from: 9, bytes: 8, tag: 1 },
        ];
        for op in cases {
            let r = lower(&RankProgram::new(vec![op.clone()]), 0, 4, no_cost);
            assert!(matches!(r, Err(SimError::InvalidSpec { .. })), "{op:?} gave {r:?}");
        }
    }

    #[test]
    fn memory_intensity_validation() {
        let p = RankProgram::new(vec![]).with_memory_intensity(0.9);
        assert_eq!(p.memory_intensity, 0.9);
        // Degenerate builder inputs normalize instead of panicking...
        assert_eq!(RankProgram::new(vec![]).with_memory_intensity(f64::NAN).memory_intensity, 0.0);
        assert_eq!(RankProgram::new(vec![]).with_comm_intensity(7.0).comm_intensity, 1.0);
        // ...while raw out-of-domain fields are caught by validate().
        let mut p = RankProgram::new(vec![]);
        p.comm_intensity = f64::INFINITY;
        assert!(matches!(p.validate(0, 1), Err(SimError::InvalidSpec { .. })));
    }

    #[test]
    fn total_compute_sums() {
        let p = RankProgram::new(vec![
            Op::Compute(SimDuration::from_millis(2)),
            Op::Barrier,
            Op::Compute(SimDuration::from_millis(3)),
        ]);
        assert_eq!(p.total_compute(), SimDuration::from_millis(5));
    }
}
