//! Collective communication algorithms.
//!
//! Implemented *from point-to-point messages* with the classic algorithms
//! whose costs the paper quotes in §2.3 (following Chan et al. and
//! Thakur/Rabenseifner/Gropp). The first three are the resumable machines
//! of [`pending`](crate::pending), which the calls here run to completion
//! on the spot; the barrier is a plain loop in this file:
//!
//! * **all-gather** — Bruck's algorithm: `⌈log₂ p⌉` rounds,
//!   `((p−1)/p)·n` words per rank. Handles any `p` and per-rank block
//!   sizes (`v` variant) because receivers know all counts.
//! * **reduce-scatter** — recursive halving with a fold step for
//!   non-power-of-two `p`: `⌈log₂ p⌉ (+2)` rounds, `((p−1)/p)·n` words
//!   plus the same number of additions.
//! * **all-reduce** — Rabenseifner's algorithm: a reduce-scatter followed
//!   by an all-gather, `2·⌈log₂ p⌉` rounds and `2·((p−1)/p)·n` words.
//! * **barrier** — dissemination (`⌈log₂ p⌉` rounds of empty messages).
//!
//! Every payload word and message is recorded in the rank's
//! [`CommStats`](crate::stats::CommStats) so tests can compare counted
//! communication against the paper's Table 2 formulas.
//!
//! ## Allocation discipline
//!
//! The hot collectives come in two forms: allocating (`all_reduce`,
//! `all_gatherv`, `reduce_scatter`) and caller-owned-output `_into`
//! variants (`all_reduce_into`, `all_gather_into`, `all_gatherv_into`,
//! `reduce_scatter_into`). The `_into` variants perform **zero heap
//! allocations in steady state**: the machine they run checks Bruck's
//! rotated block buffer, the halving accumulator, and all prefix-sum
//! tables out of the communicator's staging arena (see `comm::Arena`)
//! and returns them, retaining their capacity between calls. The NMF
//! iteration loops call only the `_into` and `post_*` forms. (Message
//! payloads crossing the channel transport are still boxed by the
//! transport — that is the virtual interconnect, not the compute path.)
//!
//! Equal-block collectives (`all_gather`, `all_gather_into`, any `v`
//! call whose counts happen to be uniform, and the segment layout inside
//! `all_reduce` when `p | n`) use a constant-space `Counts::Eq`
//! descriptor instead of a prefix table.

use crate::comm::{Comm, Kind};
use crate::pending::Machine;
use crate::stats::Op;

/// `⌈log₂ p⌉` (0 for p ≤ 1); the latency factor of every collective here.
pub fn log2_ceil(p: usize) -> u32 {
    if p <= 1 {
        0
    } else {
        usize::BITS - (p - 1).leading_zeros()
    }
}

/// Largest power of two `≤ p`.
pub fn prev_pow2(p: usize) -> usize {
    assert!(p >= 1);
    1 << (usize::BITS - 1 - p.leading_zeros())
}

/// Per-rank block lengths of a `v`-style collective, without forcing the
/// equal-block case to materialize a vector.
#[derive(Clone, Copy)]
pub(crate) enum Counts<'a> {
    /// Every rank contributes the same number of words.
    Eq(usize),
    /// Rank `r` contributes `counts[r]` words.
    Var(&'a [usize]),
}

impl Counts<'_> {
    #[inline]
    pub(crate) fn get(&self, i: usize) -> usize {
        match self {
            Counts::Eq(len) => *len,
            Counts::Var(c) => c[i],
        }
    }

    #[inline]
    pub(crate) fn total(&self, p: usize) -> usize {
        match self {
            Counts::Eq(len) => len * p,
            Counts::Var(c) => c.iter().sum(),
        }
    }

    /// Collapses a per-rank counts slice to `Eq` when every entry is the
    /// same — the equal-counts fast path that lets Bruck's rotated offsets
    /// be computed arithmetically instead of via a prefix table.
    #[inline]
    pub(crate) fn detect(counts: &[usize]) -> Counts<'_> {
        if counts.windows(2).all(|w| w[0] == w[1]) {
            Counts::Eq(counts.first().copied().unwrap_or(0))
        } else {
            Counts::Var(counts)
        }
    }
}

/// Rotated-block prefix offsets for Bruck's all-gather: `at(t)` is the
/// number of words in rotated blocks `0..t`. Equal blocks need no table —
/// the offset is just `t · len` — which is what makes the equal-counts
/// fast path worthwhile for the gatherv on uniform grids.
pub(crate) enum RotOff {
    Eq(usize),
    /// Prefix table checked out of the communicator arena.
    Var(Vec<usize>),
}

impl RotOff {
    /// Builds offsets for rank `r` of `p`: rotated block `t` is the block
    /// of rank `(r + t) mod p`.
    pub(crate) fn build(core: &crate::comm::CommCore, counts: Counts<'_>, p: usize) -> RotOff {
        match counts {
            Counts::Eq(len) => RotOff::Eq(len),
            Counts::Var(_) => {
                let r = core.rank;
                let mut table = core.take_idx();
                prefix_sums_into(p, &mut table, |t| counts.get((r + t) % p));
                RotOff::Var(table)
            }
        }
    }

    #[inline]
    pub(crate) fn at(&self, t: usize) -> usize {
        match self {
            RotOff::Eq(len) => len * t,
            RotOff::Var(table) => table[t],
        }
    }

    /// Returns any arena scratch held by the offsets.
    pub(crate) fn release(self, core: &crate::comm::CommCore) {
        if let RotOff::Var(table) = self {
            core.put_idx(table);
        }
    }
}

/// Appends the prefix sums of `count_of(0..n)` to `out` (which must be
/// empty): `out[i] = Σ_{t<i} count_of(t)`, length `n + 1`. One
/// implementation for every offset table the collectives build (rotated
/// Bruck blocks, rank segments, virtual fold chunks).
pub(crate) fn prefix_sums_into(n: usize, out: &mut Vec<usize>, count_of: impl Fn(usize) -> usize) {
    debug_assert!(out.is_empty());
    out.push(0);
    for i in 0..n {
        out.push(out[i] + count_of(i));
    }
}

pub(crate) fn add_into(acc: &mut [f64], other: &[f64]) {
    assert_eq!(acc.len(), other.len(), "reduction operand length mismatch");
    for (a, b) in acc.iter_mut().zip(other) {
        *a += b;
    }
}

/// Copies Bruck's rotated staging back into rank order: output block `j`
/// is rotated block `(j − r) mod p`.
pub(crate) fn unrotate(rot: &[f64], rot_off: &RotOff, p: usize, r: usize, out: &mut [f64]) {
    let mut off = 0;
    for j in 0..p {
        let t = (j + p - r) % p;
        let len = rot_off.at(t + 1) - rot_off.at(t);
        out[off..off + len].copy_from_slice(&rot[rot_off.at(t)..rot_off.at(t) + len]);
        off += len;
    }
}

impl Comm {
    /// The synchronous form of a machine-backed collective: builds the
    /// machine, runs it to completion and unstages into `out`, all
    /// charged to `op`'s timer.
    fn run_sync(&self, op: Op, out: &mut [f64], machine: impl FnOnce() -> Machine) {
        self.timed(op, || machine().run_into(&self.core, op, out));
    }

    // ------------------------------------------------------------------
    // all-gather
    // ------------------------------------------------------------------

    /// All-gather with equal block sizes: every rank contributes `send`
    /// and receives the concatenation over ranks in rank order.
    pub fn all_gather(&self, send: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; send.len() * self.size()];
        self.all_gather_into(send, &mut out);
        out
    }

    /// Equal-block all-gather into caller-owned `out`
    /// (`send.len() * size()` words, blocks in rank order).
    pub fn all_gather_into(&self, send: &[f64], out: &mut [f64]) {
        assert_eq!(
            out.len(),
            send.len() * self.size(),
            "all-gather output length mismatch"
        );
        self.run_sync(Op::AllGather, out, || {
            Machine::gather(self, send, Counts::Eq(send.len()))
        });
    }

    /// All-gather with per-rank block sizes (`counts[r]` is rank `r`'s
    /// contribution length; must all be known on every rank, as in
    /// `MPI_Allgatherv`).
    pub fn all_gatherv(&self, send: &[f64], counts: &[usize]) -> Vec<f64> {
        let mut out = vec![0.0; counts.iter().sum()];
        self.all_gatherv_into(send, counts, &mut out);
        out
    }

    /// `v`-variant all-gather into caller-owned `out` (length must equal
    /// the sum of `counts`). Uniform counts (as produced by evenly
    /// divisible grids) take the equal-block fast path and skip the
    /// rotated prefix table.
    pub fn all_gatherv_into(&self, send: &[f64], counts: &[usize], out: &mut [f64]) {
        assert_eq!(
            counts.len(),
            self.size(),
            "counts must have one entry per rank"
        );
        assert_eq!(
            out.len(),
            counts.iter().sum::<usize>(),
            "all-gather output length mismatch"
        );
        self.run_sync(Op::AllGather, out, || {
            Machine::gather(self, send, Counts::detect(counts))
        });
    }

    // ------------------------------------------------------------------
    // reduce-scatter
    // ------------------------------------------------------------------

    /// Reduce-scatter: element-wise sums `data` across ranks and leaves
    /// rank `r` with the segment of length `counts[r]` (segments in rank
    /// order). Recursive-halving algorithm with a fold step for
    /// non-power-of-two `p`.
    pub fn reduce_scatter(&self, data: &[f64], counts: &[usize]) -> Vec<f64> {
        let mut out = vec![0.0; counts[self.rank()]];
        self.reduce_scatter_into(data, counts, &mut out);
        out
    }

    /// Reduce-scatter into caller-owned `out` (length `counts[rank]`).
    pub fn reduce_scatter_into(&self, data: &[f64], counts: &[usize], out: &mut [f64]) {
        assert_eq!(
            counts.len(),
            self.size(),
            "counts must have one entry per rank"
        );
        assert_eq!(
            out.len(),
            counts[self.rank()],
            "reduce-scatter output length mismatch"
        );
        self.run_sync(Op::ReduceScatter, out, || {
            Machine::scatter(self, data, Counts::detect(counts))
        });
    }

    // ------------------------------------------------------------------
    // all-reduce
    // ------------------------------------------------------------------

    /// All-reduce (element-wise sum) via Rabenseifner's algorithm:
    /// reduce-scatter over near-equal segments, then all-gather.
    pub fn all_reduce(&self, data: &[f64]) -> Vec<f64> {
        let mut out = data.to_vec();
        self.all_reduce_into(&mut out);
        out
    }

    /// In-place all-reduce: on return every rank's `data` holds the
    /// element-wise sum across ranks. Zero allocations in steady state
    /// (scratch comes from the communicator arena).
    pub fn all_reduce_into(&self, data: &mut [f64]) {
        // `run_sync` spelled out: `data` is staged by `reduce` before it
        // is borrowed again as the output.
        self.timed(Op::AllReduce, || {
            Machine::reduce(self, data).run_into(&self.core, Op::AllReduce, data)
        });
    }

    /// Convenience: all-reduce of one scalar.
    pub fn all_reduce_scalar(&self, x: f64) -> f64 {
        let mut v = [x];
        self.all_reduce_into(&mut v);
        v[0]
    }

    /// Dissemination barrier: `⌈log₂ p⌉` rounds of empty messages; no
    /// rank exits before every rank has entered.
    pub fn barrier(&self) {
        let p = self.size();
        if p == 1 {
            return;
        }
        let r = self.rank();
        let seq = self.next_seq();
        self.timed(Op::Barrier, || {
            let mut dist = 1usize;
            let mut round = 0u64;
            while dist < p {
                let tag = self.tag(Kind::Barrier, (seq << 6) | round);
                let dst = (r + dist) % p;
                let src = (r + p - dist) % p;
                let _ = self.exchange(dst, src, tag, &[], Op::Barrier);
                dist <<= 1;
                round += 1;
            }
        });
    }
}
