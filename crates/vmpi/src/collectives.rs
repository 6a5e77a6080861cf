//! Collective communication algorithms.
//!
//! Implemented *from point-to-point messages* with the classic algorithms
//! whose costs the paper quotes in §2.3 (following Chan et al. and
//! Thakur/Rabenseifner/Gropp), each a blocking loop over its rounds:
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
//! allocations in steady state**: Bruck's rotated block buffer, the
//! halving accumulator, and all prefix-sum tables are checked out of the
//! communicator's staging arena (see `comm::Arena`) and returned on exit,
//! retaining their capacity between calls. The NMF iteration loops call
//! only the `_into` forms. (Message payloads crossing the channel
//! transport are still boxed by the transport — that is the virtual
//! interconnect, not the compute path.)
//!
//! Equal-block collectives (`all_gather`, `all_gather_into`, any `v`
//! call whose counts happen to be uniform, and the segment layout inside
//! `all_reduce` when `p | n`) use a constant-space `Counts::Eq`
//! descriptor instead of a prefix table.

use crate::comm::{Comm, Kind};
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
enum RotOff {
    Eq(usize),
    /// Prefix table checked out of the communicator arena.
    Var(Vec<usize>),
}

impl RotOff {
    /// Builds offsets for rank `r` of `p`: rotated block `t` is the block
    /// of rank `(r + t) mod p`.
    fn build(comm: &Comm, counts: Counts<'_>, p: usize) -> RotOff {
        match counts {
            Counts::Eq(len) => RotOff::Eq(len),
            Counts::Var(_) => {
                let r = comm.rank();
                let mut table = comm.take_idx();
                prefix_sums_into(p, &mut table, |t| counts.get((r + t) % p));
                RotOff::Var(table)
            }
        }
    }

    #[inline]
    fn at(&self, t: usize) -> usize {
        match self {
            RotOff::Eq(len) => len * t,
            RotOff::Var(table) => table[t],
        }
    }

    /// Returns any arena scratch held by the offsets.
    fn release(self, comm: &Comm) {
        if let RotOff::Var(table) = self {
            comm.put_idx(table);
        }
    }
}

/// Appends the prefix sums of `count_of(0..n)` to `out` (which must be
/// empty): `out[i] = Σ_{t<i} count_of(t)`, length `n + 1`. One
/// implementation for every offset table the collectives build (rotated
/// Bruck blocks, rank segments, virtual fold chunks).
fn prefix_sums_into(n: usize, out: &mut Vec<usize>, count_of: impl Fn(usize) -> usize) {
    debug_assert!(out.is_empty());
    out.push(0);
    for i in 0..n {
        out.push(out[i] + count_of(i));
    }
}

fn add_into(acc: &mut [f64], other: &[f64]) {
    assert_eq!(acc.len(), other.len(), "reduction operand length mismatch");
    for (a, b) in acc.iter_mut().zip(other) {
        *a += b;
    }
}

/// Copies Bruck's rotated staging back into rank order: output block `j`
/// is rotated block `(j − r) mod p`.
fn unrotate(rot: &[f64], rot_off: &RotOff, p: usize, r: usize, out: &mut [f64]) {
    let mut off = 0;
    for j in 0..p {
        let t = (j + p - r) % p;
        let len = rot_off.at(t + 1) - rot_off.at(t);
        out[off..off + len].copy_from_slice(&rot[rot_off.at(t)..rot_off.at(t) + len]);
        off += len;
    }
}

impl Comm {
    /// Bruck all-gather of `send` into `out` (blocks in rank order),
    /// charged to `op`: `⌈log₂ p⌉` rounds; in round `t` a rank ships the
    /// `min(2ᵗ, p−2ᵗ)` blocks it holds.
    ///
    /// Blocks are staged in *rotated* order (position `t` holds the block
    /// of rank `(r+t) mod p`): the initial block and every received run
    /// append contiguously, so each round's send is a prefix of the
    /// staging buffer and the only data movement beyond the wire is the
    /// final unrotation into `out`.
    pub(crate) fn gather_into(&self, send: &[f64], counts: Counts<'_>, op: Op, out: &mut [f64]) {
        let seq = self.next_seq();
        let (p, r) = (self.size(), self.rank());
        assert_eq!(
            counts.get(r),
            send.len(),
            "my block length disagrees with counts"
        );
        let rot_off = RotOff::build(self, counts, p);
        let mut rot = self.take_buf();
        rot.reserve(rot_off.at(p));
        rot.extend_from_slice(send);
        let mut have = 1;
        let mut round = 0u64;
        while have < p {
            let cnt = have.min(p - have);
            let dst = (r + p - have) % p;
            let src = (r + have) % p;
            let tag = self.tag(Kind::AllGather, (seq << 6) | round);
            let data = self.exchange(dst, src, tag, &rot[..rot_off.at(cnt)], op);
            assert_eq!(
                data.len(),
                rot_off.at(have + cnt) - rot_off.at(have),
                "all-gather round payload length mismatch"
            );
            rot.extend_from_slice(&data);
            have += cnt;
            round += 1;
        }
        assert_eq!(
            out.len(),
            rot_off.at(p),
            "all-gather output length mismatch"
        );
        unrotate(&rot, &rot_off, p, r, out);
        self.put_buf(rot);
        rot_off.release(self);
    }

    /// Recursive-halving reduce-scatter of `data` into `out` (this rank's
    /// segment), charged to `op`, with a fold step for non-power-of-two
    /// `p`: the first `2·rem` ranks pair up, evens ship their whole
    /// vector to their odd neighbour (tag round 0), drop out of the
    /// halving, and get their finished segment back at the end (tag
    /// round 40).
    ///
    /// Virtual chunk `v` aggregates the real chunks of the rank(s) that
    /// fold onto surviving rank `v`: `{2v, 2v+1}` for `v < rem`,
    /// `{v + rem}` otherwise. Virtual chunks are contiguous in the
    /// accumulator.
    fn scatter_into(&self, data: &[f64], counts: Counts<'_>, op: Op, out: &mut [f64]) {
        let seq = self.next_seq();
        let tag = |round: u64| self.tag(Kind::ReduceScatter, (seq << 6) | round);
        let (p, r) = (self.size(), self.rank());
        assert_eq!(
            data.len(),
            counts.total(p),
            "data length must equal sum of counts"
        );
        assert_eq!(
            out.len(),
            counts.get(r),
            "reduce-scatter output length mismatch"
        );
        let mut buf = self.take_buf();
        buf.extend_from_slice(data);
        let mut off = self.take_idx();
        prefix_sums_into(p, &mut off, |i| counts.get(i));
        let pof2 = prev_pow2(p);
        let rem = p - pof2;
        let mut voff = self.take_idx();
        prefix_sums_into(pof2, &mut voff, |v| {
            if v < rem {
                counts.get(2 * v) + counts.get(2 * v + 1)
            } else {
                counts.get(v + rem)
            }
        });
        let start = if r < 2 * rem && r.is_multiple_of(2) {
            self.send_op(r + 1, tag(0), &buf, op);
            let seg = self.recv_op(r + 1, tag(40));
            assert_eq!(seg.len(), out.len());
            buf[..seg.len()].copy_from_slice(&seg);
            0
        } else {
            let nr = if r < 2 * rem {
                let other = self.recv_op(r - 1, tag(0));
                add_into(&mut buf, &other);
                r / 2
            } else {
                r - rem
            };
            let real_of = |v: usize| if v < rem { 2 * v + 1 } else { v + rem };
            let (mut lo, mut hi, mut dist, mut round) = (0, pof2, pof2 / 2, 1);
            while dist > 0 {
                let mid = lo + dist;
                let partner = real_of(nr ^ dist);
                let (s0, s1, k0, k1) = if nr < mid {
                    (voff[mid], voff[hi], voff[lo], voff[mid])
                } else {
                    (voff[lo], voff[mid], voff[mid], voff[hi])
                };
                let recv = self.exchange(partner, partner, tag(round), &buf[s0..s1], op);
                add_into(&mut buf[k0..k1], &recv);
                if nr < mid {
                    hi = mid;
                } else {
                    lo = mid;
                }
                dist /= 2;
                round += 1;
            }
            debug_assert_eq!((lo, hi), (nr, nr + 1));
            if nr < rem {
                let seg = &buf[off[2 * nr]..off[2 * nr + 1]];
                self.send_op(2 * nr, tag(40), seg, op);
                off[2 * nr + 1]
            } else {
                off[nr + rem]
            }
        };
        out.copy_from_slice(&buf[start..start + out.len()]);
        self.put_buf(buf);
        self.put_idx(off);
        self.put_idx(voff);
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
        self.timed(Op::AllGather, || {
            self.gather_into(send, Counts::Eq(send.len()), Op::AllGather, out)
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
        self.timed(Op::AllGather, || {
            self.gather_into(send, Counts::detect(counts), Op::AllGather, out)
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
        self.timed(Op::ReduceScatter, || {
            self.scatter_into(data, Counts::detect(counts), Op::ReduceScatter, out)
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
    ///
    /// Rabenseifner: a reduce-scatter over near-equal segments, then an
    /// all-gather over the same layout, one sequence number each. `p | n`
    /// needs no counts table at all.
    pub fn all_reduce_into(&self, data: &mut [f64]) {
        let p = self.size();
        let (base, extra) = (data.len() / p, data.len() % p);
        self.timed(Op::AllReduce, || {
            let mut table = self.take_idx();
            let counts = if extra == 0 {
                Counts::Eq(base)
            } else {
                table.extend((0..p).map(|r| base + usize::from(r < extra)));
                Counts::Var(&table)
            };
            let mut seg = self.take_buf();
            seg.resize(counts.get(self.rank()), 0.0);
            self.scatter_into(data, counts, Op::AllReduce, &mut seg);
            self.gather_into(&seg, counts, Op::AllReduce, data);
            self.put_buf(seg);
            self.put_idx(table);
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
