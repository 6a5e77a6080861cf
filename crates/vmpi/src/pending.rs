//! The three hot collectives as resumable state machines, and the
//! split-phase (nonblocking) API over them: `post_*` / [`PendingOp::wait`].
//!
//! Bruck all-gather, recursive-halving reduce-scatter and Rabenseifner
//! all-reduce are each written once, here, as a machine that can suspend
//! between messages. A machine's `step` takes a *budget* of parking
//! receives; who supplies the budget decides the schedule, never the
//! tags, messages, or words:
//!
//! * the synchronous `_into` calls in [`collectives`](crate::collectives)
//!   step with an unlimited budget inside the call and unstage at once —
//!   no [`PendingOp`], no post counted, no stash window opened;
//! * `post_*` steps with budget 0: it stages the caller's input into
//!   arena buffers, issues every send that does not depend on an
//!   unreceived message (at minimum the whole first round), drains
//!   whatever replies already arrived, and returns a [`PendingOp`];
//! * `wait(out)` alternates budget 0 and budget 1 so it can advance
//!   sibling ops between parks, then unstages the result into the
//!   caller-owned output;
//! * `discard` steps with an unlimited budget and drops the result.
//!
//! Between `post_*` and `wait` the caller computes while peers' messages
//! accumulate in the transport.
//!
//! Progress happens only inside `post_*` and `wait` — there is no
//! progress thread. That is enough to overlap, because every send is
//! buffered (channels are unbounded): once all ranks have posted, each
//! round's traffic for the in-flight op is already queued when `wait`
//! begins, so waits mostly collapse to local copies and additions.
//!
//! ## Ownership and deadlock rules
//!
//! * The machine owns all staging (checked out of the communicator
//!   arena), so the caller's buffers are free for compute the moment
//!   `post_*` returns, and the next collective simply checks out
//!   different arena buffers — double-buffering by pooling.
//! * Every rank must post and wait its collectives in the same program
//!   order. Posts never block, so every rank always reaches its next
//!   `wait`, and waits complete in order.
//! * A `PendingOp` must be waited before it is dropped (debug-asserted):
//!   a leaked post would leave peers blocked forever with no diagnostic.

use crate::collectives::{add_into, prefix_sums_into, prev_pow2, unrotate, Counts, RotOff};
use crate::comm::{Comm, CommCore, Kind};
use crate::stats::Op;
use std::time::Instant;

/// `Counts` that a pending machine can own across the post→wait window
/// (the borrowed form would tie the op to the caller's slice).
enum OwnedCounts {
    Eq(usize),
    /// Table checked out of the communicator arena.
    Var(Vec<usize>),
}

impl OwnedCounts {
    fn as_counts(&self) -> Counts<'_> {
        match self {
            OwnedCounts::Eq(len) => Counts::Eq(*len),
            OwnedCounts::Var(v) => Counts::Var(v),
        }
    }

    fn get(&self, i: usize) -> usize {
        self.as_counts().get(i)
    }

    fn release(self, core: &CommCore) {
        if let OwnedCounts::Var(v) = self {
            core.put_idx(v);
        }
    }
}

/// Receive helper. `budget` is the number of *parking* (blocking)
/// receives the caller still allows: an arrived message is always taken
/// for free; a missing one either consumes one budget unit and blocks,
/// or returns `None` so the machine can suspend. Driving with budget 0
/// is pure opportunistic progress; [`PendingOp::wait_with`] drives with
/// budget 1 per round-trip so it can advance *sibling* ops between
/// parks; an unlimited budget is the blocking collective.
fn fetch(core: &CommCore, src: usize, tag: u64, budget: &mut usize) -> Option<Box<[f64]>> {
    if let Some(msg) = core.try_recv_op(src, tag) {
        return Some(msg);
    }
    if *budget == 0 {
        return None;
    }
    *budget -= 1;
    Some(core.recv_op(src, tag))
}

// ----------------------------------------------------------------------
// Bruck all-gather machine
// ----------------------------------------------------------------------

/// Bruck all-gather over point-to-point messages. `⌈log₂ p⌉` rounds; in
/// round `t` a rank ships the `min(2ᵗ, p−2ᵗ)` blocks it holds.
///
/// Blocks are staged in *rotated* order (position `t` holds the block of
/// rank `(r+t) mod p`): the initial block and every received run of
/// blocks append contiguously, so each round's send is a prefix of the
/// staging buffer and the only data movement beyond the wire is the
/// final unrotation into the output.
pub(crate) struct AgMachine {
    /// Rotated staging (arena): initial block + every received run.
    rot: Vec<f64>,
    rot_off: RotOff,
    seq: u64,
    p: usize,
    r: usize,
    have: usize,
    round: u64,
    /// Whether the current round's send has been issued (sends are issued
    /// exactly once even if the matching receive is retried).
    sent: bool,
}

impl AgMachine {
    fn new(core: &CommCore, send: &[f64], counts: Counts<'_>, seq: u64) -> AgMachine {
        let p = core.size();
        let r = core.rank;
        assert_eq!(
            counts.get(r),
            send.len(),
            "my block length disagrees with counts"
        );
        let rot_off = RotOff::build(core, counts, p);
        let mut rot = core.take_buf();
        rot.reserve(rot_off.at(p));
        rot.extend_from_slice(send);
        AgMachine {
            rot,
            rot_off,
            seq,
            p,
            r,
            have: 1,
            round: 0,
            sent: false,
        }
    }

    /// Drives rounds until complete (`true`) or until a message has not
    /// arrived and the blocking `budget` is spent (`false`).
    fn step(&mut self, core: &CommCore, op: Op, budget: &mut usize) -> bool {
        while self.have < self.p {
            let cnt = self.have.min(self.p - self.have);
            let dst = (self.r + self.p - self.have) % self.p;
            let src = (self.r + self.have) % self.p;
            let tag = core.tag(Kind::AllGather, (self.seq << 6) | self.round);
            if !self.sent {
                core.send_op(dst, tag, &self.rot[..self.rot_off.at(cnt)], op);
                self.sent = true;
            }
            let Some(data) = fetch(core, src, tag, budget) else {
                return false;
            };
            assert_eq!(
                data.len(),
                self.rot_off.at(self.have + cnt) - self.rot_off.at(self.have),
                "all-gather round payload length mismatch"
            );
            self.rot.extend_from_slice(&data);
            self.have += cnt;
            self.round += 1;
            self.sent = false;
        }
        true
    }

    fn finish_into(self, core: &CommCore, out: &mut [f64]) {
        debug_assert_eq!(self.have, self.p, "all-gather finished before completion");
        assert_eq!(
            out.len(),
            self.rot_off.at(self.p),
            "all-gather output length mismatch"
        );
        unrotate(&self.rot, &self.rot_off, self.p, self.r, out);
        core.put_buf(self.rot);
        self.rot_off.release(core);
    }

    fn abandon(self, core: &CommCore) {
        core.put_buf(self.rot);
        self.rot_off.release(core);
    }
}

// ----------------------------------------------------------------------
// Recursive-halving reduce-scatter machine
// ----------------------------------------------------------------------

#[derive(Clone, Copy)]
enum RsPhase {
    /// Even rank in the fold region: ship the whole vector, drop out.
    FoldSend,
    /// Odd rank in the fold region: absorb the neighbour's vector.
    FoldRecv { nr: usize },
    /// Surviving rank inside the halving rounds.
    Halve {
        nr: usize,
        lo: usize,
        hi: usize,
        dist: usize,
        round: u64,
        sent: bool,
    },
    /// Folded-out rank waiting for its finished segment.
    AwaitFinal,
    /// Result is `buf[start..start + len]`.
    Done { start: usize, len: usize },
}

/// Recursive-halving reduce-scatter with a fold step for
/// non-power-of-two `p`: the first `2·rem` ranks pair up, evens ship
/// their whole vector to their odd neighbour and drop out of the
/// halving, and get their finished segment back at the end.
///
/// Virtual chunk `v` aggregates the real chunks of the rank(s) that fold
/// onto surviving rank `v`: `{2v, 2v+1}` for `v < rem`, `{v + rem}`
/// otherwise. Virtual chunks are contiguous in `buf`.
pub(crate) struct RsMachine {
    /// Accumulator (arena): a staged copy of the caller's input.
    buf: Vec<f64>,
    /// Real segment offsets, `off[i]` = start of rank `i`'s segment.
    off: Vec<usize>,
    /// Virtual (folded) chunk offsets over the surviving ranks.
    voff: Vec<usize>,
    seq: u64,
    r: usize,
    pof2: usize,
    rem: usize,
    out_len: usize,
    phase: RsPhase,
}

impl RsMachine {
    fn new(core: &CommCore, data: &[f64], counts: Counts<'_>, seq: u64) -> RsMachine {
        let p = core.size();
        let r = core.rank;
        assert_eq!(
            data.len(),
            counts.total(p),
            "data length must equal sum of counts"
        );
        let out_len = counts.get(r);
        let mut buf = core.take_buf();
        buf.extend_from_slice(data);
        if p == 1 {
            return RsMachine {
                buf,
                off: core.take_idx(),
                voff: core.take_idx(),
                seq,
                r,
                pof2: 1,
                rem: 0,
                out_len,
                phase: RsPhase::Done {
                    start: 0,
                    len: out_len,
                },
            };
        }
        let mut off = core.take_idx();
        prefix_sums_into(p, &mut off, |i| counts.get(i));
        let pof2 = prev_pow2(p);
        let rem = p - pof2;
        let mut voff = core.take_idx();
        prefix_sums_into(pof2, &mut voff, |v| {
            if v < rem {
                counts.get(2 * v) + counts.get(2 * v + 1)
            } else {
                counts.get(v + rem)
            }
        });
        let phase = if r < 2 * rem {
            if r.is_multiple_of(2) {
                RsPhase::FoldSend
            } else {
                RsPhase::FoldRecv { nr: r / 2 }
            }
        } else {
            RsPhase::Halve {
                nr: r - rem,
                lo: 0,
                hi: pof2,
                dist: pof2 / 2,
                round: 1,
                sent: false,
            }
        };
        RsMachine {
            buf,
            off,
            voff,
            seq,
            r,
            pof2,
            rem,
            out_len,
            phase,
        }
    }

    fn tag(&self, core: &CommCore, round: u64) -> u64 {
        core.tag(Kind::ReduceScatter, (self.seq << 6) | round)
    }

    fn real_of(&self, nr: usize) -> usize {
        if nr < self.rem {
            2 * nr + 1
        } else {
            nr + self.rem
        }
    }

    fn step(&mut self, core: &CommCore, op: Op, budget: &mut usize) -> bool {
        loop {
            match self.phase {
                RsPhase::FoldSend => {
                    let tag = self.tag(core, 0);
                    core.send_op(self.r + 1, tag, &self.buf, op);
                    self.phase = RsPhase::AwaitFinal;
                }
                RsPhase::FoldRecv { nr } => {
                    let tag = self.tag(core, 0);
                    let Some(other) = fetch(core, self.r - 1, tag, budget) else {
                        return false;
                    };
                    add_into(&mut self.buf, &other);
                    self.phase = RsPhase::Halve {
                        nr,
                        lo: 0,
                        hi: self.pof2,
                        dist: self.pof2 / 2,
                        round: 1,
                        sent: false,
                    };
                }
                RsPhase::Halve {
                    nr,
                    lo,
                    hi,
                    dist,
                    round,
                    sent,
                } => {
                    if dist < 1 {
                        debug_assert_eq!(lo, nr);
                        debug_assert_eq!(hi, nr + 1);
                        self.finalize(core, op, nr);
                        continue;
                    }
                    let mid = lo + dist;
                    let partner = self.real_of(nr ^ dist);
                    let tag = self.tag(core, round);
                    let (s0, s1, k0, k1) = if nr < mid {
                        (self.voff[mid], self.voff[hi], self.voff[lo], self.voff[mid])
                    } else {
                        (self.voff[lo], self.voff[mid], self.voff[mid], self.voff[hi])
                    };
                    if !sent {
                        core.send_op(partner, tag, &self.buf[s0..s1], op);
                        self.phase = RsPhase::Halve {
                            nr,
                            lo,
                            hi,
                            dist,
                            round,
                            sent: true,
                        };
                    }
                    let Some(recv) = fetch(core, partner, tag, budget) else {
                        return false;
                    };
                    add_into(&mut self.buf[k0..k1], &recv);
                    let (lo, hi) = if nr < mid { (lo, mid) } else { (mid, hi) };
                    self.phase = RsPhase::Halve {
                        nr,
                        lo,
                        hi,
                        dist: dist / 2,
                        round: round + 1,
                        sent: false,
                    };
                }
                RsPhase::AwaitFinal => {
                    let tag = self.tag(core, 40);
                    let Some(data) = fetch(core, self.r + 1, tag, budget) else {
                        return false;
                    };
                    assert_eq!(data.len(), self.out_len);
                    self.buf[..data.len()].copy_from_slice(&data);
                    self.phase = RsPhase::Done {
                        start: 0,
                        len: data.len(),
                    };
                }
                RsPhase::Done { .. } => return true,
            }
        }
    }

    /// Halving finished: ship the folded partner's segment back (if any)
    /// and record where this rank's reduced segment lives.
    fn finalize(&mut self, core: &CommCore, op: Op, nr: usize) {
        let start = if nr < self.rem {
            let tag = self.tag(core, 40);
            let seg = &self.buf[self.off[2 * nr]..self.off[2 * nr + 1]];
            core.send_op(2 * nr, tag, seg, op);
            self.off[2 * nr + 1]
        } else {
            self.off[nr + self.rem]
        };
        self.phase = RsPhase::Done {
            start,
            len: self.out_len,
        };
    }

    fn finish_into(self, core: &CommCore, out: &mut [f64]) {
        let RsPhase::Done { start, len } = self.phase else {
            unreachable!("reduce-scatter finished before completion")
        };
        assert_eq!(out.len(), len, "reduce-scatter output length mismatch");
        out.copy_from_slice(&self.buf[start..start + len]);
        core.put_buf(self.buf);
        core.put_idx(self.off);
        core.put_idx(self.voff);
    }

    fn abandon(self, core: &CommCore) {
        core.put_buf(self.buf);
        core.put_idx(self.off);
        core.put_idx(self.voff);
    }
}

// ----------------------------------------------------------------------
// Rabenseifner all-reduce machine
// ----------------------------------------------------------------------

enum ArStage {
    /// `p == 1`: the staged input is already the answer.
    Identity(Vec<f64>),
    Rs(RsMachine),
    Ag(AgMachine),
}

/// Rabenseifner all-reduce: the reduce-scatter machine over near-equal
/// segments chained into the all-gather machine over the same layout.
/// `p | n` needs no counts table at all.
pub(crate) struct ArMachine {
    counts: OwnedCounts,
    stage: ArStage,
    seq_ag: u64,
    n: usize,
}

impl ArMachine {
    fn new(core: &CommCore, data: &[f64], seq_rs: u64, seq_ag: u64) -> ArMachine {
        let p = core.size();
        let n = data.len();
        if p == 1 {
            let mut buf = core.take_buf();
            buf.extend_from_slice(data);
            return ArMachine {
                counts: OwnedCounts::Eq(n),
                stage: ArStage::Identity(buf),
                seq_ag,
                n,
            };
        }
        let base = n / p;
        let extra = n % p;
        let counts = if extra == 0 {
            OwnedCounts::Eq(base)
        } else {
            let mut cvec = core.take_idx();
            cvec.extend((0..p).map(|r| base + usize::from(r < extra)));
            OwnedCounts::Var(cvec)
        };
        let rs = RsMachine::new(core, data, counts.as_counts(), seq_rs);
        ArMachine {
            counts,
            stage: ArStage::Rs(rs),
            seq_ag,
            n,
        }
    }

    fn step(&mut self, core: &CommCore, op: Op, budget: &mut usize) -> bool {
        if let ArStage::Rs(rs) = &mut self.stage {
            if !rs.step(core, op, budget) {
                return false;
            }
            // Reduce-scatter complete: unstage my reduced segment and
            // start the all-gather over the same segment layout.
            let done = std::mem::replace(&mut self.stage, ArStage::Identity(Vec::new()));
            let ArStage::Rs(rs) = done else {
                unreachable!()
            };
            let mut seg = core.take_buf();
            seg.resize(self.counts.get(core.rank), 0.0);
            rs.finish_into(core, &mut seg);
            let ag = AgMachine::new(core, &seg, self.counts.as_counts(), self.seq_ag);
            core.put_buf(seg);
            self.stage = ArStage::Ag(ag);
        }
        match &mut self.stage {
            ArStage::Identity(_) => true,
            ArStage::Ag(ag) => ag.step(core, op, budget),
            ArStage::Rs(_) => unreachable!(),
        }
    }

    fn finish_into(self, core: &CommCore, out: &mut [f64]) {
        assert_eq!(out.len(), self.n, "all-reduce output length mismatch");
        match self.stage {
            ArStage::Identity(buf) => {
                out.copy_from_slice(&buf);
                core.put_buf(buf);
            }
            ArStage::Ag(ag) => ag.finish_into(core, out),
            ArStage::Rs(_) => unreachable!("all-reduce finished before completion"),
        }
        self.counts.release(core);
    }

    fn abandon(self, core: &CommCore) {
        match self.stage {
            ArStage::Identity(buf) => core.put_buf(buf),
            ArStage::Ag(ag) => ag.abandon(core),
            ArStage::Rs(_) => unreachable!("all-reduce abandoned before completion"),
        }
        self.counts.release(core);
    }
}

// ----------------------------------------------------------------------
// The public handle
// ----------------------------------------------------------------------

/// One in-flight collective. Both entry styles build it here: `post_*`
/// wraps it in a [`PendingOp`], the synchronous `_into` calls
/// [`run_into`](Machine::run_into) it on the spot.
pub(crate) enum Machine {
    Gather(AgMachine),
    Scatter(RsMachine),
    Reduce(ArMachine),
}

impl Machine {
    /// Bruck all-gather of `send` over `comm`, consuming its next
    /// sequence number.
    pub(crate) fn gather(comm: &Comm, send: &[f64], counts: Counts<'_>) -> Machine {
        Machine::Gather(AgMachine::new(&comm.core, send, counts, comm.next_seq()))
    }

    /// Recursive-halving reduce-scatter of `data` over `comm`, consuming
    /// its next sequence number.
    pub(crate) fn scatter(comm: &Comm, data: &[f64], counts: Counts<'_>) -> Machine {
        Machine::Scatter(RsMachine::new(&comm.core, data, counts, comm.next_seq()))
    }

    /// Rabenseifner all-reduce of `data` over `comm`, consuming two
    /// sequence numbers (one per pipeline stage).
    pub(crate) fn reduce(comm: &Comm, data: &[f64]) -> Machine {
        let (seq_rs, seq_ag) = (comm.next_seq(), comm.next_seq());
        Machine::Reduce(ArMachine::new(&comm.core, data, seq_rs, seq_ag))
    }

    fn step(&mut self, core: &CommCore, op: Op, budget: &mut usize) -> bool {
        match self {
            Machine::Gather(m) => m.step(core, op, budget),
            Machine::Scatter(m) => m.step(core, op, budget),
            Machine::Reduce(m) => m.step(core, op, budget),
        }
    }

    fn finish_into(self, core: &CommCore, out: &mut [f64]) {
        match self {
            Machine::Gather(m) => m.finish_into(core, out),
            Machine::Scatter(m) => m.finish_into(core, out),
            Machine::Reduce(m) => m.finish_into(core, out),
        }
    }

    /// Drives every remaining round, parking on each message that has
    /// not arrived yet.
    fn run_to_completion(&mut self, core: &CommCore, op: Op) {
        let mut unlimited = usize::MAX;
        let done = self.step(core, op, &mut unlimited);
        debug_assert!(done);
    }

    /// The synchronous collective: runs the machine to completion and
    /// unstages the result into `out`. No [`PendingOp`] exists, so the
    /// endpoint's in-flight count stays where it was and nothing is
    /// recorded as a post.
    pub(crate) fn run_into(mut self, core: &CommCore, op: Op, out: &mut [f64]) {
        self.run_to_completion(core, op);
        self.finish_into(core, out);
    }

    /// Completes the collective (blocking) and releases staging without
    /// producing output — the [`PendingOp::discard`] path.
    fn run_out(mut self, core: &CommCore, op: Op) {
        self.run_to_completion(core, op);
        match self {
            Machine::Gather(m) => m.abandon(core),
            Machine::Scatter(m) => m.abandon(core),
            Machine::Reduce(m) => m.abandon(core),
        }
    }
}

/// Handle to a posted collective. Obtain from [`Comm::post_all_gatherv`],
/// [`Comm::post_reduce_scatter`], or [`Comm::post_all_reduce`]; complete
/// with [`wait`](PendingOp::wait). Dropping an unwaited handle is a bug
/// (debug-asserted): peers block forever on the missing rounds.
pub struct PendingOp {
    core: CommCore,
    op: Op,
    machine: Option<Machine>,
    post_begin: Instant,
    post_end: Instant,
}

impl PendingOp {
    /// Blocks until the collective completes and writes the result into
    /// caller-owned `out` (same length contract as the synchronous
    /// `_into` variant). Records the wall-clock overlap window — the time
    /// between post returning and wait starting — in the comm stats.
    pub fn wait(self, out: &mut [f64]) {
        self.wait_with(out, || {});
    }

    /// [`wait`](PendingOp::wait), but with a progress hook: before every
    /// *parking* receive, `progress_siblings` runs so the caller can
    /// [`try_progress`](PendingOp::try_progress) its other in-flight ops.
    /// One thread activation then drains every arrived round across every
    /// pending collective instead of one round of one collective — the
    /// difference between `O(p · total rounds)` and `O(p · critical
    /// depth)` context switches when ranks are oversubscribed onto few
    /// cores. The hook must not wait (or drop) any posted op.
    pub fn wait_with(mut self, out: &mut [f64], mut progress_siblings: impl FnMut()) {
        let wait_begin = Instant::now();
        let mut machine = self
            .machine
            .take()
            .expect("PendingOp::wait on an already-waited op");
        loop {
            // Free pass first: batch everything that already arrived.
            if machine.step(&self.core, self.op, &mut 0) {
                break;
            }
            progress_siblings();
            // One parking receive, then drain opportunistically again.
            if machine.step(&self.core, self.op, &mut 1) {
                break;
            }
        }
        machine.finish_into(&self.core, out);
        self.retire(wait_begin);
    }

    /// Retires a completed op: stops the stash window and charges the
    /// wait time and the overlap / in-flight spans.
    fn retire(&self, wait_begin: Instant) {
        self.core.ep.pending_dec();
        let wait_end = Instant::now();
        let mut stats = self.core.stats.borrow_mut();
        stats.record_time(self.op, wait_end - wait_begin);
        stats.record_split_wait(
            self.op,
            wait_begin.saturating_duration_since(self.post_end),
            wait_end.saturating_duration_since(self.post_begin),
        );
    }

    /// Drives the machine over every message that has already arrived,
    /// never blocking. Returns `true` once the collective is complete
    /// (its `wait` will then finish without parking). Safe to call any
    /// number of times, including after completion.
    pub fn try_progress(&mut self) -> bool {
        match &mut self.machine {
            Some(machine) => machine.step(&self.core, self.op, &mut 0),
            None => true,
        }
    }

    /// Drives the collective to completion and throws the result away —
    /// the cancellation path for a posted op whose consumer will never
    /// run (e.g. a prefetched collective on an engine dropped mid-run).
    /// Peers' rounds still depend on this rank's sends, so the machine
    /// must finish; only the local unstage is skipped.
    pub fn discard(mut self) {
        let wait_begin = Instant::now();
        let machine = self
            .machine
            .take()
            .expect("PendingOp::discard on an already-waited op");
        machine.run_out(&self.core, self.op);
        self.retire(wait_begin);
    }
}

impl Drop for PendingOp {
    fn drop(&mut self) {
        if self.machine.is_some() {
            // Keep the counter honest even when the assertion is compiled
            // out; the run is still doomed to deadlock on peers.
            self.core.ep.pending_dec();
            if !std::thread::panicking() {
                debug_assert!(
                    false,
                    "PendingOp dropped without wait(): posted collectives must be \
                     waited (a leaked post deadlocks peers silently)"
                );
            }
        }
    }
}

impl Comm {
    /// Posts a `v`-variant all-gather (same contract as
    /// [`Comm::all_gatherv_into`]); `wait(out)` needs `out.len()` equal to
    /// the sum of `counts`. `send` is staged and free for reuse on return.
    pub fn post_all_gatherv(&self, send: &[f64], counts: &[usize]) -> PendingOp {
        assert_eq!(
            counts.len(),
            self.size(),
            "counts must have one entry per rank"
        );
        let post_begin = Instant::now();
        let machine = Machine::gather(self, send, Counts::detect(counts));
        finish_post(self.core.clone(), Op::AllGather, machine, post_begin)
    }

    /// Posts a reduce-scatter (same contract as
    /// [`Comm::reduce_scatter_into`]); `wait(out)` needs `out.len()` equal
    /// to `counts[rank]`. `data` is staged and free for reuse on return.
    pub fn post_reduce_scatter(&self, data: &[f64], counts: &[usize]) -> PendingOp {
        assert_eq!(
            counts.len(),
            self.size(),
            "counts must have one entry per rank"
        );
        let post_begin = Instant::now();
        let machine = Machine::scatter(self, data, Counts::detect(counts));
        finish_post(self.core.clone(), Op::ReduceScatter, machine, post_begin)
    }

    /// Posts an all-reduce (element-wise sum, same result as
    /// [`Comm::all_reduce_into`]); `wait(out)` needs `out.len()` equal to
    /// `data.len()`. `data` is staged and free for reuse on return.
    pub fn post_all_reduce(&self, data: &[f64]) -> PendingOp {
        let post_begin = Instant::now();
        let machine = Machine::reduce(self, data);
        finish_post(self.core.clone(), Op::AllReduce, machine, post_begin)
    }
}

fn finish_post(core: CommCore, op: Op, mut machine: Machine, post_begin: Instant) -> PendingOp {
    // From here on a peer may run ahead of this op: mismatched tags stash.
    core.ep.pending_inc();
    // Eager progress: issue the first round's sends (and any further
    // rounds whose inputs already arrived) before returning to compute.
    machine.step(&core, op, &mut 0);
    let post_end = Instant::now();
    {
        let mut stats = core.stats.borrow_mut();
        stats.record_post(op);
        stats.record_time(op, post_end.saturating_duration_since(post_begin));
    }
    PendingOp {
        core,
        op,
        machine: Some(machine),
        post_begin,
        post_end,
    }
}
