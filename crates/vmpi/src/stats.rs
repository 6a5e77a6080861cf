//! Per-rank communication accounting.
//!
//! Every send is charged to the collective (or point-to-point operation)
//! that issued it, giving exact *counted* words and messages per rank.
//! These counters are what the Table-2 reproduction checks against the
//! paper's analytic formulas, and the wall-clock timers feed the Figure-3
//! breakdown plots.

use std::time::Duration;

/// The communication operations we account separately.
///
/// `AllGather`, `ReduceScatter`, and `AllReduce` are the three tasks the
/// paper's time-breakdown figures name (`AllG`, `RedSc`, `AllR`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Op {
    P2p,
    Barrier,
    AllGather,
    ReduceScatter,
    AllReduce,
}

impl Op {
    pub const ALL: [Op; 5] = [
        Op::P2p,
        Op::Barrier,
        Op::AllGather,
        Op::ReduceScatter,
        Op::AllReduce,
    ];

    #[inline]
    pub(crate) fn idx(self) -> usize {
        match self {
            Op::P2p => 0,
            Op::Barrier => 1,
            Op::AllGather => 2,
            Op::ReduceScatter => 3,
            Op::AllReduce => 4,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Op::P2p => "p2p",
            Op::Barrier => "barrier",
            Op::AllGather => "all-gather",
            Op::ReduceScatter => "reduce-scatter",
            Op::AllReduce => "all-reduce",
        }
    }
}

/// Counters for one operation class.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct OpStats {
    /// Messages this rank sent.
    pub messages: u64,
    /// `f64` words this rank sent.
    pub words: u64,
    /// Wall-clock time this rank spent inside the operation (including
    /// blocking on peers). For split-phase ops this is post time plus
    /// wait time — the overlap window in between is *not* charged.
    pub time: Duration,
    /// Split-phase (post/wait) invocations of this operation.
    pub posts: u64,
    /// Wall-clock between a post returning and its wait starting: the
    /// window in which compute actually ran while the op was in flight.
    pub overlap: Duration,
    /// Wall-clock from post begin to wait end: total time the op was in
    /// flight (`time + overlap` for split-phase ops).
    pub inflight: Duration,
}

/// [`OpStats`] as stored: the three durations as whole nanoseconds in a
/// `u64` (584 years), half the size of a `Duration` each. One
/// [`CommStats`] is kept per iteration of every run, so its size is
/// what a long run's records cost.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
struct Counters {
    messages: u64,
    words: u64,
    posts: u64,
    time_ns: u64,
    overlap_ns: u64,
    inflight_ns: u64,
}

fn nanos(t: Duration) -> u64 {
    u64::try_from(t.as_nanos()).unwrap_or(u64::MAX)
}

/// All counters for one rank.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CommStats {
    per_op: [Counters; Op::ALL.len()],
}

impl CommStats {
    pub fn new() -> Self {
        Self::default()
    }

    pub(crate) fn record_send(&mut self, op: Op, words: usize) {
        let s = &mut self.per_op[op.idx()];
        s.messages += 1;
        s.words += words as u64;
    }

    pub(crate) fn record_time(&mut self, op: Op, t: Duration) {
        self.per_op[op.idx()].time_ns += nanos(t);
    }

    /// Charges one split-phase post.
    pub(crate) fn record_post(&mut self, op: Op) {
        self.per_op[op.idx()].posts += 1;
    }

    /// Charges a completed split-phase wait: `overlap` is the post→wait
    /// window, `inflight` the full post-begin→wait-end span.
    pub(crate) fn record_split_wait(&mut self, op: Op, overlap: Duration, inflight: Duration) {
        let s = &mut self.per_op[op.idx()];
        s.overlap_ns += nanos(overlap);
        s.inflight_ns += nanos(inflight);
    }

    /// Counters for one operation class.
    pub fn op(&self, op: Op) -> OpStats {
        let s = &self.per_op[op.idx()];
        OpStats {
            messages: s.messages,
            words: s.words,
            time: Duration::from_nanos(s.time_ns),
            posts: s.posts,
            overlap: Duration::from_nanos(s.overlap_ns),
            inflight: Duration::from_nanos(s.inflight_ns),
        }
    }

    /// Total messages sent by this rank.
    pub fn total_messages(&self) -> u64 {
        self.per_op.iter().map(|s| s.messages).sum()
    }

    /// Total words sent by this rank.
    pub fn total_words(&self) -> u64 {
        self.per_op.iter().map(|s| s.words).sum()
    }

    /// Total time in communication.
    pub fn total_time(&self) -> Duration {
        Duration::from_nanos(self.per_op.iter().map(|s| s.time_ns).sum())
    }

    /// Accumulates `other` into `self` (for summing across ranks or
    /// iterations).
    pub fn merge(&mut self, other: &CommStats) {
        for (a, b) in self.per_op.iter_mut().zip(&other.per_op) {
            a.messages += b.messages;
            a.words += b.words;
            a.posts += b.posts;
            a.time_ns += b.time_ns;
            a.overlap_ns += b.overlap_ns;
            a.inflight_ns += b.inflight_ns;
        }
    }

    /// Component-wise maximum with `other` (critical-path aggregation
    /// across ranks).
    pub fn max_merge(&mut self, other: &CommStats) {
        for (a, b) in self.per_op.iter_mut().zip(&other.per_op) {
            a.messages = a.messages.max(b.messages);
            a.words = a.words.max(b.words);
            a.posts = a.posts.max(b.posts);
            a.time_ns = a.time_ns.max(b.time_ns);
            a.overlap_ns = a.overlap_ns.max(b.overlap_ns);
            a.inflight_ns = a.inflight_ns.max(b.inflight_ns);
        }
    }

    /// Difference `self − other` of the monotone counters (time included).
    /// Used to isolate one iteration's communication from cumulative
    /// counters.
    pub fn delta_since(&self, earlier: &CommStats) -> CommStats {
        let mut out = CommStats::new();
        for ((o, now), then) in out.per_op.iter_mut().zip(&self.per_op).zip(&earlier.per_op) {
            o.messages = now.messages - then.messages;
            o.words = now.words - then.words;
            o.posts = now.posts - then.posts;
            o.time_ns = now.time_ns.saturating_sub(then.time_ns);
            o.overlap_ns = now.overlap_ns.saturating_sub(then.overlap_ns);
            o.inflight_ns = now.inflight_ns.saturating_sub(then.inflight_ns);
        }
        out
    }

    /// Total wall-clock of compute hidden behind in-flight split-phase
    /// collectives (sum of post→wait windows across ops).
    pub fn total_overlap(&self) -> Duration {
        Duration::from_nanos(self.per_op.iter().map(|s| s.overlap_ns).sum())
    }

    /// Total split-phase posts across ops.
    pub fn total_posts(&self) -> u64 {
        self.per_op.iter().map(|s| s.posts).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_totals() {
        let mut s = CommStats::new();
        s.record_send(Op::AllGather, 100);
        s.record_send(Op::AllGather, 50);
        s.record_send(Op::P2p, 7);
        assert_eq!(s.op(Op::AllGather).messages, 2);
        assert_eq!(s.op(Op::AllGather).words, 150);
        assert_eq!(s.total_messages(), 3);
        assert_eq!(s.total_words(), 157);
    }

    #[test]
    fn merge_and_delta_are_inverse() {
        let mut a = CommStats::new();
        a.record_send(Op::AllReduce, 10);
        let snapshot = a.clone();
        a.record_send(Op::AllReduce, 5);
        a.record_send(Op::Barrier, 0);
        let d = a.delta_since(&snapshot);
        assert_eq!(d.op(Op::AllReduce).messages, 1);
        assert_eq!(d.op(Op::AllReduce).words, 5);
        assert_eq!(d.op(Op::Barrier).messages, 1);
        let mut back = snapshot.clone();
        back.merge(&d);
        assert_eq!(back, a);
    }

    #[test]
    fn durations_round_trip_through_the_compact_counters() {
        let mut s = CommStats::new();
        s.record_time(Op::AllGather, Duration::from_nanos(1_500));
        s.record_time(Op::AllGather, Duration::from_micros(2));
        s.record_post(Op::AllGather);
        s.record_split_wait(
            Op::AllGather,
            Duration::from_nanos(7),
            Duration::from_secs(3),
        );
        let op = s.op(Op::AllGather);
        assert_eq!(op.time, Duration::from_nanos(3_500));
        assert_eq!(op.overlap, Duration::from_nanos(7));
        assert_eq!(op.inflight, Duration::from_secs(3));
        assert_eq!(s.total_time(), Duration::from_nanos(3_500));
        assert_eq!(s.total_overlap(), Duration::from_nanos(7));
        // One record per iteration per run: keep it small.
        assert!(std::mem::size_of::<CommStats>() <= 384);
    }

    #[test]
    fn op_names_are_distinct() {
        let mut names: Vec<_> = Op::ALL.iter().map(|o| o.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Op::ALL.len());
    }
}
