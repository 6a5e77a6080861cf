//! Communicators: rank identity, point-to-point messaging, and splitting.

use crate::collectives::Counts;
use crate::pending::Machine;
use crate::stats::{CommStats, Op};
use crate::transport::Endpoints;
use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Instant;

/// Operation kinds encoded in message tags (low byte).
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kind {
    P2p = 1,
    Barrier = 2,
    AllGather = 6,
    ReduceScatter = 7,
}

/// Reusable staging buffers for the collective algorithms.
///
/// Every Bruck / recursive-halving round needs scratch storage (the
/// rotated block buffer, the reduction accumulator, prefix-sum tables).
/// Allocating those per call would put `malloc` on the per-iteration hot
/// path of the NMF drivers, so each rank keeps an arena of returned
/// buffers instead: a collective checks a buffer out, grows it if needed
/// (capacity is retained across calls), and checks it back in on exit.
/// After the first iteration of a steady-state loop every checkout is
/// allocation-free.
///
/// The arena is a *pool*, not a single slot: several buffers may be
/// checked out at once. That is what makes split-phase collectives safe —
/// a posted [`PendingOp`](crate::pending::PendingOp) owns its staging
/// buffers from post until wait, while any collective running inside the
/// overlap window checks out different buffers. The pool simply grows to
/// the high-water mark of concurrently live checkouts (double-buffering
/// when one op is in flight) and then reuses that set forever.
#[derive(Default)]
pub(crate) struct Arena {
    f64s: Vec<Vec<f64>>,
    usizes: Vec<Vec<usize>>,
}

impl Arena {
    fn take_f64(&mut self) -> Vec<f64> {
        let mut v = self.f64s.pop().unwrap_or_default();
        v.clear();
        v
    }

    fn take_usize(&mut self) -> Vec<usize> {
        let mut v = self.usizes.pop().unwrap_or_default();
        v.clear();
        v
    }
}

/// The detachable core of a communicator: endpoints, counters, arena, and
/// membership, all behind `Rc`s so a clone is a handful of refcount bumps.
///
/// A [`Comm`] is a `CommCore` plus the per-communicator sequence state.
/// Posted collectives clone the core into their
/// [`PendingOp`](crate::pending::PendingOp) handle so the in-flight op can
/// make progress (send, receive, check buffers in and out) without
/// borrowing the `Comm` it was posted on.
#[derive(Clone)]
pub(crate) struct CommCore {
    pub ep: Rc<Endpoints>,
    pub stats: Rc<RefCell<CommStats>>,
    /// Staging arena shared by this rank's communicators (buffers flow
    /// freely between the world comm, its splits, and in-flight ops).
    pub arena: Rc<RefCell<Arena>>,
    /// World ranks of the members, indexed by comm rank. `Rc<[usize]>`
    /// so pending ops share the table without copying it.
    pub members: Rc<[usize]>,
    /// This rank's position within `members`.
    pub rank: usize,
    pub comm_id: u64,
}

impl CommCore {
    /// Number of ranks in the communicator.
    #[inline]
    pub fn size(&self) -> usize {
        self.members.len()
    }

    pub fn tag(&self, kind: Kind, seq: u64) -> u64 {
        (self.comm_id << 32) | ((seq & 0xff_ffff) << 8) | kind as u64
    }

    /// Internal send in comm-rank space, charged to `op`.
    pub fn send_op(&self, dst: usize, tag: u64, data: &[f64], op: Op) {
        self.stats.borrow_mut().record_send(op, data.len());
        self.ep.send(self.members[dst], tag, data.into());
    }

    /// Internal receive in comm-rank space.
    pub fn recv_op(&self, src: usize, tag: u64) -> Box<[f64]> {
        self.ep.recv(self.members[src], tag)
    }

    /// Nonblocking internal receive in comm-rank space.
    pub fn try_recv_op(&self, src: usize, tag: u64) -> Option<Box<[f64]>> {
        self.ep.try_recv(self.members[src], tag)
    }

    /// Checks a reusable `f64` staging buffer out of the arena.
    pub fn take_buf(&self) -> Vec<f64> {
        self.arena.borrow_mut().take_f64()
    }

    /// Returns a staging buffer to the arena for reuse.
    pub fn put_buf(&self, v: Vec<f64>) {
        self.arena.borrow_mut().f64s.push(v);
    }

    /// Checks a reusable `usize` scratch table out of the arena.
    pub fn take_idx(&self) -> Vec<usize> {
        self.arena.borrow_mut().take_usize()
    }

    /// Returns a scratch table to the arena for reuse.
    pub fn put_idx(&self, v: Vec<usize>) {
        self.arena.borrow_mut().usizes.push(v);
    }
}

/// A communicator: a named, ordered group of ranks sharing a collective
/// sequence space, analogous to an `MPI_Comm`.
///
/// Sub-communicators created by [`Comm::split`] reuse the parent's
/// channels; isolation comes from the communicator id embedded in every
/// message tag (asserted on receive).
pub struct Comm {
    pub(crate) core: CommCore,
    /// Collective sequence number; advanced identically on every member
    /// because collectives are called (or posted) in program order.
    seq: Cell<u64>,
    /// Number of `split` calls made on this comm (for child id derivation).
    children: Cell<u64>,
}

impl Comm {
    /// The world communicator for one rank, wrapping its endpoints.
    pub(crate) fn world(ep: Endpoints) -> Comm {
        let p = ep.out.len();
        let rank = ep.rank;
        Comm {
            core: CommCore {
                ep: Rc::new(ep),
                stats: Rc::new(RefCell::new(CommStats::new())),
                arena: Rc::new(RefCell::new(Arena::default())),
                members: (0..p).collect(),
                rank,
                comm_id: 0x1,
            },
            seq: Cell::new(0),
            children: Cell::new(0),
        }
    }

    /// Rank of this process within the communicator.
    #[inline]
    pub fn rank(&self) -> usize {
        self.core.rank
    }

    /// Number of ranks in the communicator.
    #[inline]
    pub fn size(&self) -> usize {
        self.core.size()
    }

    /// A snapshot of this rank's cumulative communication counters.
    ///
    /// Counters are shared between a world communicator and all
    /// sub-communicators derived from it, so this is the rank's total.
    pub fn stats(&self) -> CommStats {
        self.core.stats.borrow().clone()
    }

    pub(crate) fn tag(&self, kind: Kind, seq: u64) -> u64 {
        self.core.tag(kind, seq)
    }

    /// Next collective sequence number (identical across members).
    pub(crate) fn next_seq(&self) -> u64 {
        let s = self.seq.get();
        self.seq.set(s + 1);
        s
    }

    /// Internal send in comm-rank space, charged to `op`.
    pub(crate) fn send_op(&self, dst: usize, tag: u64, data: &[f64], op: Op) {
        self.core.send_op(dst, tag, data, op)
    }

    /// Internal receive in comm-rank space.
    pub(crate) fn recv_op(&self, src: usize, tag: u64) -> Box<[f64]> {
        self.core.recv_op(src, tag)
    }

    /// Times `body` and charges the elapsed wall-clock to `op`.
    pub(crate) fn timed<T>(&self, op: Op, body: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = body();
        self.core.stats.borrow_mut().record_time(op, t0.elapsed());
        out
    }

    /// Point-to-point send of `data` to comm rank `dst` with a user `tag`
    /// (must fit in 24 bits).
    pub fn send(&self, dst: usize, tag: u32, data: &[f64]) {
        assert!(tag < (1 << 24), "user tag must fit in 24 bits");
        self.timed(Op::P2p, || {
            self.send_op(dst, self.tag(Kind::P2p, tag as u64), data, Op::P2p)
        });
    }

    /// Point-to-point receive from comm rank `src` with a user `tag`.
    pub fn recv(&self, src: usize, tag: u32) -> Vec<f64> {
        assert!(tag < (1 << 24), "user tag must fit in 24 bits");
        self.timed(Op::P2p, || {
            self.recv_op(src, self.tag(Kind::P2p, tag as u64))
                .into_vec()
        })
    }

    /// Simultaneous exchange used by the collective inner loops: sends to
    /// `dst` and receives from `src` under one internal tag. Never
    /// deadlocks because channel sends are non-blocking.
    pub(crate) fn exchange(
        &self,
        dst: usize,
        src: usize,
        tag: u64,
        data: &[f64],
        op: Op,
    ) -> Box<[f64]> {
        self.send_op(dst, tag, data, op);
        self.recv_op(src, tag)
    }

    /// Splits the communicator: ranks passing the same `color` form a new
    /// communicator, ordered by `(key, parent rank)`.
    ///
    /// Collective over the parent communicator.
    pub fn split(&self, color: usize, key: usize) -> Comm {
        // Exchange (color, key) via an internal all-gather so every rank
        // can compute every group deterministically.
        let mine = [color as f64, key as f64];
        let mut gathered = vec![0.0; 2 * self.size()];
        Machine::gather(self, &mine, Counts::Eq(2)).run_into(&self.core, Op::P2p, &mut gathered);
        let child_index = self.children.get();
        self.children.set(child_index + 1);

        let mut group: Vec<(usize, usize)> = Vec::new(); // (key, parent rank)
        for (r, chunk) in gathered.chunks_exact(2).enumerate() {
            if chunk[0] as usize == color {
                group.push((chunk[1] as usize, r));
            }
        }
        group.sort_unstable();
        let members: Rc<[usize]> = group.iter().map(|&(_, r)| self.core.members[r]).collect();
        let rank = group
            .iter()
            .position(|&(_, r)| r == self.core.rank)
            .expect("calling rank must be in its own color group");

        Comm {
            core: CommCore {
                ep: Rc::clone(&self.core.ep),
                stats: Rc::clone(&self.core.stats),
                arena: Rc::clone(&self.core.arena),
                members,
                rank,
                comm_id: splitmix64(
                    self.core.comm_id ^ (child_index << 40) ^ ((color as u64) << 8) ^ 0x5eed,
                ),
            },
            seq: Cell::new(0),
            children: Cell::new(0),
        }
    }
}

/// SplitMix64 finalizer; spreads communicator ids across the tag space.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    // Keep ids nonzero and clear of the reserved world id.
    ((z ^ (z >> 31)) | 0x2) & 0xffff_ffff
}
