//! Point-to-point message transport between ranks.
//!
//! A `p × p` mesh of unbounded `std::sync::mpsc` channels, one per ordered
//! pair of ranks. Because each pair has a dedicated FIFO channel and every rank
//! executes the same (deterministic) program, message matching needs no
//! wildcard receives: a receive names its source, and the tag carried by
//! each message is *asserted*, not searched for — a mismatch is a protocol
//! bug and panics immediately (this is the "mismatched collective payload"
//! failure-injection behaviour tested in the crate tests).
//!
//! ## Out-of-order delivery under split-phase collectives
//!
//! Posted (nonblocking) collectives relax strict FIFO matching: while a
//! [`PendingOp`](crate::pending::PendingOp) is in flight, a peer may run
//! ahead and interleave messages of *later* operations on the same pair
//! channel. Each endpoint therefore keeps a small per-source stash: when
//! at least one posted op is outstanding, a tag-mismatched message is set
//! aside instead of panicking, and every receive checks the stash before
//! the channel. With no posted op outstanding a mismatch is still the
//! fail-fast protocol error it always was — which covers every
//! synchronous collective: it runs the same machine as a posted one but
//! never raises the in-flight count.

use std::cell::{Cell, RefCell};
use std::sync::mpsc::{channel, Receiver, Sender, TryRecvError};

/// A single message: an opaque tag (encodes communicator, operation kind,
/// and sequence number) plus a payload of `f64` words.
pub(crate) struct Msg {
    pub tag: u64,
    pub data: Box<[f64]>,
}

/// One rank's endpoints: senders to every rank and receivers from every
/// rank, indexed by world rank.
pub(crate) struct Endpoints {
    pub rank: usize,
    pub out: Vec<Sender<Msg>>,
    pub inc: Vec<Receiver<Msg>>,
    /// Messages received out of order while a posted op was in flight,
    /// indexed by source rank. Capacity is retained across iterations so
    /// steady-state stashing allocates nothing.
    stash: Vec<RefCell<Vec<Msg>>>,
    /// Number of posted (split-phase) collectives currently in flight on
    /// this rank. While nonzero, tag-mismatched receives stash instead of
    /// panicking.
    pending: Cell<usize>,
}

impl Endpoints {
    /// Creates the full mesh for `p` ranks.
    pub fn mesh(p: usize) -> Vec<Endpoints> {
        // chan[src][dst]
        let mut senders: Vec<Vec<Sender<Msg>>> = vec![Vec::with_capacity(p); p];
        let mut receivers: Vec<Vec<Receiver<Msg>>> = (0..p).map(|_| Vec::new()).collect();
        #[allow(clippy::needless_range_loop)] // index pair mirrors the mesh layout
        for src in 0..p {
            for dst in 0..p {
                let (tx, rx) = channel();
                senders[src].push(tx);
                receivers[dst].push(rx);
            }
        }
        // `src` ascends in the outer loop, so receivers[dst] is indexed by
        // source rank, as senders[src] is by destination.
        senders
            .into_iter()
            .zip(receivers)
            .enumerate()
            .map(|(rank, (out, inc))| Endpoints {
                rank,
                out,
                inc,
                stash: (0..p).map(|_| RefCell::new(Vec::new())).collect(),
                pending: Cell::new(0),
            })
            .collect()
    }

    /// Marks one more posted collective in flight (enables stashing).
    pub fn pending_inc(&self) {
        self.pending.set(self.pending.get() + 1);
    }

    /// Marks one posted collective retired.
    pub fn pending_dec(&self) {
        debug_assert!(self.pending.get() > 0, "pending-op counter underflow");
        self.pending.set(self.pending.get() - 1);
    }

    /// Sends `data` to world rank `dst` with `tag`.
    pub fn send(&self, dst: usize, tag: u64, data: Box<[f64]>) {
        self.out[dst]
            .send(Msg { tag, data })
            .unwrap_or_else(|_| panic!("rank {}: peer {dst} disconnected on send", self.rank));
    }

    /// Pulls the first stashed message from `src` matching `expect_tag`.
    fn take_stashed(&self, src: usize, expect_tag: u64) -> Option<Box<[f64]>> {
        let mut stash = self.stash[src].borrow_mut();
        let i = stash.iter().position(|m| m.tag == expect_tag)?;
        // Preserve arrival order of the remaining stashed messages.
        Some(stash.remove(i).data)
    }

    /// Stashes a mismatched message if a posted op may still claim it,
    /// otherwise reports the protocol divergence.
    fn stash_or_panic(&self, src: usize, msg: Msg, expect_tag: u64) {
        if self.pending.get() > 0 {
            self.stash[src].borrow_mut().push(msg);
        } else {
            panic!(
                "rank {}: tag mismatch receiving from {src}: got {:#x}, expected {:#x} \
                 (collective call sequence diverged between ranks)",
                self.rank, msg.tag, expect_tag
            );
        }
    }

    /// Receives the next message from world rank `src`, asserting the tag.
    pub fn recv(&self, src: usize, expect_tag: u64) -> Box<[f64]> {
        if let Some(data) = self.take_stashed(src, expect_tag) {
            return data;
        }
        loop {
            let msg = self.inc[src].recv().unwrap_or_else(|_| {
                panic!(
                    "rank {}: peer {src} disconnected (likely panicked) \
                     while expecting tag {expect_tag:#x}",
                    self.rank
                )
            });
            if msg.tag == expect_tag {
                return msg.data;
            }
            self.stash_or_panic(src, msg, expect_tag);
        }
    }

    /// Nonblocking receive from world rank `src`: returns the payload if a
    /// message with `expect_tag` is already available (stashed or queued),
    /// `None` if the channel is currently empty.
    pub fn try_recv(&self, src: usize, expect_tag: u64) -> Option<Box<[f64]>> {
        if let Some(data) = self.take_stashed(src, expect_tag) {
            return Some(data);
        }
        loop {
            match self.inc[src].try_recv() {
                Ok(msg) if msg.tag == expect_tag => return Some(msg.data),
                Ok(msg) => self.stash_or_panic(src, msg, expect_tag),
                Err(TryRecvError::Empty) => return None,
                Err(TryRecvError::Disconnected) => panic!(
                    "rank {}: peer {src} disconnected (likely panicked) \
                     while expecting tag {expect_tag:#x}",
                    self.rank
                ),
            }
        }
    }
}
