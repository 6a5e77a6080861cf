//! Point-to-point message transport between ranks.
//!
//! A `p × p` mesh of unbounded `std::sync::mpsc` channels, one per ordered
//! pair of ranks. Because each pair has a dedicated FIFO channel and every rank
//! executes the same (deterministic) program, message matching needs no
//! wildcard receives: a receive names its source, and the tag carried by
//! each message is *asserted*, not searched for — a mismatch is a protocol
//! bug and panics immediately (this is the "mismatched collective payload"
//! failure-injection behaviour tested in the crate tests).

use std::sync::mpsc::{channel, Receiver, Sender};

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
            .map(|(rank, (out, inc))| Endpoints { rank, out, inc })
            .collect()
    }

    /// Sends `data` to world rank `dst` with `tag`.
    pub fn send(&self, dst: usize, tag: u64, data: Box<[f64]>) {
        self.out[dst]
            .send(Msg { tag, data })
            .unwrap_or_else(|_| panic!("rank {}: peer {dst} disconnected on send", self.rank));
    }

    /// Receives the next message from world rank `src`, asserting the tag.
    pub fn recv(&self, src: usize, expect_tag: u64) -> Box<[f64]> {
        let msg = self.inc[src].recv().unwrap_or_else(|_| {
            panic!(
                "rank {}: peer {src} disconnected (likely panicked) \
                 while expecting tag {expect_tag:#x}",
                self.rank
            )
        });
        assert!(
            msg.tag == expect_tag,
            "rank {}: tag mismatch receiving from {src}: got {:#x}, expected {:#x} \
             (collective call sequence diverged between ranks)",
            self.rank,
            msg.tag,
            expect_tag
        );
        msg.data
    }
}
