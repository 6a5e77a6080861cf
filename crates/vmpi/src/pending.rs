//! `post_*().wait()`: the old split-phase spelling of the three hot
//! collectives, kept only because the benchmark runner still times it.
//!
//! Every collective is blocking (the paper's Algorithm 3 is
//! bulk-synchronous, and the engine calls only the `_into` forms). A
//! [`PendingOp`] just remembers its arguments; [`PendingOp::wait`] runs
//! the synchronous collective. This module and
//! `OpStats::{overlap, inflight}` go once the benchmark runner stops
//! timing `post_*`.

use crate::comm::Comm;

/// A collective whose arguments are recorded but which has not run yet.
#[doc(hidden)]
pub struct PendingOp<'a> {
    comm: &'a Comm,
    call: Call<'a>,
}

enum Call<'a> {
    Gather(&'a [f64], &'a [usize]),
    Scatter(&'a [f64], &'a [usize]),
    Reduce(&'a [f64]),
}

impl PendingOp<'_> {
    /// Runs the collective into `out`, with the length contract of the
    /// matching `_into` call (`data.len()` words for an all-reduce).
    pub fn wait(self, out: &mut [f64]) {
        match self.call {
            Call::Gather(send, counts) => self.comm.all_gatherv_into(send, counts, out),
            Call::Scatter(data, counts) => self.comm.reduce_scatter_into(data, counts, out),
            Call::Reduce(data) => {
                out.copy_from_slice(data);
                self.comm.all_reduce_into(out);
            }
        }
    }
}

impl Comm {
    /// [`Comm::all_gatherv_into`] on `wait`.
    #[doc(hidden)]
    pub fn post_all_gatherv<'a>(&'a self, send: &'a [f64], counts: &'a [usize]) -> PendingOp<'a> {
        PendingOp {
            comm: self,
            call: Call::Gather(send, counts),
        }
    }

    /// [`Comm::reduce_scatter_into`] on `wait`.
    #[doc(hidden)]
    pub fn post_reduce_scatter<'a>(
        &'a self,
        data: &'a [f64],
        counts: &'a [usize],
    ) -> PendingOp<'a> {
        PendingOp {
            comm: self,
            call: Call::Scatter(data, counts),
        }
    }

    /// [`Comm::all_reduce_into`] of a copy of `data` on `wait`.
    #[doc(hidden)]
    pub fn post_all_reduce<'a>(&'a self, data: &'a [f64]) -> PendingOp<'a> {
        PendingOp {
            comm: self,
            call: Call::Reduce(data),
        }
    }
}
