//! A typed client over any [`Transport`].
//!
//! One method per protocol verb; each sends one request frame, reads one
//! response frame, and converts `Response::Error` back into the typed
//! [`ServeError`] (branch on [`ServeError::code`]). The client is
//! synchronous and owns its transport — run one per thread for
//! concurrent tenants, as the load generator does.

use crate::error::ServeError;
use crate::protocol::{JobSource, JobSpec, JobStatus, Request, Response, ResumeSpec, TenantReport};
use crate::transport::Transport;
use hpc_nmf::Algo;
use nmf_matrix::Mat;
use std::time::{Duration, Instant};

/// A synchronous protocol client.
pub struct Client {
    transport: Box<dyn Transport>,
}

impl Client {
    pub fn new(transport: Box<dyn Transport>) -> Client {
        Client { transport }
    }

    /// One request/response round trip.
    fn call(&mut self, request: &Request) -> Result<Response, ServeError> {
        self.transport.send_frame(&request.encode())?;
        let frame = self.transport.recv_frame()?;
        match Response::decode(&frame)? {
            Response::Error { code, message } => Err(ServeError::from_wire(code, message)),
            resp => Ok(resp),
        }
    }

    /// Submits a job; returns its id (query [`status`](Self::status) to
    /// watch it progress from queued to running).
    pub fn submit(&mut self, tenant: &str, spec: &JobSpec) -> Result<u64, ServeError> {
        match self.call(&Request::Submit {
            tenant: tenant.to_string(),
            spec: spec.clone(),
        })? {
            Response::Submitted { job, .. } => Ok(job),
            resp => Err(unexpected(resp)),
        }
    }

    /// Like [`submit`](Self::submit) but also reports whether the job
    /// had to queue for a concurrency slot.
    pub fn submit_tracked(
        &mut self,
        tenant: &str,
        spec: &JobSpec,
    ) -> Result<(u64, bool), ServeError> {
        match self.call(&Request::Submit {
            tenant: tenant.to_string(),
            spec: spec.clone(),
        })? {
            Response::Submitted { job, queued } => Ok((job, queued)),
            resp => Err(unexpected(resp)),
        }
    }

    /// Asks the server to admit a job that continues from a server-side
    /// checkpoint. `ranks`/`algo` are regrid requests (the server clamps
    /// them to its policy); `max_iters` replaces the recorded iteration
    /// cap. Returns `(job id, queued?)`.
    pub fn resume(
        &mut self,
        tenant: &str,
        ckpt: &str,
        source: &JobSource,
        ranks: Option<usize>,
        algo: Option<Algo>,
        max_iters: Option<usize>,
    ) -> Result<(u64, bool), ServeError> {
        match self.call(&Request::Resume {
            tenant: tenant.to_string(),
            spec: ResumeSpec {
                ckpt: ckpt.to_string(),
                source: source.clone(),
                ranks,
                algo,
                max_iters,
            },
        })? {
            Response::Submitted { job, queued } => Ok((job, queued)),
            resp => Err(unexpected(resp)),
        }
    }

    pub fn status(&mut self, tenant: &str, job: u64) -> Result<JobStatus, ServeError> {
        match self.call(&Request::Status {
            tenant: tenant.to_string(),
            job,
        })? {
            Response::Status(st) => Ok(st),
            resp => Err(unexpected(resp)),
        }
    }

    /// Polls `status` until the job leaves the queued/running phases or
    /// `timeout_ms` elapses (then returns the last status seen).
    pub fn wait_finished(
        &mut self,
        tenant: &str,
        job: u64,
        timeout_ms: u64,
    ) -> Result<JobStatus, ServeError> {
        let deadline = Instant::now() + Duration::from_millis(timeout_ms);
        loop {
            let st = self.status(tenant, job)?;
            let live = matches!(
                st.phase,
                crate::protocol::JobPhase::Queued | crate::protocol::JobPhase::Running
            );
            if !live || Instant::now() >= deadline {
                return Ok(st);
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Fetches the job's current factors as matrices (`W` is `m×k`, `H`
    /// is `k×n`).
    pub fn factors(&mut self, tenant: &str, job: u64) -> Result<(Mat, Mat), ServeError> {
        match self.call(&Request::Factors {
            tenant: tenant.to_string(),
            job,
        })? {
            Response::Factors {
                wm,
                wk,
                w,
                hk,
                hn,
                h,
            } => {
                // The shapes are the peer's claims: narrow and multiply
                // them checked before they size a matrix.
                let extent = |rows: u64, cols: u64, values: &[f64]| {
                    let (rows, cols) = (usize::try_from(rows).ok()?, usize::try_from(cols).ok()?);
                    (rows.checked_mul(cols) == Some(values.len())).then_some((rows, cols))
                };
                let (Some((wm, wk)), Some((hk, hn))) = (extent(wm, wk, &w), extent(hk, hn, &h))
                else {
                    return Err(ServeError::BadFrame {
                        reason: format!(
                            "factor payload sizes do not match shapes: W {wm}x{wk} with {} \
                             values, H {hk}x{hn} with {}",
                            w.len(),
                            h.len()
                        ),
                    });
                };
                Ok((Mat::from_vec(wm, wk, w), Mat::from_vec(hk, hn, h)))
            }
            resp => Err(unexpected(resp)),
        }
    }

    /// Cancels a queued/running job or releases a finished one.
    pub fn cancel(&mut self, tenant: &str, job: u64) -> Result<(), ServeError> {
        match self.call(&Request::Cancel {
            tenant: tenant.to_string(),
            job,
        })? {
            Response::Cancelled { .. } => Ok(()),
            resp => Err(unexpected(resp)),
        }
    }

    /// Asks the server to write a durable checkpoint of the job to a
    /// server-side path.
    pub fn checkpoint(&mut self, tenant: &str, job: u64, path: &str) -> Result<(), ServeError> {
        match self.call(&Request::Checkpoint {
            tenant: tenant.to_string(),
            job,
            path: path.to_string(),
        })? {
            Response::Checkpointed { .. } => Ok(()),
            resp => Err(unexpected(resp)),
        }
    }

    pub fn tenant_stats(&mut self, tenant: &str) -> Result<TenantReport, ServeError> {
        match self.call(&Request::TenantStats {
            tenant: tenant.to_string(),
        })? {
            Response::TenantStats(report) => Ok(report),
            resp => Err(unexpected(resp)),
        }
    }

    /// Stops the server (in-flight jobs are dropped; durable state lives
    /// in checkpoints). The connection closes after the acknowledgement.
    pub fn shutdown(&mut self) -> Result<(), ServeError> {
        match self.call(&Request::Shutdown)? {
            Response::ShuttingDown => Ok(()),
            resp => Err(unexpected(resp)),
        }
    }
}

fn unexpected(resp: Response) -> ServeError {
    ServeError::BadFrame {
        reason: format!("response does not answer the request: {resp:?}"),
    }
}
