//! The client↔server wire protocol: length-prefixed frames around the
//! binary encoding of [`hpc_nmf::wire`] (the container pulls no serde;
//! the house style — little-endian scalars, IEEE-754 `f64` bit patterns,
//! tag bytes for enums — is the checkpoint format's, and so is the
//! codec). This module declares the message types and, once per type,
//! the order their fields travel in; there is no hand-written encoder
//! or decoder to keep in step with it. Every frame is decoded through
//! the one bounded [`wire::Reader`]: a truncated frame, an unknown tag
//! or flag, a non-UTF-8 string, a count or extent the bytes present do
//! not back, and trailing bytes are each a
//! [`ServeError::BadFrame`] naming the offset — never a panic or an
//! allocation sized by the sender.
//!
//! ## Framing
//!
//! ```text
//! u32 payload_len | payload
//! ```
//!
//! One frame carries exactly one [`Request`] or one [`Response`];
//! payloads start with a `u8` message tag. Frames above
//! [`MAX_FRAME_BYTES`] are rejected before allocation on both sides, so
//! a corrupt or hostile length prefix cannot OOM either end.
//!
//! ## Layout
//!
//! The `record!` / `choice!` line under each type *is* its byte layout,
//! in order, for both directions: a `choice!` is a tag table (the tag
//! travels first), a `record!` a field list. Field encodings follow
//! from the field types: `u64`/`f64`/`u32` little-endian, `usize` as
//! `u64`, `bool` one byte, `String` a `u32` length plus UTF-8, `Option`
//! a flag byte, `Vec<f64>` a `u64` count plus the values; `Algo` is
//! `u8 tag | u64 pr | u64 pc` (zeros unless the grid is explicit) and
//! `SolverKind` one tag byte, both declared beside `Algo` in
//! `hpc_nmf::config`. `docs/serving.md` spells the bytes out.
//!
//! ## Conversation
//!
//! The protocol is strict request/response: a client sends one request
//! frame and reads exactly one response frame before sending the next.
//! Every request names the tenant it acts for — the transport carries no
//! ambient identity — and job ids are scoped per tenant. `Shutdown` is
//! answered with `ShuttingDown` and then the server stops accepting
//! work; in-flight jobs are dropped (serving state is reconstructible:
//! durable state lives in checkpoints, not the server process).

use crate::error::{ErrorCode, ServeError};
use hpc_nmf::{choice, record, wire, Algo};
use nmf_data::DatasetKind;
use nmf_nls::SolverKind;

/// Protocol version, checked implicitly by frame shape (bump on any
/// incompatible change and gate in [`Request::decode`]).
pub const PROTOCOL_VERSION: u32 = 1;

/// Upper bound on a frame payload (64 MiB): comfortably above any
/// factor-matrix response this repo serves, far below an allocation that
/// could hurt the process.
pub const MAX_FRAME_BYTES: usize = 64 << 20;

/// Where a submitted job's input matrix comes from.
#[derive(Clone, Debug, PartialEq)]
pub enum JobSource {
    /// A generated dataset by name (`dsyn | ssyn | video | webbase`),
    /// with the paper dimensions divided by `scale`.
    Dataset {
        kind: String,
        scale: usize,
        seed: u64,
    },
    /// An inline dense matrix, row-major.
    Dense { m: usize, n: usize, data: Vec<f64> },
    /// A server-side NMFS sparse matrix file, memory-mapped at build
    /// time (see `nmf_sparse::io`). The path is interpreted on the
    /// server's filesystem.
    File { path: String },
}

choice!(JobSource: u8, "job-source" {
    0 => Dataset { kind, scale, seed },
    1 => Dense { m, n, data },
    2 => File { path },
}; JobSource::check);

impl JobSource {
    /// The input shape this source will produce. `None` when the shape
    /// is only known server-side (`File` sources carry it in the NMFS
    /// header, read at admission) or the dataset name is unknown.
    pub fn shape(&self) -> Option<(usize, usize)> {
        match self {
            JobSource::Dense { m, n, .. } => Some((*m, *n)),
            JobSource::File { .. } => None,
            JobSource::Dataset { kind, scale, .. } => {
                Some(DatasetKind::from_name(kind).ok()?.scaled_dims(*scale))
            }
        }
    }

    /// What decoding (and admission, for a spec that never was a frame)
    /// guarantees of a source: an inline matrix carries exactly `m·n`
    /// values (the product checked — `m` and `n` are the sender's).
    pub(crate) fn check(&self) -> Result<(), String> {
        match self {
            JobSource::Dense { m, n, data } if m.checked_mul(*n) != Some(data.len()) => {
                Err(format!(
                    "dense source claims {m}x{n} but carries {} values",
                    data.len()
                ))
            }
            _ => Ok(()),
        }
    }
}

/// Everything the server needs to build one tenant job's [`Model`]
/// (validation happens server-side at build time, through the session
/// builder).
///
/// [`Model`]: hpc_nmf::Model
#[derive(Clone, Debug, PartialEq)]
pub struct JobSpec {
    pub source: JobSource,
    pub k: usize,
    pub ranks: usize,
    pub algo: Algo,
    pub solver: SolverKind,
    pub max_iters: usize,
    pub seed: u64,
    pub tol: Option<f64>,
}

record!(JobSpec {
    source,
    k,
    ranks,
    algo,
    solver,
    max_iters,
    seed,
    tol
});

impl JobSpec {
    /// The resident-factor-byte footprint this job will hold once built:
    /// `8·(m+n)·k`, saturating. `None` if the source's shape is not
    /// known from the spec alone (a `File`, an unknown dataset).
    pub fn projected_factor_bytes(&self) -> Option<usize> {
        let (m, n) = self.source.shape()?;
        Some(projected_factor_bytes(m, n, self.k))
    }
}

/// `8·(m+n)·k`, the admission-control currency (it matches
/// `Model::factor_bytes`). The three numbers are a client's or a file's
/// claims, so the arithmetic saturates: a projection that does not fit
/// in `usize` is over every quota, and is refused as such.
pub(crate) fn projected_factor_bytes(m: usize, n: usize, k: usize) -> usize {
    m.saturating_add(n).saturating_mul(k).saturating_mul(8)
}

/// Everything a resume admission carries to its deferred build: the
/// server-side checkpoint, the data source to resume against, and the
/// regrid overrides — requests, clamped to server policy, not demands.
#[derive(Clone, Debug, PartialEq)]
pub struct ResumeSpec {
    /// Server-side checkpoint path (typically written by `Checkpoint`).
    pub ckpt: String,
    /// The data matrix to resume against.
    pub source: JobSource,
    /// Target rank count (`None` = recorded count). Clamped to the
    /// server's per-job rank cap at admission, not rejected — elastic
    /// resume exists precisely so a job can continue on a server with a
    /// different capacity than the one that wrote the checkpoint.
    pub ranks: Option<usize>,
    /// Target algorithm (`None` = recorded one, degraded to `Hpc2D` if
    /// the rank count changed under a pinned grid).
    pub algo: Option<Algo>,
    /// Fresh iteration budget (`None` = recorded cap).
    pub max_iters: Option<usize>,
}

record!(ResumeSpec {
    ckpt,
    source,
    ranks,
    algo,
    max_iters
});

/// The lifecycle phase of a job, as reported by `Status`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobPhase {
    /// Admitted, waiting for a concurrency slot (no model yet).
    Queued,
    /// Built and eligible for scheduling quanta.
    Running,
    /// Ran to its stop condition; factors remain resident until the job
    /// is cancelled (released).
    Finished,
    /// Cancelled by the tenant; all state released.
    Cancelled,
    /// The deferred model build failed (see `error`).
    Failed,
}

choice!(JobPhase: u8, "phase" {
    0 => Queued,
    1 => Running,
    2 => Finished,
    3 => Cancelled,
    4 => Failed,
});

impl JobPhase {
    pub fn as_str(self) -> &'static str {
        match self {
            JobPhase::Queued => "queued",
            JobPhase::Running => "running",
            JobPhase::Finished => "finished",
            JobPhase::Cancelled => "cancelled",
            JobPhase::Failed => "failed",
        }
    }
}

/// A job's externally visible state.
#[derive(Clone, Debug, PartialEq)]
pub struct JobStatus {
    pub job: u64,
    pub phase: JobPhase,
    /// Engine iterations completed.
    pub iterations: u64,
    /// The iteration cap the job was submitted with.
    pub max_iters: u64,
    /// Objective after the latest iteration (`NaN` before the first).
    pub objective: f64,
    /// Relative error after the latest iteration (`NaN` before the first).
    pub rel_error: f64,
    /// Stop-reason token once finished (`max_iters`, `converged`, …).
    pub stop: Option<String>,
    /// Build-failure message for [`JobPhase::Failed`].
    pub error: Option<String>,
    /// Factor bytes this job holds resident.
    pub resident_bytes: u64,
}

record!(JobStatus {
    job,
    phase,
    iterations,
    max_iters,
    objective,
    rel_error,
    stop,
    error,
    resident_bytes,
});

/// Per-tenant accounting, for dashboards and fairness checks.
#[derive(Clone, Debug, PartialEq)]
pub struct TenantReport {
    pub tenant: String,
    pub steps_completed: u64,
    pub jobs_submitted: u64,
    pub jobs_finished: u64,
    pub active_jobs: u64,
    pub queued_jobs: u64,
    pub resident_bytes: u64,
    /// Resident bytes of the server's shared dataset cache. Shared
    /// inputs are charged once per *dataset*, not once per tenant, so
    /// every tenant sees the same (deduplicated) figure — two tenants
    /// over one dataset do not double it.
    pub shared_input_bytes: u64,
}

record!(TenantReport {
    tenant,
    steps_completed,
    jobs_submitted,
    jobs_finished,
    active_jobs,
    queued_jobs,
    resident_bytes,
    shared_input_bytes,
});

/// Client → server messages.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Admit a new job for `tenant` (auto-registering the tenant with
    /// the server's default quota on first contact).
    Submit { tenant: String, spec: JobSpec },
    /// Report a job's phase and progress.
    Status { tenant: String, job: u64 },
    /// Fetch the job's current factors `(W, H)` — valid mid-run.
    Factors { tenant: String, job: u64 },
    /// Cancel a queued/running job, or release a finished one (frees its
    /// quota bytes and concurrency slot).
    Cancel { tenant: String, job: u64 },
    /// Write a durable checkpoint of the job to a server-side path.
    Checkpoint {
        tenant: String,
        job: u64,
        path: String,
    },
    /// Per-tenant accounting counters.
    TenantStats { tenant: String },
    /// Stop the server loop after answering.
    Shutdown,
    /// Admit a job that continues from a server-side checkpoint file
    /// instead of a fresh random init. The server reads the checkpoint
    /// header for admission (shape, k) and regrids the stored factors
    /// onto whatever rank count / algorithm it assigns.
    Resume { tenant: String, spec: ResumeSpec },
}

choice!(Request: u8, "request" {
    1 => Submit { tenant, spec },
    2 => Status { tenant, job },
    3 => Factors { tenant, job },
    4 => Cancel { tenant, job },
    5 => Checkpoint { tenant, job, path },
    6 => TenantStats { tenant },
    7 => Shutdown,
    8 => Resume { tenant, spec },
});

/// Server → client messages.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// The job was admitted. `queued` says whether it must wait for a
    /// concurrency slot before building.
    Submitted {
        job: u64,
        queued: bool,
    },
    Status(JobStatus),
    /// Row-major factors: `W` is `m×k`, `H` is `k×n`.
    Factors {
        wm: u64,
        wk: u64,
        w: Vec<f64>,
        hk: u64,
        hn: u64,
        h: Vec<f64>,
    },
    Cancelled {
        job: u64,
    },
    Checkpointed {
        job: u64,
        path: String,
    },
    TenantStats(TenantReport),
    ShuttingDown,
    /// Any failure, as a stable code plus rendered message.
    Error {
        code: ErrorCode,
        message: String,
    },
}

choice!(Response: u8, "response" {
    1 => Submitted { job, queued },
    2 => Status(status),
    3 => Factors { wm, wk, w, hk, hn, h },
    4 => Cancelled { job },
    5 => Checkpointed { job, path },
    6 => TenantStats(report),
    7 => ShuttingDown,
    8 => Error { code, message },
});

impl Request {
    pub fn encode(&self) -> Vec<u8> {
        wire::encode(self)
    }

    pub fn decode(frame: &[u8]) -> Result<Request, ServeError> {
        Ok(wire::decode(frame)?)
    }
}

impl Response {
    pub fn encode(&self) -> Vec<u8> {
        wire::encode(self)
    }

    pub fn decode(frame: &[u8]) -> Result<Response, ServeError> {
        Ok(wire::decode(frame)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpc_nmf::wire::Wire;
    use hpc_nmf::Grid;

    fn specs() -> Vec<JobSpec> {
        vec![
            JobSpec {
                source: JobSource::Dataset {
                    kind: "ssyn".into(),
                    scale: 400,
                    seed: 7,
                },
                k: 8,
                ranks: 4,
                algo: Algo::Hpc2D,
                solver: SolverKind::Bpp,
                max_iters: 20,
                seed: 42,
                tol: Some(1e-4),
            },
            JobSpec {
                source: JobSource::Dense {
                    m: 2,
                    n: 3,
                    data: vec![1.0, 0.0, 2.5, 3.0, 4.0, 5.0],
                },
                k: 2,
                ranks: 1,
                algo: Algo::Sequential,
                solver: SolverKind::Hals,
                max_iters: 5,
                seed: 1,
                tol: None,
            },
            JobSpec {
                source: JobSource::Dense {
                    m: 1,
                    n: 1,
                    data: vec![9.0],
                },
                k: 1,
                ranks: 6,
                algo: Algo::HpcGrid(Grid::new(2, 3)),
                solver: SolverKind::Mu,
                max_iters: 1,
                seed: 0,
                tol: None,
            },
        ]
    }

    #[test]
    fn requests_round_trip() {
        let mut reqs = vec![
            Request::Status {
                tenant: "acme".into(),
                job: 3,
            },
            Request::Factors {
                tenant: "acme".into(),
                job: 9,
            },
            Request::Cancel {
                tenant: "β-tenant".into(),
                job: u64::MAX,
            },
            Request::Checkpoint {
                tenant: "t".into(),
                job: 0,
                path: "/tmp/x.ckpt".into(),
            },
            Request::TenantStats { tenant: "".into() },
            Request::Shutdown,
        ];
        for spec in specs() {
            reqs.push(Request::Submit {
                tenant: "acme".into(),
                spec,
            });
        }
        reqs.push(Request::Submit {
            tenant: "acme".into(),
            spec: JobSpec {
                source: JobSource::File {
                    path: "/data/webbase.nmfs".into(),
                },
                k: 4,
                ranks: 8,
                algo: Algo::Hpc2D,
                solver: SolverKind::Bpp,
                max_iters: 50,
                seed: 3,
                tol: None,
            },
        });
        reqs.push(Request::Resume {
            tenant: "acme".into(),
            spec: ResumeSpec {
                ckpt: "/tmp/j1.ckpt".into(),
                source: JobSource::File {
                    path: "/data/a.nmfs".into(),
                },
                ranks: Some(2),
                algo: Some(Algo::HpcGrid(Grid::new(2, 1))),
                max_iters: Some(40),
            },
        });
        reqs.push(Request::Resume {
            tenant: "acme".into(),
            spec: ResumeSpec {
                ckpt: "ckpt/only.ckpt".into(),
                source: JobSource::Dataset {
                    kind: "ssyn".into(),
                    scale: 400,
                    seed: 7,
                },
                ranks: None,
                algo: None,
                max_iters: None,
            },
        });
        for req in reqs {
            let bytes = req.encode();
            let back = Request::decode(&bytes).expect("decodes");
            assert_eq!(back, req);
        }
    }

    #[test]
    fn responses_round_trip() {
        let resps = vec![
            Response::Submitted {
                job: 5,
                queued: true,
            },
            Response::Status(JobStatus {
                job: 5,
                phase: JobPhase::Running,
                iterations: 7,
                max_iters: 20,
                objective: 123.5,
                rel_error: 0.25,
                stop: None,
                error: None,
                resident_bytes: 4096,
            }),
            Response::Status(JobStatus {
                job: 6,
                phase: JobPhase::Failed,
                iterations: 0,
                max_iters: 20,
                objective: f64::NAN,
                rel_error: f64::NAN,
                stop: None,
                error: Some("rank k=99 is outside the valid range".into()),
                resident_bytes: 0,
            }),
            Response::Factors {
                wm: 2,
                wk: 2,
                w: vec![1.0, 2.0, 3.0, 4.0],
                hk: 2,
                hn: 1,
                h: vec![5.0, 6.0],
            },
            Response::Cancelled { job: 1 },
            Response::Checkpointed {
                job: 2,
                path: "/tmp/j2.ckpt".into(),
            },
            Response::TenantStats(TenantReport {
                tenant: "acme".into(),
                steps_completed: 100,
                jobs_submitted: 4,
                jobs_finished: 2,
                active_jobs: 1,
                queued_jobs: 1,
                resident_bytes: 1 << 20,
                shared_input_bytes: 3 << 20,
            }),
            Response::ShuttingDown,
            Response::Error {
                code: ErrorCode::QuotaBytes,
                message: "over quota".into(),
            },
        ];
        for resp in resps {
            let bytes = resp.encode();
            let back = Response::decode(&bytes).expect("decodes");
            match (&back, &resp) {
                // NaN != NaN; compare Failed statuses structurally.
                (Response::Status(a), Response::Status(b)) if a.objective.is_nan() => {
                    assert!(b.objective.is_nan());
                    assert_eq!(a.phase, b.phase);
                    assert_eq!(a.error, b.error);
                }
                _ => assert_eq!(back, resp),
            }
        }
    }

    #[test]
    fn truncated_and_trailing_frames_are_rejected() {
        let bytes = Request::Status {
            tenant: "acme".into(),
            job: 3,
        }
        .encode();
        for cut in 0..bytes.len() {
            assert!(
                Request::decode(&bytes[..cut]).is_err(),
                "truncation at {cut} must not decode"
            );
        }
        let mut extra = bytes.clone();
        extra.push(0);
        assert!(Request::decode(&extra).is_err(), "trailing bytes rejected");
    }

    #[test]
    fn absurd_float_array_is_rejected_before_allocation() {
        // A dense submit whose array length field claims 2^60 values.
        let mut out = Vec::new();
        out.push(1); // Submit
        String::from("t").put(&mut out);
        out.push(1); // dense source
        4u64.put(&mut out);
        4u64.put(&mut out);
        (1u64 << 60).put(&mut out); // array length
        let err = Request::decode(&out).expect_err("rejected");
        assert!(matches!(err, ServeError::BadFrame { .. }), "{err}");
    }

    #[test]
    fn dense_extent_is_multiplied_checked() {
        // `m = n = 2^32` wraps to 0 in an unchecked product, which an
        // empty array would then "match".
        let mut out = vec![1];
        String::from("t").put(&mut out);
        out.push(1); // dense source
        (1u64 << 32).put(&mut out);
        (1u64 << 32).put(&mut out);
        0u64.put(&mut out); // array length
        let err = Request::decode(&out).expect_err("rejected");
        assert!(matches!(err, ServeError::BadFrame { .. }), "{err}");
        assert!(err.to_string().contains("dense source claims"), "{err}");
    }

    #[test]
    fn projection_saturates_instead_of_wrapping() {
        let mut spec = specs().swap_remove(1); // 2x3 dense
        spec.k = 1 << 61; // 8·(2+3)·2^61 wraps to 0
        assert_eq!(spec.projected_factor_bytes(), Some(usize::MAX));
        assert_eq!(projected_factor_bytes(usize::MAX, 1, 1), usize::MAX);
    }

    #[test]
    fn projected_bytes_match_model_accounting() {
        let spec = &specs()[1]; // 2x3 dense, k=2
        assert_eq!(spec.projected_factor_bytes(), Some(8 * (2 + 3) * 2));
        let ds = &specs()[0]; // ssyn at scale 400: 432x288
        assert_eq!(
            ds.projected_factor_bytes(),
            Some(8 * (172_800 / 400 + 115_200 / 400) * 8)
        );
    }
}
