//! One instance of every `Request` and `Response` variant, paired with
//! the bytes protocol version 1 put on the socket for it
//! (`frames.txt`, one `name hex` line per case, captured from the build
//! before the shared codec and committed unedited). Shared by the
//! byte-for-byte test and the decoder fuzz suite. One frame names a
//! solver tag since retired; its case says the decoder refuses it.

use hpc_nmf::{Algo, Grid};
use nmf_nls::SolverKind;
use nmf_serve::{
    ErrorCode, JobPhase, JobSource, JobSpec, JobStatus, Request, Response, ResumeSpec, TenantReport,
};

pub enum Frame {
    Req(Request),
    Resp(Response),
    /// Bytes `Request::decode` must refuse, with a reason naming this.
    Refused(&'static str),
}

/// `frames.txt` as `(name, bytes)` pairs, file order.
pub fn golden() -> Vec<(String, Vec<u8>)> {
    include_str!("frames.txt")
        .lines()
        .map(|line| {
            let (name, hex) = line.split_once(' ').expect("name, space, hex");
            let bytes = (0..hex.len())
                .step_by(2)
                .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("hex digit pair"))
                .collect();
            (name.to_string(), bytes)
        })
        .collect()
}

fn submit(source: JobSource, k: usize, ranks: usize, algo: Algo, solver: SolverKind) -> Frame {
    Frame::Req(Request::Submit {
        tenant: "acme".into(),
        spec: JobSpec {
            source,
            k,
            ranks,
            algo,
            solver,
            max_iters: 20,
            seed: 42,
            tol: (k == 8).then_some(1e-4),
        },
    })
}

fn ssyn() -> JobSource {
    JobSource::Dataset {
        kind: "ssyn".into(),
        scale: 400,
        seed: 7,
    }
}

/// The cases, in `frames.txt` order.
pub fn cases() -> Vec<(&'static str, Frame)> {
    use Frame::{Refused, Req, Resp};
    let file = |path: &str| JobSource::File { path: path.into() };
    let dense = JobSource::Dense {
        m: 2,
        n: 3,
        data: vec![1.0, 0.0, 2.5, 3.0, 4.0, 5.0],
    };
    vec![
        (
            "req_submit_dataset",
            submit(ssyn(), 8, 4, Algo::Hpc2D, SolverKind::Bpp),
        ),
        (
            "req_submit_dense",
            submit(dense, 2, 1, Algo::Sequential, SolverKind::Hals),
        ),
        (
            "req_submit_file_grid",
            submit(
                file("/data/webbase.nmfs"),
                1,
                6,
                Algo::HpcGrid(Grid::new(2, 3)),
                SolverKind::Mu,
            ),
        ),
        (
            "req_submit_naive_activeset",
            Refused("unknown solver tag 3"),
        ),
        (
            "req_submit_hpc1d",
            submit(ssyn(), 3, 2, Algo::Hpc1D, SolverKind::Bpp),
        ),
        (
            "req_status",
            Req(Request::Status {
                tenant: "acme".into(),
                job: 3,
            }),
        ),
        (
            "req_factors",
            Req(Request::Factors {
                tenant: "acme".into(),
                job: 9,
            }),
        ),
        (
            "req_cancel",
            Req(Request::Cancel {
                tenant: "β-tenant".into(),
                job: u64::MAX,
            }),
        ),
        (
            "req_checkpoint",
            Req(Request::Checkpoint {
                tenant: "t".into(),
                job: 0,
                path: "/tmp/x.ckpt".into(),
            }),
        ),
        (
            "req_tenant_stats",
            Req(Request::TenantStats { tenant: "".into() }),
        ),
        ("req_shutdown", Req(Request::Shutdown)),
        (
            "req_resume_overrides",
            Req(Request::Resume {
                tenant: "acme".into(),
                spec: ResumeSpec {
                    ckpt: "/tmp/j1.ckpt".into(),
                    source: file("/data/a.nmfs"),
                    ranks: Some(2),
                    algo: Some(Algo::HpcGrid(Grid::new(2, 1))),
                    max_iters: Some(40),
                },
            }),
        ),
        (
            "req_resume_defaults",
            Req(Request::Resume {
                tenant: "acme".into(),
                spec: ResumeSpec {
                    ckpt: "ckpt/only.ckpt".into(),
                    source: ssyn(),
                    ranks: None,
                    algo: None,
                    max_iters: None,
                },
            }),
        ),
        (
            "resp_submitted",
            Resp(Response::Submitted {
                job: 5,
                queued: true,
            }),
        ),
        (
            "resp_status_running",
            Resp(Response::Status(JobStatus {
                job: 5,
                phase: JobPhase::Running,
                iterations: 7,
                max_iters: 20,
                objective: 123.5,
                rel_error: 0.25,
                stop: None,
                error: None,
                resident_bytes: 4096,
            })),
        ),
        (
            "resp_status_finished",
            Resp(Response::Status(JobStatus {
                job: 6,
                phase: JobPhase::Finished,
                iterations: 20,
                max_iters: 20,
                objective: 1.5,
                rel_error: 0.125,
                stop: Some("max_iters".into()),
                error: None,
                resident_bytes: 80,
            })),
        ),
        (
            "resp_status_failed",
            Resp(Response::Status(JobStatus {
                job: 7,
                phase: JobPhase::Failed,
                iterations: 0,
                max_iters: 20,
                objective: f64::NAN,
                rel_error: f64::NAN,
                stop: None,
                error: Some("rank k=99 is outside the valid range".into()),
                resident_bytes: 0,
            })),
        ),
        (
            "resp_status_queued",
            Resp(Response::Status(JobStatus {
                job: 8,
                phase: JobPhase::Queued,
                iterations: 0,
                max_iters: 5,
                objective: f64::NAN,
                rel_error: f64::NAN,
                stop: None,
                error: None,
                resident_bytes: 160,
            })),
        ),
        (
            "resp_status_cancelled",
            Resp(Response::Status(JobStatus {
                job: 9,
                phase: JobPhase::Cancelled,
                iterations: 2,
                max_iters: 5,
                objective: f64::INFINITY,
                rel_error: 1.0,
                stop: None,
                error: None,
                resident_bytes: 0,
            })),
        ),
        (
            "resp_factors",
            Resp(Response::Factors {
                wm: 2,
                wk: 2,
                w: vec![1.0, 2.0, 3.0, 4.0],
                hk: 2,
                hn: 1,
                h: vec![5.0, 6.0],
            }),
        ),
        ("resp_cancelled", Resp(Response::Cancelled { job: 1 })),
        (
            "resp_checkpointed",
            Resp(Response::Checkpointed {
                job: 2,
                path: "/tmp/j2.ckpt".into(),
            }),
        ),
        (
            "resp_tenant_stats",
            Resp(Response::TenantStats(TenantReport {
                tenant: "acme".into(),
                steps_completed: 100,
                jobs_submitted: 4,
                jobs_finished: 2,
                active_jobs: 1,
                queued_jobs: 1,
                resident_bytes: 1 << 20,
                shared_input_bytes: 3 << 20,
            })),
        ),
        ("resp_shutting_down", Resp(Response::ShuttingDown)),
        (
            "resp_error_quota_bytes",
            Resp(Response::Error {
                code: ErrorCode::QuotaBytes,
                message: "over quota".into(),
            }),
        ),
        (
            "resp_error_internal",
            Resp(Response::Error {
                code: ErrorCode::Internal,
                message: "".into(),
            }),
        ),
    ]
}
