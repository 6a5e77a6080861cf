//! `serve_mix`: the only workload through `nmf_serve`.
//!
//! An in-process `Server::run` listens on a Unix socket. Connection A
//! is a **closed loop**: it keeps 4 tenants × 2 jobs in flight, and a
//! finished job is replaced at once — a slow server receives less load.
//! The job mix is exact in every block of ten jobs: seven inline dense
//! jobs, three jobs on a named dataset that resolve through the
//! server's shared dataset cache (the seed draws every matrix and every
//! factor initialisation); every 8th finished job is
//! checkpointed and every 16th submission resumes the latest checkpoint.
//! Connection B is an **open loop**: a `Status` poll every 10 ms, timed
//! from the instant it was due, whatever the server is doing — so a
//! stall shows as latency, and how late the generator ran is reported.
//! The generator uses two threads, one per connection.

use crate::host;
use crate::layers;
use crate::problem::{
    relative_to_cwd, sequential_baseline, step_until, timed, timed_reps, timed_span, Ctx, Problem,
};
use crate::report::Report;
use crate::stats::Samples;
use crate::trace;
use hpc_nmf::prelude::*;
use nmf_data::DatasetKind;
use nmf_matrix::rng::Fill;
use nmf_matrix::Mat;
use nmf_serve::prelude::*;
use nmf_serve::{
    channel_pair, ErrorCode, Registry, Request, Response, ResumeSpec, Scheduler, SchedulerConfig,
};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const TENANTS: usize = 4;
const JOBS_PER_TENANT: usize = 2;
/// Dense jobs in every block of [`MIX_BLOCK`] submissions.
const DENSE_PER_BLOCK: usize = 7;
const MIX_BLOCK: usize = 10;
const CHECKPOINT_EVERY: u64 = 8;
const RESUME_EVERY: u64 = 16;
/// Iterations a resumed job runs past its checkpoint.
const RESUME_EXTRA_ITERS: usize = 10;
const STATUS_PERIOD: Duration = Duration::from_millis(10);
/// Distinct inline matrices the dense jobs cycle through.
const DENSE_POOL: usize = 4;
/// Set-ups are timed in batches; `setup_s` is the median batch mean.
/// One set-up is mostly the accept thread's 10 ms poll, which is flat
/// between 0 and 10 ms: single samples have no usable median.
const SETUP_BATCHES: usize = 5;
const SETUPS_PER_BATCH: usize = 5;

/// Shapes of the two job kinds (full, or quick).
struct Sizes {
    dense: (usize, usize, usize),
    dense_iters: usize,
    dataset_scale: usize,
    dataset_k: usize,
    dataset_iters: usize,
}

impl Sizes {
    fn of(ctx: &Ctx) -> Sizes {
        if ctx.quick {
            Sizes {
                dense: (96, 64, 6),
                dense_iters: 10,
                dataset_scale: 240,
                dataset_k: 8,
                dataset_iters: 8,
            }
        } else {
            Sizes {
                dense: (256, 192, 8),
                dense_iters: 40,
                dataset_scale: 60,
                dataset_k: 8,
                dataset_iters: 20,
            }
        }
    }
}

/// Whether submission `i` is a dense job: each block of ten holds
/// exactly seven, at fixed positions. The seed changes every matrix and
/// every factor initialisation, not the order of the kinds — which jobs
/// share a quantum decides the turnaround, and a reshuffled order moved
/// it by more than any change to the server would.
fn is_dense(i: u64) -> bool {
    const DATASET_AT: [u64; MIX_BLOCK - DENSE_PER_BLOCK] = [2, 5, 9];
    !DATASET_AT.contains(&(i % MIX_BLOCK as u64))
}

/// Builds the job specs of the mix.
struct Mix {
    seed: u64,
    sizes: Sizes,
    pool: Vec<Vec<f64>>,
}

impl Mix {
    fn new(ctx: &Ctx) -> Mix {
        let sizes = Sizes::of(ctx);
        let (m, n, _) = sizes.dense;
        let pool = (0..DENSE_POOL as u64)
            .map(|i| Mat::uniform(m, n, ctx.seed.wrapping_mul(31).wrapping_add(i)).into_vec())
            .collect();
        Mix {
            seed: ctx.seed,
            sizes,
            pool,
        }
    }

    fn dense_spec(&self, i: u64) -> JobSpec {
        let (m, n, k) = self.sizes.dense;
        JobSpec {
            source: JobSource::Dense {
                m,
                n,
                data: self.pool[(i % DENSE_POOL as u64) as usize].clone(),
            },
            k,
            ranks: 1,
            algo: Algo::Sequential,
            solver: SolverKind::Bpp,
            max_iters: self.sizes.dense_iters,
            seed: i,
            tol: None,
        }
    }

    fn dataset_spec(&self, i: u64) -> JobSpec {
        JobSpec {
            source: JobSource::Dataset {
                kind: "ssyn".into(),
                scale: self.sizes.dataset_scale,
                seed: self.seed,
            },
            k: self.sizes.dataset_k,
            ranks: 2,
            algo: Algo::Hpc2D,
            solver: SolverKind::Mu,
            max_iters: self.sizes.dataset_iters,
            seed: i,
            tol: None,
        }
    }

    fn spec(&self, i: u64) -> JobSpec {
        if is_dense(i) {
            self.dense_spec(i)
        } else {
            self.dataset_spec(i)
        }
    }

    /// The dataset job as a problem the layer probes can run directly.
    fn dataset_problem(&self) -> Problem {
        Problem {
            kind: DatasetKind::Ssyn,
            scale: self.sizes.dataset_scale,
            k: self.sizes.dataset_k,
            solver: SolverKind::Mu,
            algo: Algo::Hpc2D,
            ranks: 2,
            seed: self.seed,
        }
    }
}

/// The socket path, relative to the working directory when it lies
/// under it: `sockaddr_un` holds about a hundred bytes.
fn socket_path(tmp: &Path) -> Result<PathBuf, String> {
    let path = relative_to_cwd(tmp.join("s.sock"));
    if path.as_os_str().len() > 100 {
        return Err(format!(
            "socket path {} is too long for a Unix socket",
            path.display()
        ));
    }
    Ok(path)
}

fn server_config() -> ServerConfig {
    ServerConfig {
        default_quota: TenantQuota {
            max_concurrent_jobs: JOBS_PER_TENANT,
            ..TenantQuota::default()
        },
        ..ServerConfig::default()
    }
}

/// A running server and the two connected clients.
struct Serving {
    core: JoinHandle<Result<ServeStats, ServeError>>,
    jobs: Client,
    polls: Client,
}

/// Server up plus clients connected: bind, spawn the serving loop,
/// connect both clients and complete one round trip on each.
fn set_up(sock: &Path) -> Result<Serving, ServeError> {
    let _guard = trace::span("setup");
    let listener = trace::in_span("serve.bind", || UnixSocketListener::bind(sock))?;
    let server = Server::new(server_config());
    let core = std::thread::Builder::new()
        .name("perf-serve-core".into())
        .spawn(move || server.run(Box::new(listener)))
        .map_err(|source| ServeError::Io { source })?;
    let connect = || -> Result<Client, ServeError> {
        let mut client = Client::new(Box::new(UnixTransport::connect(sock)?));
        // Nobody has submitted yet, so the typed refusal is the
        // expected answer — and proof the serving loop is up.
        match client.tenant_stats("nobody") {
            Err(e) if e.code() == ErrorCode::UnknownTenant => Ok(client),
            Err(e) => Err(e),
            Ok(_) => Ok(client),
        }
    };
    let jobs = trace::in_span("serve.connect", connect)?;
    let polls = trace::in_span("serve.connect", connect)?;
    Ok(Serving { core, jobs, polls })
}

fn tear_down(mut serving: Serving) -> Result<ServeStats, String> {
    serving.jobs.shutdown().map_err(|e| e.to_string())?;
    drop(serving.polls);
    serving
        .core
        .join()
        .map_err(|_| "the serving loop panicked".to_string())?
        .map_err(|e| e.to_string())
}

/// One job connection A is waiting on.
struct InFlight {
    job: u64,
    index: u64,
    submitted: Instant,
    /// The matrix the job factorizes (a resume continues on the
    /// checkpointed job's, not on the one the mix would have drawn).
    source: JobSource,
    /// Iteration cap the job must stop at.
    expect_iters: u64,
}

/// The latest checkpoint a resume can continue from.
struct Resumable {
    path: String,
    source: JobSource,
    iters: usize,
}

#[derive(Default)]
struct ClosedLoopResult {
    turnaround_ms: Samples,
    finished_in_window: u64,
    requests: u64,
    failed: u64,
    failures: Vec<String>,
    checkpoints: u64,
    resumes: u64,
}

/// Connection A. Runs until `stop`; samples count once `measuring`.
fn closed_loop(
    client: &mut Client,
    mix: &Mix,
    tmp: &Path,
    measuring: &AtomicBool,
    stop: &AtomicBool,
) -> ClosedLoopResult {
    let mut out = ClosedLoopResult::default();
    let mut slots: Vec<Option<InFlight>> = (0..TENANTS * JOBS_PER_TENANT).map(|_| None).collect();
    let tenants: Vec<String> = (0..TENANTS).map(|t| format!("tenant-{t}")).collect();
    let mut next_index = 0u64;
    let mut finished_total = 0u64;
    let mut resumable: Option<Resumable> = None;
    let fail = |out: &mut ClosedLoopResult, what: String| {
        out.failed += 1;
        if out.failures.len() < 8 {
            out.failures.push(what);
        }
    };
    while !stop.load(Ordering::Relaxed) {
        let mut progressed = false;
        for (slot_no, slot) in slots.iter_mut().enumerate() {
            let tenant = tenants[slot_no / JOBS_PER_TENANT].as_str();
            let Some(flight) = slot else {
                let index = next_index;
                next_index += 1;
                let spec = mix.spec(index);
                let submitted = Instant::now();
                out.requests += 1;
                let resume = (index % RESUME_EVERY == RESUME_EVERY - 1)
                    .then_some(resumable.as_ref())
                    .flatten();
                let (admitted, source, expect_iters) = match resume {
                    Some(r) => {
                        out.resumes += 1;
                        let cap = r.iters + RESUME_EXTRA_ITERS;
                        let admitted = trace::in_span("serve.request.resume", || {
                            client.resume(tenant, &r.path, &r.source, None, None, Some(cap))
                        });
                        (admitted.map(|(job, _)| job), r.source.clone(), cap as u64)
                    }
                    None => {
                        let admitted =
                            trace::in_span("serve.request.submit", || client.submit(tenant, &spec));
                        (admitted, spec.source, spec.max_iters as u64)
                    }
                };
                match admitted {
                    Ok(job) => {
                        *slot = Some(InFlight {
                            job,
                            index,
                            submitted,
                            source,
                            expect_iters,
                        })
                    }
                    Err(e) => fail(&mut out, format!("submit {index} refused: {e}")),
                }
                progressed = true;
                continue;
            };
            out.requests += 1;
            let status =
                trace::in_span("serve.request.status", || client.status(tenant, flight.job));
            let status = match status {
                Ok(st) => st,
                Err(e) => {
                    fail(
                        &mut out,
                        format!("status of job {} failed: {e}", flight.job),
                    );
                    *slot = None;
                    continue;
                }
            };
            if matches!(status.phase, JobPhase::Queued | JobPhase::Running) {
                continue;
            }
            progressed = true;
            let turnaround_ms = flight.submitted.elapsed().as_secs_f64() * 1e3;
            let sound = status.phase == JobPhase::Finished
                && status.stop.as_deref() == Some("max_iters")
                && status.iterations == flight.expect_iters
                && status.rel_error.is_finite();
            if !sound {
                fail(
                    &mut out,
                    format!(
                        "job {} ended {:?} stop={:?} iterations={} rel_error={}",
                        flight.index,
                        status.phase,
                        status.stop,
                        status.iterations,
                        status.rel_error
                    ),
                );
            }
            if measuring.load(Ordering::Relaxed) {
                out.turnaround_ms.push(turnaround_ms);
                out.finished_in_window += 1;
            }
            finished_total += 1;
            if finished_total.is_multiple_of(CHECKPOINT_EVERY) && status.phase == JobPhase::Finished
            {
                let path = tmp.join(format!(
                    "job-{}.ckpt",
                    finished_total / CHECKPOINT_EVERY % 2
                ));
                let path = path.to_string_lossy().into_owned();
                out.requests += 1;
                out.checkpoints += 1;
                let saved = trace::in_span("serve.request.checkpoint", || {
                    client.checkpoint(tenant, flight.job, &path)
                });
                match saved {
                    Ok(()) => {
                        resumable = Some(Resumable {
                            path,
                            source: flight.source.clone(),
                            iters: flight.expect_iters as usize,
                        })
                    }
                    Err(e) => fail(&mut out, format!("checkpoint failed: {e}")),
                }
            }
            out.requests += 1;
            if let Err(e) =
                trace::in_span("serve.request.cancel", || client.cancel(tenant, flight.job))
            {
                fail(
                    &mut out,
                    format!("release of job {} failed: {e}", flight.job),
                );
            }
            *slot = None;
        }
        if !progressed {
            std::thread::sleep(Duration::from_micros(500));
        }
    }
    out
}

#[derive(Default)]
struct OpenLoopResult {
    status_ms: Samples,
    lateness_ms: Samples,
    requests: u64,
    failed: u64,
}

/// Connection B: a `Status` poll of a small resident job every
/// [`STATUS_PERIOD`], whatever happened to the previous one.
fn open_loop(client: &mut Client, measuring: &AtomicBool, stop: &AtomicBool) -> OpenLoopResult {
    let mut out = OpenLoopResult::default();
    let tenant = "poller";
    out.requests += 1;
    let job = match open_loop_target(client) {
        Ok(job) => job,
        Err(_) => {
            out.failed += 1;
            return out;
        }
    };
    let start = Instant::now();
    let mut tick = 0u32;
    while !stop.load(Ordering::Relaxed) {
        let due = start + STATUS_PERIOD * tick;
        tick += 1;
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let lateness_ms = due.elapsed().as_secs_f64() * 1e3;
        out.requests += 1;
        let answered = trace::in_span("serve.request.status_poll", || client.status(tenant, job));
        let latency_ms = due.elapsed().as_secs_f64() * 1e3;
        if answered.is_err() {
            out.failed += 1;
        }
        if measuring.load(Ordering::Relaxed) {
            out.status_ms.push(latency_ms);
            out.lateness_ms.push(lateness_ms);
        }
    }
    out
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let mut report = Report::new("serve_mix", ctx.seed, ctx.seconds, ctx.traced, ctx.quick);
    let mix = Mix::new(ctx);
    report.oversubscribed = 2 > host::nproc();
    let sock = socket_path(&ctx.tmp)?;

    // ---- the measured window ----
    let t0 = Instant::now();
    let mut setup = Samples::new();
    let mut serving = None;
    for batch in 0..SETUP_BATCHES {
        let mut batch_s = 0.0;
        for rep in 0..SETUPS_PER_BATCH {
            let (up, s) = timed(|| set_up(&sock));
            let up = up.map_err(|e| format!("server set-up failed: {e}"))?;
            batch_s += s;
            if batch + 1 == SETUP_BATCHES && rep + 1 == SETUPS_PER_BATCH {
                serving = Some(up);
            } else {
                tear_down(up)?;
            }
        }
        setup.push(batch_s / SETUPS_PER_BATCH as f64);
    }
    let Serving {
        core,
        mut jobs,
        mut polls,
    } = serving.expect("the last set-up is kept");

    let left = (ctx.seconds - t0.elapsed().as_secs_f64()).max(0.2);
    let warm_up = (0.2 * left).min(2.0);
    let window = left - warm_up;
    let measuring = AtomicBool::new(false);
    let stop = AtomicBool::new(false);
    let (closed, open, window_s) = std::thread::scope(|scope| {
        let a = scope.spawn(|| closed_loop(&mut jobs, &mix, &ctx.tmp, &measuring, &stop));
        let b = scope.spawn(|| open_loop(&mut polls, &measuring, &stop));
        std::thread::sleep(Duration::from_secs_f64(warm_up));
        // A statistic-style flag pair: each loop only reads them to
        // decide whether to record or to leave; no data rides on them.
        measuring.store(true, Ordering::Relaxed);
        let w0 = Instant::now();
        std::thread::sleep(Duration::from_secs_f64(window));
        measuring.store(false, Ordering::Relaxed);
        let window_s = w0.elapsed().as_secs_f64();
        stop.store(true, Ordering::Relaxed);
        (
            a.join().expect("closed-loop thread panicked"),
            b.join().expect("open-loop thread panicked"),
            window_s,
        )
    });
    let peak_rss_mb = host::peak_rss_mb();
    // ---- end of the measured window ----

    let stats = tear_down(Serving { core, jobs, polls })?;
    report.ops(closed.requests + open.requests, closed.failed + open.failed);
    for f in &closed.failures {
        report.notes.push(f.clone());
    }
    if closed.turnaround_ms.is_empty() || open.status_ms.is_empty() {
        report.check(
            "jobs_finished_in_window",
            false,
            "no job finished, or no poll was answered, inside the window",
        );
        return Ok(report);
    }
    report.e2e_median("setup_s", &setup);
    // Eight jobs are in flight at a time, and a job's turnaround is a
    // whole number of scheduling quanta (the server answers one request
    // of a connection per quantum): its percentiles jump between runs
    // by more than the completion rate does. The gated op time is
    // therefore the window divided by the jobs it finished.
    report.e2e_op(
        1e3 * window_s / closed.finished_in_window as f64,
        "serve.loadgen.turnaround_ms_p50",
        &closed.turnaround_ms,
    );
    report.e2e("peak_rss_mb", peak_rss_mb);
    report.check(
        "finished_jobs_stop_as_expected",
        closed.failed == 0,
        format!(
            "{} jobs in the window, {} checkpoints, {} resumes: stop token max_iters at the iteration cap, finite rel_error",
            closed.finished_in_window, closed.checkpoints, closed.resumes
        ),
    );
    report.check(
        "server_counted_no_failed_job",
        stats.jobs_failed == 0,
        format!("{} jobs failed to build", stats.jobs_failed),
    );

    report.layer(
        "serve.loadgen.lateness_ms_p50",
        "ms",
        open.lateness_ms.median(),
    );
    report.layer(
        "serve.loadgen.lateness_ms_p95",
        "ms",
        open.lateness_ms.percentile(95.0),
    );
    for (name, count) in [
        ("serve.server.requests", stats.requests),
        ("serve.server.quanta", stats.quanta),
        ("serve.server.steps", stats.steps),
        ("serve.server.jobs_finished", stats.jobs_finished),
        ("serve.server.jobs_failed", stats.jobs_failed),
    ] {
        report.layer(name, "count", count as f64);
    }

    if ctx.traced {
        serve_layers(&mut report, &mix, ctx)?;
        direct_layers(&mut report, &mix, ctx);
    }
    Ok(report)
}

/// [`timed_reps`] in microseconds.
fn reps_us(reps: usize, f: impl FnMut()) -> Samples {
    timed_reps(reps, 1e6, f)
}

/// `serve.*` layer probes: the frame codec on the workload's frames,
/// transport round trips against an idle server, admission, and the
/// scheduler driven directly.
fn serve_layers(report: &mut Report, mix: &Mix, ctx: &Ctx) -> Result<(), String> {
    let _guard = trace::span("layers.serve");
    // Protocol: the largest request (an inline dense submit) and the
    // factors response of the same job.
    let submit = Request::Submit {
        tenant: "tenant-0".into(),
        spec: mix.dense_spec(0),
    };
    let frame = submit.encode();
    let (m, n, k) = mix.sizes.dense;
    let factors = Response::Factors {
        wm: m as u64,
        wk: k as u64,
        w: vec![0.5; m * k],
        hk: k as u64,
        hn: n as u64,
        h: vec![0.5; k * n],
    };
    let factors_frame = factors.encode();
    for (name, samples) in [
        (
            "serve.protocol.encode_submit_us",
            reps_us(200, || {
                black_box(submit.encode());
            }),
        ),
        (
            "serve.protocol.decode_submit_us",
            reps_us(200, || {
                black_box(Request::decode(&frame).expect("own encoding decodes"));
            }),
        ),
        (
            "serve.protocol.encode_factors_us",
            reps_us(200, || {
                black_box(factors.encode());
            }),
        ),
        (
            "serve.protocol.decode_factors_us",
            reps_us(200, || {
                black_box(Response::decode(&factors_frame).expect("own encoding decodes"));
            }),
        ),
    ] {
        report.layer_median(name, "us", &samples);
    }

    // Transport: `Status` round trips against a server with nothing to
    // schedule, over the Unix socket and over in-process channels.
    let sock = socket_path(&ctx.tmp)?;
    let mut serving = set_up(&sock).map_err(|e| e.to_string())?;
    let idle = open_loop_target(&mut serving.jobs).map_err(|e| e.to_string())?;
    std::thread::sleep(Duration::from_millis(50)); // the one-iteration job finishes

    // Timed calls that did not succeed: a refusal path is not the layer
    // the metric names, so any of them fails a check.
    let mut unanswered = 0u32;
    let rtt_unix = reps_us(300, || {
        unanswered += u32::from(serving.jobs.status("poller", idle).is_err());
    });
    tear_down(serving)?;
    report.layer_median("serve.transport.rtt_unix_us", "us", &rtt_unix);

    let (listener, connector) = channel_listener();
    let server = Server::new(server_config());
    let core = std::thread::spawn(move || server.run(Box::new(listener)));
    let mut client = Client::new(Box::new(connector.connect().map_err(|e| e.to_string())?));
    let idle = open_loop_target(&mut client).map_err(|e| e.to_string())?;
    std::thread::sleep(Duration::from_millis(50));
    let rtt_channel = reps_us(300, || {
        unanswered += u32::from(client.status("poller", idle).is_err());
    });
    report.check(
        "probe_status_round_trips_answered",
        unanswered == 0,
        format!("{unanswered} of the timed Status round trips failed"),
    );
    client.shutdown().map_err(|e| e.to_string())?;
    core.join()
        .map_err(|_| "the serving loop panicked".to_string())?
        .map_err(|e| e.to_string())?;
    report.layer_median("serve.transport.rtt_channel_us", "us", &rtt_channel);
    // A frame over a bare channel pair, no server: the transport floor.
    let (mut near, mut far) = channel_pair();
    let echo = reps_us(300, || {
        near.send_frame(&frame).expect("channel open");
        black_box(far.recv_frame().expect("channel open"));
    });
    report.layer_median("serve.transport.channel_frame_us", "us", &echo);

    // Registry: admission of a fresh submit and of a resume (header
    // inspection of a checkpoint written by a direct run).
    let roomy = TenantQuota {
        max_concurrent_jobs: JOBS_PER_TENANT,
        max_queued_jobs: 1 << 20,
        max_resident_bytes: usize::MAX / 2,
        ..TenantQuota::default()
    };
    let mut registry = Registry::new(roomy, 8);
    // `submit` and `submit_resume` take their spec by value; the copies
    // (393 KB of matrix each) are made here, outside the timed calls.
    const SUBMITS: usize = 100;
    const RESUMES: usize = 50;
    let dense = mix.dense_spec(0);
    let mut specs = vec![dense.clone(); SUBMITS + 1];
    let mut refused = 0u32;
    let submit_us = reps_us(SUBMITS, || {
        let spec = specs.pop().expect("one spec per call");
        refused += u32::from(registry.submit("tenant-0", spec).is_err());
    });
    report.layer_median("serve.registry.submit_us", "us", &submit_us);
    let ckpt = ctx.tmp.join("admit.ckpt");
    {
        let (dm, dn, _) = mix.sizes.dense;
        let input = Input::Dense(Mat::from_vec(dm, dn, mix.pool[0].clone()));
        let mut model = Nmf::on(&input)
            .rank(dense.k)
            .max_iters(dense.max_iters)
            .build()
            .map_err(|e| e.to_string())?;
        model.step();
        model.save(&ckpt).map_err(|e| e.to_string())?;
    }
    let resume = ResumeSpec {
        ckpt: ckpt.to_string_lossy().into_owned(),
        source: dense.source.clone(),
        ranks: None,
        algo: None,
        max_iters: None,
    };
    let mut resumes = vec![resume; RESUMES + 1];
    let resume_us = reps_us(RESUMES, || {
        let spec = resumes.pop().expect("one spec per call");
        refused += u32::from(registry.submit_resume("tenant-0", spec).is_err());
    });
    report.layer_median("serve.registry.resume_admit_us", "us", &resume_us);
    report.check(
        "probe_admissions_accepted",
        refused == 0,
        format!("{refused} of the timed submit and resume admissions were refused"),
    );
    std::fs::remove_file(&ckpt).ok();
    drop(registry);

    // Scheduler: the mix's first jobs, 2 per tenant, quantum by quantum.
    let mut registry = Registry::new(server_config().default_quota, 8);
    for i in 0..(TENANTS * JOBS_PER_TENANT) as u64 {
        let tenant = format!("tenant-{}", i as usize / JOBS_PER_TENANT);
        registry
            .submit(&tenant, mix.spec(i))
            .map_err(|e| e.to_string())?;
    }
    let mut scheduler = Scheduler::new(SchedulerConfig::default());
    let mut quantum_ms = Samples::new();
    let mut steps = Samples::new();
    let mut spread = f64::NAN;
    while registry.has_runnable_work() && quantum_ms.len() < 10_000 {
        let (q, s) = timed_span("serve.scheduler.quantum", || {
            scheduler.run_quantum(&mut registry)
        });
        // Fairness is judged while every tenant still has work: after
        // the latest quantum in which no job finished (or the first
        // quantum, when jobs are so short that every quantum ends some).
        if q.steps > 0 && (q.jobs_finished == 0 || spread.is_nan()) {
            let by_tenant = registry.steps_by_tenant();
            let max = by_tenant.values().copied().max().unwrap_or(0) as f64;
            let min = by_tenant.values().copied().min().unwrap_or(0) as f64;
            spread = max / min.max(1.0);
        }
        if q.steps > 0 {
            quantum_ms.push(s * 1e3);
            steps.push(q.steps as f64);
        }
    }
    report.layer_median("serve.scheduler.quantum_ms_p50", "ms", &quantum_ms);
    report.layer("serve.scheduler.steps_per_quantum", "count", steps.mean());
    report.layer("serve.scheduler.fairness_spread", "ratio", spread);
    Ok(())
}

/// Submits the open loop's small resident job and returns its id.
fn open_loop_target(client: &mut Client) -> Result<u64, ServeError> {
    client.submit(
        "poller",
        &JobSpec {
            source: JobSource::Dense {
                m: 8,
                n: 8,
                data: Mat::uniform(8, 8, 5).into_vec(),
            },
            k: 2,
            ranks: 1,
            algo: Algo::Sequential,
            solver: SolverKind::Bpp,
            max_iters: 1,
            seed: 1,
            tol: None,
        },
    )
}

/// The layers under the server: the mix's dataset job run directly
/// through `hpc_nmf`, the way the server runs it, and probed like any
/// stepped workload.
fn direct_layers(report: &mut Report, mix: &Mix, ctx: &Ctx) {
    let _guard = trace::span("layers.direct_job");
    let problem = mix.dataset_problem();
    let (input, gen_s) = timed(|| problem.generate());
    report.layer("data.gen_s", "s", gen_s);
    let shared = SharedInput::new(input.clone());
    let mut model = problem.build(&shared);
    let mut early = None;
    let far_future = Instant::now();
    let step_ms = step_until(&mut model, far_future, mix.sizes.dataset_iters, |model| {
        if model.iterations() == 3 {
            early = Some(model.factors());
        }
    });
    let late = model.factors();
    let early = early.unwrap_or_else(|| late.clone());
    let records = model.records().to_vec();
    let seq = sequential_baseline(&problem, &shared);
    drop(model);
    drop(shared);
    layers::probe_all(
        report, &problem, &input, &records, &step_ms, &early, &late, &seq, &ctx.tmp,
    );
}
