//! The serving loop: one process multiplexing many tenants.
//!
//! Threading model:
//!
//! * an **accept thread** polls the [`Listener`] and spawns one
//!   **reader thread** per connection;
//! * each reader decodes request frames and forwards
//!   `(Request, reply sender)` pairs into a single queue;
//! * the **core loop** (the thread that called [`Server::run`]) owns the
//!   [`Registry`] and [`Scheduler`] outright — no locks — alternating
//!   between draining the request queue and running scheduling quanta.
//!
//! A request therefore waits at most one quantum before it is answered,
//! and every mutation of serving state happens on one thread, which is
//! what makes the fairness accounting exact. Reader threads write the
//! response frames back themselves, so a slow client blocks only its own
//! connection.

use crate::error::ServeError;
use crate::protocol::{Request, Response};
use crate::registry::{Registry, TenantQuota};
use crate::scheduler::{Scheduler, SchedulerConfig};
use crate::transport::{Listener, Transport};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::Duration;

/// Server tuning and policy.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Quota applied to tenants that were not pre-registered.
    pub default_quota: TenantQuota,
    /// Server-wide cap on virtual ranks per job.
    pub max_ranks_per_job: usize,
    /// Scheduler batch size (engine steps per grant).
    pub scheduler: SchedulerConfig,
    /// How long the core loop sleeps when there are no requests and no
    /// runnable jobs.
    pub idle_sleep: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            default_quota: TenantQuota::default(),
            max_ranks_per_job: 8,
            scheduler: SchedulerConfig::default(),
            idle_sleep: Duration::from_millis(2),
        }
    }
}

/// Counters for the whole serving run (returned by [`Server::run`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct ServeStats {
    pub requests: u64,
    pub quanta: u64,
    pub steps: u64,
    pub jobs_promoted: u64,
    pub jobs_finished: u64,
    pub jobs_failed: u64,
    pub connections: u64,
}

/// A handle for stopping a running server from outside (another thread
/// or a signal handler).
#[derive(Clone)]
pub struct ShutdownHandle {
    flag: Arc<AtomicBool>,
}

impl ShutdownHandle {
    /// Asks the server loop to stop after the current quantum.
    pub fn shutdown(&self) {
        self.flag.store(true, Ordering::SeqCst);
    }

    pub fn is_shutdown(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }
}

/// One request in flight from a reader thread to the core loop.
struct Inbound {
    request: Request,
    reply: Sender<Response>,
}

/// The multi-tenant serving core.
pub struct Server {
    config: ServerConfig,
    registry: Registry,
    scheduler: Scheduler,
    stop: Arc<AtomicBool>,
}

impl Server {
    pub fn new(config: ServerConfig) -> Server {
        let registry = Registry::new(config.default_quota, config.max_ranks_per_job);
        let scheduler = Scheduler::new(config.scheduler);
        Server {
            config,
            registry,
            scheduler,
            stop: Arc::new(AtomicBool::new(false)),
        }
    }

    /// Pre-registers a tenant with a non-default quota.
    pub fn set_quota(&mut self, tenant: &str, quota: TenantQuota) {
        self.registry.set_quota(tenant, quota);
    }

    /// A handle that can stop this server from another thread.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle {
            flag: Arc::clone(&self.stop),
        }
    }

    /// Runs the serving loop on the calling thread until a `Shutdown`
    /// request arrives or the [`ShutdownHandle`] fires. Returns run-wide
    /// counters.
    pub fn run(mut self, listener: Box<dyn Listener>) -> Result<ServeStats, ServeError> {
        let (inbound_tx, inbound_rx) = channel::<Inbound>();
        let connections = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let accept = spawn_accept_thread(
            listener,
            inbound_tx,
            Arc::clone(&self.stop),
            Arc::clone(&connections),
        );

        let mut stats = ServeStats::default();
        while !self.stop.load(Ordering::SeqCst) {
            // Drain every request that is already waiting, then decide
            // whether to step or sleep.
            let mut handled = 0;
            while let Ok(inbound) = inbound_rx.try_recv() {
                handled += 1;
                stats.requests += 1;
                let shutdown = matches!(inbound.request, Request::Shutdown);
                let response = self.handle(inbound.request);
                // A dead client is not a server error.
                inbound.reply.send(response).ok();
                if shutdown {
                    self.stop.store(true, Ordering::SeqCst);
                }
            }
            if self.stop.load(Ordering::SeqCst) {
                break;
            }
            if self.registry.has_runnable_work() {
                let report = self.scheduler.run_quantum(&mut self.registry);
                stats.quanta += 1;
                stats.steps += report.steps as u64;
                stats.jobs_promoted += report.jobs_promoted as u64;
                stats.jobs_finished += report.jobs_finished as u64;
                stats.jobs_failed += report.jobs_failed as u64;
            } else if handled == 0 {
                // Idle: block briefly on the queue instead of spinning.
                match inbound_rx.recv_timeout(self.config.idle_sleep) {
                    Ok(inbound) => {
                        stats.requests += 1;
                        let shutdown = matches!(inbound.request, Request::Shutdown);
                        let response = self.handle(inbound.request);
                        inbound.reply.send(response).ok();
                        if shutdown {
                            self.stop.store(true, Ordering::SeqCst);
                        }
                    }
                    Err(RecvTimeoutError::Timeout) => {}
                    // All reader threads and the accept thread are gone.
                    Err(RecvTimeoutError::Disconnected) => break,
                }
            }
        }
        self.stop.store(true, Ordering::SeqCst);
        accept.join().ok();
        stats.connections = connections.load(Ordering::SeqCst);
        Ok(stats)
    }

    /// Executes one request against the registry.
    fn handle(&mut self, request: Request) -> Response {
        match request {
            Request::Submit { tenant, spec } => match self.registry.submit(&tenant, spec) {
                Ok((job, queued)) => Response::Submitted { job, queued },
                Err(e) => error_response(&e),
            },
            Request::Status { tenant, job } => match self.registry.status(&tenant, job) {
                Ok(st) => Response::Status(st),
                Err(e) => error_response(&e),
            },
            Request::Factors { tenant, job } => match self.registry.factors(&tenant, job) {
                Ok((w, h)) => Response::Factors {
                    wm: w.nrows() as u64,
                    wk: w.ncols() as u64,
                    w: w.into_vec(),
                    hk: h.nrows() as u64,
                    hn: h.ncols() as u64,
                    h: h.into_vec(),
                },
                Err(e) => error_response(&e),
            },
            Request::Cancel { tenant, job } => match self.registry.cancel(&tenant, job) {
                Ok(()) => Response::Cancelled { job },
                Err(e) => error_response(&e),
            },
            Request::Checkpoint { tenant, job, path } => {
                match self.registry.checkpoint(&tenant, job, &path) {
                    Ok(()) => Response::Checkpointed { job, path },
                    Err(e) => error_response(&e),
                }
            }
            Request::TenantStats { tenant } => match self.registry.tenant_report(&tenant) {
                Ok(report) => Response::TenantStats(report),
                Err(e) => error_response(&e),
            },
            Request::Shutdown => Response::ShuttingDown,
            Request::Resume { tenant, spec } => match self.registry.submit_resume(&tenant, spec) {
                Ok((job, queued)) => Response::Submitted { job, queued },
                Err(e) => error_response(&e),
            },
        }
    }
}

fn error_response(e: &ServeError) -> Response {
    Response::Error {
        code: e.code(),
        message: e.to_string(),
    }
}

/// Accept loop: polls the listener, spawns a reader thread per
/// connection, exits when the stop flag is raised.
fn spawn_accept_thread(
    mut listener: Box<dyn Listener>,
    inbound: Sender<Inbound>,
    stop: Arc<AtomicBool>,
    connections: Arc<std::sync::atomic::AtomicU64>,
) -> std::thread::JoinHandle<()> {
    std::thread::Builder::new()
        .name("nmf-serve-accept".into())
        .spawn(move || {
            let mut readers = Vec::new();
            while !stop.load(Ordering::SeqCst) {
                match listener.accept(Duration::from_millis(10)) {
                    Ok(Some(conn)) => {
                        connections.fetch_add(1, Ordering::SeqCst);
                        let inbound = inbound.clone();
                        let stop = Arc::clone(&stop);
                        if let Ok(h) = std::thread::Builder::new()
                            .name("nmf-serve-conn".into())
                            .spawn(move || connection_loop(conn, inbound, stop))
                        {
                            readers.push(h);
                        }
                    }
                    Ok(None) => {}
                    Err(_) => break,
                }
            }
            // Reader threads exit on their own when clients hang up;
            // after shutdown the remaining ones see Closed or a dead
            // reply channel and return.
            for h in readers {
                h.join().ok();
            }
        })
        .expect("spawn accept thread")
}

/// Per-connection loop: frames in, responses out, strict alternation.
fn connection_loop(mut conn: Box<dyn Transport>, inbound: Sender<Inbound>, stop: Arc<AtomicBool>) {
    loop {
        let frame = match conn.recv_frame() {
            Ok(f) => f,
            // Peer hung up or the frame layer failed: either way this
            // connection is done.
            Err(_) => return,
        };
        let request = match Request::decode(&frame) {
            Ok(r) => r,
            Err(e) => {
                // Malformed frame: answer with the typed error and keep
                // the connection (framing is still intact — the bad
                // bytes were confined to one frame).
                let resp = error_response(&e);
                if conn.send_frame(&resp.encode()).is_err() {
                    return;
                }
                continue;
            }
        };
        let (reply_tx, reply_rx) = channel();
        if inbound
            .send(Inbound {
                request,
                reply: reply_tx,
            })
            .is_err()
        {
            // Core loop is gone: the server is shutting down.
            return;
        }
        let response = match reply_rx.recv() {
            Ok(r) => r,
            Err(_) => return,
        };
        let closing = matches!(response, Response::ShuttingDown);
        if conn.send_frame(&response.encode()).is_err() || closing || stop.load(Ordering::SeqCst) {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use crate::protocol::{JobPhase, JobSource, JobSpec};
    use crate::transport::channel_listener;
    use hpc_nmf::Algo;
    use nmf_nls::SolverKind;

    fn spec(iters: usize, seed: u64) -> JobSpec {
        JobSpec {
            source: JobSource::Dense {
                m: 14,
                n: 10,
                data: (0..14 * 10).map(|i| (i % 6) as f64 + 0.5).collect(),
            },
            k: 3,
            ranks: 1,
            algo: Algo::Sequential,
            solver: SolverKind::Bpp,
            max_iters: iters,
            seed,
            tol: None,
        }
    }

    #[test]
    fn serves_a_job_end_to_end_in_process() {
        let (listener, connector) = channel_listener();
        let server = Server::new(ServerConfig::default());
        let core = std::thread::spawn(move || server.run(Box::new(listener)).expect("serve"));

        let mut client = Client::new(Box::new(connector.connect().expect("dial")));
        let job = client.submit("acme", &spec(5, 9)).expect("submit");
        let status = client.wait_finished("acme", job, 2000).expect("finishes");
        assert_eq!(status.phase, JobPhase::Finished);
        assert_eq!(status.iterations, 5);
        assert!(status.objective.is_finite() && status.objective >= 0.0);

        let (w, h) = client.factors("acme", job).expect("factors");
        assert_eq!(w.shape(), (14, 3));
        assert_eq!(h.shape(), (3, 10));
        assert!(w.as_slice().iter().all(|&x| x >= 0.0), "W nonnegative");

        let report = client.tenant_stats("acme").expect("stats");
        assert_eq!(report.jobs_finished, 1);
        assert_eq!(report.steps_completed, 5);

        client.shutdown().expect("shutdown");
        let stats = core.join().expect("core thread");
        assert!(stats.requests >= 4);
        assert_eq!(stats.jobs_finished, 1);
        assert_eq!(stats.connections, 1);
    }

    #[test]
    fn factors_of_a_served_job_match_a_local_run_bitwise() {
        let (listener, connector) = channel_listener();
        let server = Server::new(ServerConfig::default());
        let core = std::thread::spawn(move || server.run(Box::new(listener)).expect("serve"));

        let s = spec(4, 77);
        let mut client = Client::new(Box::new(connector.connect().expect("dial")));
        let job = client.submit("acme", &s).expect("submit");
        client.wait_finished("acme", job, 2000).expect("finishes");
        let (w_served, h_served) = client.factors("acme", job).expect("factors");
        client.shutdown().expect("shutdown");
        core.join().expect("core thread");

        let mut local =
            crate::registry::build_model(&s, &mut Default::default()).expect("local build");
        local.step_up_to(s.max_iters);
        let (w_local, h_local) = local.factors();
        assert_eq!(w_served.as_slice(), w_local.as_slice(), "W bit-identical");
        assert_eq!(h_served.as_slice(), h_local.as_slice(), "H bit-identical");
    }

    #[test]
    fn malformed_frames_get_typed_errors_and_the_connection_survives() {
        let (listener, connector) = channel_listener();
        let server = Server::new(ServerConfig::default());
        let core = std::thread::spawn(move || server.run(Box::new(listener)).expect("serve"));

        let mut raw = connector.connect().expect("dial");
        use crate::transport::Transport as _;
        raw.send_frame(&[0xFF, 1, 2, 3]).expect("send junk");
        let resp = Response::decode(&raw.recv_frame().expect("reply")).expect("decodes");
        assert!(
            matches!(
                resp,
                Response::Error {
                    code: crate::error::ErrorCode::BadRequest,
                    ..
                }
            ),
            "{resp:?}"
        );
        // Same connection still works for a valid request afterwards.
        raw.send_frame(
            &Request::TenantStats {
                tenant: "nobody".into(),
            }
            .encode(),
        )
        .expect("send valid");
        let resp = Response::decode(&raw.recv_frame().expect("reply")).expect("decodes");
        assert!(
            matches!(
                resp,
                Response::Error {
                    code: crate::error::ErrorCode::UnknownTenant,
                    ..
                }
            ),
            "{resp:?}"
        );
        raw.send_frame(&Request::Shutdown.encode()).expect("send");
        raw.recv_frame().expect("shutting down ack");
        core.join().expect("core thread");
    }

    #[test]
    fn shutdown_handle_stops_an_idle_server() {
        let (listener, _connector) = channel_listener();
        let server = Server::new(ServerConfig::default());
        let handle = server.shutdown_handle();
        let core = std::thread::spawn(move || server.run(Box::new(listener)).expect("serve"));
        std::thread::sleep(Duration::from_millis(20));
        handle.shutdown();
        let stats = core.join().expect("core thread");
        assert_eq!(stats.requests, 0);
    }
}
