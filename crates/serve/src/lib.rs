//! `nmf_serve` — a multi-tenant model-serving layer over the `hpc_nmf`
//! session API.
//!
//! One server process multiplexes many tenants' NMF jobs onto one
//! machine:
//!
//! * a [`Registry`] of tenant sessions, each job wrapping a
//!   [`Model`](hpc_nmf::Model) handle (or a spec deferred until a
//!   concurrency slot frees up);
//! * **admission control** with per-tenant [`TenantQuota`]s — concurrent
//!   jobs, queue depth, resident factor bytes, and a per-quantum step
//!   budget — rejecting or queueing with typed [`ServeError`]s;
//! * a **fair round-robin [`Scheduler`]** granting each runnable job
//!   batches of engine steps through `Model::step_up_to`, so no tenant
//!   monopolizes the process no matter how many jobs it submits;
//! * a length-prefixed **framed protocol**
//!   (submit / status / factors / cancel / checkpoint / stats /
//!   shutdown / resume) over an object-safe [`Transport`] — in-process
//!   channels for embedding, Unix sockets for a separate client
//!   process, TCP (loopback-only by default) for remote clients;
//! * **elastic resume**: `Request::Resume` admits a job that continues
//!   from a server-side checkpoint, regridding the stored factors onto
//!   whatever rank count / scheme this server's policy allows (see
//!   `docs/elasticity.md`).
//!
//! ```no_run
//! use nmf_serve::prelude::*;
//! # use hpc_nmf::Algo;
//! # use nmf_nls::SolverKind;
//!
//! let (listener, connector) = channel_listener();
//! let server = Server::new(ServerConfig::default());
//! let core = std::thread::spawn(move || server.run(Box::new(listener)));
//!
//! let mut client = Client::new(Box::new(connector.connect()?));
//! let spec = JobSpec {
//!     source: JobSource::Dataset { kind: "dsyn".into(), scale: 1000, seed: 1 },
//!     k: 8, ranks: 2, algo: Algo::Hpc2D, solver: SolverKind::Bpp,
//!     max_iters: 10, seed: 42, tol: None,
//! };
//! let job = client.submit("acme", &spec)?;
//! let status = client.wait_finished("acme", job, 60_000)?;
//! let (w, h) = client.factors("acme", job)?;
//! client.shutdown()?;
//! # let _ = (status, w, h, core);
//! # Ok::<(), nmf_serve::ServeError>(())
//! ```
//!
//! `docs/serving.md` documents the wire format, the scheduler's quantum
//! semantics, the quota model, and the failure taxonomy.

pub mod client;
pub mod error;
pub mod protocol;
pub mod registry;
pub mod scheduler;
pub mod server;
pub mod transport;

pub use client::Client;
pub use error::{ErrorCode, ServeError};
pub use protocol::{
    JobPhase, JobSource, JobSpec, JobStatus, Request, Response, ResumeSpec, TenantReport,
    MAX_FRAME_BYTES, PROTOCOL_VERSION,
};
pub use registry::{Registry, TenantQuota};
pub use scheduler::{QuantumReport, Scheduler, SchedulerConfig};
pub use server::{ServeStats, Server, ServerConfig, ShutdownHandle};
pub use transport::{
    channel_listener, channel_pair, ChannelConnector, ChannelListener, ChannelTransport, Listener,
    TcpSocketListener, TcpTransport, Transport, UnixSocketListener, UnixTransport,
};

/// Everything needed to embed or drive a server.
pub mod prelude {
    pub use crate::client::Client;
    pub use crate::error::{ErrorCode, ServeError};
    pub use crate::protocol::{JobPhase, JobSource, JobSpec, JobStatus, TenantReport};
    pub use crate::registry::TenantQuota;
    pub use crate::scheduler::SchedulerConfig;
    pub use crate::server::{ServeStats, Server, ServerConfig};
    pub use crate::transport::{
        channel_listener, ChannelConnector, Listener, TcpSocketListener, TcpTransport, Transport,
        UnixSocketListener, UnixTransport,
    };
}
