//! The failure taxonomy of the serving layer.
//!
//! Every way a request can fail — admission refused, an unknown
//! tenant/job named, a malformed or truncated frame, a dead transport —
//! is a variant of [`ServeError`], so clients branch on *what* went
//! wrong. Errors that cross the wire carry a stable numeric
//! [`ErrorCode`] plus the rendered message; the client re-materializes
//! the typed variant from the code (see `docs/serving.md` for the full
//! taxonomy table).

use std::fmt;

/// Stable error codes carried in `Response::Error` frames. The numbers
/// in the table under the enum are part of the wire protocol: never
/// reuse a retired value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorCode {
    /// The tenant is at its concurrent-job **and** queued-job limits.
    QuotaJobs,
    /// Admitting the job would exceed the tenant's resident-factor-byte
    /// quota.
    QuotaBytes,
    /// The named tenant has never submitted anything.
    UnknownTenant,
    /// The named job does not exist (or was cancelled and released).
    UnknownJob,
    /// The job is still queued: it has no model yet, so factors /
    /// checkpoints cannot be produced.
    NotStarted,
    /// The job's model failed validation at build time (the embedded
    /// message is the underlying `NmfError`).
    BuildFailed,
    /// The request frame did not decode.
    BadRequest,
    /// Anything else that went wrong server-side.
    Internal,
}

hpc_nmf::choice!(ErrorCode: u32, "error code" {
    1 => QuotaJobs,
    2 => QuotaBytes,
    3 => UnknownTenant,
    4 => UnknownJob,
    5 => NotStarted,
    6 => BuildFailed,
    7 => BadRequest,
    8 => Internal,
});

/// Why a serving-layer operation failed.
#[derive(Debug)]
#[non_exhaustive]
pub enum ServeError {
    /// Admission refused: the tenant is at both its concurrent-job limit
    /// and its queue-depth limit.
    QuotaJobs {
        tenant: String,
        active: usize,
        queued: usize,
        max_concurrent: usize,
        max_queued: usize,
    },
    /// Admission refused: the job's projected factor residency would
    /// push the tenant past its byte quota.
    QuotaBytes {
        tenant: String,
        resident: usize,
        requested: usize,
        limit: usize,
    },
    /// No such tenant.
    UnknownTenant { tenant: String },
    /// No such job for this tenant.
    UnknownJob { tenant: String, job: u64 },
    /// The job is queued and has no engine state yet.
    NotStarted { job: u64 },
    /// The job's deferred model build failed.
    BuildFailed { job: u64, reason: String },
    /// A frame that is not a valid protocol message (bad tag, short
    /// payload, an over-limit length prefix, …).
    BadFrame { reason: String },
    /// The peer closed the connection.
    Closed,
    /// Transport-level I/O failure.
    Io { source: std::io::Error },
    /// An error reported by the server that does not map onto a more
    /// specific variant.
    Remote { code: ErrorCode, message: String },
}

impl ServeError {
    /// The wire code this error travels under.
    pub fn code(&self) -> ErrorCode {
        match self {
            ServeError::QuotaJobs { .. } => ErrorCode::QuotaJobs,
            ServeError::QuotaBytes { .. } => ErrorCode::QuotaBytes,
            ServeError::UnknownTenant { .. } => ErrorCode::UnknownTenant,
            ServeError::UnknownJob { .. } => ErrorCode::UnknownJob,
            ServeError::NotStarted { .. } => ErrorCode::NotStarted,
            ServeError::BuildFailed { .. } => ErrorCode::BuildFailed,
            ServeError::BadFrame { .. } => ErrorCode::BadRequest,
            ServeError::Remote { code, .. } => *code,
            _ => ErrorCode::Internal,
        }
    }

    /// Rebuilds the client-side error for a `(code, message)` received
    /// over the wire. Structured fields are not re-parsed from the
    /// message — remote errors keep the rendered text and the code is
    /// what callers should branch on.
    pub fn from_wire(code: ErrorCode, message: String) -> ServeError {
        ServeError::Remote { code, message }
    }

    /// Whether this error is an admission-control refusal (the caller's
    /// work was *rejected by policy*, not lost to a fault).
    pub fn is_quota(&self) -> bool {
        matches!(self.code(), ErrorCode::QuotaJobs | ErrorCode::QuotaBytes)
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::QuotaJobs {
                tenant,
                active,
                queued,
                max_concurrent,
                max_queued,
            } => write!(
                f,
                "tenant '{tenant}' is at its job quota ({active} active of {max_concurrent}, \
                 {queued} queued of {max_queued}); finish or cancel a job first"
            ),
            ServeError::QuotaBytes {
                tenant,
                resident,
                requested,
                limit,
            } => write!(
                f,
                "tenant '{tenant}' would exceed its resident-factor quota: {resident} bytes \
                 held + {requested} requested > {limit} limit; release finished jobs or \
                 submit a smaller model"
            ),
            ServeError::UnknownTenant { tenant } => write!(f, "unknown tenant '{tenant}'"),
            ServeError::UnknownJob { tenant, job } => {
                write!(f, "tenant '{tenant}' has no job {job}")
            }
            ServeError::NotStarted { job } => write!(
                f,
                "job {job} has no live engine state (still queued, cancelled, or released); \
                 factors and checkpoints need a built model"
            ),
            ServeError::BuildFailed { job, reason } => {
                write!(f, "job {job} failed to build: {reason}")
            }
            ServeError::BadFrame { reason } => write!(f, "malformed protocol frame: {reason}"),
            ServeError::Closed => write!(f, "connection closed by peer"),
            ServeError::Io { source } => write!(f, "transport I/O error: {source}"),
            ServeError::Remote { code, message } => {
                write!(f, "server error ({code:?}): {message}")
            }
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Io { source } => Some(source),
            _ => None,
        }
    }
}

/// A frame the one decoder refused (see `hpc_nmf::wire`).
impl From<hpc_nmf::wire::Error> for ServeError {
    fn from(e: hpc_nmf::wire::Error) -> Self {
        ServeError::BadFrame {
            reason: e.to_string(),
        }
    }
}

impl From<std::io::Error> for ServeError {
    fn from(source: std::io::Error) -> Self {
        ServeError::Io { source }
    }
}
