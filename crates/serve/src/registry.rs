//! Tenant sessions and admission control.
//!
//! The registry owns every tenant's jobs — each a [`Model`] session (or
//! a deferred spec waiting for a concurrency slot) — and enforces the
//! quota model at two points:
//!
//! * **submit** (admission): a job is *rejected* with a typed error when
//!   the tenant is at both its concurrent-job and queue-depth limits
//!   ([`ServeError::QuotaJobs`]) or when its projected factor residency
//!   would breach the byte quota ([`ServeError::QuotaBytes`]); otherwise
//!   it is admitted — *queued* if all concurrency slots are busy.
//!   Queued jobs reserve their projected bytes immediately, so a flood
//!   of cheap submits cannot front-run the byte quota.
//! * **promotion** (build): the scheduler promotes queued jobs into
//!   running models as slots free up; a spec the session builder rejects
//!   becomes [`JobPhase::Failed`] with the builder's message — the
//!   submit path never blocks on dataset generation or thread spawns.
//!
//! Finished jobs keep their factors resident (they are what the tenant
//! came for) but release their concurrency slot; `cancel` both aborts
//! queued/running jobs and releases finished ones.

use crate::error::ServeError;
use crate::protocol::{
    projected_factor_bytes, JobPhase, JobSource, JobSpec, JobStatus, ResumeSpec, TenantReport,
};
use hpc_nmf::checkpoint::read_checkpoint;
use hpc_nmf::input::Input;
use hpc_nmf::inspect_checkpoint;
use hpc_nmf::prelude::*;
use nmf_data::DatasetKind;
use nmf_matrix::Mat;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::path::Path;

/// Identity of a cacheable dataset source: `(kind, scale, seed)`.
/// Dense inline sources are never cached — they are tenant-provided
/// payloads, not named datasets.
pub(crate) type DatasetKey = (String, usize, u64);

/// The server-wide shared-input cache: one [`SharedInput`] per distinct
/// dataset, handed to every job (from any tenant) that names it. The
/// `SharedInput` in turn caches its per-rank shardings, so ten tenants
/// factorizing one corpus share both the matrix and its blocks.
pub(crate) type DatasetCache = HashMap<DatasetKey, SharedInput>;

/// Per-tenant admission limits.
#[derive(Clone, Copy, Debug)]
pub struct TenantQuota {
    /// Jobs allowed to hold a running model at once.
    pub max_concurrent_jobs: usize,
    /// Jobs allowed to wait for a slot beyond that.
    pub max_queued_jobs: usize,
    /// Total factor bytes (running + finished + queued-reserved) the
    /// tenant may hold resident.
    pub max_resident_bytes: usize,
    /// Engine steps this tenant may complete per scheduling quantum —
    /// the rate limit that keeps one tenant from monopolizing the
    /// shared thread pool no matter how many jobs it has runnable.
    pub steps_per_quantum: usize,
}

impl Default for TenantQuota {
    fn default() -> Self {
        TenantQuota {
            max_concurrent_jobs: 4,
            max_queued_jobs: 16,
            max_resident_bytes: 256 << 20,
            steps_per_quantum: 16,
        }
    }
}

/// One tenant job: a live model, or a spec waiting to become one.
pub(crate) struct Job {
    pub id: u64,
    pub phase: JobPhase,
    /// Present while queued; consumed at promotion.
    pub spec: Option<JobSpec>,
    /// Present while a *resume* job is queued; consumed at promotion
    /// (mutually exclusive with `spec`).
    pub resume: Option<ResumeSpec>,
    /// Present while running or finished.
    pub model: Option<Model>,
    /// Factor bytes charged against the tenant's quota (projected while
    /// queued, exact once built, zero once released).
    pub bytes: usize,
    /// Engine steps the scheduler has granted and completed.
    pub steps_done: u64,
    pub stop: Option<StopReason>,
    pub error: Option<String>,
    /// Iteration cap from the spec (kept for status after release).
    pub max_iters: u64,
}

impl Job {
    fn status(&self) -> JobStatus {
        let (iterations, objective, rel_error) = match &self.model {
            Some(m) => (m.iterations() as u64, m.objective(), m.rel_error()),
            None => (self.steps_done, f64::NAN, f64::NAN),
        };
        JobStatus {
            job: self.id,
            phase: self.phase,
            iterations,
            max_iters: self.max_iters,
            objective,
            rel_error,
            stop: self.stop.map(|s| s.as_str().to_string()),
            error: self.error.clone(),
            resident_bytes: self.bytes as u64,
        }
    }
}

/// One tenant: quota, jobs, the admission queue, and the scheduler's
/// per-tenant bookkeeping.
pub(crate) struct Tenant {
    pub quota: TenantQuota,
    pub jobs: BTreeMap<u64, Job>,
    /// Admitted jobs waiting for a concurrency slot, FIFO.
    pub queue: VecDeque<u64>,
    /// Round-robin rotation for this tenant's running jobs.
    pub rr_offset: usize,
    pub steps_completed: u64,
    pub jobs_submitted: u64,
    pub jobs_finished: u64,
}

impl Tenant {
    fn new(quota: TenantQuota) -> Tenant {
        Tenant {
            quota,
            jobs: BTreeMap::new(),
            queue: VecDeque::new(),
            rr_offset: 0,
            steps_completed: 0,
            jobs_submitted: 0,
            jobs_finished: 0,
        }
    }

    pub fn active_jobs(&self) -> usize {
        self.jobs
            .values()
            .filter(|j| j.phase == JobPhase::Running)
            .count()
    }

    pub fn resident_bytes(&self) -> usize {
        self.jobs.values().map(|j| j.bytes).sum()
    }
}

/// The serving state: every tenant, every job. Owned by the server's
/// scheduling thread; never shared.
pub struct Registry {
    pub(crate) tenants: BTreeMap<String, Tenant>,
    /// Shared inputs keyed by dataset identity — see [`DatasetCache`].
    pub(crate) datasets: DatasetCache,
    default_quota: TenantQuota,
    /// Server-wide cap on virtual ranks per job (each rank is an OS
    /// thread; an unchecked spec could ask for thousands).
    max_ranks_per_job: usize,
    next_job: u64,
}

impl Registry {
    pub fn new(default_quota: TenantQuota, max_ranks_per_job: usize) -> Registry {
        Registry {
            tenants: BTreeMap::new(),
            datasets: DatasetCache::new(),
            default_quota,
            max_ranks_per_job: max_ranks_per_job.max(1),
            next_job: 1,
        }
    }

    /// Pre-registers (or re-configures) a tenant with a specific quota;
    /// tenants submit under the default quota otherwise.
    pub fn set_quota(&mut self, tenant: &str, quota: TenantQuota) {
        self.tenants
            .entry(tenant.to_string())
            .or_insert_with(|| Tenant::new(quota))
            .quota = quota;
    }

    /// Admission control: returns `(job id, queued?)` or a typed
    /// rejection. Never builds the model — that happens at promotion,
    /// on scheduler time.
    pub fn submit(&mut self, tenant: &str, spec: JobSpec) -> Result<(u64, bool), ServeError> {
        if spec.ranks > self.max_ranks_per_job {
            return Err(ServeError::BuildFailed {
                job: 0,
                reason: format!(
                    "spec requests {} ranks; this server caps jobs at {}",
                    spec.ranks, self.max_ranks_per_job
                ),
            });
        }
        let (m, n) = self.source_shape(&spec.source)?;
        let projected = projected_factor_bytes(m, n, spec.k);
        let max_iters = spec.max_iters as u64;
        self.admit(tenant, projected, Some(spec), None, max_iters)
    }

    /// Admission control for a resume: the checkpoint header supplies
    /// the problem shape and rank `k` (the admission currency), the
    /// overrides are clamped to server policy, and the deferred build
    /// regrids the stored factors onto the target at promotion.
    /// Admission reads and verifies the header only, so it costs the
    /// same for any checkpoint size; a damaged payload fails the job at
    /// promotion, when its blocks are read.
    pub fn submit_resume(
        &mut self,
        tenant: &str,
        mut rs: ResumeSpec,
    ) -> Result<(u64, bool), ServeError> {
        let summary =
            inspect_checkpoint(Path::new(&rs.ckpt)).map_err(|e| ServeError::BuildFailed {
                job: 0,
                reason: format!("checkpoint {}: {e}", rs.ckpt),
            })?;
        let (m, n, k) = (summary.meta.m, summary.meta.n, summary.meta.config.k);
        // Reject a mismatch at admission instead of burning a promotion
        // on it.
        let (sm, sn) = self.source_shape(&rs.source)?;
        if (sm, sn) != (m, n) {
            return Err(ServeError::BuildFailed {
                job: 0,
                reason: format!(
                    "checkpoint {} records a {m}x{n} problem but the source is {sm}x{sn}",
                    rs.ckpt
                ),
            });
        }
        // Clamp, don't reject: the whole point of elastic resume is
        // continuing on a server with different capacity.
        let requested = rs.ranks.unwrap_or(summary.meta.ranks).max(1);
        rs.ranks = Some(requested.min(self.max_ranks_per_job));
        let projected = projected_factor_bytes(m, n, k);
        let max_iters = rs.max_iters.unwrap_or(summary.meta.config.max_iters) as u64;
        self.admit(tenant, projected, None, Some(rs), max_iters)
    }

    /// The shape `source` will produce, or the typed rejection for one
    /// that names nothing this server can build.
    fn source_shape(&mut self, source: &JobSource) -> Result<(usize, usize), ServeError> {
        let shape = match source {
            // A decoded frame has passed this check already; a spec
            // handed in by an embedding process has not.
            JobSource::Dense { m, n, .. } => source.check().map(|()| (*m, *n)),
            JobSource::Dataset { kind, scale, .. } => {
                DatasetKind::from_name(kind).map(|kind| kind.scaled_dims(*scale))
            }
            // File sources carry their shape in the NMFS header, not on
            // the wire: peek it by opening (and caching) the mmap —
            // cheap, no data pages are touched.
            JobSource::File { path } => return Ok(self.open_file_source(path)?.shape()),
        };
        shape.map_err(|reason| ServeError::BuildFailed { job: 0, reason })
    }

    /// Opens (or fetches from the cache) an NMFS file source as a
    /// shared mmap-backed input, keyed `("file:<path>", 0, 0)` in the
    /// dataset cache.
    fn open_file_source(&mut self, path: &str) -> Result<SharedInput, ServeError> {
        let key = (format!("file:{path}"), 0usize, 0u64);
        if let Some(s) = self.datasets.get(&key) {
            return Ok(s.clone());
        }
        let shared = SharedInput::open_mmap(path).map_err(|e| ServeError::BuildFailed {
            job: 0,
            reason: format!("cannot open {path}: {e}"),
        })?;
        self.datasets.insert(key, shared.clone());
        Ok(shared)
    }

    /// The shared tail of admission: quota checks, id allocation, job
    /// insertion, queueing. Exactly one of `spec` / `resume` is `Some`.
    fn admit(
        &mut self,
        tenant: &str,
        projected: usize,
        spec: Option<JobSpec>,
        resume: Option<ResumeSpec>,
        max_iters: u64,
    ) -> Result<(u64, bool), ServeError> {
        let default_quota = self.default_quota;
        let t = self
            .tenants
            .entry(tenant.to_string())
            .or_insert_with(|| Tenant::new(default_quota));

        let resident = t.resident_bytes();
        if resident.saturating_add(projected) > t.quota.max_resident_bytes {
            return Err(ServeError::QuotaBytes {
                tenant: tenant.to_string(),
                resident,
                requested: projected,
                limit: t.quota.max_resident_bytes,
            });
        }
        // Jobs in the admission queue will occupy concurrency slots as
        // they free up, so the slot math counts both: a job must wait
        // iff everything ahead of it fills the slots, and the tenant is
        // *rejected* once the wait-list beyond the slots is itself full.
        let active = t.active_jobs();
        let slots_taken = active + t.queue.len();
        let must_queue = slots_taken >= t.quota.max_concurrent_jobs;
        let overflow = slots_taken.saturating_sub(t.quota.max_concurrent_jobs);
        if must_queue && overflow >= t.quota.max_queued_jobs {
            return Err(ServeError::QuotaJobs {
                tenant: tenant.to_string(),
                active: slots_taken - overflow,
                queued: overflow,
                max_concurrent: t.quota.max_concurrent_jobs,
                max_queued: t.quota.max_queued_jobs,
            });
        }

        let id = self.next_job;
        self.next_job += 1;
        t.jobs.insert(
            id,
            Job {
                id,
                phase: JobPhase::Queued,
                spec,
                resume,
                model: None,
                bytes: projected,
                steps_done: 0,
                stop: None,
                error: None,
                max_iters,
            },
        );
        t.queue.push_back(id);
        t.jobs_submitted += 1;
        Ok((id, must_queue))
    }

    fn tenant(&self, tenant: &str) -> Result<&Tenant, ServeError> {
        self.tenants
            .get(tenant)
            .ok_or_else(|| ServeError::UnknownTenant {
                tenant: tenant.to_string(),
            })
    }

    fn job_mut(&mut self, tenant: &str, job: u64) -> Result<&mut Job, ServeError> {
        let t = self
            .tenants
            .get_mut(tenant)
            .ok_or_else(|| ServeError::UnknownTenant {
                tenant: tenant.to_string(),
            })?;
        t.jobs.get_mut(&job).ok_or_else(|| ServeError::UnknownJob {
            tenant: tenant.to_string(),
            job,
        })
    }

    pub fn status(&self, tenant: &str, job: u64) -> Result<JobStatus, ServeError> {
        let t = self.tenant(tenant)?;
        let j = t.jobs.get(&job).ok_or_else(|| ServeError::UnknownJob {
            tenant: tenant.to_string(),
            job,
        })?;
        Ok(j.status())
    }

    /// The job's current assembled factors `(W, H)` — valid mid-run.
    pub fn factors(&mut self, tenant: &str, job: u64) -> Result<(Mat, Mat), ServeError> {
        let j = self.job_mut(tenant, job)?;
        match &j.model {
            Some(m) => Ok(m.factors()),
            None => Err(ServeError::NotStarted { job }),
        }
    }

    /// Writes a durable checkpoint of the job to a server-side path.
    pub fn checkpoint(&mut self, tenant: &str, job: u64, path: &str) -> Result<(), ServeError> {
        let j = self.job_mut(tenant, job)?;
        match &j.model {
            Some(m) => m.save(path).map_err(|e| ServeError::Remote {
                code: crate::error::ErrorCode::Internal,
                message: e.to_string(),
            }),
            None => Err(ServeError::NotStarted { job }),
        }
    }

    /// Cancels a queued/running job or releases a finished one: the
    /// model (and its rank threads) is dropped and the tenant's byte
    /// quota credited. The job record remains for status queries.
    pub fn cancel(&mut self, tenant: &str, job: u64) -> Result<(), ServeError> {
        let t = self
            .tenants
            .get_mut(tenant)
            .ok_or_else(|| ServeError::UnknownTenant {
                tenant: tenant.to_string(),
            })?;
        let j = t.jobs.get_mut(&job).ok_or_else(|| ServeError::UnknownJob {
            tenant: tenant.to_string(),
            job,
        })?;
        if matches!(j.phase, JobPhase::Queued | JobPhase::Running) {
            j.phase = JobPhase::Cancelled;
        }
        j.model = None;
        j.spec = None;
        j.resume = None;
        j.bytes = 0;
        t.queue.retain(|&q| q != job);
        Ok(())
    }

    pub fn tenant_report(&self, tenant: &str) -> Result<TenantReport, ServeError> {
        let t = self.tenant(tenant)?;
        Ok(TenantReport {
            tenant: tenant.to_string(),
            steps_completed: t.steps_completed,
            jobs_submitted: t.jobs_submitted,
            jobs_finished: t.jobs_finished,
            active_jobs: t.active_jobs() as u64,
            queued_jobs: t.queue.len() as u64,
            resident_bytes: t.resident_bytes() as u64,
            shared_input_bytes: self.shared_input_bytes() as u64,
        })
    }

    /// Resident bytes of the shared dataset cache, deduplicated by
    /// dataset identity: a dataset referenced by every tenant on the
    /// server is counted once.
    pub fn shared_input_bytes(&self) -> usize {
        self.datasets.values().map(|s| s.resident_bytes()).sum()
    }

    /// Distinct datasets currently cached.
    pub fn cached_datasets(&self) -> usize {
        self.datasets.len()
    }

    /// Split borrow for the scheduler's promotion phase: tenants to
    /// walk, dataset cache to resolve specs against.
    pub(crate) fn promotion_parts(&mut self) -> (&mut BTreeMap<String, Tenant>, &mut DatasetCache) {
        (&mut self.tenants, &mut self.datasets)
    }

    /// Total engine steps completed per tenant (for fairness checks and
    /// final reports).
    pub fn steps_by_tenant(&self) -> BTreeMap<String, u64> {
        self.tenants
            .iter()
            .map(|(name, t)| (name.clone(), t.steps_completed))
            .collect()
    }

    /// Whether any tenant has a queued or running (unfinished) job.
    pub fn has_runnable_work(&self) -> bool {
        self.tenants.values().any(|t| {
            !t.queue.is_empty()
                || t.jobs
                    .values()
                    .any(|j| j.phase == JobPhase::Running && !model_done(j))
        })
    }
}

/// Whether a running job's model has reached its end (stop condition or
/// iteration cap).
pub(crate) fn model_done(j: &Job) -> bool {
    j.model.as_ref().is_some_and(|m| m.is_finished())
}

/// Builds the input matrix a job source describes.
pub(crate) fn build_input(source: &JobSource) -> Result<Input, String> {
    match source {
        // `m·n == data.len()`: checked by the frame decoder and at admission.
        JobSource::Dense { m, n, data } => Ok(Input::Dense(Mat::from_vec(*m, *n, data.clone()))),
        JobSource::Dataset { kind, scale, seed } => Ok(DatasetKind::from_name(kind)?
            .build((*scale).max(1), *seed)
            .input),
        JobSource::File { path } => Err(format!(
            "file source {path} resolves through the shared mmap cache, not an inline input"
        )),
    }
}

/// Resolves a job source to the [`SharedInput`] its model reads.
/// Dataset sources build theirs on first use and file sources open the
/// NMFS mmap, both kept in `datasets`; an inline dense payload moves
/// into a fresh one that stays per-job, so its model reads the payload
/// in place and it is freed with the model.
fn shared_for_source(
    source: &JobSource,
    datasets: &mut DatasetCache,
) -> Result<SharedInput, String> {
    use std::collections::hash_map::Entry;
    let key = match source {
        JobSource::Dataset { kind, scale, seed } => (kind.clone(), (*scale).max(1), *seed),
        JobSource::File { path } => (format!("file:{path}"), 0, 0),
        JobSource::Dense { .. } => return Ok(SharedInput::new(build_input(source)?)),
    };
    match datasets.entry(key) {
        Entry::Occupied(e) => Ok(e.get().clone()),
        Entry::Vacant(e) => {
            let shared = match source {
                JobSource::File { path } => {
                    SharedInput::open_mmap(path).map_err(|err| err.to_string())?
                }
                _ => SharedInput::new(build_input(source)?),
            };
            Ok(e.insert(shared).clone())
        }
    }
}

/// Builds the model a spec describes (the promotion step).
///
/// Dataset sources resolve through `datasets`, the server-wide
/// [`DatasetCache`]: the first job naming a dataset builds its
/// [`SharedInput`] (and, via the builder, its sharding); later jobs —
/// any tenant, any rank `k` — reuse the cached blocks through `Arc`
/// clones. An inline dense source gets a `SharedInput` of its own,
/// which its model's blocks are views of.
pub(crate) fn build_model(spec: &JobSpec, datasets: &mut DatasetCache) -> Result<Model, String> {
    let input = shared_for_source(&spec.source, datasets)?;
    let mut b = Nmf::on_shared(&input)
        .rank(spec.k)
        .ranks(spec.ranks)
        .algo(spec.algo)
        .solver(spec.solver)
        .max_iters(spec.max_iters)
        .seed(spec.seed);
    if let Some(t) = spec.tol {
        b = b.tol(t);
    }
    b.build().map_err(|e| e.to_string())
}

/// Builds the model a resume plan describes (the promotion step for
/// resume jobs): read the checkpoint, globalize its factors, and
/// re-shard them onto whatever target the plan carries — the serve-side
/// twin of [`Model::load_regrid_shared`].
pub(crate) fn build_resume_model(
    rs: &ResumeSpec,
    datasets: &mut DatasetCache,
) -> Result<Model, String> {
    let ck = read_checkpoint(Path::new(&rs.ckpt)).map_err(|e| e.to_string())?;
    let mut target = RegridTarget::new();
    if let Some(r) = rs.ranks {
        target = target.ranks(r);
    }
    if let Some(a) = rs.algo {
        target = target.algo(a);
    }
    let input = shared_for_source(&rs.source, datasets)?;
    let mut b = Nmf::resume_from(ck, &input).target(target);
    if let Some(iters) = rs.max_iters {
        b = b.max_iters(iters);
    }
    b.build().map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use nmf_nls::SolverKind;

    pub(crate) fn tiny_spec(m: usize, n: usize, k: usize, iters: usize) -> JobSpec {
        JobSpec {
            source: JobSource::Dense {
                m,
                n,
                data: (0..m * n).map(|i| (i % 7) as f64 + 0.5).collect(),
            },
            k,
            ranks: 1,
            algo: Algo::Sequential,
            solver: SolverKind::Bpp,
            max_iters: iters,
            seed: 3,
            tol: None,
        }
    }

    #[test]
    fn admission_queues_beyond_concurrency_and_rejects_beyond_queue() {
        let quota = TenantQuota {
            max_concurrent_jobs: 2,
            max_queued_jobs: 1,
            ..TenantQuota::default()
        };
        let mut reg = Registry::new(quota, 16);
        let (j1, q1) = reg.submit("acme", tiny_spec(12, 8, 2, 4)).expect("admit");
        let (_j2, q2) = reg.submit("acme", tiny_spec(12, 8, 2, 4)).expect("admit");
        let (_j3, q3) = reg.submit("acme", tiny_spec(12, 8, 2, 4)).expect("queue");
        assert!(!q1 && !q2, "first two start immediately");
        assert!(q3, "third queues");
        let err = reg
            .submit("acme", tiny_spec(12, 8, 2, 4))
            .expect_err("fourth rejected");
        assert!(matches!(err, ServeError::QuotaJobs { .. }), "{err}");
        // Another tenant is unaffected.
        reg.submit("zen", tiny_spec(12, 8, 2, 4)).expect("admit");
        // Cancelling a queued job frees the queue slot.
        reg.cancel("acme", j1).expect("cancel");
        reg.submit("acme", tiny_spec(12, 8, 2, 4))
            .expect("slot freed");
    }

    #[test]
    fn admission_rejects_over_byte_quota_with_projection() {
        let quota = TenantQuota {
            max_resident_bytes: 8 * (12 + 8) * 2 + 10, // one tiny job fits
            ..TenantQuota::default()
        };
        let mut reg = Registry::new(quota, 16);
        reg.submit("acme", tiny_spec(12, 8, 2, 4)).expect("fits");
        // Queued jobs reserve bytes: the second submit is over quota
        // even though the first has not built yet.
        let err = reg
            .submit("acme", tiny_spec(12, 8, 2, 4))
            .expect_err("over byte quota");
        match err {
            ServeError::QuotaBytes {
                resident, limit, ..
            } => {
                assert_eq!(resident, 8 * (12 + 8) * 2);
                assert_eq!(limit, 8 * (12 + 8) * 2 + 10);
            }
            other => panic!("expected QuotaBytes, got {other}"),
        }
    }

    #[test]
    fn an_overflowing_projection_is_over_quota_not_a_wrapped_zero() {
        // `8·(2+3)·2^61` wraps to 0: unchecked, that is an overflow
        // panic on the serve core thread in a debug build and a job
        // that walks through the byte quota in release.
        use crate::protocol::Request;
        let frame = Request::Submit {
            tenant: "acme".into(),
            spec: JobSpec {
                k: 1 << 61,
                ..tiny_spec(2, 3, 2, 4)
            },
        }
        .encode();
        let Ok(Request::Submit { tenant, spec }) = Request::decode(&frame) else {
            panic!("own encoding decodes")
        };
        let mut reg = Registry::new(TenantQuota::default(), 16);
        reg.submit(&tenant, tiny_spec(12, 8, 2, 4)).expect("fits");
        let err = reg.submit(&tenant, spec).expect_err("refused");
        assert!(
            matches!(
                err,
                ServeError::QuotaBytes {
                    requested: usize::MAX,
                    ..
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn rank_cap_and_unknown_dataset_are_typed_rejections() {
        let mut reg = Registry::new(TenantQuota::default(), 4);
        let mut spec = tiny_spec(12, 8, 2, 4);
        spec.ranks = 64;
        let err = reg.submit("acme", spec).expect_err("rank cap");
        assert!(matches!(err, ServeError::BuildFailed { .. }), "{err}");
        let err = reg
            .submit(
                "acme",
                JobSpec {
                    source: JobSource::Dataset {
                        kind: "nope".into(),
                        scale: 100,
                        seed: 1,
                    },
                    ..tiny_spec(12, 8, 2, 4)
                },
            )
            .expect_err("unknown dataset");
        assert!(err.to_string().contains("unknown dataset"), "{err}");
        // An inline matrix that never was a frame is checked here, not
        // by `Mat::from_vec` on the scheduler's time.
        let mut short = tiny_spec(12, 8, 2, 4);
        if let JobSource::Dense { data, .. } = &mut short.source {
            data.pop();
        }
        let err = reg.submit("acme", short).expect_err("short array");
        assert!(matches!(err, ServeError::BuildFailed { .. }), "{err}");
    }

    #[test]
    fn unknown_names_are_typed() {
        let mut reg = Registry::new(TenantQuota::default(), 16);
        assert!(matches!(
            reg.status("ghost", 1),
            Err(ServeError::UnknownTenant { .. })
        ));
        reg.submit("acme", tiny_spec(12, 8, 2, 4)).expect("admit");
        assert!(matches!(
            reg.status("acme", 99),
            Err(ServeError::UnknownJob { .. })
        ));
        assert!(matches!(
            reg.factors("acme", 1),
            Err(ServeError::NotStarted { .. })
        ));
    }
}
