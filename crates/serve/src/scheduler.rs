//! Fair batched stepping: the policy that shares one machine's compute
//! among every tenant's runnable jobs.
//!
//! Time is divided into **quanta**. One call to
//! [`Scheduler::run_quantum`] performs one quantum:
//!
//! 1. **Promotion** — queued jobs are built into live models while their
//!    tenant has free concurrency slots (build failures become
//!    [`JobPhase::Failed`] without consuming a slot).
//! 2. **Stepping** — tenants are visited round-robin (the starting
//!    tenant rotates every quantum so no name-ordering bias
//!    accumulates). Each tenant gets a step budget of
//!    `quota.steps_per_quantum`; the budget is spent over the tenant's
//!    runnable jobs in round-robin grants of at most
//!    [`SchedulerConfig::grant_steps`] engine iterations via
//!    `Model::step_up_to`, the bounded stepping primitive.
//!
//! Fairness falls out of the budget: a tenant saturating the server
//! with many long jobs completes at most `steps_per_quantum` iterations
//! per quantum — the same as a tenant with a single job — so every
//! tenant's completed-steps share stays within a constant factor of
//! fair share while it has runnable work (asserted by
//! `tests/fairness.rs`). Models are stepped one at a time, so the only
//! runnable threads during an engine iteration are that model's ranks
//! (a rank is a thread; the kernels inside it are serial) — tenants do
//! not fight each other for cores mid-GEMM.

use crate::protocol::JobPhase;
use crate::registry::{build_model, build_resume_model, model_done, Registry};

/// Scheduler tuning.
#[derive(Clone, Copy, Debug)]
pub struct SchedulerConfig {
    /// Max engine iterations granted to one job before the scheduler
    /// moves on to the next runnable job (the batch size of batched
    /// stepping). Larger grants amortize scheduling overhead; smaller
    /// grants tighten latency for everyone else.
    pub grant_steps: usize,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig { grant_steps: 4 }
    }
}

/// What one quantum accomplished (all counters are this-quantum only).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QuantumReport {
    /// Engine iterations executed across all tenants.
    pub steps: usize,
    /// Jobs that received at least one step.
    pub jobs_stepped: usize,
    /// Queued jobs promoted to running models.
    pub jobs_promoted: usize,
    /// Jobs that reached their stop condition.
    pub jobs_finished: usize,
    /// Promotions whose model build failed.
    pub jobs_failed: usize,
}

impl QuantumReport {
    /// Whether the quantum did anything at all — `false` means the
    /// server can sleep until the next request.
    pub fn did_work(&self) -> bool {
        self.steps > 0 || self.jobs_promoted > 0 || self.jobs_failed > 0
    }
}

/// The round-robin scheduler. Holds only rotation state; all job state
/// lives in the [`Registry`].
#[derive(Default)]
pub struct Scheduler {
    config: SchedulerConfig,
    /// Rotates the tenant visiting order across quanta.
    rotation: usize,
}

impl Scheduler {
    pub fn new(config: SchedulerConfig) -> Scheduler {
        Scheduler {
            config,
            rotation: 0,
        }
    }

    /// Runs one scheduling quantum over the registry. See the [module
    /// docs](self) for the two phases.
    pub fn run_quantum(&mut self, reg: &mut Registry) -> QuantumReport {
        let mut report = QuantumReport::default();
        self.promote(reg, &mut report);
        self.step_tenants(reg, &mut report);
        self.rotation = self.rotation.wrapping_add(1);
        report
    }

    /// Builds queued jobs into running models while slots are free.
    fn promote(&mut self, reg: &mut Registry, report: &mut QuantumReport) {
        let (tenants, datasets) = reg.promotion_parts();
        for tenant in tenants.values_mut() {
            while tenant.active_jobs() < tenant.quota.max_concurrent_jobs {
                let Some(&job_id) = tenant.queue.front() else {
                    break;
                };
                tenant.queue.pop_front();
                let job = tenant.jobs.get_mut(&job_id).expect("queued job exists");
                let built = if let Some(spec) = job.spec.take() {
                    build_model(&spec, datasets)
                } else if let Some(rs) = job.resume.take() {
                    build_resume_model(&rs, datasets)
                } else {
                    Err("queued job has neither a spec nor a resume plan".to_string())
                };
                match built {
                    Ok(model) => {
                        job.bytes = model.factor_bytes();
                        job.model = Some(model);
                        job.phase = JobPhase::Running;
                        report.jobs_promoted += 1;
                    }
                    Err(reason) => {
                        job.phase = JobPhase::Failed;
                        job.error = Some(reason);
                        job.bytes = 0;
                        report.jobs_failed += 1;
                    }
                }
            }
        }
    }

    /// Spends each tenant's step budget over its runnable jobs.
    fn step_tenants(&mut self, reg: &mut Registry, report: &mut QuantumReport) {
        let names: Vec<String> = reg.tenants.keys().cloned().collect();
        if names.is_empty() {
            return;
        }
        let start = self.rotation % names.len();
        for i in 0..names.len() {
            let tenant = reg
                .tenants
                .get_mut(&names[(start + i) % names.len()])
                .expect("tenant listed");
            let mut budget = tenant.quota.steps_per_quantum;
            let runnable: Vec<u64> = tenant
                .jobs
                .values()
                .filter(|j| j.phase == JobPhase::Running && !model_done(j))
                .map(|j| j.id)
                .collect();
            if runnable.is_empty() {
                continue;
            }
            // Rotate which of the tenant's jobs drinks first, then hand
            // out bounded grants until the budget (or the work) runs dry.
            let offset = tenant.rr_offset % runnable.len();
            tenant.rr_offset = tenant.rr_offset.wrapping_add(1);
            let mut idx = 0;
            let mut dry = 0;
            while budget > 0 && dry < runnable.len() {
                let job_id = runnable[(offset + idx) % runnable.len()];
                idx += 1;
                let job = tenant.jobs.get_mut(&job_id).expect("runnable job exists");
                if model_done(job) {
                    dry += 1;
                    continue;
                }
                let grant = self.config.grant_steps.min(budget);
                let model = job.model.as_mut().expect("running job has a model");
                let progress = model.step_up_to(grant);
                budget -= progress.steps_run;
                job.steps_done += progress.steps_run as u64;
                tenant.steps_completed += progress.steps_run as u64;
                report.steps += progress.steps_run;
                if progress.steps_run > 0 {
                    report.jobs_stepped += 1;
                    dry = 0;
                } else {
                    dry += 1;
                }
                if model.is_finished() {
                    job.phase = JobPhase::Finished;
                    job.stop = progress.stop;
                    tenant.jobs_finished += 1;
                    report.jobs_finished += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{JobSource, JobSpec};
    use crate::registry::TenantQuota;
    use hpc_nmf::Algo;
    use nmf_nls::SolverKind;

    fn spec(iters: usize) -> JobSpec {
        JobSpec {
            source: JobSource::Dense {
                m: 16,
                n: 12,
                data: (0..16 * 12).map(|i| (i % 5) as f64 + 0.25).collect(),
            },
            k: 3,
            ranks: 1,
            algo: Algo::Sequential,
            solver: SolverKind::Bpp,
            max_iters: iters,
            seed: 11,
            tol: None,
        }
    }

    #[test]
    fn quantum_promotes_steps_and_finishes() {
        let quota = TenantQuota {
            steps_per_quantum: 4,
            ..TenantQuota::default()
        };
        let mut reg = Registry::new(quota, 4);
        let (job, queued) = reg.submit("acme", spec(6)).expect("admit");
        assert!(!queued);
        let mut sched = Scheduler::new(SchedulerConfig { grant_steps: 4 });
        let r1 = sched.run_quantum(&mut reg);
        assert_eq!(r1.jobs_promoted, 1);
        assert_eq!(r1.steps, 4, "budget caps the first quantum: {r1:?}");
        let r2 = sched.run_quantum(&mut reg);
        assert_eq!(r2.jobs_finished, 1, "{r2:?}");
        let st = reg.status("acme", job).expect("status");
        assert_eq!(st.phase, JobPhase::Finished);
        assert_eq!(st.iterations, 6);
        assert_eq!(st.stop.as_deref(), Some("max_iters"));
        // Idle now.
        assert!(!sched.run_quantum(&mut reg).did_work());
        assert!(!reg.has_runnable_work());
    }

    #[test]
    fn build_failure_becomes_failed_phase_not_a_crash() {
        let mut reg = Registry::new(TenantQuota::default(), 4);
        let mut bad = spec(4);
        bad.k = 999; // > min(m, n): the session builder rejects this
        let (job, _) = reg.submit("acme", bad).expect("admission is shape-blind");
        let mut sched = Scheduler::new(SchedulerConfig::default());
        let r = sched.run_quantum(&mut reg);
        assert_eq!(r.jobs_failed, 1);
        let st = reg.status("acme", job).expect("status");
        assert_eq!(st.phase, JobPhase::Failed);
        assert!(
            st.error.as_deref().is_some_and(|e| e.contains("rank")),
            "{st:?}"
        );
        assert_eq!(st.resident_bytes, 0, "failed jobs hold no quota");
    }

    #[test]
    fn per_tenant_budget_caps_a_many_job_tenant() {
        let quota = TenantQuota {
            max_concurrent_jobs: 8,
            steps_per_quantum: 6,
            ..TenantQuota::default()
        };
        let mut reg = Registry::new(quota, 4);
        for _ in 0..6 {
            reg.submit("hog", spec(50)).expect("admit");
        }
        reg.submit("mouse", spec(50)).expect("admit");
        let mut sched = Scheduler::new(SchedulerConfig { grant_steps: 2 });
        for _ in 0..5 {
            sched.run_quantum(&mut reg);
        }
        let steps = reg.steps_by_tenant();
        assert_eq!(
            steps["hog"], steps["mouse"],
            "equal budgets → equal completed steps while both saturate: {steps:?}"
        );
    }
}
