//! The middleware driver: runs a multi-job computation under a strategy.
//!
//! This is the paper's "middleware program" (§IV-A): it submits jobs in
//! dependency order, watches for irreversible data loss, cancels broken
//! jobs, plans and executes cascading recomputation (RCMP), restarts the
//! chain (OPTIMISTIC / exhausted replication), and places replication
//! points (hybrid). Nested failures — new losses during recovery — are
//! handled by replanning from current cluster state, exactly as §IV-A
//! describes ("If a new failure occurs while RCMP is recovering from a
//! previous one, RCMP's behavior remains unchanged").

use crate::dag::JobGraph;
use crate::dynamic::{AdaptationStep, AdaptivePolicy, FaultObserver};
use crate::events::{ChainEvent, EventLog};
use crate::planner::plan_recovery;
use crate::reclaim::reclaim_before;
use crate::strategy::{HotspotMitigation, SplitPolicy, Strategy};
use rcmp_engine::{
    Cluster, FailureInjector, JobReport, JobRun, JobSpec, JobTracker, NoFailures,
    RecomputeInstructions, RunMode,
};
use rcmp_model::rng::derive_indexed;
use rcmp_model::{Error, JobId, Result};
use rcmp_obs::{BlackboxDump, EventCode, Gauge, PhaseBreakdown, PhaseKind, SpanKind};
use std::sync::Arc;

/// How a cancelled job is re-run once its input is restored.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RestartMode {
    /// Re-run the whole job, discarding partial results — the paper's
    /// implementation ("for simplicity, for the job during which the
    /// failure occurs, RCMP currently discards the partial results").
    Discard,
    /// Resume: re-run only the lost/unfinished partitions, reusing the
    /// job's surviving persisted map outputs — the improvement the paper
    /// describes as the ideal behaviour (§V-A).
    ResumePartial,
}

/// Result of driving a chain to completion.
#[derive(Debug, Default)]
pub struct ChainOutcome {
    /// Every job run executed, in submission order (including
    /// recomputations and restarts).
    pub runs: Vec<JobReport>,
    pub events: EventLog,
    /// Total job runs started — the paper's job numbering (§V-A: a
    /// 7-job chain with a late failure starts 14 jobs).
    pub jobs_started: u64,
    /// Whole-chain restarts (OPTIMISTIC, exhausted replication).
    pub restarts: u32,
    /// The adaptive policy's decision after each completed chain job
    /// (empty unless the strategy is [`Strategy::AdaptiveHybrid`]).
    pub adaptation: Vec<AdaptationStep>,
    /// Whole-chain phase time-budget (the Fig.-7-style decomposition),
    /// snapshotted from the cluster profiler when the chain completes.
    pub phases: PhaseBreakdown,
    /// Per-run phase deltas: `(seq, what that run added to the
    /// budget)`, in submission order, successful runs only.
    pub job_phases: Vec<(u64, PhaseBreakdown)>,
}

impl ChainOutcome {
    /// Sum of mapper tasks actually executed across all runs.
    pub fn total_map_tasks(&self) -> usize {
        self.runs.iter().map(|r| r.map_tasks_run).sum()
    }

    /// Sum of reduce tasks actually executed across all runs.
    pub fn total_reduce_tasks(&self) -> usize {
        self.runs.iter().map(|r| r.reduce_tasks_run).sum()
    }

    /// Aggregated I/O over all runs.
    pub fn total_io(&self) -> rcmp_engine::IoBytes {
        self.runs.iter().map(|r| r.io).sum()
    }
}

/// Drives one multi-job computation on a cluster.
pub struct ChainDriver<'a> {
    cluster: &'a Cluster,
    injector: Arc<dyn FailureInjector>,
    strategy: Strategy,
    restart_mode: RestartMode,
    /// Chain key for post-mortems: blackbox dumps are parked on the
    /// cluster (and written to `RCMP_BLACKBOX_DIR`) under this label so
    /// concurrent chains never clobber each other's dumps.
    chain_label: String,
    /// Tenant attribution for the job service: stamped on every
    /// `JobRun` span this chain produces.
    tenant: Option<rcmp_model::TenantId>,
    /// Per-chain wave-executor session override (leased from the job
    /// service's global worker budget). `None` uses the cluster's
    /// shared executor.
    executor: Option<Arc<rcmp_exec::AsyncExecutor>>,
    /// Pre-resolved adaptation gauges: [`Self::publish_adaptation`]
    /// runs once per completed chain job, potentially with a wave in
    /// flight elsewhere, so it must never resolve by name.
    g_failure_rate: Gauge,
    g_k_current: Gauge,
}

/// Feeds observed faults into the closed-loop estimator, when the
/// strategy runs one.
fn observe_faults(adaptive: &mut Option<AdaptivePolicy>, faults: u32) {
    if faults > 0 {
        if let Some(policy) = adaptive.as_mut() {
            policy.record_fault(faults);
        }
    }
}

impl<'a> ChainDriver<'a> {
    pub fn new(cluster: &'a Cluster, strategy: Strategy) -> Self {
        let metrics = cluster.metrics();
        Self {
            cluster,
            injector: Arc::new(NoFailures),
            strategy,
            restart_mode: RestartMode::Discard,
            chain_label: "chain".to_string(),
            tenant: None,
            executor: None,
            g_failure_rate: metrics.gauge("policy.failure_rate_est"),
            g_k_current: metrics.gauge("policy.k_current"),
        }
    }

    pub fn with_injector(mut self, injector: Arc<dyn FailureInjector>) -> Self {
        self.injector = injector;
        self
    }

    pub fn with_restart_mode(mut self, mode: RestartMode) -> Self {
        self.restart_mode = mode;
        self
    }

    /// Keys this chain's post-mortem dumps (cluster slot and the
    /// `RCMP_BLACKBOX_DIR` file name). The label must be filesystem-safe;
    /// path separators are replaced with `-` when writing the file.
    pub fn with_chain_label(mut self, label: impl Into<String>) -> Self {
        self.chain_label = label.into();
        self
    }

    /// Attributes every job run of this chain to a tenant (job-service
    /// chains): the tag lands on `JobRun` spans for per-tenant analysis.
    pub fn with_tenant(mut self, tenant: rcmp_model::TenantId) -> Self {
        self.tenant = Some(tenant);
        self
    }

    /// Runs this chain's waves on a dedicated executor session instead
    /// of the cluster's shared executor (the job service leases one per
    /// admitted chain from its global worker budget).
    pub fn with_executor(mut self, executor: Arc<rcmp_exec::AsyncExecutor>) -> Self {
        self.executor = Some(executor);
        self
    }

    /// Runs the computation to completion.
    ///
    /// Every typed-error exit captures a post-mortem [`BlackboxDump`]
    /// first — the most recent flight-recorder events, the causal
    /// fault → loss → plan → recompute lineage, a metric snapshot and
    /// the phase time-budget — and parks it on the cluster for
    /// [`Cluster::take_blackbox`] under this driver's chain label. Set
    /// `RCMP_BLACKBOX_DIR` to also write the dump as
    /// `rcmp-blackbox-<label>.json` in that directory, so concurrent
    /// chains' dumps never overwrite each other.
    pub fn run(&self, specs: &[JobSpec]) -> Result<ChainOutcome> {
        self.run_chain(specs).inspect_err(|e| {
            let dump = BlackboxDump::capture(
                e.to_string(),
                self.cluster.recorder(),
                &self.cluster.tracer().snapshot(),
                self.cluster.metrics().snapshot(),
                self.cluster.profiler().snapshot(),
            );
            if let Ok(dir) = std::env::var("RCMP_BLACKBOX_DIR") {
                // Best-effort: a failed dump write must not mask the
                // chain error itself.
                let file = format!(
                    "rcmp-blackbox-{}.json",
                    self.chain_label.replace(['/', '\\'], "-")
                );
                let _ = std::fs::write(std::path::Path::new(&dir).join(file), dump.to_json());
            }
            self.cluster.store_blackbox(&self.chain_label, dump);
        })
    }

    fn run_chain(&self, specs: &[JobSpec]) -> Result<ChainOutcome> {
        let graph = JobGraph::new(specs.iter().cloned())?;
        let order = graph.submission_order()?;
        let mut tracker = JobTracker::new(self.cluster, self.injector.clone());
        if let Some(t) = self.tenant {
            tracker = tracker.with_tenant(t);
        }
        if let Some(e) = &self.executor {
            tracker = tracker.with_executor(e.clone());
        }
        let mut outcome = ChainOutcome {
            events: EventLog::with_tracer(self.cluster.tracer().clone()),
            ..ChainOutcome::default()
        };
        let replication = self.strategy.output_replication();
        let persist = self.strategy.persists_outputs();

        let max_attempts = self.cluster.config().max_recovery_attempts;
        // The closed loop (§IV-C future work): survives chain restarts
        // so the failure-intensity estimate keeps everything observed.
        let mut adaptive: Option<AdaptivePolicy> = match self.strategy {
            Strategy::AdaptiveHybrid { adapt, .. } => Some(AdaptivePolicy::new(adapt)),
            _ => None,
        };
        let mut attempts = 0u32;
        'chain: loop {
            attempts += 1;
            if attempts > max_attempts {
                return Err(Error::RecoveryExhausted {
                    job: *order.last().expect("non-empty chain"),
                    attempts,
                    reason: "too many chain restarts".into(),
                });
            }
            let mut idx = 0usize;
            let mut resume_job: Option<JobId> = None;
            let mut jobs_since_point = 0u32;
            // Bounds the cancel → recover → retry-same-job cycle: a
            // scenario where recovery keeps "succeeding" but the job
            // keeps losing its input again must end in a typed error,
            // not a livelock.
            let mut job_recoveries = 0u32;
            while idx < order.len() {
                let job = order[idx];
                let mut spec = graph.spec(job).expect("job in graph").clone();
                spec.output_replication = replication;

                outcome.jobs_started += 1;
                let seq = outcome.jobs_started;
                let run = self.build_run(&spec, resume_job == Some(job), persist)?;
                outcome.events.push(ChainEvent::JobStarted {
                    seq,
                    job,
                    recompute: run.mode.is_recompute(),
                });
                resume_job = None;

                let live_before = self.cluster.live_nodes();
                let phases_before = self.cluster.profiler().snapshot();
                match tracker.run(&run, seq) {
                    Ok(report) => {
                        outcome.job_phases.push((
                            seq,
                            self.cluster.profiler().snapshot().delta(&phases_before),
                        ));
                        let faults = self.record_losses(seq, &report, &mut outcome);
                        observe_faults(&mut adaptive, faults);
                        outcome.events.push(ChainEvent::JobCompleted {
                            seq,
                            job,
                            map_tasks_run: report.map_tasks_run,
                            map_tasks_reused: report.map_tasks_reused,
                            reduce_tasks_run: report.reduce_tasks_run,
                        });
                        outcome.runs.push(report);
                        self.maybe_replicate(
                            &graph,
                            &order,
                            idx,
                            seq,
                            &mut jobs_since_point,
                            &mut adaptive,
                            &mut outcome,
                        )?;
                        idx += 1;
                    }
                    Err(Error::JobInputLost { .. }) => {
                        let faults =
                            self.record_losses_by_diff(seq, &live_before, &graph, &mut outcome);
                        observe_faults(&mut adaptive, faults);
                        outcome.events.push(ChainEvent::JobCancelled { seq, job });
                        job_recoveries += 1;
                        if job_recoveries > max_attempts {
                            return Err(Error::RecoveryExhausted {
                                job,
                                attempts: job_recoveries,
                                reason: "job kept losing its input after recovery".into(),
                            });
                        }
                        // Seeded full-jitter backoff before another
                        // cancel → recover → retry cycle of the same
                        // job, so repeated cycles don't hammer a flaky
                        // path in lockstep.
                        let retry = self.cluster.config().retry;
                        let delay = retry.backoff_ms(
                            derive_indexed(
                                self.cluster.config().seed,
                                "chain-backoff",
                                u64::from(job.0),
                            ),
                            job_recoveries,
                        );
                        if delay > 0 {
                            std::thread::sleep(std::time::Duration::from_millis(delay));
                        }
                        match self.strategy {
                            Strategy::Optimistic | Strategy::Replication { .. } => {
                                // OPTIMISTIC discards everything and
                                // restarts; exhausted replication has no
                                // choice but the same (§V-B "More
                                // failures").
                                self.wipe_outputs(&graph, &order)?;
                                outcome.restarts += 1;
                                outcome.events.push(ChainEvent::ChainRestarted);
                                continue 'chain;
                            }
                            Strategy::Rcmp { split, hotspot } => {
                                self.recover(
                                    &tracker,
                                    &graph,
                                    job,
                                    split,
                                    hotspot,
                                    persist,
                                    &mut adaptive,
                                    &mut outcome,
                                )?;
                                resume_job = Some(job);
                            }
                            Strategy::Hybrid { split, .. }
                            | Strategy::DynamicHybrid { split, .. }
                            | Strategy::AdaptiveHybrid { split, .. } => {
                                self.recover(
                                    &tracker,
                                    &graph,
                                    job,
                                    split,
                                    HotspotMitigation::SplitReducers,
                                    persist,
                                    &mut adaptive,
                                    &mut outcome,
                                )?;
                                resume_job = Some(job);
                            }
                        }
                        // retry same idx
                    }
                    Err(e) => return Err(e),
                }
            }
            // A strict injector surfaces scripted triggers that never
            // fired — a scenario that silently tested nothing.
            if let Err(msg) = self.injector.finish() {
                return Err(Error::Config(format!("failure injector: {msg}")));
            }
            outcome.phases = self.cluster.profiler().snapshot();
            return Ok(outcome);
        }
    }

    /// Builds the submission for a (re)run of a job at the head of the
    /// chain loop.
    fn build_run(&self, spec: &JobSpec, retry: bool, persist: bool) -> Result<JobRun> {
        if retry {
            // A retried job re-derives its output from the DFS ground
            // truth. Drop any chain-cached partitions of the previous
            // attempt up front — the hash guard on cache reads would
            // catch stale bytes anyway, but a cancelled run's failure
            // may have raced the per-hook invalidations, and the resume
            // decision below must not be able to observe cache state
            // that DFS metadata no longer backs.
            if let Some(cache) = self.cluster.dfs().chain_cache() {
                cache.invalidate_file(&spec.output);
            }
        }
        let mode = if retry
            && self.restart_mode == RestartMode::ResumePartial
            && self.cluster.dfs().file_exists(&spec.output)
        {
            // Resume: only the partitions that are lost or were never
            // written, reusing surviving persisted map outputs.
            let meta = self.cluster.dfs().file_meta(&spec.output)?;
            let partitions: Vec<_> = meta
                .partitions
                .iter()
                .filter(|p| p.is_lost() || !p.is_written())
                .map(|p| p.id)
                .collect();
            if partitions.is_empty() {
                // Everything survived; nothing to do, but Full would
                // wipe it. Run a no-op recompute of zero partitions.
                RunMode::Recompute(RecomputeInstructions::empty())
            } else {
                RunMode::Recompute(RecomputeInstructions::new(partitions, None))
            }
        } else {
            RunMode::Full
        };
        Ok(JobRun {
            spec: spec.clone(),
            mode,
            persist_map_outputs: persist,
        })
    }

    /// Returns the number of loss records observed (one per failed
    /// node), which is what feeds the adaptive estimator.
    fn record_losses(&self, seq: u64, report: &JobReport, outcome: &mut ChainOutcome) -> u32 {
        for loss in &report.losses {
            outcome.events.push(ChainEvent::LossObserved {
                seq,
                node: loss.node,
                lost_partitions: loss.lost_partition_count(),
            });
        }
        report.losses.len() as u32
    }

    /// A cancelled run's report (and its loss records) is consumed by
    /// the error path, so losses behind a cancellation are recovered by
    /// diffing node liveness around the run. `lost_partitions` reports
    /// the *currently* lost partitions across the computation's files.
    fn record_losses_by_diff(
        &self,
        seq: u64,
        live_before: &[rcmp_model::NodeId],
        graph: &JobGraph,
        outcome: &mut ChainOutcome,
    ) -> u32 {
        let lost_now: usize = graph
            .jobs()
            .filter_map(|(_, spec)| self.cluster.dfs().file_meta(&spec.output).ok())
            .map(|m| m.lost_partitions().len())
            .sum();
        let mut observed = 0u32;
        for &node in live_before {
            if !self.cluster.is_alive(node) {
                outcome.events.push(ChainEvent::LossObserved {
                    seq,
                    node: Some(node),
                    lost_partitions: lost_now,
                });
                observed += 1;
            }
        }
        observed
    }

    /// Hybrid replication points: static modulus (§IV-C), the dynamic
    /// expected-cost policy, or the closed-loop adaptive policy (§IV-C
    /// future work).
    #[allow(clippy::too_many_arguments)]
    fn maybe_replicate(
        &self,
        graph: &JobGraph,
        order: &[JobId],
        idx: usize,
        seq: u64,
        jobs_since_point: &mut u32,
        adaptive: &mut Option<AdaptivePolicy>,
        outcome: &mut ChainOutcome,
    ) -> Result<()> {
        let (factor, reclaim, due) = match self.strategy {
            Strategy::Hybrid {
                every_k,
                factor,
                reclaim,
                ..
            } => {
                let position = idx as u32 + 1;
                (
                    factor,
                    reclaim,
                    every_k != 0 && position.is_multiple_of(every_k),
                )
            }
            Strategy::DynamicHybrid {
                factor,
                policy,
                reclaim,
                ..
            } => {
                *jobs_since_point += 1;
                (factor, reclaim, policy.should_replicate(*jobs_since_point))
            }
            Strategy::AdaptiveHybrid {
                factor, reclaim, ..
            } => {
                let policy = adaptive.as_mut().expect("AdaptiveHybrid carries a policy");
                let due = policy.job_completed();
                let step = *policy
                    .trajectory()
                    .last()
                    .expect("job_completed records a step");
                outcome.adaptation.push(step);
                self.publish_adaptation(seq, &step);
                (factor, reclaim, due)
            }
            _ => return Ok(()),
        };
        if !due {
            return Ok(());
        }
        *jobs_since_point = 0;
        let job = order[idx];
        let spec = graph.spec(job).expect("job in graph");
        self.cluster.dfs().replicate_file(&spec.output, factor)?;
        outcome
            .events
            .push(ChainEvent::ReplicationPoint { job, factor });
        if reclaim {
            let stats = reclaim_before(self.cluster, graph, job)?;
            outcome.events.push(ChainEvent::StorageReclaimed {
                files_deleted: stats.files_deleted,
                map_entries_dropped: stats.map_entries_dropped,
            });
        }
        Ok(())
    }

    /// Publishes one adaptive decision to the observability layer:
    /// gauges for dashboards, and an `AdaptationPoint` instant span
    /// whose `cause` is the fault lineage that moved the estimate.
    fn publish_adaptation(&self, seq: u64, step: &AdaptationStep) {
        let rate_ppm = (step.rate * 1e6).round();
        self.g_failure_rate.set(rate_ppm as i64);
        // `0` encodes "never replicate" — a real interval is ≥ 1.
        self.g_k_current.set(step.interval.map_or(0, i64::from));
        if step.switched {
            self.cluster.recorder().record(
                EventCode::CadenceSwitched,
                None,
                seq,
                u64::from(step.interval.unwrap_or(0)),
            );
        }
        let tracer = self.cluster.tracer();
        tracer.instant(
            SpanKind::AdaptationPoint {
                seq,
                rate_ppm: rate_ppm as u64,
                interval: step.interval,
                switched: step.switched,
            },
            None,
            tracer.current_cause(),
            None,
        );
    }

    /// Executes cascading recomputation until `target`'s input is whole,
    /// replanning after nested failures.
    #[allow(clippy::too_many_arguments)]
    fn recover(
        &self,
        tracker: &JobTracker<'_>,
        graph: &JobGraph,
        target: JobId,
        split: SplitPolicy,
        hotspot: HotspotMitigation,
        persist: bool,
        adaptive: &mut Option<AdaptivePolicy>,
        outcome: &mut ChainOutcome,
    ) -> Result<()> {
        let max_attempts = self.cluster.config().max_recovery_attempts;
        for _attempt in 0..max_attempts {
            let plan = {
                let _timer = self.cluster.profiler().span(PhaseKind::RecoveryPlanning);
                plan_recovery(self.cluster, graph, target, split, hotspot)?
            };
            self.cluster.recorder().record(
                EventCode::RecoveryPlanned,
                None,
                plan.steps.len() as u64,
                plan.partition_count() as u64,
            );
            outcome.events.push(ChainEvent::RecoveryPlanned {
                target,
                steps: plan.steps.len(),
                partitions: plan.partition_count(),
            });
            if plan.is_empty() {
                return Ok(());
            }
            let mut nested = false;
            for step in plan.steps {
                let mut spec = graph.spec(step.job).expect("job in graph").clone();
                spec.output_replication = 1;
                outcome.jobs_started += 1;
                let seq = outcome.jobs_started;
                outcome.events.push(ChainEvent::JobStarted {
                    seq,
                    job: step.job,
                    recompute: true,
                });
                let run = JobRun {
                    spec,
                    mode: RunMode::Recompute(step.instructions),
                    persist_map_outputs: persist,
                };
                self.cluster.recorder().record(
                    EventCode::RecomputeStarted,
                    None,
                    seq,
                    u64::from(step.job.0),
                );
                let live_before = self.cluster.live_nodes();
                let phases_before = self.cluster.profiler().snapshot();
                match tracker.run(&run, seq) {
                    Ok(report) => {
                        outcome.job_phases.push((
                            seq,
                            self.cluster.profiler().snapshot().delta(&phases_before),
                        ));
                        let had_losses = !report.losses.is_empty();
                        let faults = self.record_losses(seq, &report, outcome);
                        observe_faults(adaptive, faults);
                        outcome.events.push(ChainEvent::JobCompleted {
                            seq,
                            job: step.job,
                            map_tasks_run: report.map_tasks_run,
                            map_tasks_reused: report.map_tasks_reused,
                            reduce_tasks_run: report.reduce_tasks_run,
                        });
                        outcome.runs.push(report);
                        if had_losses {
                            // A nested failure may have invalidated the
                            // rest of the plan: replan from state.
                            nested = true;
                            break;
                        }
                    }
                    Err(Error::JobInputLost { .. }) => {
                        let faults = self.record_losses_by_diff(seq, &live_before, graph, outcome);
                        observe_faults(adaptive, faults);
                        outcome
                            .events
                            .push(ChainEvent::JobCancelled { seq, job: step.job });
                        nested = true;
                        break;
                    }
                    Err(e) => return Err(e),
                }
            }
            if !nested {
                return Ok(());
            }
        }
        Err(Error::RecoveryExhausted {
            job: target,
            attempts: max_attempts,
            reason: "nested-failure recovery did not converge".into(),
        })
    }

    /// OPTIMISTIC restart: drop every produced output and persisted map
    /// output; the chain starts over from the (replicated) input.
    fn wipe_outputs(&self, graph: &JobGraph, order: &[JobId]) -> Result<()> {
        for &job in order {
            let spec = graph.spec(job).expect("job in graph");
            if self.cluster.dfs().file_exists(&spec.output) {
                self.cluster.dfs().delete_file(&spec.output)?;
            }
            self.cluster.map_outputs().clear_job(job);
        }
        Ok(())
    }
}
