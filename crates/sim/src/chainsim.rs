//! Simulates a whole multi-job chain under a failure-resilience
//! strategy, with wall-clock failure injection.
//!
//! Mirrors the `rcmp-core` middleware's control flow in simulated time:
//! the same cascading-recomputation planning (against the sim state's
//! placement and map-output validity), the same cancellation semantics
//! (failure at `offset` seconds into a job wastes `offset +
//! detect_timeout` seconds, then the job is discarded and restarted —
//! §V-A), the same OPTIMISTIC/REPL/hybrid behaviours.

use crate::hw::HwProfile;
use crate::jobsim::{JobSim, RecomputeSpec};
use crate::report::{SimChainReport, SimEvent};
use crate::state::{Node, SimState};
use crate::workload::WorkloadCfg;
use rcmp_core::strategy::{HotspotMitigation, SplitPolicy, Strategy};
use rcmp_model::rng::derive_indexed;
use rcmp_model::{ChainCacheConfig, PlacementKernel, RetryPolicy};
use rcmp_policy::{choose_mitigation, AdaptivePolicy, FaultObserver};
use std::collections::BTreeSet;

/// One scripted failure: kill `node` `offset` seconds into run `seq`
/// (the paper injects 15 s after job start; seq numbering counts every
/// run, so "failure at job 7" after earlier recomputations shifts —
/// exactly the paper's Fig. 7 numbering).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FailureAt {
    pub seq: u64,
    pub offset: f64,
    pub node: Node,
}

impl FailureAt {
    /// The paper's standard injection: 15 s into run `seq`.
    pub fn at_job(seq: u64, node: Node) -> Self {
        Self {
            seq,
            offset: 15.0,
            node,
        }
    }
}

/// Chain simulation configuration.
#[derive(Clone, Debug)]
pub struct ChainSimConfig {
    pub hw: HwProfile,
    pub wl: WorkloadCfg,
    pub strategy: Strategy,
    pub failures: Vec<FailureAt>,
    /// Retry budgets and seeded backoff, mirroring the engine's
    /// `ClusterConfig::retry`: the same full-jitter delays the engine
    /// sleeps show up here as simulated time.
    pub retry: RetryPolicy,
    /// Seed the backoff jitter derives from (the engine uses
    /// `ClusterConfig::seed`).
    pub seed: u64,
    /// Placement kernel, mirroring `ClusterConfig::placement`.
    pub placement: PlacementKernel,
    /// Inter-job chain cache, mirroring `ClusterConfig::chain_cache`:
    /// when enabled, each job's reducer outputs stay memory-resident
    /// (within the budget) for the next job's mappers.
    pub chain_cache: ChainCacheConfig,
}

impl ChainSimConfig {
    pub fn new(hw: HwProfile, wl: WorkloadCfg, strategy: Strategy) -> Self {
        Self {
            hw,
            wl,
            strategy,
            failures: Vec::new(),
            retry: RetryPolicy::default(),
            seed: 0,
            placement: PlacementKernel::Default,
            chain_cache: ChainCacheConfig::default(),
        }
    }

    pub fn with_failures(mut self, failures: Vec<FailureAt>) -> Self {
        self.failures = failures;
        self
    }

    /// Overrides the retry policy and the seed its jitter derives from.
    pub fn with_retry(mut self, retry: RetryPolicy, seed: u64) -> Self {
        self.retry = retry;
        self.seed = seed;
        self
    }

    /// Selects the placement kernel every run schedules with.
    pub fn with_placement(mut self, kernel: PlacementKernel) -> Self {
        self.placement = kernel;
        self
    }

    /// Enables the inter-job chain cache with the given byte budget.
    pub fn with_chain_cache(mut self, budget: rcmp_model::ByteSize) -> Self {
        self.chain_cache = ChainCacheConfig::enabled(budget);
        self
    }
}

/// Simulates the chain to completion; panics only on unrecoverable
/// configuration errors (e.g. every node failed).
pub fn simulate_chain(cfg: &ChainSimConfig) -> SimChainReport {
    Runner::new(cfg).run()
}

struct Runner<'a> {
    cfg: &'a ChainSimConfig,
    js: JobSim,
    state: SimState,
    report: SimChainReport,
    t: f64,
    seq: u64,
    /// Jobs completed since the last replication point (dynamic hybrid).
    jobs_since_point: u32,
    /// The closed-loop policy (AdaptiveHybrid): literally the same
    /// `rcmp_policy::adapt` kernel the engine driver runs, fed from the
    /// sim's failure timeline, so decision sequences agree byte for
    /// byte given the same fault sequence.
    adaptive: Option<AdaptivePolicy>,
    /// Cancel → recover → retry cycles this chain pass (the engine's
    /// `job_recoveries` counter), which paces the chain-level backoff.
    job_recoveries: u32,
}

enum RunOutcome {
    Completed,
    Cancelled,
}

impl<'a> Runner<'a> {
    fn new(cfg: &'a ChainSimConfig) -> Self {
        let mut state = SimState::new(&cfg.wl);
        if cfg.chain_cache.enabled {
            state.enable_chain_cache(cfg.chain_cache.budget.as_u64());
        }
        Self {
            cfg,
            js: JobSim::new(cfg.hw.clone(), cfg.wl.clone()).with_placement(cfg.placement),
            state,
            report: SimChainReport::default(),
            t: 0.0,
            seq: 0,
            jobs_since_point: 0,
            adaptive: match cfg.strategy {
                Strategy::AdaptiveHybrid { adapt, .. } => Some(AdaptivePolicy::new(adapt)),
                _ => None,
            },
            job_recoveries: 0,
        }
    }

    fn replication(&self) -> u32 {
        self.cfg.strategy.output_replication()
    }

    fn persists(&self) -> bool {
        self.cfg.strategy.persists_outputs()
    }

    /// Failures scheduled for the given run (the paper's FAIL X,X case
    /// injects two failures in the same job, the second 15 s after the
    /// first).
    fn failures_for(&self, seq: u64) -> Vec<FailureAt> {
        self.cfg
            .failures
            .iter()
            .copied()
            .filter(|f| f.seq == seq)
            .collect()
    }

    fn run(mut self) -> SimChainReport {
        let jobs = self.cfg.wl.jobs;
        let mut restarts = 0u32;
        'chain: loop {
            let mut j = 1u32;
            self.job_recoveries = 0;
            while j <= jobs {
                match self.run_one(j) {
                    RunOutcome::Completed => {
                        self.maybe_replicate(j);
                        j += 1;
                    }
                    RunOutcome::Cancelled => {
                        // Seeded backoff before another recovery cycle,
                        // mirroring the engine driver's delay.
                        self.job_recoveries += 1;
                        let delay_ms = self.cfg.retry.backoff_ms(
                            derive_indexed(self.cfg.seed, "chain-backoff", u64::from(j)),
                            self.job_recoveries,
                        );
                        if delay_ms > 0 {
                            let secs = delay_ms as f64 / 1000.0;
                            self.t += secs;
                            self.report.backoff_secs += secs;
                        }
                        match self.cfg.strategy {
                            Strategy::Optimistic | Strategy::Replication { .. } => {
                                // Restart the whole computation.
                                restarts += 1;
                                assert!(restarts < 100, "chain cannot make progress");
                                self.report
                                    .events
                                    .push(SimEvent::ChainRestarted { at: self.t });
                                for job in 1..=jobs {
                                    self.state.clear_job_outputs(job);
                                    if let Some(f) = self.state.files.get_mut(&job) {
                                        f.partitions.clear();
                                    }
                                }
                                continue 'chain;
                            }
                            Strategy::Rcmp { split, hotspot } => {
                                self.recover(j, split, hotspot);
                            }
                            Strategy::Hybrid { split, .. }
                            | Strategy::DynamicHybrid { split, .. }
                            | Strategy::AdaptiveHybrid { split, .. } => {
                                self.recover(j, split, HotspotMitigation::SplitReducers);
                            }
                        }
                        // retry the same job
                    }
                }
            }
            self.report.total_time = self.t;
            self.report.jobs_started = self.seq;
            return self.report;
        }
    }

    /// Runs one full (non-recompute) attempt of job `j`. Applies a
    /// scheduled failure if one lands on this run.
    fn run_one(&mut self, j: u32) -> RunOutcome {
        self.seq += 1;
        let seq = self.seq;
        for f in self.failures_for(seq) {
            // Failure mid-run: the work until detection is wasted (the
            // paper's RCMP discards partial results; we apply the same
            // accounting to every strategy — a ~45 s symmetric penalty).
            self.report.events.push(SimEvent::FailureInjected {
                at: self.t + f.offset,
                node: f.node,
            });
            self.t += f.offset + self.cfg.hw.detect_timeout;
            self.report.events.push(SimEvent::FailureDetected {
                at: self.t,
                node: f.node,
            });
            self.state.fail_node(f.node);
            self.observe_fault(1);
            assert!(
                !self.state.live_nodes().is_empty(),
                "every node failed: unrecoverable"
            );
        }
        self.finish_full(j, seq)
    }

    fn finish_full(&mut self, j: u32, seq: u64) -> RunOutcome {
        // Check input availability (this or a previous failure may have
        // broken it).
        if j > 1 {
            let lost = self.state.files[&(j - 1)].lost_partitions(&self.state);
            if !lost.is_empty() {
                return RunOutcome::Cancelled;
            }
        }
        let (replication, persists) = (self.replication(), self.persists());
        let mut rep = self
            .js
            .run_full(&mut self.state, j, replication, persists)
            .expect("chain keeps at least one live node");
        rep.seq = seq;
        self.t += rep.duration;
        self.report.events.push(SimEvent::JobCompleted {
            seq,
            job: j,
            at: self.t,
        });
        self.report.runs.push(rep);
        RunOutcome::Completed
    }

    /// Cascading recomputation so that job `target` can restart —
    /// the sim-state version of `rcmp-core::planner::plan_recovery`.
    fn recover(&mut self, target: u32, split: SplitPolicy, hotspot: HotspotMitigation) {
        let survivors = self.state.live_nodes().len();
        let mitigation = choose_mitigation(split, hotspot, survivors);

        // Plan: walk back from the target's input.
        let mut steps: Vec<(u32, BTreeSet<u32>)> = Vec::new();
        let mut need_file = target - 1;
        let mut need: BTreeSet<u32> = self
            .state
            .files
            .get(&need_file)
            .map(|f| f.lost_partitions(&self.state))
            .unwrap_or_default();
        while !need.is_empty() {
            assert!(need_file >= 1, "external input lost: unrecoverable");
            let producer = need_file;
            steps.push((producer, need.clone()));
            // Which input partitions do the producer's re-running
            // mappers read?
            let input = producer - 1;
            let block = self.cfg.wl.block_size.as_u64();
            let mut rerun_pids = BTreeSet::new();
            for (pid, blk, _, _) in self.state.file_blocks(input, block) {
                let v = self.state.partition_version(input, pid);
                if !self.state.map_output_valid((producer, pid, blk), v) {
                    rerun_pids.insert(pid);
                }
            }
            let lost_deeper = self
                .state
                .files
                .get(&input)
                .map(|f| f.lost_partitions(&self.state))
                .unwrap_or_default();
            need = rerun_pids.intersection(&lost_deeper).copied().collect();
            need_file = input;
        }
        steps.reverse();
        self.report.events.push(SimEvent::RecoveryPlanned {
            steps: steps.len(),
            partitions: steps.iter().map(|(_, p)| p.len()).sum(),
        });

        for (job, partitions) in steps {
            self.seq += 1;
            let seq = self.seq;
            // A nested failure can land on a recovery run too (§IV-A).
            let nested = self.failures_for(seq);
            if !nested.is_empty() {
                for f in nested {
                    self.report.events.push(SimEvent::FailureInjected {
                        at: self.t + f.offset,
                        node: f.node,
                    });
                    self.t += f.offset + self.cfg.hw.detect_timeout;
                    self.report.events.push(SimEvent::FailureDetected {
                        at: self.t,
                        node: f.node,
                    });
                    self.state.fail_node(f.node);
                    self.observe_fault(1);
                }
                // Replan from merged damage and continue recovering.
                return self.recover(target, split, hotspot);
            }
            let mut spec = RecomputeSpec::new(partitions.iter().copied(), mitigation.split);
            spec.spread_output = mitigation.spread_output;
            let persists = self.persists();
            let mut rep = self
                .js
                .run_recompute(&mut self.state, job, &spec, persists)
                .expect("chain keeps at least one live node");
            rep.seq = seq;
            self.t += rep.duration;
            self.report.events.push(SimEvent::JobCompleted {
                seq,
                job,
                at: self.t,
            });
            self.report.runs.push(rep);
        }
    }

    /// Feeds an observed node failure into the closed-loop estimator,
    /// when the strategy runs one (the sim-timeline analogue of the
    /// engine driver's loss records).
    fn observe_fault(&mut self, n: u32) {
        if let Some(policy) = self.adaptive.as_mut() {
            policy.record_fault(n);
        }
    }

    /// Hybrid replication point: static modulus (§IV-C), the dynamic
    /// expected-cost policy, or the closed-loop adaptive policy (§IV-C
    /// future work). After a due job, raise its output to `factor`
    /// replicas, paying the copy time.
    fn maybe_replicate(&mut self, j: u32) {
        let (factor, reclaim, due) = match self.cfg.strategy {
            Strategy::Hybrid {
                every_k,
                factor,
                reclaim,
                ..
            } => (factor, reclaim, every_k != 0 && j.is_multiple_of(every_k)),
            Strategy::DynamicHybrid {
                factor,
                policy,
                reclaim,
                ..
            } => {
                self.jobs_since_point += 1;
                (
                    factor,
                    reclaim,
                    policy.should_replicate(self.jobs_since_point),
                )
            }
            Strategy::AdaptiveHybrid {
                factor, reclaim, ..
            } => {
                let policy = self
                    .adaptive
                    .as_mut()
                    .expect("AdaptiveHybrid carries a policy");
                let due = policy.job_completed();
                let step = *policy
                    .trajectory()
                    .last()
                    .expect("job_completed records a step");
                self.report.adaptation.push(step);
                (factor, reclaim, due)
            }
            _ => return,
        };
        if !due {
            return;
        }
        self.jobs_since_point = 0;
        let bytes = self.state.files.get(&j).map(|f| f.bytes()).unwrap_or(0);
        let copies = (factor.saturating_sub(1)) as u64 * bytes;
        let live = self.state.live_nodes().len().max(1) as f64;
        // Cluster-wide parallel copy: disk write is the bottleneck.
        let secs = copies as f64 / (self.cfg.hw.disk_write_bw * live);
        self.t += secs;
        self.state.replicate_file(j, factor);
        self.report
            .events
            .push(SimEvent::ReplicationPoint { job: j, at: self.t });
        if reclaim {
            for job in 1..=j {
                self.state.clear_job_outputs(job);
            }
            for job in 1..j {
                if let Some(f) = self.state.files.get_mut(&job) {
                    f.partitions.clear();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::SimChainReport;
    use rcmp_model::{ByteSize, SlotConfig};

    fn wl_small() -> WorkloadCfg {
        WorkloadCfg {
            nodes: 6,
            slots: SlotConfig::ONE_ONE,
            jobs: 4,
            per_node_input: ByteSize::mib(512),
            block_size: ByteSize::mib(128),
            num_reducers: 6,
            map_ratio: 1.0,
            reduce_ratio: 1.0,
            input_replication: 3,
        }
    }

    fn run(strategy: Strategy, failures: Vec<FailureAt>) -> SimChainReport {
        let cfg =
            ChainSimConfig::new(HwProfile::stic(), wl_small(), strategy).with_failures(failures);
        simulate_chain(&cfg)
    }

    #[test]
    fn failure_free_rcmp_beats_replication() {
        let rcmp = run(Strategy::rcmp_no_split(), vec![]);
        let repl2 = run(Strategy::Replication { factor: 2 }, vec![]);
        let repl3 = run(Strategy::Replication { factor: 3 }, vec![]);
        assert_eq!(rcmp.jobs_started, 4);
        assert!(
            repl2.total_time > rcmp.total_time * 1.1,
            "{} vs {}",
            repl2.total_time,
            rcmp.total_time
        );
        assert!(
            repl3.total_time > repl2.total_time,
            "{} vs {}",
            repl3.total_time,
            repl2.total_time
        );
    }

    #[test]
    fn optimistic_equals_rcmp_without_failures() {
        let rcmp = run(Strategy::rcmp_no_split(), vec![]);
        let opt = run(Strategy::Optimistic, vec![]);
        assert!((rcmp.total_time - opt.total_time).abs() < 1.0);
    }

    #[test]
    fn single_failure_rcmp_recovers_with_recomputation() {
        let clean = run(Strategy::rcmp_no_split(), vec![]);
        let failed = run(Strategy::rcmp_no_split(), vec![FailureAt::at_job(3, 5)]);
        assert!(failed.jobs_started > 4, "recomputations happened");
        assert!(failed.recompute_runs().count() > 0);
        assert!(failed.total_time > clean.total_time);
        // Recovery is far cheaper than re-running everything.
        let opt = run(Strategy::Optimistic, vec![FailureAt::at_job(3, 5)]);
        assert!(
            failed.total_time < opt.total_time,
            "RCMP {} !< OPTIMISTIC {}",
            failed.total_time,
            opt.total_time
        );
    }

    #[test]
    fn late_failure_cascades_further_than_early() {
        let early = run(Strategy::rcmp_no_split(), vec![FailureAt::at_job(2, 5)]);
        let late = run(Strategy::rcmp_no_split(), vec![FailureAt::at_job(4, 5)]);
        assert!(
            late.recompute_runs().count() >= early.recompute_runs().count(),
            "late failures recompute at least as many jobs"
        );
    }

    #[test]
    fn split_recovery_is_faster() {
        let no_split = run(Strategy::rcmp_no_split(), vec![FailureAt::at_job(4, 5)]);
        let split = run(Strategy::rcmp_split(5), vec![FailureAt::at_job(4, 5)]);
        assert!(
            split.total_time < no_split.total_time,
            "split {} !< no-split {}",
            split.total_time,
            no_split.total_time
        );
    }

    #[test]
    fn replication_absorbs_failure_without_restart() {
        let r = run(
            Strategy::Replication { factor: 2 },
            vec![FailureAt::at_job(3, 5)],
        );
        assert_eq!(
            r.events
                .iter()
                .filter(|e| matches!(e, SimEvent::ChainRestarted { .. }))
                .count(),
            0
        );
        assert_eq!(r.jobs_started, 4, "no resubmissions: intra-job recovery");
    }

    #[test]
    fn optimistic_restarts_on_loss() {
        let r = run(Strategy::Optimistic, vec![FailureAt::at_job(3, 5)]);
        assert_eq!(
            r.events
                .iter()
                .filter(|e| matches!(e, SimEvent::ChainRestarted { .. }))
                .count(),
            1
        );
        assert!(r.jobs_started > 4);
    }

    #[test]
    fn hybrid_replication_points_fire_and_bound_cascade() {
        let r = run(
            Strategy::Hybrid {
                split: SplitPolicy::None,
                every_k: 2,
                factor: 2,
                reclaim: false,
            },
            vec![FailureAt::at_job(4, 5)],
        );
        let points: Vec<u32> = r
            .events
            .iter()
            .filter_map(|e| match e {
                SimEvent::ReplicationPoint { job, .. } => Some(*job),
                _ => None,
            })
            .collect();
        assert!(points.contains(&2));
        // No recompute run at or below the replication point at job 2.
        for run in r.recompute_runs() {
            assert!(
                run.job > 2,
                "cascade crossed replication point: job {}",
                run.job
            );
        }
    }

    #[test]
    fn nested_failure_replans() {
        // Second failure lands on the first recovery run (seq 5).
        let r = run(
            Strategy::rcmp_no_split(),
            vec![FailureAt::at_job(4, 5), FailureAt::at_job(5, 4)],
        );
        assert!(r.jobs_started > 5);
        let detected = r
            .events
            .iter()
            .filter(|e| matches!(e, SimEvent::FailureDetected { .. }))
            .count();
        assert_eq!(detected, 2);
    }

    #[test]
    fn double_failure_rcmp_still_completes() {
        let r = run(
            Strategy::rcmp_split(4),
            vec![FailureAt::at_job(2, 0), FailureAt::at_job(6, 3)],
        );
        assert!(r.total_time > 0.0);
        assert_eq!(
            r.events
                .iter()
                .filter(|e| matches!(e, SimEvent::FailureDetected { .. }))
                .count(),
            2
        );
    }

    #[test]
    fn thousand_node_chain_completes_clean_and_after_a_kill() {
        // 1000 nodes at full width, the chain shortened to two jobs:
        // both runs must finish, and the kill must cost time.
        let wl = WorkloadCfg {
            nodes: 1000,
            slots: SlotConfig::ONE_ONE,
            jobs: 2,
            per_node_input: ByteSize::mib(128),
            block_size: ByteSize::mib(128),
            num_reducers: 1000,
            map_ratio: 1.0,
            reduce_ratio: 1.0,
            input_replication: 3,
        };
        let base = ChainSimConfig::new(HwProfile::stic(), wl, Strategy::rcmp_split(4));
        let clean = simulate_chain(&base);
        let failed = simulate_chain(&base.with_failures(vec![FailureAt::at_job(2, 5)]));
        assert_eq!(clean.jobs_started, 2);
        assert!(failed.jobs_started > 2, "the kill forces recomputation");
        assert!(
            failed.total_time > clean.total_time,
            "{} !> {}",
            failed.total_time,
            clean.total_time
        );
    }
}
