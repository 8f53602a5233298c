//! `rcmp-exec`: the wave executor of the RCMP engine.
//!
//! The engine executes a job as a sequence of *waves*: a batch of slot
//! tasks assigned by the policy kernel, run concurrently, whose
//! outcomes are collected in input order before the next wave starts.
//! This crate implements that contract with [`AsyncExecutor`]
//! ([`AsyncExecutor::run_wave`]), a hand-rolled cooperative
//! reactor: slot tasks become [`TaskFuture`]s, a seeded-deterministic
//! ready queue feeds a bounded pool of worker threads, and a wake/park
//! condvar keeps idle workers cheap. A job session
//! ([`AsyncExecutor::with_session`]) keeps one pool alive across all of
//! its waves, so thousands of simulated slots run in one process with
//! at most `workers` OS threads and no per-wave thread spawns.
//!
//! Sizing is configuration (`ExecutorConfig` on `ClusterConfig`). The
//! worker count is unobservable above the executor: assignment happens
//! before execution, outcomes are input-ordered and seeds are per wave,
//! so recovery event logs and golden chain digests agree at every
//! worker count.

#![deny(missing_docs)]

mod budget;
mod future;
mod metrics;
mod reactor;
mod task;

pub use budget::{WorkerBudget, WorkerLease};
pub use future::TaskFuture;
pub use metrics::ExecMetrics;
pub use reactor::{AsyncExecutor, AsyncSession};
pub use task::{CancelToken, SlotOutcome, SlotTask, TaskCtx};

use rcmp_obs::SpanId;

/// The executor a cluster builds from its `ExecutorConfig`; the
/// reactor is the only backend, and this name stays for its callers.
pub type BackendExecutor = AsyncExecutor;

/// A job-scoped handle onto the reactor's worker pool, obtained from
/// [`AsyncExecutor::with_session`]; the name stays for its callers.
pub type SessionExecutor<'s, 'env> = AsyncSession<'s, 'env>;

/// Identity and instrumentation for one wave submission.
#[derive(Clone, Copy, Debug)]
pub struct WaveSpec {
    /// Domain label for the wave's seed stream (e.g. `"map-wave"`).
    pub label: &'static str,
    /// Seed for the reactor's initial ready-queue order. Derive it from
    /// the cluster seed and the wave index so replays are bit-identical.
    pub seed: u64,
    /// Span to parent the reactor's `ExecutorWave` span under.
    pub parent: Option<SpanId>,
}

impl WaveSpec {
    /// A spec with no span parent.
    pub fn new(label: &'static str, seed: u64) -> Self {
        Self {
            label,
            seed,
            parent: None,
        }
    }

    /// Parents the reactor's instrumentation span under `parent`.
    pub fn with_parent(mut self, parent: SpanId) -> Self {
        self.parent = Some(parent);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcmp_model::ExecutorConfig;

    #[test]
    fn from_config_sizes_the_pool() {
        let a = BackendExecutor::from_config(&ExecutorConfig::async_workers(3));
        assert_eq!(a.workers(), 3);
        let auto = BackendExecutor::from_config(&ExecutorConfig::default());
        assert!(auto.workers() >= 1);
    }

    #[test]
    fn sessions_agree_across_worker_counts() {
        let run = |cfg: &ExecutorConfig| {
            let exec = BackendExecutor::from_config(cfg);
            exec.with_session(|session| {
                (0..3u64)
                    .map(|w| {
                        let tasks: Vec<SlotTask<'_, u64>> = (0..50)
                            .map(|i| SlotTask::new(move |_: &TaskCtx| i + w))
                            .collect();
                        session
                            .run_wave(&WaveSpec::new("sess", w), tasks)
                            .into_iter()
                            .map(|o| o.completed().expect("completed"))
                            .collect::<Vec<u64>>()
                    })
                    .collect::<Vec<_>>()
            })
        };
        let auto = run(&ExecutorConfig::default());
        for workers in [1, 4, 10] {
            assert_eq!(auto, run(&ExecutorConfig::async_workers(workers)));
        }
    }
}
