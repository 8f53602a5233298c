//! Pseudo-figure `exec`: wave throughput of the reactor at DCO scale
//! (60 nodes, 1200–4800 slot tasks per wave — Fig. 11's largest
//! cluster) at worker counts {1, 4, num_cpus}: what a single process
//! pays to multiplex thousands of simulated slots over a bounded
//! OS-thread pool.

use crate::table;
use rcmp_exec::{AsyncExecutor, SlotTask, TaskCtx, WaveSpec};
use rcmp_model::ClusterConfig;
use serde::{Deserialize, Serialize};
use std::time::{Duration, Instant};

/// One (workers, tasks) measurement.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ExecBenchRow {
    /// Reactor worker OS threads.
    pub workers: u32,
    /// Slot tasks in the wave.
    pub tasks: u32,
    /// Best-of-repeats wall time for the wave, in microseconds.
    pub wave_micros: f64,
    /// Derived throughput.
    pub tasks_per_sec: f64,
}

/// The full measurement matrix.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ExecBench {
    /// Cluster scale the wave shapes are drawn from (DCO: 60 nodes).
    pub nodes: u32,
    pub rows: Vec<ExecBenchRow>,
}

impl ExecBench {
    pub fn render(&self) -> String {
        let mut rows = vec![vec![
            "workers".to_string(),
            "tasks".to_string(),
            "wave".to_string(),
            "tasks/s".to_string(),
        ]];
        for r in &self.rows {
            rows.push(vec![
                r.workers.to_string(),
                r.tasks.to_string(),
                format!("{:.1}us", r.wave_micros),
                format!("{:.0}", r.tasks_per_sec),
            ]);
        }
        format!(
            "exec: wave throughput, {} nodes\n{}",
            self.nodes,
            table::render(&rows)
        )
    }
}

/// The wave shapes measured: one to four full DCO map waves' worth of
/// slot tasks (60 nodes × 20 mapper partitions per node = 1200, up to
/// the 4800-task acceptance shape).
pub fn task_counts() -> [u32; 3] {
    [1200, 2400, 4800]
}

/// Worker counts measured: serial, a small fixed pool, and the
/// machine's parallelism.
pub fn worker_counts() -> Vec<u32> {
    let cpus = std::thread::available_parallelism().map_or(4, |n| n.get() as u32);
    let mut counts = vec![1, 4, cpus];
    counts.sort_unstable();
    counts.dedup();
    counts
}

/// A representative slot-task body: a little deterministic bookkeeping
/// arithmetic so the measurement is dominated by executor overhead plus
/// a non-zero unit of work, like the engine's memory-speed tasks.
fn slot_body(i: u64) -> u64 {
    let mut acc = i;
    for k in 0..64u64 {
        acc = acc.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(17) ^ k;
    }
    acc
}

fn make_wave<'env>(tasks: u32) -> Vec<SlotTask<'env, u64>> {
    (0..u64::from(tasks))
        .map(|i| SlotTask::new(move |_: &TaskCtx| std::hint::black_box(slot_body(i))))
        .collect()
}

/// Times one wave of `tasks` slot tasks on `exec`.
pub fn time_wave(exec: &AsyncExecutor, tasks: u32, seed: u64) -> Duration {
    let wave = make_wave(tasks);
    let spec = WaveSpec::new("bench-wave", seed);
    let start = Instant::now();
    let outcomes = exec.run_wave(&spec, wave);
    let elapsed = start.elapsed();
    assert_eq!(outcomes.len(), tasks as usize);
    elapsed
}

fn best_of(exec: &AsyncExecutor, tasks: u32, repeats: u32) -> Duration {
    (0..repeats)
        .map(|r| time_wave(exec, tasks, u64::from(r)))
        .min()
        .unwrap_or(Duration::ZERO)
}

/// Runs the full matrix: the reactor at each worker count.
pub fn run() -> ExecBench {
    const REPEATS: u32 = 3;
    let nodes = ClusterConfig::dco().nodes;
    let mut rows = Vec::new();
    let mut push = |workers: u32, tasks: u32, d: Duration| {
        let micros = d.as_secs_f64() * 1e6;
        rows.push(ExecBenchRow {
            workers,
            tasks,
            wave_micros: micros,
            tasks_per_sec: if micros > 0.0 {
                f64::from(tasks) / d.as_secs_f64()
            } else {
                0.0
            },
        });
    };
    for tasks in task_counts() {
        for workers in worker_counts() {
            let exec = AsyncExecutor::new(workers);
            push(workers, tasks, best_of(&exec, tasks, REPEATS));
        }
    }
    ExecBench { nodes, rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_covers_worker_counts_and_scales() {
        // One repeat at the smallest shape keeps the unit test quick:
        // the full matrix is the bench target's job.
        let exec = AsyncExecutor::new(1);
        let d = time_wave(&exec, 64, 7);
        assert!(d > Duration::ZERO);
        assert!(task_counts().contains(&4800));
        assert!(worker_counts().contains(&1));
    }
}
