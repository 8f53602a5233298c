//! End-to-end and per-layer benchmark of the real rcmp engine.
//!
//! Two workloads run on `rcmp-engine` + `rcmp-dfs` with real records:
//!
//! * `chain-clean` — the paper's 7-job I/O chain on 10 nodes with the
//!   engine's default configuration (threaded executor, default
//!   placement, no chain cache), no failures;
//! * `chain-recover` — the same chain on the async executor with
//!   `stable` placement and the chain cache, two seed-chosen nodes
//!   killed at job 7's `JobStart` (the paper's late double failure).
//!
//! Every chain's final output is checked against a golden digest. An
//! untraced run (`--trace 0`) reports the end-to-end metrics; a traced
//! run (`--trace 1`) records `chain → run → wave` spans from the
//! benchmark's own code and reports the per-layer metrics, including
//! isolated layer rates and a few seconds of a multi-tenant
//! `JobService` under closed-loop load (the serve probe, where fixed
//! per-task costs dominate).

pub mod chain;
pub mod micro;
pub mod probe;
pub mod report;
pub mod serve;
pub mod trace;

use report::{Metrics, Tally};
use std::path::PathBuf;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Fault-free 7-job chain, engine defaults.
    ChainClean,
    /// 7-job chain, async executor + stable placement + chain cache,
    /// double kill at job 7's start.
    ChainRecover,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 2] = [Workload::ChainClean, Workload::ChainRecover];

    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ChainClean => "chain-clean",
            Workload::ChainRecover => "chain-recover",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One benchmark invocation.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// What to run.
    pub workload: Workload,
    /// Seed every generated input derives from.
    pub seed: u64,
    /// Measurement window, seconds (set-up excluded).
    pub seconds: f64,
    /// Record spans and report per-layer metrics instead of end-to-end
    /// ones.
    pub trace: bool,
    /// Where a traced run writes its spans (`None`: keep in memory).
    pub out_dir: Option<PathBuf>,
}

/// What a run measured.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Attempts, failures and correctness.
    pub tally: Tally,
    /// Every metric measured (a superset of the mode's schema).
    pub metrics: Metrics,
    /// Human-readable facts printed before the result line.
    pub notes: Vec<String>,
}

/// Metrics a user of the system sees, with units: reported by untraced
/// runs of every workload.
pub const END_TO_END: &[(&str, &str)] = &[("chain_ms_p50", "ms"), ("setup_s", "s")];

/// Metrics of single layers, with units: reported by traced runs of
/// every workload. Layers a workload does not exercise read 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    // engine: wave spans and exact counts, per chain
    ("engine.map_wave_ms", "ms"),
    ("engine.reduce_wave_ms", "ms"),
    ("engine.job_init_ms", "ms"),
    ("engine.shuffle_gap_ms", "ms"),
    ("engine.inter_wave_gap_ms", "ms"),
    ("engine.wave_coverage_pct", "%"),
    ("engine.map_tasks", "count"),
    ("engine.reduce_tasks", "count"),
    ("engine.map_waves", "count"),
    ("engine.reduce_waves", "count"),
    ("engine.task_retries", "count"),
    // core: driver time and recovery
    ("core.between_jobs_ms", "ms"),
    ("core.runs_started", "count"),
    ("core.recompute_map_tasks", "count"),
    ("core.recompute_reduce_tasks", "count"),
    ("core.recovery_ms", "ms"),
    ("core.replan_ms", "ms"),
    ("core.recompute_run_ms", "ms"),
    // phase profiler: CPU time summed over threads, per chain
    ("phase.map_compute_ms", "cpu_ms"),
    ("phase.map_output_write_ms", "cpu_ms"),
    ("phase.shuffle_fetch_ms", "cpu_ms"),
    ("phase.streaming_merge_ms", "cpu_ms"),
    ("phase.reduce_udf_ms", "cpu_ms"),
    ("phase.dfs_read_ms", "cpu_ms"),
    ("phase.dfs_write_ms", "cpu_ms"),
    ("phase.block_verify_ms", "cpu_ms"),
    ("phase.chain_cache_read_ms", "cpu_ms"),
    ("phase.recovery_planning_ms", "cpu_ms"),
    ("phase.recompute_wave_ms", "cpu_ms"),
    ("phase.retry_backoff_ms", "cpu_ms"),
    ("phase.reactor_poll_ms", "cpu_ms"),
    ("phase.reactor_park_ms", "cpu_ms"),
    // io volumes per chain
    ("io.map_input_mib", "MiB"),
    ("io.map_local_pct", "%"),
    ("io.shuffle_remote_mib", "MiB"),
    ("io.output_mib", "MiB"),
    ("io.replication_mib", "MiB"),
    // dfs inside the workload
    ("dfs.setup_write_mib_s", "MiB/s"),
    ("dfs.digest_read_mib_s", "MiB/s"),
    // dfs chain cache, per chain
    ("cache.hit_pct", "%"),
    ("cache.local_hit_pct", "%"),
    ("cache.spills", "count"),
    // serve probe: JobService under a closed loop of two tenants
    ("serve.latency_ms_p50", "ms"),
    ("serve.latency_ms_p90", "ms"),
    ("serve.queue_wait_ms_p50", "ms"),
    ("serve.run_ms_p50", "ms"),
    ("serve.submit_us_p50", "us"),
    ("serve.chains_per_s", "1/s"),
    ("serve.spans_per_chain", "count"),
    ("failed_pct", "%"),
    // obs and process memory
    ("obs.trace_overhead_pct", "%"),
    ("obs.spans_per_chain", "count"),
    ("peak_rss_mib", "MiB"),
    ("cpu_s_per_chain", "s"),
    ("chains_per_s", "1/s"),
    // isolated layer rates on chain-clean records
    ("udf.md5_mib_s", "MiB/s"),
    ("udf.map_mib_s", "MiB/s"),
    ("udf.reduce_mib_s", "MiB/s"),
    ("codec.encode_mib_s", "MiB/s"),
    ("codec.decode_mib_s", "MiB/s"),
    ("shuffle.merge_mrec_s", "Mrec/s"),
    ("dfs.write_mib_s", "MiB/s"),
    ("dfs.read_verify_mib_s", "MiB/s"),
    ("exec.dispatch_us_per_task.threaded", "us"),
    ("exec.dispatch_us_per_task.async", "us"),
    // modelled, not measured: never gate on it
    ("sim.modelled_phase_share_err_pct", "%"),
    ("host.nproc", "count"),
    ("host.steal_pct", "%"),
];

/// The schema a run reports: per-layer when traced, else end-to-end.
pub fn schema(trace: bool) -> &'static [(&'static str, &'static str)] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// Runs one workload to completion.
pub fn run(cfg: &RunConfig) -> Result<RunResult, String> {
    let watch = report::Stopwatch::start();
    // Isolated rates first, in a fresh process, so the workload's
    // allocator history does not colour them.
    let mut micro = report::Metrics::default();
    if cfg.trace {
        micro::run(cfg.seed, &mut micro)?;
    }
    let mut result = chain::run(cfg)?;
    if cfg.trace {
        let mut log = trace::SpanLog::default();
        let note = serve::probe(
            cfg.seed,
            serve::PROBE_SECONDS,
            probe::Clock::start(),
            &mut log,
            &mut result.tally,
            &mut result.metrics,
        )?;
        result.notes.push(note);
        if let Some(dir) = &cfg.out_dir {
            log.write(
                dir,
                &format!("spans-serve-probe-{}-seed{}", cfg.workload.name(), cfg.seed),
            )?;
        }
        result.metrics.merge(micro);
        result.metrics.set("host.nproc", f64::from(report::nproc()));
        let f = result.tally.failed as f64;
        let a = result.tally.attempted.max(1) as f64;
        result.metrics.set("failed_pct", report::pct(f, a));
    }
    let cpu_s = watch.wall_s() * f64::from(report::nproc());
    let steal_pct = report::pct(watch.steal_s(), cpu_s);
    result.metrics.set("host.steal_pct", steal_pct);
    result
        .notes
        .push(format!("host steal: {steal_pct:.2}% of vCPU time"));
    result.metrics.set("peak_rss_mib", report::peak_rss_mib());
    Ok(result)
}
