//! `chain-clean` and `chain-recover`: the paper's 7-job chain on the
//! real engine, one fresh cluster and input per timed chain.

use crate::probe::{recovery_timing, Clock, Probe, RecoveryTiming};
use crate::report::{self, median, mib, mib_per_s, pct, Metrics, Stopwatch, Tally};
use crate::trace::{chain_layers, Layers, SpanLog};
use crate::{RunConfig, RunResult, Workload};
use rcmp_core::{ChainDriver, ChainEvent, ChainOutcome, Strategy};
use rcmp_engine::{Cluster, FailureInjector, NoFailures, ScriptedInjector, TriggerPoint};
use rcmp_model::rng::derive_indexed;
use rcmp_model::{
    ByteSize, ChainCacheConfig, ClusterConfig, ExecutorConfig, NodeId, PlacementKernel, SlotConfig,
};
use rcmp_obs::{PhaseBreakdown, PhaseKind};
use rcmp_workloads::checksum::{digest_file, OutputDigest};
use rcmp_workloads::{generate_input, ChainBuilder, ChainSpec, DataGenConfig};
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Instant;

/// Cluster nodes (and input partitions, and reducers per job).
pub const NODES: u32 = 10;
/// Jobs in the chain.
pub const JOBS: u32 = 7;
/// Generated input, bytes.
pub const INPUT_BYTES: u64 = 16 << 20;
/// DFS block size.
pub const BLOCK: ByteSize = ByteSize::kib(64);
/// Value bytes per record.
pub const VALUE_SIZE: usize = 100;
/// Reducer split factor of the RCMP strategy.
pub const SPLIT: u32 = 4;
/// Chain-cache budget on `chain-recover` (4× the input).
pub const CACHE_BUDGET: ByteSize = ByteSize::mib(64);
/// The job whose `JobStart` the double kill lands on.
pub const KILL_JOB: u32 = 7;

/// The chain's input, derived from the benchmark seed.
pub fn datagen(seed: u64) -> DataGenConfig {
    DataGenConfig {
        path: "input".into(),
        partitions: NODES,
        bytes_per_partition: ByteSize::bytes(INPUT_BYTES / u64::from(NODES)),
        value_size: VALUE_SIZE,
        replication: 3,
        seed: derive_indexed(seed, "perfbench-chain-input", 0),
    }
}

/// The chain: 7 jobs, one reducer per node, outputs replicated once.
pub fn chain_spec() -> ChainSpec {
    ChainBuilder::new(JOBS, NODES).build()
}

/// Cluster configuration of a chain workload. `chain-clean` keeps the
/// engine defaults; `chain-recover` runs the async executor (one worker
/// per CPU), `stable` placement and the chain cache.
pub fn cluster_config(workload: Workload) -> ClusterConfig {
    let mut cfg = ClusterConfig::small_test(NODES);
    cfg.slots = SlotConfig::ONE_ONE;
    cfg.block_size = BLOCK;
    if workload == Workload::ChainRecover {
        cfg.executor = ExecutorConfig::async_workers(report::nproc());
        cfg.placement = PlacementKernel::Stable;
        cfg.chain_cache = ChainCacheConfig::enabled(CACHE_BUDGET);
    }
    cfg
}

/// The two distinct nodes `chain-recover` kills, chosen by the seed.
fn victims(seed: u64) -> [NodeId; 2] {
    let a = derive_indexed(seed, "perfbench-victim", 0) % u64::from(NODES);
    let b = (a + 1 + derive_indexed(seed, "perfbench-victim", 1) % u64::from(NODES - 1))
        % u64::from(NODES);
    [NodeId(a as u32), NodeId(b as u32)]
}

/// The workload's own injector: nothing on `chain-clean`; on
/// `chain-recover`, both victims die at job 7's `JobStart` (run 7 of a
/// fault-free prefix).
pub fn injector(workload: Workload, seed: u64) -> Arc<dyn FailureInjector> {
    match workload {
        Workload::ChainRecover => {
            let [a, b] = victims(seed);
            let script = ScriptedInjector::single(u64::from(KILL_JOB), TriggerPoint::JobStart, a);
            script.add(rcmp_engine::failure::Trigger {
                seq: u64::from(KILL_JOB),
                point: TriggerPoint::JobStart,
                node: b,
            });
            Arc::new(script)
        }
        _ => Arc::new(NoFailures),
    }
}

/// Golden digest of the seed's input: the `chain-clean` configuration
/// run once, fault-free, on a pristine cluster.
pub fn golden(seed: u64) -> Result<OutputDigest, String> {
    let cluster = Cluster::new(cluster_config(Workload::ChainClean));
    generate_input(cluster.dfs(), &datagen(seed)).map_err(|e| format!("golden input: {e}"))?;
    let spec = chain_spec();
    ChainDriver::new(&cluster, Strategy::rcmp_split(SPLIT))
        .run(&spec.jobs)
        .map_err(|e| format!("golden chain: {e}"))?;
    let (digest, _) = digest_file(cluster.dfs(), spec.final_output(), NodeId(0))
        .map_err(|e| format!("golden digest: {e}"))?;
    Ok(digest)
}

/// Exact counts of one chain (must repeat across runs of one seed).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    /// Job runs started, recomputations and the cancelled run included.
    pub runs_started: u64,
    /// Mapper tasks executed.
    pub map_tasks: u64,
    /// Reducer tasks executed (splits count individually).
    pub reduce_tasks: u64,
    /// Mapper tasks executed by recomputation runs.
    pub recompute_map_tasks: u64,
    /// Reducer tasks executed by recomputation runs.
    pub recompute_reduce_tasks: u64,
    /// Tasks retried within runs.
    pub task_retries: u64,
}

impl Counts {
    /// Reads the counts off a completed chain.
    pub fn of(outcome: &ChainOutcome) -> Self {
        let recompute: BTreeSet<u64> = outcome
            .events
            .iter()
            .filter_map(|e| match e {
                ChainEvent::JobStarted {
                    seq,
                    recompute: true,
                    ..
                } => Some(*seq),
                _ => None,
            })
            .collect();
        let rc = || outcome.runs.iter().filter(|r| recompute.contains(&r.seq));
        Self {
            runs_started: outcome.jobs_started,
            map_tasks: outcome.total_map_tasks() as u64,
            reduce_tasks: outcome.total_reduce_tasks() as u64,
            recompute_map_tasks: rc().map(|r| r.map_tasks_run as u64).sum(),
            recompute_reduce_tasks: rc().map(|r| r.reduce_tasks_run as u64).sum(),
            task_retries: outcome.runs.iter().map(|r| r.task_retries as u64).sum(),
        }
    }
}

/// One timed chain.
#[derive(Clone, Debug, Default)]
pub struct Sample {
    /// Cluster construction + input generation, seconds without steal.
    pub setup_s: f64,
    /// `generate_input` alone, seconds.
    pub gen_s: f64,
    /// `ChainDriver::run` wall time, seconds.
    pub wall_s: f64,
    /// `ChainDriver::run` time without hypervisor steal, seconds.
    pub run_s: f64,
    /// Process CPU time during `ChainDriver::run`, seconds.
    pub cpu_s: f64,
    /// The chain's final output digest.
    pub digest: OutputDigest,
    /// `digest_file` over the final output, seconds.
    pub digest_s: f64,
    /// Exact counts.
    pub counts: Counts,
    /// Where the wall time went.
    pub layers: Layers,
    /// Fault → re-run `JobStart` (zero without faults).
    pub recovery: RecoveryTiming,
    /// CPU time per profiler phase.
    pub phases: PhaseBreakdown,
    /// Aggregated I/O over all runs.
    pub io: rcmp_engine::IoBytes,
    /// Chain-cache counters: hits, node-local hits, misses, spills.
    pub cache: [u64; 4],
    /// Spans the cluster's tracer retained for the chain.
    pub spans: u64,
}

/// Builds a fresh cluster and input, runs the chain through a probe,
/// and digests its output. Records spans into `log` when given.
pub fn one_chain(
    workload: Workload,
    seed: u64,
    clock: Clock,
    log: Option<(&mut SpanLog, u64)>,
) -> Result<Sample, String> {
    let setup = Stopwatch::start();
    let cluster = Cluster::new(cluster_config(workload));
    let g0 = Instant::now();
    generate_input(cluster.dfs(), &datagen(seed)).map_err(|e| format!("input: {e}"))?;
    let gen_s = g0.elapsed().as_secs_f64();
    let setup_s = setup.run_s();

    let spec = chain_spec();
    let probe = Arc::new(Probe::new(injector(workload, seed), clock));
    let driver =
        ChainDriver::new(&cluster, Strategy::rcmp_split(SPLIT)).with_injector(probe.clone());
    let cpu0 = report::process_cpu_s();
    let watch = Stopwatch::start();
    let start = clock.now_ns();
    let outcome = driver.run(&spec.jobs);
    let end = clock.now_ns();
    let run_s = watch.run_s();
    let cpu_s = report::process_cpu_s() - cpu0;
    let outcome = outcome.map_err(|e| format!("chain: {e}"))?;

    let events = probe.events();
    let layers = chain_layers(&events, start, end, log.map(|(l, t)| (l, t, None)));
    let recovery = recovery_timing(&events).unwrap_or_default();
    let reader = *cluster
        .live_nodes()
        .first()
        .ok_or("no live node to read the output")?;
    let d0 = Instant::now();
    let (digest, _) = digest_file(cluster.dfs(), spec.final_output(), reader)
        .map_err(|e| format!("digest: {e}"))?;
    let digest_s = d0.elapsed().as_secs_f64();
    let snap = cluster.metrics().snapshot();
    let c = |n: &str| snap.counter(n).unwrap_or(0);
    Ok(Sample {
        setup_s,
        gen_s,
        wall_s: (end - start) as f64 / 1e9,
        run_s,
        cpu_s,
        digest,
        digest_s,
        counts: Counts::of(&outcome),
        layers,
        recovery,
        phases: outcome.phases.clone(),
        io: outcome.total_io(),
        cache: [
            c("cache.hits"),
            c("cache.hits_local"),
            c("cache.misses"),
            c("cache.spills"),
        ],
        spans: cluster.tracer().span_count() as u64,
    })
}

/// Profiler phases reported per layer, by metric name.
pub const PHASES: [(&str, PhaseKind); 14] = [
    ("phase.map_compute_ms", PhaseKind::MapCompute),
    ("phase.map_output_write_ms", PhaseKind::MapOutputWrite),
    ("phase.shuffle_fetch_ms", PhaseKind::ShuffleFetch),
    ("phase.streaming_merge_ms", PhaseKind::StreamingMerge),
    ("phase.reduce_udf_ms", PhaseKind::ReduceUdf),
    ("phase.dfs_read_ms", PhaseKind::DfsRead),
    ("phase.dfs_write_ms", PhaseKind::DfsWrite),
    ("phase.block_verify_ms", PhaseKind::BlockVerify),
    ("phase.chain_cache_read_ms", PhaseKind::ChainCacheRead),
    ("phase.recovery_planning_ms", PhaseKind::RecoveryPlanning),
    ("phase.recompute_wave_ms", PhaseKind::RecomputeWave),
    ("phase.retry_backoff_ms", PhaseKind::RetryBackoff),
    ("phase.reactor_poll_ms", PhaseKind::ReactorPoll),
    ("phase.reactor_park_ms", PhaseKind::ReactorPark),
];

/// Sets the engine-span and driver-gap metrics from per-chain layer
/// decompositions (medians over chains).
pub fn set_layer_metrics(m: &mut Metrics, layers: &[Layers], wall_ms: &[f64]) {
    let med = |f: &dyn Fn(&Layers) -> f64| median(&layers.iter().map(f).collect::<Vec<_>>());
    let ms = |ns: u64| ns as f64 / 1e6;
    m.set("engine.map_wave_ms", med(&|l| ms(l.map_wave_ns)));
    m.set("engine.reduce_wave_ms", med(&|l| ms(l.reduce_wave_ns)));
    m.set("engine.job_init_ms", med(&|l| ms(l.job_init_ns)));
    m.set("engine.shuffle_gap_ms", med(&|l| ms(l.shuffle_gap_ns)));
    m.set(
        "engine.inter_wave_gap_ms",
        med(&|l| ms(l.inter_wave_gap_ns)),
    );
    m.set("core.between_jobs_ms", med(&|l| ms(l.between_jobs_ns)));
    m.set("engine.map_waves", med(&|l| f64::from(l.map_waves)));
    m.set("engine.reduce_waves", med(&|l| f64::from(l.reduce_waves)));
    let covered: Vec<f64> = layers
        .iter()
        .zip(wall_ms)
        .map(|(l, &w)| {
            let waves = l.map_wave_ns + l.reduce_wave_ns + l.shuffle_gap_ns + l.inter_wave_gap_ns;
            pct(ms(waves), w)
        })
        .collect();
    m.set("engine.wave_coverage_pct", median(&covered));
}

/// Sets the `phase.*` metrics: CPU milliseconds per chain, the median
/// over `phases`, each covering `chains` chains.
pub fn set_phase_metrics(m: &mut Metrics, phases: &[PhaseBreakdown], chains: f64) {
    for (name, kind) in PHASES {
        let v: Vec<f64> = phases
            .iter()
            .map(|p| p.total_us(kind) as f64 / 1e3 / chains)
            .collect();
        m.set(name, median(&v));
    }
}

/// Sets the `io.*` metrics from one chain's aggregated I/O.
pub fn set_io_metrics(m: &mut Metrics, io: &rcmp_engine::IoBytes) {
    let input = io.map_input_local + io.map_input_remote;
    m.set("io.map_input_mib", mib(input));
    m.set(
        "io.map_local_pct",
        pct(io.map_input_local as f64, input as f64),
    );
    m.set("io.shuffle_remote_mib", mib(io.shuffle_remote));
    m.set("io.output_mib", mib(io.output_written));
    m.set("io.replication_mib", mib(io.replication_written));
}

/// `rcmp-sim`'s predicted map-side share of task time for this chain's
/// shape against the engine's measured share, in percentage points.
/// Modelled, not measured.
pub fn sim_share_error_pct(engine: &PhaseBreakdown) -> f64 {
    use rcmp_sim::{simulate_chain, ChainSimConfig, HwProfile, WorkloadCfg};
    let mut wl = WorkloadCfg::stic(SlotConfig::ONE_ONE);
    wl.nodes = NODES;
    wl.jobs = JOBS;
    wl.per_node_input = ByteSize::bytes(INPUT_BYTES / u64::from(NODES));
    wl.block_size = BLOCK;
    wl.num_reducers = NODES;
    let sim = simulate_chain(&ChainSimConfig::new(
        HwProfile::stic(),
        wl,
        Strategy::rcmp_split(SPLIT),
    ))
    .phase_breakdown();
    let sum = |p: &PhaseBreakdown, kinds: &[PhaseKind]| -> f64 {
        kinds.iter().map(|&k| p.total_us(k) as f64).sum()
    };
    let share = |map: f64, reduce: f64| pct(map, map + reduce);
    let sim_map = share(
        sum(&sim, &[PhaseKind::MapCompute]),
        sum(&sim, &[PhaseKind::ReduceUdf]),
    );
    // Block verification runs inside the DFS read, so it is not added.
    let engine_map = share(
        sum(
            engine,
            &[
                PhaseKind::MapCompute,
                PhaseKind::Combine,
                PhaseKind::MapOutputWrite,
                PhaseKind::DfsRead,
                PhaseKind::ChainCacheRead,
            ],
        ),
        sum(
            engine,
            &[
                PhaseKind::ShuffleFetch,
                PhaseKind::StreamingMerge,
                PhaseKind::ReduceUdf,
                PhaseKind::DfsWrite,
            ],
        ),
    );
    (sim_map - engine_map).abs()
}

/// Runs `chain-clean` or `chain-recover` for the configured window.
pub fn run(cfg: &RunConfig) -> Result<RunResult, String> {
    let workload = cfg.workload;
    let clock = Clock::start();
    let g0 = Stopwatch::start();
    let golden = golden(cfg.seed)?;
    let golden_s = g0.run_s();

    let mut log = SpanLog::default();
    let mut samples: Vec<(bool, Sample)> = Vec::new();
    let mut tally = Tally {
        correct: true,
        ..Tally::default()
    };
    let min_samples = if cfg.trace { 2 } else { 3 };
    let window = Instant::now();
    while samples.len() < min_samples || window.elapsed().as_secs_f64() < cfg.seconds {
        // Traced runs alternate traced and untraced chains, so the
        // tracing overhead is measured within one process.
        let traced = cfg.trace && tally.attempted.is_multiple_of(2);
        let trace_id = tally.attempted + 1;
        tally.attempted += 1;
        let span_log = traced.then_some((&mut log, trace_id));
        match one_chain(workload, cfg.seed, clock, span_log) {
            Ok(s) if s.digest == golden => samples.push((traced, s)),
            Ok(s) => {
                tally.failed += 1;
                tally.correct = false;
                eprintln!(
                    "chain {trace_id}: digest {:?} != golden {golden:?}",
                    s.digest
                );
            }
            Err(e) => {
                tally.failed += 1;
                eprintln!("chain {trace_id}: {e}");
            }
        }
        if tally.failed > 0 && samples.is_empty() && tally.attempted >= 3 {
            break;
        }
    }
    if samples.is_empty() {
        return Err("no chain completed".into());
    }

    let mut result = RunResult {
        tally,
        ..RunResult::default()
    };
    let m = &mut result.metrics;
    let all: Vec<&Sample> = samples.iter().map(|(_, s)| s).collect();
    let run_ms: Vec<f64> = all.iter().map(|s| s.run_s * 1e3).collect();
    let total_run: f64 = all.iter().map(|s| s.run_s).sum();
    m.set("chain_ms_p50", median(&run_ms));
    m.set("chains_per_s", all.len() as f64 / total_run);
    m.set(
        "cpu_s_per_chain",
        median(&all.iter().map(|s| s.cpu_s).collect::<Vec<_>>()),
    );
    let setups: Vec<f64> = all.iter().map(|s| s.setup_s).collect();
    m.set("setup_s", median(&setups) + golden_s);

    let counts = all[0].counts;
    if all.iter().any(|s| s.counts != counts) {
        result.notes.push(format!(
            "WARNING: task counts differ across chains of one seed: {:?}",
            all.iter().map(|s| s.counts).collect::<Vec<_>>()
        ));
    }
    let cc = cluster_config(workload);
    result.notes.push(format!(
        "workload {}: executor {:?} (workers {}), placement {}, chain cache {}, {} chains, wall p50 {:.1} ms with steal, golden {golden:?}",
        workload.name(),
        cc.executor.backend,
        cc.executor.workers,
        cc.placement.label(),
        cc.chain_cache.enabled,
        all.len(),
        median(&all.iter().map(|s| s.wall_s * 1e3).collect::<Vec<_>>()),
    ));

    if cfg.trace {
        let traced: Vec<&Sample> = samples.iter().filter(|(t, _)| *t).map(|(_, s)| s).collect();
        let untraced: Vec<f64> = samples
            .iter()
            .filter(|(t, _)| !*t)
            .map(|(_, s)| s.run_s)
            .collect();
        let traced_run: Vec<f64> = traced.iter().map(|s| s.run_s).collect();
        let traced_ms: Vec<f64> = traced.iter().map(|s| s.wall_s * 1e3).collect();
        let layers: Vec<Layers> = traced.iter().map(|s| s.layers).collect();
        set_layer_metrics(m, &layers, &traced_ms);
        m.set(
            "obs.trace_overhead_pct",
            if untraced.is_empty() {
                0.0
            } else {
                pct(median(&traced_run) - median(&untraced), median(&untraced))
            },
        );
        let med =
            |f: &dyn Fn(&Sample) -> f64| median(&all.iter().map(|s| f(s)).collect::<Vec<_>>());
        m.set("engine.map_tasks", counts.map_tasks as f64);
        m.set("engine.reduce_tasks", counts.reduce_tasks as f64);
        m.set("engine.task_retries", counts.task_retries as f64);
        m.set("core.runs_started", counts.runs_started as f64);
        m.set(
            "core.recompute_map_tasks",
            counts.recompute_map_tasks as f64,
        );
        m.set(
            "core.recompute_reduce_tasks",
            counts.recompute_reduce_tasks as f64,
        );
        m.set(
            "core.replan_ms",
            med(&|s| s.recovery.replan_ns as f64 / 1e6),
        );
        m.set(
            "core.recompute_run_ms",
            med(&|s| s.recovery.recompute_ns as f64 / 1e6),
        );
        m.set(
            "core.recovery_ms",
            med(&|s| s.recovery.total_ns() as f64 / 1e6),
        );
        let phases: Vec<PhaseBreakdown> = all.iter().map(|s| s.phases.clone()).collect();
        set_phase_metrics(m, &phases, 1.0);
        set_io_metrics(m, &all[0].io);
        m.set(
            "dfs.setup_write_mib_s",
            med(&|s| mib_per_s(INPUT_BYTES, s.gen_s)),
        );
        m.set(
            "dfs.digest_read_mib_s",
            med(&|s| mib_per_s(s.digest.value_bytes + 12 * s.digest.count, s.digest_s)),
        );
        let [hits, local, misses, spills] = all[0].cache;
        m.set("cache.hit_pct", pct(hits as f64, (hits + misses) as f64));
        m.set("cache.local_hit_pct", pct(local as f64, hits as f64));
        m.set("cache.spills", spills as f64);
        m.set("obs.spans_per_chain", med(&|s| s.spans as f64));
        m.set(
            "sim.modelled_phase_share_err_pct",
            if workload == Workload::ChainClean {
                sim_share_error_pct(&phases[0])
            } else {
                0.0
            },
        );
        if let Some(dir) = &cfg.out_dir {
            log.write(dir, &format!("spans-{}-seed{}", workload.name(), cfg.seed))?;
        }
    }
    Ok(result)
}
