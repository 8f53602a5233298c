//! Validation #3 (DESIGN.md): on matched configurations the simulator's
//! *accounting* — task counts, wave counts, transfer volumes — must
//! agree with the real engine's measured reports. Time is modeled;
//! volume is arithmetic, and arithmetic has to match.

use rcmp::engine::{Cluster, JobRun, JobTracker, NoFailures};
use rcmp::model::{ByteSize, ClusterConfig, ExecutorConfig, SlotConfig};
use rcmp::sim::{HwProfile, JobSim, SimState, WorkloadCfg};
use rcmp::workloads::{generate_input, ChainBuilder, DataGenConfig};
use std::sync::Arc;

const NODES: u32 = 4;
const BLOCK: u64 = 4096;
/// 112-byte records, 36 per 4096-byte block; 72 records = exactly two
/// full blocks per partition, so the engine's record-aligned chunking
/// and the simulator's byte-aligned chunking agree block for block.
const RECORDS_PER_PARTITION: u64 = 72;
const BYTES_PER_PARTITION: u64 = RECORDS_PER_PARTITION * 112;

fn engine_run() -> rcmp::engine::JobReport {
    let cluster = Cluster::new(ClusterConfig {
        block_size: ByteSize::bytes(BLOCK),
        seed: 5,
        executor: ExecutorConfig::from_env_or_default(),
        ..ClusterConfig::small_test(NODES)
    });
    let cfg = DataGenConfig {
        value_size: 100,
        ..DataGenConfig::test("input", NODES, BYTES_PER_PARTITION)
    };
    generate_input(cluster.dfs(), &cfg).unwrap();
    let chain = ChainBuilder::new(1, NODES).build();
    let tracker = JobTracker::new(&cluster, Arc::new(NoFailures));
    tracker.run(&JobRun::full(chain.job(1).clone()), 1).unwrap()
}

fn sim_run() -> rcmp::sim::SimJobReport {
    let wl = WorkloadCfg {
        nodes: NODES,
        slots: SlotConfig::ONE_ONE,
        jobs: 1,
        per_node_input: ByteSize::bytes(BYTES_PER_PARTITION),
        block_size: ByteSize::bytes(BLOCK),
        num_reducers: NODES,
        map_ratio: 1.0,
        reduce_ratio: 1.0,
        input_replication: 3,
    };
    let js = JobSim::new(HwProfile::stic(), wl.clone());
    let mut state = SimState::new(&wl);
    js.run_full(&mut state, 1, 1, true).unwrap()
}

#[test]
fn task_and_wave_counts_agree() {
    let engine = engine_run();
    let sim = sim_run();
    assert_eq!(engine.map_tasks_run, sim.mappers_run, "mapper counts");
    assert_eq!(engine.map_waves, sim.map_waves, "map wave counts");
    assert_eq!(
        engine.reduce_tasks_run, sim.reduce_tasks_run,
        "reducer counts"
    );
    assert_eq!(engine.reduce_waves, sim.reduce_waves, "reduce wave counts");
}

#[test]
fn io_volumes_agree() {
    let engine = engine_run();
    let sim = sim_run();

    // Map input: every byte of the input is read exactly once.
    let total_input = (BYTES_PER_PARTITION * NODES as u64) as f64;
    assert_eq!(
        engine.io.map_input_total() as f64,
        total_input,
        "engine reads the whole input"
    );
    assert_eq!(
        sim.io.map_input_local + sim.io.map_input_remote,
        total_input as u64,
        "sim reads the whole input"
    );

    // Shuffle: with a 1:1 map ratio the shuffle volume equals the input
    // (the engine's records carry their 12-byte headers through the
    // mapper unchanged, so encoded sizes are conserved).
    assert_eq!(engine.io.shuffle_total() as f64, total_input);
    assert_eq!(
        (sim.io.shuffle_local + sim.io.shuffle_remote) as f64,
        total_input
    );

    // Output: 1:1 reduce ratio conserves bytes; no replication traffic.
    assert_eq!(engine.io.output_written as f64, total_input);
    assert_eq!(sim.io.output_written as f64, total_input);
    assert_eq!(engine.io.replication_written, 0);
    assert_eq!(sim.io.replication_written, 0);
}

/// Locality profiles agree qualitatively: balanced, replicated input
/// makes the overwhelming majority of mapper reads local in both
/// implementations.
#[test]
fn locality_profiles_agree() {
    let engine = engine_run();
    let sim = sim_run();
    let engine_local = engine.io.map_input_local as f64 / engine.io.map_input_total() as f64;
    let sim_local =
        sim.io.map_input_local as f64 / (sim.io.map_input_local + sim.io.map_input_remote) as f64;
    assert!(engine_local > 0.7, "engine locality {engine_local}");
    assert!(sim_local > 0.7, "sim locality {sim_local}");
}

/// Recompute accounting agrees structurally: after a single node death,
/// both implementations re-run only a small fraction of mappers and
/// exactly the lost partitions' reducers.
#[test]
fn recompute_fractions_agree() {
    // Engine side.
    let cluster = Cluster::new(ClusterConfig {
        block_size: ByteSize::bytes(BLOCK),
        seed: 5,
        executor: ExecutorConfig::from_env_or_default(),
        ..ClusterConfig::small_test(NODES)
    });
    let cfg = DataGenConfig {
        value_size: 100,
        ..DataGenConfig::test("input", NODES, BYTES_PER_PARTITION)
    };
    generate_input(cluster.dfs(), &cfg).unwrap();
    let chain = ChainBuilder::new(1, NODES).build();
    let tracker = JobTracker::new(&cluster, Arc::new(NoFailures));
    tracker.run(&JobRun::full(chain.job(1).clone()), 1).unwrap();
    cluster.fail_node(rcmp::model::NodeId(NODES - 1));
    let lost = cluster.dfs().file_meta("out/1").unwrap().lost_partitions();
    let engine_rec = tracker
        .run(
            &JobRun::recompute(
                chain.job(1).clone(),
                rcmp::engine::RecomputeInstructions::new(lost.iter().copied(), None),
            ),
            2,
        )
        .unwrap();

    // Sim side.
    let wl = WorkloadCfg {
        nodes: NODES,
        slots: SlotConfig::ONE_ONE,
        jobs: 1,
        per_node_input: ByteSize::bytes(BYTES_PER_PARTITION),
        block_size: ByteSize::bytes(BLOCK),
        num_reducers: NODES,
        map_ratio: 1.0,
        reduce_ratio: 1.0,
        input_replication: 3,
    };
    let js = JobSim::new(HwProfile::stic(), wl.clone());
    let mut state = SimState::new(&wl);
    js.run_full(&mut state, 1, 1, true).unwrap();
    state.fail_node(NODES - 1);
    let sim_lost = state.files[&1].lost_partitions(&state);
    let sim_rec = js
        .run_recompute(
            &mut state,
            1,
            &rcmp::sim::jobsim::RecomputeSpec::new(sim_lost.iter().copied(), 1),
            true,
        )
        .unwrap();

    // Both regenerate exactly the lost partitions with whole reducers.
    assert_eq!(engine_rec.reduce_tasks_run, lost.len());
    assert_eq!(sim_rec.reduce_tasks_run, sim_lost.len());
    // Both reuse most persisted map outputs.
    assert!(engine_rec.map_tasks_reused > engine_rec.map_tasks_run);
    assert!(sim_rec.mappers_reused > sim_rec.mappers_run);
    // Fraction re-run ≈ 1/N in both (placement differs in detail, so
    // allow a factor-2 envelope around the ideal).
    let total = (engine_rec.map_tasks_run + engine_rec.map_tasks_reused) as f64;
    let engine_frac = engine_rec.map_tasks_run as f64 / total;
    let sim_total = (sim_rec.mappers_run + sim_rec.mappers_reused) as f64;
    let sim_frac = sim_rec.mappers_run as f64 / sim_total;
    let ideal = 1.0 / NODES as f64;
    for (name, frac) in [("engine", engine_frac), ("sim", sim_frac)] {
        assert!(
            frac <= ideal * 2.0 + 1e-9,
            "{name} re-ran too many mappers: {frac} vs ideal {ideal}"
        );
    }
}

/// The simulator's chain cache evicts the same file as the engine's
/// after a recompute. Each side issues the calls its backend makes for
/// one run: pin the input file, stage the output, commit it at job
/// success, unpin. Budget 40 B, one 10 B partition per file: job `j`
/// reads f(j-1) and writes fj on node `j` (j = 1..4), node 2 dies, job 2
/// recomputes f2 on node 5, and job 5's commit of f5 must evict the
/// least recently used file, f3, on both sides.
#[test]
fn chain_caches_evict_the_same_file_after_a_recompute() {
    use rcmp::dfs::ChainCache;
    use rcmp::model::{NodeId, PartitionId};
    use rcmp::obs::MetricsRegistry;
    use rcmp::policy::ChainCacheBook;

    fn path(f: u32) -> String {
        format!("f{f}")
    }
    fn run(engine: &ChainCache, sim: &mut ChainCacheBook<u32, ()>, job: u32, node: u32) {
        // `JobTracker::run`: the input pin spans the run; reducers stage
        // on write; the job commits on success.
        let input = path(job - 1);
        engine.pin_file(&input);
        engine.stage(
            &path(job),
            PartitionId(0),
            NodeId(node),
            &[bytes::Bytes::from(vec![0u8; 10])],
        );
        engine.commit(&path(job));
        engine.unpin_file(&input);

        // `JobSim::run`: the same pin, stage and commit over file ids.
        sim.pin(&(job - 1));
        sim.stage(&job, PartitionId(0), NodeId(node), 10, ());
        sim.commit(&job);
        sim.unpin(&(job - 1));
    }

    let engine = ChainCache::new(ByteSize::bytes(40), &MetricsRegistry::new());
    let mut sim = ChainCacheBook::new(40);
    for j in 1..=4 {
        run(&engine, &mut sim, j, j);
    }
    engine.invalidate_node(NodeId(2));
    sim.invalidate_node(NodeId(2));
    run(&engine, &mut sim, 2, 5);
    run(&engine, &mut sim, 5, 5);

    let engine_kept: Vec<bool> = (1..=5)
        .map(|f| engine.holder(&path(f), PartitionId(0)).is_some())
        .collect();
    let sim_kept: Vec<bool> = (1..=5)
        .map(|f| sim.holder(&f, PartitionId(0)).is_some())
        .collect();
    assert_eq!(engine_kept, vec![true, true, false, true, true]);
    assert_eq!(sim_kept, engine_kept);
}
