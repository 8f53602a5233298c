//! Differential tests for the shuffle data path.
//!
//! The streaming merge, the map-side combiner and the sharded block
//! stores are all *performance* choices; the contract is that none of
//! them is observable in the output. Each test here checks the shipped
//! path against its oracle — the sort-all reference shuffle
//! (`shuffle_for_reduce`) replayed over the same map outputs, the
//! combiner-less job, the single-lock store — and demands identical
//! groups and digests (and, where the accounting is deterministic,
//! identical I/O numbers).
//!
//! The whole binary honours `RCMP_EXECUTOR`, so the CI executor matrix
//! re-runs these differentials under the `async`, `async:1` and
//! `async:10` backends.

use proptest::prelude::*;
use rcmp::core::{ChainDriver, Strategy};
use rcmp::engine::shuffle::{shuffle_for_reduce, shuffle_for_reduce_streaming, MERGE_WIDTH};
use rcmp::engine::{
    Cluster, JobReport, JobRun, JobSpec, JobTracker, NoFailures, RandomizedInjector,
};
use rcmp::model::hash::hash_bytes;
use rcmp::model::{
    ByteSize, ClusterConfig, Error, ExecutorConfig, PartitionId, Record, RecordWriter,
    ReduceTaskId, ShuffleConfig, SlotConfig,
};
use rcmp::obs::SnapshotValue;
use rcmp::workloads::checksum::digest_file;
use rcmp::workloads::{generate_input, AggBuilder, ChainBuilder, DataGenConfig};
use std::sync::Arc;

const NODES: u32 = 4;

fn cluster(seed: u64, shuffle: ShuffleConfig, executor: ExecutorConfig) -> Cluster {
    Cluster::new(ClusterConfig {
        slots: SlotConfig::TWO_TWO,
        block_size: ByteSize::kib(4),
        seed,
        executor,
        shuffle,
        ..ClusterConfig::small_test(NODES)
    })
}

/// Runs `spec` once on a fresh cluster over `records` input records and
/// returns the cluster (its map outputs persisted) and the job report.
fn run_job(seed: u64, records: u64, spec: &JobSpec) -> (Cluster, JobReport) {
    let cl = cluster(
        seed,
        ShuffleConfig::default(),
        ExecutorConfig::from_env_or_default(),
    );
    generate_input(cl.dfs(), &DataGenConfig::test("input", NODES, records)).unwrap();
    let tracker = JobTracker::new(&cl, Arc::new(NoFailures));
    let report = tracker.run(&JobRun::full(spec.clone()), 1).unwrap();
    (cl, report)
}

/// Digest of the records `spec`'s reducer emits over `groups`.
fn reduced_digest(spec: &JobSpec, groups: &[(u64, Vec<bytes::Bytes>)]) -> u64 {
    let mut out = RecordWriter::new();
    for (key, values) in groups {
        spec.reducer
            .reduce(*key, values, &mut |rec: Record| out.push(&rec));
    }
    hash_bytes(&out.finish())
}

/// Replays every reduce task of a finished job through both shuffle
/// paths over the map outputs the run persisted: the sort-all reference
/// and the streaming merge the tracker runs. Groups, locality
/// accounting and the reduced output's digest must agree per task, and
/// the reference's shuffle bytes must add up to the job report's.
fn assert_paths_agree(
    cl: &Cluster,
    spec: &JobSpec,
    report: &JobReport,
) -> Result<(), TestCaseError> {
    let store = cl.map_outputs();
    let keys = store.keys_for_job(spec.job);
    prop_assert!(!keys.is_empty(), "the run persisted no map outputs");
    let (mut local, mut remote) = (0, 0);
    for p in 0..spec.num_reducers {
        let task = ReduceTaskId {
            job: spec.job,
            partition: PartitionId(p),
            split: None,
        };
        let node = cl.live_nodes()[p as usize % NODES as usize];
        let reference = shuffle_for_reduce(store, &keys, task, node).unwrap();
        let streamed = shuffle_for_reduce_streaming(store, &keys, task, node, MERGE_WIDTH).unwrap();
        prop_assert_eq!(
            &reference.groups,
            &streamed.groups,
            "groups of partition {}",
            p
        );
        prop_assert_eq!(reference.local_bytes, streamed.local_bytes);
        prop_assert_eq!(reference.remote_bytes, streamed.remote_bytes);
        prop_assert_eq!(&reference.per_source, &streamed.per_source);
        prop_assert_eq!(
            reduced_digest(spec, &reference.groups),
            reduced_digest(spec, &streamed.groups),
            "reduced output of partition {}",
            p
        );
        local += reference.local_bytes;
        remote += reference.remote_bytes;
    }
    prop_assert_eq!(
        local + remote,
        report.io.shuffle_local + report.io.shuffle_remote,
        "shuffle volume"
    );
    Ok(())
}

/// Runs the aggregation job, returning the cluster, the spec, the
/// report and the output digest.
fn agg_run(
    seed: u64,
    records: u64,
    combine: bool,
) -> (Cluster, JobSpec, JobReport, rcmp::workloads::OutputDigest) {
    let spec = AggBuilder::new(NODES * 2, 16).combine(combine).build();
    let (cl, report) = run_job(seed, records, &spec);
    let digest = digest_file(cl.dfs(), &spec.output, cl.live_nodes()[0])
        .unwrap()
        .0;
    (cl, spec, report, digest)
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12,
        max_shrink_iters: 0,
        ..ProptestConfig::default()
    })]

    /// The streaming k-way merge against the sort-all reference: one
    /// chain job runs on the engine, then every reduce task's shuffle
    /// is replayed through both paths over the same persisted map
    /// outputs — identical groups, locality accounting and reduced
    /// output, and shuffle bytes that add up to the job's report.
    #[test]
    fn streaming_merge_matches_legacy_oracle(
        seed in 1u64..100_000,
        records in 5_000u64..25_000,
    ) {
        let chain = ChainBuilder::new(1, NODES * 2).build();
        let spec = chain.job(1);
        let (cl, report) = run_job(seed, records, spec);
        assert_paths_agree(&cl, spec, &report)?;
    }

    /// Combiner correctness: the aggregation job's output digest is
    /// byte-identical with the combiner on or off (its partial
    /// aggregates share the reducer's wire format and its merge is
    /// associative + commutative), while the shuffle moves strictly —
    /// in fact drastically — fewer bytes. The combined buckets also
    /// shuffle identically through the sort-all reference.
    #[test]
    fn combiner_preserves_output_and_shrinks_shuffle(
        seed in 1u64..100_000,
        records in 40_000u64..100_000,
    ) {
        let (_, _, raw, raw_digest) = agg_run(seed, records, false);
        let (cl, spec, combined, combined_digest) = agg_run(seed, records, true);
        prop_assert_eq!(raw_digest, combined_digest, "combiner changed the output at seed {}", seed);
        let raw_shuffle = raw.io.shuffle_local + raw.io.shuffle_remote;
        let combined_shuffle = combined.io.shuffle_local + combined.io.shuffle_remote;
        prop_assert!(
            combined_shuffle * 2 < raw_shuffle,
            "combiner should at least halve shuffle volume: {} vs {}",
            combined_shuffle,
            raw_shuffle
        );
        assert_paths_agree(&cl, &spec, &combined)?;
    }
}

/// Sharded block stores against the single-lock oracle, under chaos.
///
/// Runs a chain through randomized fault schedules twice — once with
/// `store_shards: 1` and once with 8 — and demands identical outcomes,
/// identical digests on convergence, and *exactly* equal
/// [`rcmp::dfs::NodeAccessStats`] on every node. The serial reactor
/// (`async:1`) is pinned here on purpose: `max_concurrent_reads` is a
/// high-water mark over wall-clock overlapping reads, so it is only
/// deterministic when one worker drains the waves serially.
#[test]
fn sharded_store_accounting_matches_single_lock_under_chaos() {
    for chaos_seed in [7u64, 1312, 90_210] {
        let mut runs = Vec::new();
        for shards in [1u32, 8] {
            let shuffle = ShuffleConfig {
                store_shards: shards,
            };
            let cl = cluster(17, shuffle, ExecutorConfig::async_workers(1));
            generate_input(cl.dfs(), &DataGenConfig::test("input", NODES, 10_000)).unwrap();
            let chain = ChainBuilder::new(2, NODES).build();
            let injector = Arc::new(
                RandomizedInjector::new(chaos_seed, NODES)
                    .kill_probability(0.05)
                    .fault_probability(0.2)
                    .max_kills(1)
                    .max_other_faults(4),
            );
            let outcome = match ChainDriver::new(&cl, Strategy::rcmp_split(3))
                .with_injector(injector)
                .run(&chain.jobs)
            {
                Ok(_) => format!(
                    "{:?}",
                    digest_file(cl.dfs(), chain.final_output(), cl.live_nodes()[0])
                        .unwrap()
                        .0
                ),
                Err(Error::RecoveryExhausted { .. }) => "exhausted".to_string(),
                Err(Error::DataLoss { ref path, .. }) if path == "input" => "lost".to_string(),
                Err(e) => panic!("seed {chaos_seed}: unexpected error {e}"),
            };
            let stats: Vec<_> = (0..NODES)
                .map(|n| cl.dfs().node_stats(rcmp::model::NodeId(n)))
                .collect();
            runs.push((outcome, stats));
        }
        assert_eq!(
            runs[0], runs[1],
            "seed {chaos_seed}: sharded store diverged from single-lock oracle"
        );
    }
}

/// The per-job reactor session observed at engine level: one multi-wave
/// job on `async:2` spawns exactly two OS worker threads total, while
/// the wave counter keeps climbing — the pool now lives for the job,
/// not for a wave.
#[test]
fn job_reuses_one_worker_pool_across_all_waves() {
    let cl = cluster(
        29,
        ShuffleConfig::default(),
        ExecutorConfig::async_workers(2),
    );
    generate_input(cl.dfs(), &DataGenConfig::test("input", NODES, 15_000)).unwrap();
    let chain = ChainBuilder::new(1, NODES * 2).build();
    let tracker = JobTracker::new(&cl, Arc::new(NoFailures));
    let report = tracker.run(&JobRun::full(chain.job(1).clone()), 1).unwrap();
    assert!(
        report.map_waves + report.reduce_waves >= 2,
        "need a multi-wave job to observe pool reuse"
    );
    let snap = cl.metrics().snapshot();
    let waves = snap.counter("exec.waves").unwrap_or(0);
    assert!(waves >= 2, "expected >= 2 executor waves, got {waves}");
    assert_eq!(
        snap.counter("exec.worker_starts"),
        Some(2),
        "a 2-worker session must spawn exactly 2 OS threads for the whole job"
    );
    assert_eq!(
        snap.get("exec.workers"),
        Some(&SnapshotValue::Gauge(2)),
        "exec.workers reports the session pool size"
    );
}
