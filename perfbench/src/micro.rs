//! Isolated layer rates, timed around public functions on records from
//! the `chain-clean` generator.
//!
//! Each rate is the median over repeated passes of a fixed sample, so
//! one slow pass does not move it. Dispatch cost is per task of a
//! 10-task wave (one `chain-clean` wave) inside one executor session,
//! as the engine submits waves.

use crate::chain;
use crate::report::{self, median, mib, Metrics};
use bytes::Bytes;
use rcmp_dfs::{Dfs, DfsConfig, PlacementPolicy};
use rcmp_engine::codec::ChunkingWriter;
use rcmp_engine::shuffle::decode_partition;
use rcmp_engine::{BucketIndex, MapInputKey, MapOutputStore, StreamingShuffle};
use rcmp_exec::{BackendExecutor, SlotTask, WaveSpec};
use rcmp_model::{
    ByteSize, ExecutorConfig, JobId, NodeId, PartitionId, Record, RecordWriter, ReduceTaskId,
};
use rcmp_workloads::datagen::read_all_records;
use rcmp_workloads::generate_input;
use rcmp_workloads::md5::md5_u64;
use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// Sample size: 2 MiB of `chain-clean` input.
const SAMPLE_PARTITIONS: u32 = 8;
const SAMPLE_BYTES_PER_PARTITION: u64 = 256 << 10;
/// Time spent repeating each measurement, seconds (at least
/// `MIN_PASSES` passes).
const BUDGET_S: f64 = 0.2;
const MIN_PASSES: usize = 3;
/// Slot tasks per dispatched wave.
const WAVE_TASKS: usize = 10;

/// Median seconds per pass of `f`.
fn time_passes(mut f: impl FnMut()) -> f64 {
    let mut secs = Vec::new();
    let start = Instant::now();
    while secs.len() < MIN_PASSES || start.elapsed().as_secs_f64() < BUDGET_S {
        let t = Instant::now();
        f();
        secs.push(t.elapsed().as_secs_f64());
    }
    median(&secs)
}

/// MiB/s for `bytes` per pass of `f`.
fn mib_rate(bytes: u64, f: impl FnMut()) -> f64 {
    mib(bytes) / time_passes(f)
}

/// Microseconds per slot task of a `WAVE_TASKS`-task wave on `cfg`'s
/// backend, inside one session.
fn dispatch_us(cfg: &ExecutorConfig) -> f64 {
    let exec = BackendExecutor::from_config(cfg);
    exec.with_session(|session| {
        let mut wave = 0u64;
        let per_wave = time_passes(|| {
            wave += 1;
            let tasks: Vec<SlotTask<'_, usize>> = (0..WAVE_TASKS)
                .map(|_| SlotTask::new(|ctx| black_box(ctx.index())))
                .collect();
            black_box(session.run_wave(&WaveSpec::new("perfbench", wave), tasks));
        });
        per_wave * 1e6 / WAVE_TASKS as f64
    })
}

/// Measures every isolated rate into `m`.
pub fn run(seed: u64, m: &mut Metrics) -> Result<(), String> {
    let gen = rcmp_workloads::DataGenConfig {
        partitions: SAMPLE_PARTITIONS,
        bytes_per_partition: ByteSize::bytes(SAMPLE_BYTES_PER_PARTITION),
        replication: 1,
        ..chain::datagen(seed)
    };
    let source = Dfs::new(DfsConfig::new(SAMPLE_PARTITIONS, chain::BLOCK));
    generate_input(&source, &gen).map_err(|e| format!("micro input: {e}"))?;
    let records =
        read_all_records(&source, &gen.path, NodeId(0)).map_err(|e| format!("micro input: {e}"))?;
    drop(source);
    let value_bytes: u64 = records.iter().map(|r| r.value.len() as u64).sum();
    let encoded_bytes: u64 = records.iter().map(|r| r.encoded_len() as u64).sum();

    m.set(
        "udf.md5_mib_s",
        mib_rate(value_bytes, || {
            for r in &records {
                black_box(md5_u64(&r.value));
            }
        }),
    );

    let spec = chain::chain_spec();
    let job = spec.job(1);
    let mut mapped: Vec<Record> = Vec::with_capacity(records.len());
    m.set(
        "udf.map_mib_s",
        mib_rate(value_bytes, || {
            mapped.clear();
            for r in &records {
                job.mapper.map(r.clone(), &mut |out| mapped.push(out));
            }
        }),
    );
    mapped.sort_unstable_by(|a, b| a.key.cmp(&b.key).then_with(|| a.value.cmp(&b.value)));
    let mut groups: Vec<(u64, Vec<Bytes>)> = Vec::new();
    for r in &mapped {
        match groups.last_mut() {
            Some((k, vs)) if *k == r.key => vs.push(r.value.clone()),
            _ => groups.push((r.key, vec![r.value.clone()])),
        }
    }
    let mut emitted = 0usize;
    m.set(
        "udf.reduce_mib_s",
        mib_rate(value_bytes, || {
            for (k, vs) in &groups {
                job.reducer.reduce(*k, vs, &mut |out| {
                    emitted += black_box(out).value.len();
                });
            }
        }),
    );
    black_box(emitted);

    let block = chain::BLOCK.as_u64() as usize;
    let encode = || {
        let mut w = ChunkingWriter::new(block);
        for r in &records {
            w.push(r);
        }
        w.finish()
    };
    m.set(
        "codec.encode_mib_s",
        mib_rate(encoded_bytes, || {
            black_box(encode());
        }),
    );
    let chunks = encode();
    m.set(
        "codec.decode_mib_s",
        mib_rate(encoded_bytes, || {
            for c in &chunks {
                black_box(decode_partition(c.clone()).expect("decoding encoded chunks"));
            }
        }),
    );

    m.set("shuffle.merge_mrec_s", merge_mrec_s(&mapped));

    // One file is read back; the written copy is replaced on every pass
    // (its deletion is timed with the write) so memory stays flat.
    let dfs = Dfs::new(DfsConfig::new(3, chain::BLOCK));
    let write = |path: &str| {
        if dfs.file_exists(path) {
            dfs.delete_file(path).expect("deleting the previous copy");
        }
        dfs.create_file(path, 1, 1).expect("creating a fresh file");
        dfs.write_partition_chunks(
            path,
            PartitionId(0),
            chunks.clone(),
            NodeId(0),
            PlacementPolicy::WriterLocal,
        )
        .expect("writing to a live node");
    };
    write("read");
    // Block by block, as mappers read their input.
    let blocks = dfs
        .partition_locations("read", PartitionId(0))
        .expect("locating a written partition");
    m.set(
        "dfs.read_verify_mib_s",
        mib_rate(encoded_bytes, || {
            for b in &blocks {
                black_box(dfs.read_block(b, NodeId(0)).expect("reading a live block"));
            }
        }),
    );
    m.set(
        "dfs.write_mib_s",
        mib_rate(encoded_bytes, || write("write")),
    );

    m.set(
        "exec.dispatch_us_per_task.threaded",
        dispatch_us(&ExecutorConfig::default()),
    );
    m.set(
        "exec.dispatch_us_per_task.async",
        dispatch_us(&ExecutorConfig::async_workers(report::nproc())),
    );
    Ok(())
}

/// Million records per second through a `StreamingShuffle` merging one
/// reducer's sorted buckets from `chain::NODES` map outputs.
fn merge_mrec_s(records: &[Record]) -> f64 {
    let maps = chain::NODES as usize;
    let store = MapOutputStore::new();
    let reduce = ReduceTaskId::whole(JobId(1), PartitionId(0));
    let mut inputs = Vec::with_capacity(maps);
    for m in 0..maps {
        let mut run: Vec<&Record> = records.iter().skip(m).step_by(maps).collect();
        run.sort_unstable_by(|a, b| a.key.cmp(&b.key).then_with(|| a.value.cmp(&b.value)));
        let mut w = RecordWriter::new();
        for r in &run {
            w.push(r);
        }
        let index = BucketIndex {
            records: run.len() as u64,
            bytes: w.byte_len() as u64,
            min_key: run.first().map_or(0, |r| r.key),
            max_key: run.last().map_or(0, |r| r.key),
            sorted: true,
        };
        let key = MapInputKey::new(JobId(1), PartitionId(m as u32), 0);
        store.insert_indexed(
            key,
            NodeId(m as u32),
            m as u64,
            HashMap::from([(reduce, (w.finish(), index))]),
        );
        inputs.push(key);
    }
    let secs = time_passes(|| {
        let merge = StreamingShuffle::plan(&store, &inputs, reduce, NodeId(0), 64)
            .expect("every bucket is present");
        for group in merge {
            black_box(group.expect("well-formed buckets"));
        }
    });
    records.len() as f64 / 1e6 / secs
}
