//! Micro-benchmarks for the shared wave-assignment kernel
//! (`rcmp-policy`) at DCO scale: 60 nodes and thousands of tasks, the
//! largest configuration the paper evaluates (Fig. 11). The kernel runs
//! once per job attempt on the scheduling hot path of both the engine
//! and the simulator, so its cost must stay negligible next to a wave
//! of real task work.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rcmp_model::PlacementKernel;
use rcmp_policy::{
    assign_map_waves, assign_reduce_waves, FnMapTasks, FnReduceTasks, PolicyCtx, ReduceAssignment,
    SliceTopology,
};

const NODES: u32 = 60;

/// A DCO-like replica layout: task `t`'s primary holder is `t % NODES`,
/// with two more replicas on the following nodes (3-way replication).
fn holds(task: usize, node: u32) -> bool {
    let primary = (task as u32) % NODES;
    (node + NODES - primary) % NODES < 3
}

fn is_primary(task: usize, node: u32) -> bool {
    (task as u32) % NODES == node
}

fn bench_map_kernel(c: &mut Criterion) {
    let mut g = c.benchmark_group("policy_map_waves_dco");
    g.sample_size(20);
    g.warm_up_time(std::time::Duration::from_secs(1));
    g.measurement_time(std::time::Duration::from_secs(5));
    let live: Vec<u32> = (0..NODES).collect();
    // 1200 ≈ one 20 GB/node DCO job's mappers; 3600 ≈ three jobs deep.
    for tasks in [1200usize, 3600] {
        let topo = SliceTopology::uniform(&live, 2);
        g.bench_with_input(BenchmarkId::from_parameter(tasks), &tasks, |b, &tasks| {
            let set = FnMapTasks::new(tasks, is_primary, holds);
            b.iter(|| {
                assign_map_waves(
                    std::hint::black_box(&topo),
                    std::hint::black_box(&set),
                    PlacementKernel::Default,
                    PolicyCtx::disabled(),
                )
                .unwrap()
            })
        });
    }
    g.finish();
}

fn bench_reduce_kernel(c: &mut Criterion) {
    let mut g = c.benchmark_group("policy_reduce_waves_dco");
    g.sample_size(20);
    g.warm_up_time(std::time::Duration::from_secs(1));
    g.measurement_time(std::time::Duration::from_secs(5));
    let live: Vec<u32> = (0..NODES).collect();
    for (name, style) in [
        ("round_robin", ReduceAssignment::RoundRobinByPartition),
        ("balance", ReduceAssignment::Balance),
    ] {
        for tasks in [1200usize, 4800] {
            let topo = SliceTopology::uniform(&live, 2);
            g.bench_with_input(BenchmarkId::new(name, tasks), &tasks, |b, &tasks| {
                let set = FnReduceTasks::new(tasks, |t| t);
                b.iter(|| {
                    assign_reduce_waves(
                        std::hint::black_box(&topo),
                        std::hint::black_box(&set),
                        style,
                        PolicyCtx::disabled(),
                    )
                    .unwrap()
                })
            });
        }
    }
    g.finish();
}

criterion_group!(benches, bench_map_kernel, bench_reduce_kernel);
criterion_main!(benches);
