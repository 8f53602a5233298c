//! Wave-throughput benchmarks for the reactor at DCO scale: 60 nodes'
//! worth of slot tasks per wave (1200–4800) at worker counts
//! {1, 4, num_cpus}. After the Criterion
//! groups run, the full matrix is re-measured and written to
//! `results/BENCH_exec.json` so the numbers land next to the figure
//! data (`fig_runner exec --json results` produces the same file).

use criterion::{criterion_group, BenchmarkId, Criterion};
use rcmp_bench::figures::execfig;
use rcmp_exec::AsyncExecutor;
use std::io::Write;

fn bench_async(c: &mut Criterion) {
    for workers in execfig::worker_counts() {
        let mut g = c.benchmark_group(format!("exec_wave_async_w{workers}"));
        g.sample_size(10);
        for tasks in execfig::task_counts() {
            let exec = AsyncExecutor::new(workers);
            g.bench_with_input(BenchmarkId::from_parameter(tasks), &tasks, |b, &tasks| {
                b.iter(|| execfig::time_wave(&exec, tasks, 0))
            });
        }
        g.finish();
    }
}

criterion_group!(waves, bench_async);

fn main() {
    waves();
    let bench = execfig::run();
    println!("{}", bench.render());
    // `cargo bench` runs with the package dir as CWD; anchor the output
    // in the workspace-level results/ next to the figure JSONs.
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");
    if std::fs::create_dir_all(dir).is_ok() {
        let json = serde_json::to_string_pretty(&serde_json::to_value(&bench).unwrap()).unwrap();
        match std::fs::File::create(format!("{dir}/BENCH_exec.json")) {
            Ok(mut f) => f.write_all(json.as_bytes()).expect("write BENCH_exec.json"),
            Err(e) => eprintln!("skipping BENCH_exec.json: {e}"),
        }
    }
}
