//! The benchmark's own checks: every named metric is emitted, finite
//! and carries the unit `BENCHMARK.json` declares, and the pass-through
//! probe leaves a recovering chain's behaviour unchanged.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use rcmp_core::{ChainDriver, Strategy};
use rcmp_engine::Cluster;
use rcmp_perfbench::chain::{self, Counts};
use rcmp_perfbench::probe::Clock;
use rcmp_perfbench::report::result_line;
use rcmp_perfbench::trace::SpanLog;
use rcmp_perfbench::{run, schema, RunConfig, Workload, END_TO_END, PER_LAYER};
use rcmp_workloads::checksum::digest_file;
use rcmp_workloads::generate_input;

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`
/// (one metric object per line).
fn declared(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("section {section} missing"));
    let body = &text[start..];
    let end = body.find(']').expect("section is a list");
    let field = |line: &str, key: &str| -> String {
        let at = line.find(&format!("\"{key}\": \"")).expect("field present") + key.len() + 5;
        line[at..]
            .split('"')
            .next()
            .expect("closing quote")
            .to_string()
    };
    body[..end]
        .lines()
        .filter(|l| l.contains("\"name\""))
        .map(|l| (field(l, "name"), field(l, "unit")))
        .collect()
}

fn owned(schema: &[(&str, &str)]) -> Vec<(String, String)> {
    schema
        .iter()
        .map(|&(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn declared_metrics_match_the_emitted_schema() {
    assert_eq!(declared("end_to_end"), owned(END_TO_END));
    assert_eq!(declared("per_layer"), owned(PER_LAYER));
}

#[test]
fn short_runs_emit_every_metric_with_a_unit() {
    for workload in Workload::ALL {
        for trace in [false, true] {
            let cfg = RunConfig {
                workload,
                seed: 7,
                seconds: 0.0,
                trace,
                out_dir: None,
            };
            let result = run(&cfg).unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
            assert!(
                result.tally.correct,
                "{} output mismatched",
                workload.name()
            );
            assert_eq!(result.tally.failed, 0);
            for &(name, unit) in schema(trace) {
                let v = result.metrics.get(name).unwrap_or_else(|| {
                    panic!("{} (trace {trace}) did not emit {name}", workload.name())
                });
                assert!(v.is_finite(), "{name} = {v}");
                assert!(!unit.is_empty(), "{name} has no unit");
            }
            let line = result_line(result.tally, &result.metrics, schema(trace))
                .expect("complete result line");
            assert!(line.starts_with("{\"correct\": true"), "{line}");
        }
    }
}

#[test]
fn probe_is_transparent_on_a_recovering_chain() {
    let seed = 11;
    let spec = chain::chain_spec();
    // Untraced and unprobed: the workload's own injector, straight in.
    let cluster = Cluster::new(chain::cluster_config(Workload::ChainRecover));
    generate_input(cluster.dfs(), &chain::datagen(seed)).expect("input");
    let outcome = ChainDriver::new(&cluster, Strategy::rcmp_split(chain::SPLIT))
        .with_injector(chain::injector(Workload::ChainRecover, seed))
        .run(&spec.jobs)
        .expect("bare chain recovers");
    let (bare_digest, _) =
        digest_file(cluster.dfs(), spec.final_output(), cluster.live_nodes()[0]).expect("digest");
    let bare = Counts::of(&outcome);
    drop(cluster);

    // Through the probe, with spans recorded.
    let mut log = SpanLog::default();
    let probed = chain::one_chain(
        Workload::ChainRecover,
        seed,
        Clock::start(),
        Some((&mut log, 1)),
    )
    .expect("probed chain recovers");
    assert_eq!(probed.digest, bare_digest);
    assert_eq!(probed.counts, bare);
    assert_eq!(bare.runs_started, 14, "kill at job 7 re-runs 7 jobs");
    assert!(bare.recompute_map_tasks > 0 && bare.recompute_reduce_tasks > 0);
    assert!(probed.recovery.replan_ns > 0 && probed.recovery.recompute_ns > 0);
    assert_eq!(
        log.spans().iter().filter(|s| s.name == "run").count(),
        14,
        "one run span per started job"
    );
    assert_eq!(
        probed.digest,
        chain::golden(seed).expect("golden"),
        "recovered output equals the fault-free golden digest"
    );
}
