//! The serve probe: a multi-tenant `JobService` driven by a closed
//! loop for a few seconds of every traced run.
//!
//! Two clients, one per tenant (weights 1 and 2, one chain in flight
//! each), submit a 3-job chain, wait for its ticket, check the output
//! against the golden digest, delete the chain's DFS outputs and map
//! outputs, and submit again. Inputs are tiny (4 KiB blocks, 256 KiB),
//! so fixed per-task costs dominate: admission and arbitration,
//! scheduling, executor dispatch, span and metric recording, DFS
//! namespace operations, and the locks concurrent chains share.

use crate::chain::SPLIT;
use crate::probe::{Clock, Probe, ProbeEvent};
use crate::report::{self, median, percentile, Metrics, Stopwatch, Tally};
use crate::trace::{chain_layers, SpanLog};
use rcmp_core::{ChainDriver, Strategy};
use rcmp_engine::{Cluster, NoFailures};
use rcmp_model::rng::derive_indexed;
use rcmp_model::{ByteSize, ClusterConfig, ExecutorConfig, ServeConfig, TenantId};
use rcmp_policy::TenantShare;
use rcmp_serve::{ChainRequest, JobService};
use rcmp_workloads::checksum::{digest_file, OutputDigest};
use rcmp_workloads::{generate_input, ChainBuilder, DataGenConfig};
use std::sync::Arc;
use std::time::Instant;

/// Cluster nodes (and input partitions, and reducers per job).
pub const NODES: u32 = 6;
/// Jobs per served chain.
pub const JOBS: u32 = 3;
/// Generated input, bytes.
pub const INPUT_BYTES: u64 = 256 << 10;
/// DFS block size.
pub const BLOCK: ByteSize = ByteSize::kib(4);
/// Closed-loop clients; client `c` submits as tenant `c`.
pub const CLIENTS: u32 = 2;

/// Fair-share weight of each client's tenant.
const WEIGHTS: [u32; CLIENTS as usize] = [1, 2];

/// Async executor with one worker per CPU, 4 KiB blocks.
pub fn cluster_config() -> ClusterConfig {
    let mut cfg = ClusterConfig::small_test(NODES);
    cfg.block_size = BLOCK;
    cfg.executor = ExecutorConfig::async_workers(report::nproc());
    cfg
}

/// Room for both clients' chains at once, sharing one worker per CPU.
pub fn serve_config() -> ServeConfig {
    ServeConfig {
        queue_depth: 2,
        max_concurrent_chains: CLIENTS,
        worker_budget: report::nproc(),
        workers_per_chain: (report::nproc() / CLIENTS).max(1),
        ..ServeConfig::default()
    }
}

/// The served input, derived from the benchmark seed.
pub fn datagen(seed: u64) -> DataGenConfig {
    DataGenConfig {
        path: "input".into(),
        partitions: NODES,
        bytes_per_partition: ByteSize::bytes(INPUT_BYTES / u64::from(NODES)),
        value_size: 100,
        replication: 3,
        seed: derive_indexed(seed, "perfbench-serve-input", 0),
    }
}

/// A running service and what its clients check against.
struct Deployment {
    service: JobService,
    cluster: Arc<Cluster>,
    golden: OutputDigest,
}

/// Golden digest on a pristine cluster, then the service cluster, its
/// input, the service and its tenants.
fn deploy(seed: u64) -> Result<Deployment, String> {
    let pristine = Cluster::new(cluster_config());
    generate_input(pristine.dfs(), &datagen(seed)).map_err(|e| format!("golden input: {e}"))?;
    let spec = ChainBuilder::new(JOBS, NODES).build();
    ChainDriver::new(&pristine, Strategy::rcmp_split(SPLIT))
        .run(&spec.jobs)
        .map_err(|e| format!("golden chain: {e}"))?;
    let (golden, _) = digest_file(
        pristine.dfs(),
        spec.final_output(),
        pristine.live_nodes()[0],
    )
    .map_err(|e| format!("golden digest: {e}"))?;
    drop(pristine);

    let cluster = Arc::new(Cluster::new(cluster_config()));
    generate_input(cluster.dfs(), &datagen(seed)).map_err(|e| format!("input: {e}"))?;
    let service = JobService::new(Arc::clone(&cluster), serve_config())
        .map_err(|e| format!("service: {e}"))?;
    for (c, &weight) in WEIGHTS.iter().enumerate() {
        service.register_tenant(
            TenantId(c as u32),
            TenantShare {
                weight,
                max_in_flight: 1,
            },
        );
    }
    Ok(Deployment {
        service,
        cluster,
        golden,
    })
}

/// One request as the client saw it.
#[derive(Clone, Debug, Default)]
struct Request {
    client: u32,
    submit_ns: u64,
    submitted_ns: u64,
    done_ns: u64,
    ok: bool,
    events: Vec<ProbeEvent>,
}

impl Request {
    fn latency_ms(&self) -> f64 {
        (self.done_ns - self.submit_ns) as f64 / 1e6
    }

    /// The chain's first `JobStart` (the end of its queue wait).
    fn first_start_ns(&self) -> u64 {
        self.events.first().map_or(self.done_ns, |e| e.at_ns)
    }
}

/// One client's closed loop until `deadline` (at least one request).
fn client(c: u32, d: &Deployment, clock: Clock, deadline: Instant) -> Vec<Request> {
    let dfs = d.cluster.dfs();
    let mut out = Vec::new();
    let mut i = 0u32;
    while out.is_empty() || Instant::now() < deadline {
        i += 1;
        // Disjoint DFS paths and job ids per chain; the chain's UDFs and
        // digest do not depend on the namespace.
        let base = 1_000 + (i * CLIENTS + c) * 8;
        let chain = ChainBuilder::new(JOBS, NODES)
            .input("input")
            .namespace(format!("c{c}/r{i}/"), base)
            .build();
        let probe = Arc::new(Probe::new(Arc::new(NoFailures), clock));
        let req = ChainRequest::new(TenantId(c), chain.jobs.clone(), Strategy::rcmp_split(SPLIT))
            .with_label(format!("c{c}/r{i}"))
            .with_injector(probe.clone());
        let mut r = Request {
            client: c,
            submit_ns: clock.now_ns(),
            ..Request::default()
        };
        let ticket = d.service.submit(req);
        r.submitted_ns = clock.now_ns();
        let summary = ticket.and_then(|t| t.wait()).and_then(|res| res.outcome);
        r.done_ns = clock.now_ns();
        r.events = probe.events();
        match summary {
            Ok(_) => match digest_file(dfs, chain.final_output(), d.cluster.live_nodes()[0]) {
                Ok((digest, _)) => {
                    r.ok = digest == d.golden;
                    if !r.ok {
                        eprintln!("client {c} request {i}: digest {digest:?} != golden");
                    }
                }
                Err(e) => eprintln!("client {c} request {i}: digest: {e}"),
            },
            Err(e) => eprintln!("client {c} request {i}: {e}"),
        }
        // Steady state: drop the chain's outputs and persisted map
        // outputs so the stores do not grow over the run.
        for spec in &chain.jobs {
            if dfs.file_exists(&spec.output) {
                if let Err(e) = dfs.delete_file(&spec.output) {
                    eprintln!("client {c} request {i}: deleting {}: {e}", spec.output);
                    r.ok = false;
                }
            }
            d.cluster.map_outputs().clear_job(spec.job);
        }
        out.push(r);
    }
    out
}

/// Closed-loop seconds each traced run spends on the service.
pub const PROBE_SECONDS: f64 = 5.0;

/// Deploys the service, drives it with the closed loop for `seconds`,
/// and sets the `serve.*` metrics. Served chains count in `tally` (a
/// digest mismatch or a failed chain fails the run); every request's
/// `request → queue → chain → run → wave` spans go to `log`.
pub fn probe(
    seed: u64,
    seconds: f64,
    clock: Clock,
    log: &mut SpanLog,
    tally: &mut Tally,
    m: &mut Metrics,
) -> Result<String, String> {
    let d = deploy(seed)?;
    let spans0 = d.cluster.tracer().span_count();
    let watch = Stopwatch::start();
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(seconds);
    let requests: Vec<Request> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let d = &d;
                s.spawn(move || client(c, d, clock, deadline))
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let window_s = watch.run_s();
    // Steal is known only for the whole window: scale every latency by
    // the share of the window the machine actually ran.
    let ran = window_s / watch.wall_s();
    let spans = d.cluster.tracer().span_count() - spans0;

    let ok: Vec<&Request> = requests.iter().filter(|r| r.ok).collect();
    let failed = (requests.len() - ok.len()) as u64;
    tally.attempted += requests.len() as u64;
    tally.failed += failed;
    tally.correct &= failed == 0;
    if ok.is_empty() {
        return Err("no served chain completed".into());
    }
    for (n, r) in ok.iter().enumerate() {
        let trace = n as u64 + 1;
        let request = log.record(trace, None, "request", 0, r.submit_ns, r.done_ns);
        log.record(
            trace,
            Some(request),
            "queue",
            0,
            r.submit_ns,
            r.first_start_ns(),
        );
        chain_layers(
            &r.events,
            r.first_start_ns(),
            r.done_ns,
            Some((log, trace, Some(request))),
        );
    }
    let latency: Vec<f64> = ok.iter().map(|r| r.latency_ms() * ran).collect();
    let med = |f: &dyn Fn(&Request) -> f64| median(&ok.iter().map(|r| f(r)).collect::<Vec<_>>());
    m.set("serve.latency_ms_p50", median(&latency));
    m.set("serve.latency_ms_p90", percentile(&latency, 90.0));
    m.set(
        "serve.queue_wait_ms_p50",
        med(&|r| (r.first_start_ns() - r.submit_ns) as f64 / 1e6),
    );
    m.set(
        "serve.run_ms_p50",
        med(&|r| (r.done_ns - r.first_start_ns()) as f64 / 1e6),
    );
    m.set(
        "serve.submit_us_p50",
        med(&|r| (r.submitted_ns - r.submit_ns) as f64 / 1e3),
    );
    m.set("serve.chains_per_s", ok.len() as f64 / window_s);
    m.set(
        "serve.spans_per_chain",
        spans as f64 / requests.len() as f64,
    );
    Ok(format!(
        "serve probe: executor {:?} ({} workers per chain), {} clients, {} requests, {} verified (per client {:?}), golden {:?}",
        cluster_config().executor.backend,
        serve_config().workers_per_chain,
        CLIENTS,
        requests.len(),
        ok.len(),
        (0..CLIENTS)
            .map(|c| ok.iter().filter(|r| r.client == c).count())
            .collect::<Vec<_>>(),
        d.golden
    ))
}
