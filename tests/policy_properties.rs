//! Property-based validation of the shared policy kernel (ISSUE 3): the
//! engine's and the simulator's wave-assignment adapters are two views
//! of ONE implementation, so over randomized clusters, slot counts and
//! replica layouts they must produce *identical* schedules — same wave
//! counts, same per-node task counts, same locality fractions.

use proptest::prelude::*;
use rcmp::dfs::BlockLocation;
use rcmp::engine::scheduler as eng;
use rcmp::engine::task::{MapTask, ReduceTask};
use rcmp::engine::MapInputKey;
use rcmp::model::PlacementKernel;
use rcmp::model::{BlockId, ByteSize, Error, JobId, MapTaskId, NodeId, PartitionId, ReduceTaskId};
use rcmp::policy::{
    expected_chain_time, optimal_interval, AdaptConfig, AdaptivePolicy, FaultObserver, Membership,
    PolicyCtx, ReduceAssignment,
};
use rcmp::sim::sched as sim;
use std::collections::BTreeMap;

/// Engine map task `idx` whose block replicas live on `holders`.
fn map_task(idx: usize, holders: &[u32]) -> MapTask {
    MapTask {
        id: MapTaskId::new(JobId(1), idx as u32),
        key: MapInputKey::new(JobId(1), PartitionId(0), idx as u32),
        block: BlockLocation {
            id: BlockId(idx as u64),
            size: ByteSize::mib(1),
            content_hash: 0,
            replicas: holders.iter().map(|&n| NodeId(n)).collect(),
        },
    }
}

/// Flattens engine map waves into `(wave, node, task_index)` triples,
/// recovering the task index from the block id.
fn flatten_engine(waves: &[Vec<(NodeId, MapTask)>]) -> Vec<(usize, u32, usize)> {
    waves
        .iter()
        .enumerate()
        .flat_map(|(w, wave)| {
            wave.iter()
                .map(move |(n, t)| (w, n.raw(), t.block.id.raw() as usize))
        })
        .collect()
}

fn flatten_sim(waves: &[Vec<(u32, usize)>]) -> Vec<(usize, u32, usize)> {
    waves
        .iter()
        .enumerate()
        .flat_map(|(w, wave)| wave.iter().map(move |&(n, t)| (w, n, t)))
        .collect()
}

fn per_node_counts(flat: &[(usize, u32, usize)]) -> BTreeMap<u32, usize> {
    flat.iter().fold(BTreeMap::new(), |mut m, &(_, n, _)| {
        *m.entry(n).or_insert(0) += 1;
        m
    })
}

/// Fraction of assignments whose node holds a replica of the task.
fn locality_fraction(flat: &[(usize, u32, usize)], layout: &[Vec<u32>]) -> f64 {
    if flat.is_empty() {
        return 1.0;
    }
    let local = flat
        .iter()
        .filter(|&&(_, n, t)| layout[t].contains(&n))
        .count();
    local as f64 / flat.len() as f64
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 64,
        max_shrink_iters: 50,
        ..ProptestConfig::default()
    })]

    /// Map scheduling: for random replica layouts the two adapters emit
    /// the exact same (wave, node, task) schedule.
    #[test]
    fn map_waves_agree(
        nodes in 1u32..12,
        slots in 1u32..4,
        raw_layout in prop::collection::vec(
            prop::collection::vec(0u32..12, 0usize..4),
            0usize..48,
        ),
    ) {
        // Clamp replica holders onto the live node range, dropping
        // duplicates but keeping order (first holder = primary).
        let layout: Vec<Vec<u32>> = raw_layout
            .iter()
            .map(|hs| {
                let mut seen = Vec::new();
                for &h in hs {
                    let n = h % nodes;
                    if !seen.contains(&n) {
                        seen.push(n);
                    }
                }
                seen
            })
            .collect();
        let live_sim: Vec<u32> = (0..nodes).collect();
        let live_eng: Vec<NodeId> = (0..nodes).map(NodeId).collect();

        let eng_tasks: Vec<MapTask> = layout
            .iter()
            .enumerate()
            .map(|(i, hs)| map_task(i, hs))
            .collect();
        let eng_waves = eng::assign_map_waves(
            eng_tasks,
            &live_eng,
            slots,
            PlacementKernel::Default,
            &[],
            PolicyCtx::disabled(),
        )
        .unwrap();
        let sim_waves = sim::assign_map_waves(
            layout.len(),
            &live_sim,
            slots,
            PlacementKernel::Default,
            |t, n| layout[t].first() == Some(&n),
            |t, n| layout[t].contains(&n),
            |_| None,
            PolicyCtx::disabled(),
        )
        .unwrap();

        let ef = flatten_engine(&eng_waves);
        let sf = flatten_sim(&sim_waves);
        prop_assert_eq!(eng_waves.len(), sim_waves.len(), "wave counts");
        prop_assert_eq!(
            per_node_counts(&ef),
            per_node_counts(&sf),
            "per-node task counts"
        );
        prop_assert_eq!(
            locality_fraction(&ef, &layout),
            locality_fraction(&sf, &layout),
            "locality fractions"
        );
        // Strongest form: one kernel ⇒ byte-identical schedules.
        prop_assert_eq!(ef, sf, "schedules");
    }

    /// Reduce scheduling agrees under both assignment styles.
    #[test]
    fn reduce_waves_agree(
        nodes in 1u32..12,
        slots in 1u32..4,
        parts in prop::collection::vec(0u32..40, 0usize..48),
        balance in prop::bool::ANY,
    ) {
        let style = if balance {
            ReduceAssignment::Balance
        } else {
            ReduceAssignment::RoundRobinByPartition
        };
        let live_sim: Vec<u32> = (0..nodes).collect();
        let live_eng: Vec<NodeId> = (0..nodes).map(NodeId).collect();

        let eng_tasks: Vec<ReduceTask> = parts
            .iter()
            .map(|&p| ReduceTask::new(ReduceTaskId::whole(JobId(1), PartitionId(p))))
            .collect();
        let eng_waves =
            eng::assign_reduce_waves(eng_tasks, &live_eng, slots, style, PolicyCtx::disabled())
                .unwrap();
        let sim_waves = sim::assign_reduce_waves(
            parts.len(),
            &live_sim,
            slots,
            style,
            |t| parts[t] as usize,
            PolicyCtx::disabled(),
        )
        .unwrap();

        prop_assert_eq!(eng_waves.len(), sim_waves.len(), "wave counts");
        // Compare (wave, node, partition) triples: the engine returns
        // owned tasks, so the partition id is the common currency.
        let ef: Vec<(usize, u32, u32)> = eng_waves
            .iter()
            .enumerate()
            .flat_map(|(w, wave)| {
                wave.iter()
                    .map(move |(n, t)| (w, n.raw(), t.id.partition.raw()))
            })
            .collect();
        let parts_ref = &parts;
        let sf: Vec<(usize, u32, u32)> = sim_waves
            .iter()
            .enumerate()
            .flat_map(|(w, wave)| wave.iter().map(move |&(n, t)| (w, n, parts_ref[t])))
            .collect();
        prop_assert_eq!(ef, sf, "schedules");
    }

    /// Elastic membership churn (ISSUE 8): drive a shared membership
    /// through random join/drain/decommission/rejoin/crash transitions
    /// and re-derive map schedules at *every epoch* with both placement
    /// kernels — the engine and simulator adapters must stay
    /// byte-identical the whole way through.
    #[test]
    fn kernel_map_waves_agree_across_membership_churn(
        nodes in 2u32..10,
        slots in 1u32..4,
        stable in prop::bool::ANY,
        churn in prop::collection::vec((0u8..5, 0u32..64), 1usize..12),
        raw_layout in prop::collection::vec(
            prop::collection::vec(0u32..16, 0usize..4),
            0usize..40,
        ),
        cache_sel in prop::collection::vec((any::<bool>(), 0u32..16), 0usize..40),
    ) {
        let kernel = if stable {
            PlacementKernel::Stable
        } else {
            PlacementKernel::Default
        };
        let mut m = Membership::uniform(nodes);

        let check = |m: &Membership| -> Result<(), TestCaseError> {
            let live_sim = m.schedulable();
            let live_eng: Vec<NodeId> =
                live_sim.iter().copied().map(NodeId).collect();
            // Holders land on any known node, live or not.
            let layout: Vec<Vec<u32>> = raw_layout
                .iter()
                .map(|hs| {
                    let mut seen = Vec::new();
                    for &h in hs {
                        let n = h % m.len() as u32;
                        if !seen.contains(&n) {
                            seen.push(n);
                        }
                    }
                    seen
                })
                .collect();
            let eng_tasks: Vec<MapTask> = layout
                .iter()
                .enumerate()
                .map(|(i, hs)| map_task(i, hs))
                .collect();
            // Chain-cache affinity, identical on both sides (only the
            // Stable kernel reads it).
            let cached: Vec<Option<u32>> = (0..layout.len())
                .map(|t| match cache_sel.get(t) {
                    Some(&(true, n)) => Some(n % m.len() as u32),
                    _ => None,
                })
                .collect();
            let cached_eng: Vec<Option<NodeId>> =
                cached.iter().map(|o| o.map(NodeId)).collect();
            let eng = eng::assign_map_waves(
                eng_tasks, &live_eng, slots, kernel, &cached_eng, PolicyCtx::disabled(),
            );
            let sim = sim::assign_map_waves(
                layout.len(),
                &live_sim,
                slots,
                kernel,
                |t, n| layout[t].first() == Some(&n),
                |t, n| layout[t].contains(&n),
                |t| cached.get(t).copied().flatten(),
                PolicyCtx::disabled(),
            );
            match (eng, sim) {
                (Ok(e), Ok(s)) => {
                    prop_assert_eq!(
                        flatten_engine(&e),
                        flatten_sim(&s),
                        "schedules diverged at epoch {}",
                        m.epoch()
                    );
                }
                (Err(e), Err(s)) => {
                    prop_assert!(matches!(e, Error::NoLiveNodes));
                    prop_assert!(matches!(s, Error::NoLiveNodes));
                }
                (e, s) => prop_assert!(
                    false,
                    "one adapter failed at epoch {}: {e:?} vs {s:?}",
                    m.epoch()
                ),
            }
            Ok(())
        };

        check(&m)?;
        for &(op, target) in &churn {
            let t = target % m.len() as u32;
            // Failed transitions are typed no-ops; apply whatever lands.
            match op {
                0 => drop(m.drain(t)),
                1 => drop(m.rejoin(t)),
                2 => drop(m.decommission(t)),
                3 => drop(m.mark_dead(t)),
                _ => drop(m.join()),
            }
            check(&m)?;
        }
    }

    /// Same churn property for reduce scheduling, both styles (reducer
    /// placement takes no kernel).
    #[test]
    fn kernel_reduce_waves_agree_across_membership_churn(
        nodes in 2u32..10,
        slots in 1u32..4,
        balance in prop::bool::ANY,
        churn in prop::collection::vec((0u8..5, 0u32..64), 1usize..10),
        parts in prop::collection::vec(0u32..40, 0usize..40),
    ) {
        let style = if balance {
            ReduceAssignment::Balance
        } else {
            ReduceAssignment::RoundRobinByPartition
        };
        let mut m = Membership::uniform(nodes);

        let check = |m: &Membership| -> Result<(), TestCaseError> {
            let live_sim = m.schedulable();
            let live_eng: Vec<NodeId> =
                live_sim.iter().copied().map(NodeId).collect();
            let eng_tasks: Vec<ReduceTask> = parts
                .iter()
                .map(|&p| ReduceTask::new(ReduceTaskId::whole(JobId(1), PartitionId(p))))
                .collect();
            let eng = eng::assign_reduce_waves(
                eng_tasks, &live_eng, slots, style, PolicyCtx::disabled(),
            );
            let sim = sim::assign_reduce_waves(
                parts.len(),
                &live_sim,
                slots,
                style,
                |t| parts[t] as usize,
                PolicyCtx::disabled(),
            );
            match (eng, sim) {
                (Ok(e), Ok(s)) => {
                    let ef: Vec<(usize, u32, u32)> = e
                        .iter()
                        .enumerate()
                        .flat_map(|(w, wave)| {
                            wave.iter()
                                .map(move |(n, t)| (w, n.raw(), t.id.partition.raw()))
                        })
                        .collect();
                    let parts_ref = &parts;
                    let sf: Vec<(usize, u32, u32)> = s
                        .iter()
                        .enumerate()
                        .flat_map(|(w, wave)| {
                            wave.iter().map(move |&(n, t)| (w, n, parts_ref[t]))
                        })
                        .collect();
                    prop_assert_eq!(ef, sf, "schedules diverged at epoch {}", m.epoch());
                }
                (Err(e), Err(s)) => {
                    prop_assert!(matches!(e, Error::NoLiveNodes));
                    prop_assert!(matches!(s, Error::NoLiveNodes));
                }
                (e, s) => prop_assert!(
                    false,
                    "one adapter failed at epoch {}: {e:?} vs {s:?}",
                    m.epoch()
                ),
            }
            Ok(())
        };

        check(&m)?;
        for &(op, target) in &churn {
            let t = target % m.len() as u32;
            match op {
                0 => drop(m.drain(t)),
                1 => drop(m.rejoin(t)),
                2 => drop(m.decommission(t)),
                3 => drop(m.mark_dead(t)),
                _ => drop(m.join()),
            }
            check(&m)?;
        }
    }

    /// A fully-dead cluster is the same typed error everywhere.
    #[test]
    fn dead_cluster_agrees(tasks in 1usize..20) {
        let eng_tasks: Vec<MapTask> =
            (0..tasks).map(|i| map_task(i, &[0])).collect();
        let e = eng::assign_map_waves(
            eng_tasks,
            &[],
            1,
            PlacementKernel::Default,
            &[],
            PolicyCtx::disabled(),
        )
        .unwrap_err();
        let s = sim::assign_map_waves(
            tasks,
            &[],
            1,
            PlacementKernel::Default,
            |_, _| false,
            |_, _| false,
            |_| None,
            PolicyCtx::disabled(),
        )
        .unwrap_err();
        prop_assert!(matches!(e, Error::NoLiveNodes));
        prop_assert!(matches!(s, Error::NoLiveNodes));
    }

    /// The adaptive cadence is the argmin of the analytic chain-time
    /// model, so it dominates every fixed cadence — any rate, chain
    /// length or cost mix (the guarantee `BENCH_resilience` documents).
    #[test]
    fn adaptive_cadence_dominates_every_fixed(
        rate_m in 0u32..1500,
        jobs in 1u32..40,
        replicate_m in 10u32..2000,
        recompute_m in 10u32..2000,
        detect_m in 0u32..3000,
    ) {
        // The vendored proptest has no float strategies; sample
        // millis and scale.
        let rate = f64::from(rate_m) / 1000.0;
        let cfg = AdaptConfig {
            horizon: jobs,
            replicate_cost: f64::from(replicate_m) / 1000.0,
            recompute_cost: f64::from(recompute_m) / 1000.0,
            detect_cost: f64::from(detect_m) / 1000.0,
            ..AdaptConfig::default_for(10)
        };
        let best = optimal_interval(rate, jobs, &cfg);
        let t_best = expected_chain_time(best, rate, jobs, &cfg);
        for k in (1..=jobs).map(Some).chain([None]) {
            let t = expected_chain_time(k, rate, jobs, &cfg);
            prop_assert!(
                t_best <= t + 1e-9,
                "argmin {best:?} ({t_best}) beaten by fixed {k:?} ({t}) at rate {rate}"
            );
        }
    }

    /// The closed loop through the `FaultObserver` seam: the engine
    /// reports a job's losses in one batch, the simulator one fault per
    /// `fail_node` — identical fault/completion sequences must yield
    /// byte-identical trajectories either way.
    #[test]
    fn adaptation_trajectories_agree_across_observers(
        faults in prop::collection::vec(0u32..3, 1usize..60),
        prior_m in 0u32..800,
        hysteresis_m in 0u32..600,
    ) {
        let cfg = AdaptConfig {
            prior_rate: f64::from(prior_m) / 1000.0,
            hysteresis: f64::from(hysteresis_m) / 1000.0,
            ..AdaptConfig::default_for(8)
        };
        let mut engine_side = AdaptivePolicy::new(cfg);
        let mut sim_side = AdaptivePolicy::new(cfg);
        for &f in &faults {
            engine_side.record_fault(f);
            for _ in 0..f {
                sim_side.record_fault(1);
            }
            prop_assert_eq!(engine_side.job_completed(), sim_side.job_completed());
            prop_assert_eq!(
                engine_side.current_interval(),
                sim_side.current_interval()
            );
        }
        prop_assert_eq!(engine_side.trajectory(), sim_side.trajectory());
    }
}
