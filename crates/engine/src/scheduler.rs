//! Slot-constrained wave scheduling — thin adapter over the shared
//! policy kernel.
//!
//! The actual assignment policies (Hadoop slot-pull with
//! primary→replica→steal preference for mappers, round-robin /
//! balanced placement for reducers, wave arithmetic) live in
//! `rcmp-policy`; see that crate's docs for the paper phenomena they
//! reproduce (§II waves, §III-A locality, §IV-B hot-spots). This module
//! only translates the engine's `MapTask`/`ReduceTask` structs into the
//! kernel's index-based task-set view and maps the returned indices
//! back onto tasks.

use crate::task::{MapTask, ReduceTask};
use rcmp_model::{NodeId, PlacementKernel, Result};
use rcmp_policy::{
    CacheAffinity, FnReduceTasks, MapTaskSet, PolicyCtx, SliceTopology, WaveAssignment,
};

pub use rcmp_policy::ReduceAssignment;

/// Tasks grouped into waves: `waves[w]` is the list of `(node, task)`
/// pairs running concurrently in wave `w`.
pub type Waves<T> = Vec<Vec<(NodeId, T)>>;

/// The kernel's view of a slice of engine map tasks: the primary holder
/// is the block's first replica (the writer-local copy, see
/// `rcmp-dfs`'s placement), any listed replica is local.
struct MapTaskSlice<'a>(&'a [MapTask]);

impl MapTaskSet<NodeId> for MapTaskSlice<'_> {
    fn len(&self) -> usize {
        self.0.len()
    }

    fn is_primary_holder(&self, task: usize, node: NodeId) -> bool {
        self.0[task].block.replicas.first() == Some(&node)
    }

    fn holds_replica(&self, task: usize, node: NodeId) -> bool {
        self.0[task].block.replicas.contains(&node)
    }
}

/// Reifies an index-based kernel assignment back onto owned tasks.
fn resolve<T>(assignment: WaveAssignment<NodeId>, tasks: Vec<T>) -> Waves<T> {
    let mut slots: Vec<Option<T>> = tasks.into_iter().map(Some).collect();
    assignment
        .into_iter()
        .map(|wave| {
            wave.into_iter()
                .map(|(n, t)| (n, slots[t].take().expect("kernel assigns each task once")))
                .collect()
        })
        .collect()
}

/// Assigns map tasks to waves over the live nodes via the shared
/// kernel, under the configured placement kernel. Errors with
/// [`rcmp_model::Error::NoLiveNodes`] when the cluster has no survivors.
///
/// `cached` is the chain-cache affinity map, aligned with `tasks`:
/// `cached[t]` names the node holding task `t`'s input partition in
/// memory, if any. Only the `Stable` kernel consults it; pass an empty
/// slice when the cache is off (both kernels then place identically).
pub fn assign_map_waves(
    tasks: Vec<MapTask>,
    live: &[NodeId],
    slots: u32,
    kernel: PlacementKernel,
    cached: &[Option<NodeId>],
    ctx: PolicyCtx<'_>,
) -> Result<Waves<MapTask>> {
    let topo = SliceTopology::uniform(live, slots);
    let set = CacheAffinity::new(MapTaskSlice(&tasks), |t: usize| {
        cached.get(t).copied().flatten()
    });
    let assignment = rcmp_policy::assign_map_waves(&topo, &set, kernel, ctx)?;
    Ok(resolve(assignment, tasks))
}

/// Assigns reduce tasks to waves over the live nodes via the shared
/// kernel. Errors with [`rcmp_model::Error::NoLiveNodes`] when the
/// cluster has no survivors.
pub fn assign_reduce_waves(
    tasks: Vec<ReduceTask>,
    live: &[NodeId],
    slots: u32,
    style: ReduceAssignment,
    ctx: PolicyCtx<'_>,
) -> Result<Waves<ReduceTask>> {
    let topo = SliceTopology::uniform(live, slots);
    let set = FnReduceTasks::new(tasks.len(), |t| tasks[t].id.partition.index());
    let assignment = rcmp_policy::assign_reduce_waves(&topo, &set, style, ctx)?;
    Ok(resolve(assignment, tasks))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapstore::MapInputKey;
    use rcmp_dfs::BlockLocation;
    use rcmp_model::{BlockId, ByteSize, Error, JobId, MapTaskId, PartitionId, ReduceTaskId};

    fn nodes(n: u32) -> Vec<NodeId> {
        (0..n).map(NodeId).collect()
    }

    fn map_task(idx: u32, replicas: &[u32]) -> MapTask {
        MapTask {
            id: MapTaskId::new(JobId(1), idx),
            key: MapInputKey::new(JobId(1), PartitionId(0), idx),
            block: BlockLocation {
                id: BlockId(idx as u64),
                size: ByteSize::mib(1),
                content_hash: 0,
                replicas: replicas.iter().map(|&n| NodeId(n)).collect(),
            },
        }
    }

    fn reduce_task(p: u32) -> ReduceTask {
        ReduceTask::new(ReduceTaskId::whole(JobId(1), PartitionId(p)))
    }

    #[test]
    fn balanced_map_tasks_prefer_local() {
        // 4 tasks, 4 nodes, 1 replica each on its "own" node.
        let tasks: Vec<MapTask> = (0..4).map(|i| map_task(i, &[i])).collect();
        let waves = assign_map_waves(
            tasks,
            &nodes(4),
            1,
            PlacementKernel::Default,
            &[],
            PolicyCtx::disabled(),
        )
        .unwrap();
        assert_eq!(waves.len(), 1);
        for (node, task) in &waves[0] {
            assert!(
                task.block.replicas.contains(node),
                "task should be local: {task:?} on {node}"
            );
        }
    }

    #[test]
    fn few_tasks_spread_over_nodes_not_piled_on_replica_holder() {
        // The hot-spot scenario: 3 blocks all on node 0, 4 live nodes.
        let tasks: Vec<MapTask> = (0..3).map(|i| map_task(i, &[0])).collect();
        let waves = assign_map_waves(
            tasks,
            &nodes(4),
            1,
            PlacementKernel::Default,
            &[],
            PolicyCtx::disabled(),
        )
        .unwrap();
        // All three run in a single wave on three different nodes.
        assert_eq!(waves.len(), 1);
        let used: std::collections::HashSet<NodeId> = waves[0].iter().map(|(n, _)| *n).collect();
        assert_eq!(used.len(), 3);
    }

    #[test]
    fn waves_respect_slots() {
        let tasks: Vec<MapTask> = (0..8).map(|i| map_task(i, &[])).collect();
        let waves = assign_map_waves(
            tasks,
            &nodes(2),
            2,
            PlacementKernel::Default,
            &[],
            PolicyCtx::disabled(),
        )
        .unwrap();
        // 8 tasks / (2 nodes * 2 slots) = 2 waves.
        assert_eq!(waves.len(), 2);
        for wave in &waves {
            let mut per_node = std::collections::HashMap::new();
            for (n, _) in wave {
                *per_node.entry(*n).or_insert(0) += 1;
            }
            assert!(per_node.values().all(|&c| c <= 2));
        }
    }

    #[test]
    fn initial_reducers_round_robin() {
        // 10 reducers, 10 nodes, 1 slot: exactly 1 wave (WR = 1).
        let tasks: Vec<ReduceTask> = (0..10).map(reduce_task).collect();
        let waves = assign_reduce_waves(
            tasks,
            &nodes(10),
            1,
            ReduceAssignment::RoundRobinByPartition,
            PolicyCtx::disabled(),
        )
        .unwrap();
        assert_eq!(waves.len(), 1);
        for (node, task) in &waves[0] {
            assert_eq!(node.raw(), task.id.partition.raw() % 10);
        }
    }

    #[test]
    fn round_robin_gives_paper_wave_count() {
        // 40 reducers, 10 nodes, 1 slot: WR = 4 waves.
        let tasks: Vec<ReduceTask> = (0..40).map(reduce_task).collect();
        let waves = assign_reduce_waves(
            tasks,
            &nodes(10),
            1,
            ReduceAssignment::RoundRobinByPartition,
            PolicyCtx::disabled(),
        )
        .unwrap();
        assert_eq!(waves.len(), 4);
    }

    #[test]
    fn balance_spreads_splits_over_all_nodes() {
        use rcmp_model::SplitId;
        // 1 recomputed reducer split 8 ways, 9 surviving nodes (Fig. 4b).
        let tasks: Vec<ReduceTask> = (0..8)
            .map(|i| ReduceTask::new(ReduceTaskId::split(JobId(1), PartitionId(0), SplitId(i), 8)))
            .collect();
        let waves = assign_reduce_waves(
            tasks,
            &nodes(9),
            1,
            ReduceAssignment::Balance,
            PolicyCtx::disabled(),
        )
        .unwrap();
        assert_eq!(waves.len(), 1, "all splits fit one wave across nodes");
        let used: std::collections::HashSet<NodeId> = waves[0].iter().map(|(n, _)| *n).collect();
        assert_eq!(used.len(), 8);
    }

    #[test]
    fn no_split_recompute_uses_one_node_per_reducer() {
        // 1 recomputed whole reducer, 9 nodes: 1 task on 1 node — the
        // paper's under-utilization (Fig. 4a).
        let waves = assign_reduce_waves(
            vec![reduce_task(0)],
            &nodes(9),
            1,
            ReduceAssignment::Balance,
            PolicyCtx::disabled(),
        )
        .unwrap();
        assert_eq!(waves.len(), 1);
        assert_eq!(waves[0].len(), 1);
    }

    #[test]
    fn empty_task_list_zero_waves() {
        let waves = assign_map_waves(
            Vec::new(),
            &nodes(2),
            1,
            PlacementKernel::Default,
            &[],
            PolicyCtx::disabled(),
        )
        .unwrap();
        assert!(waves.is_empty());
        let waves = assign_reduce_waves(
            Vec::new(),
            &nodes(2),
            1,
            ReduceAssignment::Balance,
            PolicyCtx::disabled(),
        )
        .unwrap();
        assert!(waves.is_empty());
    }

    #[test]
    fn stable_kernel_follows_cache_affinity() {
        // Every block's DFS replica sits on node 0, but each task's
        // partition is cached on its "own" node.
        let tasks: Vec<MapTask> = (0..4).map(|i| map_task(i, &[0])).collect();
        let cached: Vec<Option<NodeId>> = (0..4).map(|i| Some(NodeId(i))).collect();
        let waves = assign_map_waves(
            tasks,
            &nodes(4),
            1,
            PlacementKernel::Stable,
            &cached,
            PolicyCtx::disabled(),
        )
        .unwrap();
        assert_eq!(waves.len(), 1);
        for (node, task) in &waves[0] {
            assert_eq!(*node, NodeId(task.id.index), "task follows its cached copy");
        }
    }

    #[test]
    fn dead_cluster_is_a_typed_error() {
        let err = assign_map_waves(
            vec![map_task(0, &[0])],
            &[],
            1,
            PlacementKernel::Default,
            &[],
            PolicyCtx::disabled(),
        )
        .unwrap_err();
        assert_eq!(err, Error::NoLiveNodes);
    }
}
