//! Wave assignment — thin adapters over the shared policy kernel
//! (`rcmp-policy`), so the simulator and `rcmp-engine` execute the *same*
//! implementation of RCMP's slot-pull and round-robin placement.

use crate::state::Node;
use rcmp_model::{PlacementKernel, Result};
use rcmp_policy::{
    CacheAffinity, FnMapTasks, FnReduceTasks, PolicyCtx, ReduceAssignment, SliceTopology,
};

/// Assigns tasks with Hadoop's slot-pull semantics under the selected
/// placement kernel: nodes claim tasks in rounds, preferring a task
/// whose *primary* replica they hold (the writer-local copy), then any
/// task whose data they hold, then stealing a non-local task. Returns
/// `(node, task_index)` per wave given `slots` per node;
/// `Err(NoLiveNodes)` if the cluster is fully dead.
///
/// `cached` is the chain-cache affinity map: `cached(t)` names the node
/// holding task `t`'s input partition in memory, if any. Only the
/// `Stable` kernel consults it; pass `|_| None` when the cache is off
/// (both kernels then place identically) — the same contract as the
/// engine scheduler's `cached` slice.
#[allow(clippy::too_many_arguments)]
pub fn assign_map_waves<P, Q, C>(
    num_tasks: usize,
    live: &[Node],
    slots: u32,
    kernel: PlacementKernel,
    primary: Q,
    prefers: P,
    cached: C,
    ctx: PolicyCtx<'_>,
) -> Result<Vec<Vec<(Node, usize)>>>
where
    P: Fn(usize, Node) -> bool,
    Q: Fn(usize, Node) -> bool,
    C: Fn(usize) -> Option<Node>,
{
    let topo = SliceTopology::uniform(live, slots);
    let tasks = CacheAffinity::new(FnMapTasks::new(num_tasks, primary, prefers), cached);
    rcmp_policy::assign_map_waves(&topo, &tasks, kernel, ctx)
}

/// Assigns reducers by the requested style: `RoundRobinByPartition` for
/// initial runs (keyed by partition id), `Balance` for recomputation
/// runs. `Err(NoLiveNodes)` if the cluster is fully dead.
pub fn assign_reduce_waves<K>(
    num_tasks: usize,
    live: &[Node],
    slots: u32,
    style: ReduceAssignment,
    key: K,
    ctx: PolicyCtx<'_>,
) -> Result<Vec<Vec<(Node, usize)>>>
where
    K: Fn(usize) -> usize,
{
    let topo = SliceTopology::uniform(live, slots);
    let tasks = FnReduceTasks::new(num_tasks, key);
    rcmp_policy::assign_reduce_waves(&topo, &tasks, style, ctx)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balanced_fills_all_nodes() {
        let live: Vec<Node> = (0..4).collect();
        let waves = assign_map_waves(
            8,
            &live,
            1,
            PlacementKernel::Default,
            |_, _| false,
            |_, _| false,
            |_| None,
            PolicyCtx::disabled(),
        )
        .unwrap();
        assert_eq!(waves.len(), 2);
        assert_eq!(waves[0].len(), 4);
    }

    #[test]
    fn locality_tie_break() {
        let live: Vec<Node> = (0..4).collect();
        // Every task prefers node 2; only the first per wave-round can
        // have it, the rest balance.
        let waves = assign_map_waves(
            4,
            &live,
            1,
            PlacementKernel::Default,
            |_, _| false,
            |_, n| n == 2,
            |_| None,
            PolicyCtx::disabled(),
        )
        .unwrap();
        assert_eq!(waves.len(), 1);
        let on2 = waves[0].iter().filter(|(n, _)| *n == 2).count();
        assert_eq!(on2, 1);
    }

    #[test]
    fn round_robin_wave_count() {
        let live: Vec<Node> = (0..10).collect();
        // 40 reducers keyed by their index: 4 waves (paper's WR example).
        let waves = assign_reduce_waves(
            40,
            &live,
            1,
            ReduceAssignment::RoundRobinByPartition,
            |t| t,
            PolicyCtx::disabled(),
        )
        .unwrap();
        assert_eq!(waves.len(), 4);
    }

    #[test]
    fn empty_tasks_no_waves() {
        let live: Vec<Node> = (0..2).collect();
        assert!(assign_map_waves(
            0,
            &live,
            1,
            PlacementKernel::Default,
            |_, _| false,
            |_, _| false,
            |_| None,
            PolicyCtx::disabled()
        )
        .unwrap()
        .is_empty());
    }

    #[test]
    fn dead_cluster_is_a_typed_error() {
        let live: Vec<Node> = Vec::new();
        let err = assign_map_waves(
            3,
            &live,
            1,
            PlacementKernel::Default,
            |_, _| false,
            |_, _| false,
            |_| None,
            PolicyCtx::disabled(),
        )
        .unwrap_err();
        assert!(matches!(err, rcmp_model::Error::NoLiveNodes));
    }
}
