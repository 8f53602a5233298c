//! The kernel's view of a cluster, and the rack model.
//!
//! The engine schedules over `rcmp_model::NodeId`s owned by a live
//! `Cluster`; the simulator over bare `u32`s in a `SimState`. The kernel
//! only ever needs the *live* node list (survivors, in failure
//! scenarios) and the per-phase slot counts, so that is all the trait
//! asks for.
//!
//! [`RackTopology`] is the single source of truth for node→rack layout;
//! `rcmp-dfs` re-exports it for replica placement.

use rcmp_model::NodeId;
use serde::{Deserialize, Serialize};
use std::fmt::Debug;

/// What the wave kernels need to know about a cluster.
///
/// `Node` is whatever the backend uses to name a machine; the kernel
/// treats it as an opaque copyable token and returns it in assignments.
pub trait TopologyView {
    /// Backend node identifier (engine: `NodeId`; simulator: `u32`).
    type Node: Copy + Eq + Ord + Debug;

    /// Nodes currently alive, in the backend's canonical order. The
    /// order matters: round-robin placement and steal order are defined
    /// over it, and both backends must present the same order for
    /// agreement to hold (both use ascending node id).
    fn live_nodes(&self) -> Vec<Self::Node>;

    /// Concurrent map tasks per node (§II's `SM`).
    fn map_slots(&self) -> u32;

    /// Concurrent reduce tasks per node (§II's `SR`).
    fn reduce_slots(&self) -> u32;
}

/// A [`TopologyView`] over a plain slice of live nodes with uniform
/// slot counts — the adapter both backends use today.
#[derive(Clone, Copy, Debug)]
pub struct SliceTopology<'a, N> {
    live: &'a [N],
    map_slots: u32,
    reduce_slots: u32,
}

impl<'a, N: Copy + Eq + Ord + Debug> SliceTopology<'a, N> {
    /// View over `live` with distinct map/reduce slot counts.
    pub fn new(live: &'a [N], map_slots: u32, reduce_slots: u32) -> Self {
        Self {
            live,
            map_slots,
            reduce_slots,
        }
    }

    /// View over `live` with the same slot count for both phases —
    /// callers scheduling a single phase only ever read one of them.
    pub fn uniform(live: &'a [N], slots: u32) -> Self {
        Self::new(live, slots, slots)
    }
}

impl<N: Copy + Eq + Ord + Debug> TopologyView for SliceTopology<'_, N> {
    type Node = N;

    fn live_nodes(&self) -> Vec<N> {
        self.live.to_vec()
    }

    fn map_slots(&self) -> u32 {
        self.map_slots
    }

    fn reduce_slots(&self) -> u32 {
        self.reduce_slots
    }
}

/// Maps nodes to racks: contiguous blocks of `nodes.div_ceil(racks)`
/// nodes per rack (node 0..k−1 → rack 0, etc.).
///
/// "Current replication strategies protect against the simultaneous
/// failure of two nodes or against single rack-level failures" (§III-A);
/// the DCO cluster's nodes "are distributed in 3 different racks"
/// (§V-A). HDFS's default policy puts the first replica on the writer,
/// the second on a different rack, and the third on the same rack as
/// the second — surviving the loss of any single rack with factor ≥ 2.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct RackTopology {
    /// Number of nodes.
    pub nodes: u32,
    /// Number of racks.
    pub racks: u32,
}

impl RackTopology {
    /// A topology of `nodes` nodes over `racks` racks.
    pub fn new(nodes: u32, racks: u32) -> Self {
        assert!(racks >= 1 && nodes >= 1, "need at least one node and rack");
        Self { nodes, racks }
    }

    /// A flat (single-rack) topology: rack awareness is a no-op.
    pub fn flat(nodes: u32) -> Self {
        Self::new(nodes, 1)
    }

    /// The DCO layout: 3 racks.
    pub fn dco(nodes: u32) -> Self {
        Self::new(nodes, 3)
    }

    /// Nodes per rack (the last rack may be smaller).
    pub fn nodes_per_rack(&self) -> u32 {
        self.nodes.div_ceil(self.racks)
    }

    /// The rack a node lives in.
    pub fn rack_of(&self, node: NodeId) -> u32 {
        (node.raw() / self.nodes_per_rack()).min(self.racks - 1)
    }

    /// Whether two nodes share a rack.
    pub fn same_rack(&self, a: NodeId, b: NodeId) -> bool {
        self.rack_of(a) == self.rack_of(b)
    }

    /// All nodes in one rack.
    pub fn rack_members(&self, rack: u32) -> Vec<NodeId> {
        (0..self.nodes)
            .map(NodeId)
            .filter(|&n| self.rack_of(n) == rack)
            .collect()
    }
}

/// Orders placement candidates HDFS-style given a first (writer-local)
/// replica: off-rack nodes first (the second replica must leave the
/// writer's rack), then same-rack-as-second for the third, then anyone.
///
/// Returns the candidates sorted by preference; the caller takes as
/// many as the replication factor requires.
pub fn rack_aware_order(
    topology: &RackTopology,
    first: NodeId,
    candidates: &[NodeId],
) -> Vec<NodeId> {
    let mut off_rack: Vec<NodeId> = candidates
        .iter()
        .copied()
        .filter(|&n| !topology.same_rack(first, n))
        .collect();
    let on_rack: Vec<NodeId> = candidates
        .iter()
        .copied()
        .filter(|&n| topology.same_rack(first, n) && n != first)
        .collect();
    // Third replica prefers the *second* replica's rack: after the
    // first off-rack pick, stable-partition the rest of the off-rack
    // list so the second pick's rack-mates come next.
    if off_rack.len() > 1 {
        let second_rack = topology.rack_of(off_rack[0]);
        let (mut same_as_second, other): (Vec<NodeId>, Vec<NodeId>) = off_rack[1..]
            .iter()
            .copied()
            .partition(|&n| topology.rack_of(n) == second_rack);
        let mut ordered = vec![off_rack[0]];
        ordered.append(&mut same_as_second);
        ordered.extend(other);
        off_rack = ordered;
    }
    off_rack.extend(on_rack);
    off_rack
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slice_topology_reports_its_inputs() {
        let live = [3u32, 5, 7];
        let t = SliceTopology::new(&live, 2, 4);
        assert_eq!(t.live_nodes(), vec![3, 5, 7]);
        assert_eq!(t.map_slots(), 2);
        assert_eq!(t.reduce_slots(), 4);
        let u = SliceTopology::uniform(&live, 3);
        assert_eq!(u.map_slots(), 3);
        assert_eq!(u.reduce_slots(), 3);
    }

    #[test]
    fn rack_of_contiguous_blocks() {
        let t = RackTopology::dco(60);
        assert_eq!(t.nodes_per_rack(), 20);
        assert_eq!(t.rack_of(NodeId(0)), 0);
        assert_eq!(t.rack_of(NodeId(19)), 0);
        assert_eq!(t.rack_of(NodeId(20)), 1);
        assert_eq!(t.rack_of(NodeId(59)), 2);
        assert!(t.same_rack(NodeId(0), NodeId(19)));
        assert!(!t.same_rack(NodeId(19), NodeId(20)));
    }

    #[test]
    fn uneven_division_clamps_last_rack() {
        let t = RackTopology::new(10, 3); // 4+4+2
        assert_eq!(t.rack_of(NodeId(9)), 2);
        assert_eq!(t.rack_members(2), vec![NodeId(8), NodeId(9)]);
        let total: usize = (0..3).map(|r| t.rack_members(r).len()).sum();
        assert_eq!(total, 10);
    }

    #[test]
    fn flat_topology_is_one_rack() {
        let t = RackTopology::flat(5);
        for a in 0..5 {
            for b in 0..5 {
                assert!(t.same_rack(NodeId(a), NodeId(b)));
            }
        }
    }

    #[test]
    fn rack_aware_order_prefers_off_rack_then_seconds_rack() {
        let t = RackTopology::new(9, 3); // racks {0,1,2},{3,4,5},{6,7,8}
        let candidates: Vec<NodeId> = (0..9).map(NodeId).collect();
        let order = rack_aware_order(&t, NodeId(0), &candidates);
        // First pick is off-rack.
        assert!(!t.same_rack(NodeId(0), order[0]));
        // Second pick shares the first pick's rack (HDFS third replica).
        assert!(t.same_rack(order[0], order[1]));
        // Writer's rack-mates come last.
        let tail: Vec<u32> = order[order.len() - 2..].iter().map(|n| n.raw()).collect();
        assert_eq!(tail, vec![1, 2]);
    }

    #[test]
    fn order_handles_all_same_rack() {
        let t = RackTopology::flat(4);
        let candidates: Vec<NodeId> = (0..4).map(NodeId).collect();
        let order = rack_aware_order(&t, NodeId(1), &candidates);
        assert_eq!(order.len(), 3, "writer excluded, everyone else listed");
        assert!(!order.contains(&NodeId(1)));
    }
}
