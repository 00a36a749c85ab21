//! Compute-floor topology: cabinets, rows, MSB power feeds, coordinates.
//!
//! The paper's floor (Figure 1-(c)) holds 257 water-cooled cabinets of 18
//! nodes across rows h09-h36, fed by five main switchboards (Figure 4
//! compares MSB meters against per-node sensor summation). Figure 17
//! renders cabinet-level heatmaps on this layout, and Figure 14/16 use
//! node/slot placement. This module provides the bijections between node
//! ids and physical coordinates.

use summit_telemetry::ids::{CabinetId, Msb, NodeId};

use crate::spec::{NODES_PER_CABINET, TOTAL_CABINETS, TOTAL_NODES};

/// Number of cabinet rows on the floor.
pub const FLOOR_ROWS: usize = 13;
/// Cabinets per full row (the last row is short: 257 = 12*20 + 17).
pub const CABINETS_PER_ROW: usize = 20;

/// Physical placement of one node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeLocation {
    /// Cabinet.
    pub cabinet: CabinetId,
    /// Row index on the floor (0-based, paper rows h09..h36).
    pub row: u8,
    /// Cabinet position within the row (0-based).
    pub col: u8,
    /// Node height within the cabinet (0 = bottom .. 17 = top).
    pub height: u8,
    /// The switchboard feeding this cabinet.
    pub msb: Msb,
}

/// The static floor topology.
#[derive(Debug, Clone)]
pub struct Topology {
    node_count: usize,
}

impl Default for Topology {
    fn default() -> Self {
        Self::summit()
    }
}

impl Topology {
    /// The full Summit floor: 4,626 nodes in 257 cabinets.
    pub fn summit() -> Self {
        Self {
            node_count: TOTAL_NODES,
        }
    }

    /// A reduced floor for fast tests/CI: `cabinets` full cabinets.
    pub fn scaled(cabinets: usize) -> Self {
        assert!(
            (1..=TOTAL_CABINETS).contains(&cabinets),
            "cabinet count must be in 1..={TOTAL_CABINETS}"
        );
        Self {
            node_count: cabinets * NODES_PER_CABINET,
        }
    }

    /// Number of nodes on this floor.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Number of cabinets on this floor.
    pub fn cabinet_count(&self) -> usize {
        self.node_count / NODES_PER_CABINET
    }

    /// Iterates all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.node_count as u32).map(NodeId)
    }

    /// The cabinet holding a node.
    pub fn cabinet_of(&self, node: NodeId) -> CabinetId {
        assert!(node.index() < self.node_count, "node {node} off the floor");
        CabinetId((node.index() / NODES_PER_CABINET) as u16)
    }

    /// The nodes inside a cabinet (18 consecutive ids).
    pub fn nodes_in_cabinet(&self, cabinet: CabinetId) -> impl Iterator<Item = NodeId> {
        assert!(
            cabinet.index() < self.cabinet_count(),
            "cabinet {} off the floor",
            cabinet.index()
        );
        let base = cabinet.index() * NODES_PER_CABINET;
        (base..base + NODES_PER_CABINET).map(|i| NodeId(i as u32))
    }

    /// Full physical location of a node.
    pub fn location(&self, node: NodeId) -> NodeLocation {
        let cabinet = self.cabinet_of(node);
        let row = (cabinet.index() / CABINETS_PER_ROW) as u8;
        let col = (cabinet.index() % CABINETS_PER_ROW) as u8;
        let height = (node.index() % NODES_PER_CABINET) as u8;
        NodeLocation {
            cabinet,
            row,
            col,
            height,
            msb: self.msb_of(cabinet),
        }
    }

    /// The switchboard feeding a cabinet. The floor is split into five
    /// contiguous MSB zones (the paper's node-to-MSB mapping was "manually
    /// created from the floormap"; contiguous zoning preserves the
    /// property that each MSB carries ~1/5 of the floor).
    pub fn msb_of(&self, cabinet: CabinetId) -> Msb {
        let zone = cabinet.index() * Msb::ALL.len() / self.cabinet_count();
        Msb::ALL[zone.min(Msb::ALL.len() - 1)]
    }

    /// All cabinets fed by one switchboard.
    pub fn cabinets_of_msb(&self, msb: Msb) -> Vec<CabinetId> {
        (0..self.cabinet_count() as u16)
            .map(CabinetId)
            .filter(|&c| self.msb_of(c) == msb)
            .collect()
    }

    /// All nodes fed by one switchboard.
    pub fn nodes_of_msb(&self, msb: Msb) -> Vec<NodeId> {
        self.cabinets_of_msb(msb)
            .into_iter()
            .flat_map(|c| self.nodes_in_cabinet(c))
            .collect()
    }

    /// Floor grid dimensions `(rows, cols)` for heatmap rendering.
    pub fn grid_dims(&self) -> (usize, usize) {
        let rows = self.cabinet_count().div_ceil(CABINETS_PER_ROW);
        (rows, CABINETS_PER_ROW.min(self.cabinet_count()))
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    use super::*;

    #[test]
    fn summit_dimensions() {
        let t = Topology::summit();
        assert_eq!(t.node_count(), 4626);
        assert_eq!(t.cabinet_count(), 257);
        let (rows, cols) = t.grid_dims();
        assert!(rows * cols >= 257);
    }

    #[test]
    fn node_cabinet_bijection() {
        let t = Topology::scaled(10);
        let mut seen = vec![false; t.node_count()];
        for c in 0..t.cabinet_count() {
            for n in t.nodes_in_cabinet(CabinetId(c as u16)) {
                assert_eq!(t.cabinet_of(n).index(), c);
                assert!(!seen[n.index()], "node appears in two cabinets");
                seen[n.index()] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn locations_consistent() {
        let t = Topology::summit();
        let loc = t.location(NodeId(0));
        assert_eq!(loc.row, 0);
        assert_eq!(loc.col, 0);
        assert_eq!(loc.height, 0);
        let last = t.location(NodeId(4625));
        assert_eq!(last.height, 17);
        assert_eq!(last.cabinet.index(), 256);
    }

    #[test]
    fn msb_zones_are_balanced() {
        let t = Topology::summit();
        let mut counts = [0usize; 5];
        for m in Msb::ALL {
            counts[m.index()] = t.nodes_of_msb(m).len();
        }
        let total: usize = counts.iter().sum();
        assert_eq!(total, 4626, "every node is fed by exactly one MSB");
        for &c in &counts {
            // Each MSB carries roughly a fifth of the floor (+-2 cabinets).
            assert!(
                (c as i64 - (4626 / 5) as i64).abs() <= 2 * NODES_PER_CABINET as i64,
                "unbalanced MSB: {c} nodes"
            );
        }
    }

    #[test]
    fn msb_zones_are_contiguous() {
        let t = Topology::summit();
        let mut last = 0usize;
        for c in 0..t.cabinet_count() {
            let z = t.msb_of(CabinetId(c as u16)).index();
            assert!(z >= last, "MSB zones must be contiguous along the floor");
            last = z;
        }
        assert_eq!(last, 4);
    }

    #[test]
    #[should_panic(expected = "off the floor")]
    fn out_of_range_node_panics() {
        let t = Topology::scaled(1);
        t.cabinet_of(NodeId(18));
    }

    #[test]
    fn scaled_floor() {
        let t = Topology::scaled(3);
        assert_eq!(t.node_count(), 54);
        assert_eq!(t.cabinet_count(), 3);
        assert_eq!(t.nodes().count(), 54);
    }
}
