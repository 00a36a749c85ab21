//! Strongly-typed identifiers for nodes, cabinets, components and metrics.
//!
//! Summit addresses hardware hierarchically: 257 water-cooled cabinets of
//! 18 nodes each (4,626 nodes), every node carrying two Power9 sockets and
//! six V100 GPUs (three per socket). The failure and thermal analyses of
//! the paper (Figures 16, 17) depend on this addressing, so it is encoded
//! in newtypes rather than bare integers.

/// Index of a compute node within the cluster (0-based, dense).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The dense index as usize for table lookups.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Summit hostnames look like a01n03 etc.; we keep a flat rendering.
        write!(f, "node{:04}", self.0)
    }
}

/// Index of a cabinet (rack) on the compute floor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct CabinetId(pub u16);

impl CabinetId {
    /// The dense index as usize.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One of the main switchboards (MSB A-E) feeding the compute floor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Msb {
    /// Switchboard A.
    A,
    /// Switchboard B.
    B,
    /// Switchboard C.
    C,
    /// Switchboard D.
    D,
    /// Switchboard E.
    E,
}

impl Msb {
    /// All five switchboards in order.
    pub const ALL: [Msb; 5] = [Msb::A, Msb::B, Msb::C, Msb::D, Msb::E];

    /// Dense index 0..5.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            Msb::A => 0,
            Msb::B => 1,
            Msb::C => 2,
            Msb::D => 3,
            Msb::E => 4,
        }
    }

    /// Letter name.
    pub fn name(self) -> &'static str {
        match self {
            Msb::A => "MSB A",
            Msb::B => "MSB B",
            Msb::C => "MSB C",
            Msb::D => "MSB D",
            Msb::E => "MSB E",
        }
    }
}

/// CPU socket within a node (AC922 has two Power9 sockets).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Socket {
    /// First Power9 socket.
    P0,
    /// Second Power9 socket.
    P1,
}

impl Socket {
    /// Both sockets in order.
    pub const ALL: [Socket; 2] = [Socket::P0, Socket::P1];

    /// Dense index 0..2.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            Socket::P0 => 0,
            Socket::P1 => 1,
        }
    }
}

/// GPU slot within a node (0..6). Slots 0-2 share the CPU0 water loop,
/// slots 3-5 the CPU1 loop; within a loop, cooling water flows through the
/// cold plates serially in slot order (Figure 1-(a) of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct GpuSlot(pub u8);

impl GpuSlot {
    /// All six slots.
    pub const ALL: [GpuSlot; 6] = [
        GpuSlot(0),
        GpuSlot(1),
        GpuSlot(2),
        GpuSlot(3),
        GpuSlot(4),
        GpuSlot(5),
    ];

    /// Creates a slot, panicking outside 0..6.
    pub fn new(slot: u8) -> Self {
        assert!(slot < 6, "GPU slot must be 0..6, got {slot}");
        GpuSlot(slot)
    }

    /// Dense index 0..6.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The socket whose water loop cools this GPU.
    pub fn socket(self) -> Socket {
        if self.0 < 3 {
            Socket::P0
        } else {
            Socket::P1
        }
    }

    /// Position along the serial water loop (0 = first / coldest water,
    /// 2 = last / warmest water).
    pub fn loop_position(self) -> u8 {
        self.0 % 3
    }
}

/// A job allocation identifier from the scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct AllocationId(pub u64);

impl std::fmt::Display for AllocationId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "alloc{}", self.0)
    }
}

/// GPU identity across the whole machine: node + slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GpuId {
    /// Compute node identifier.
    pub node: NodeId,
    /// GPU slot within the node (0..6).
    pub slot: GpuSlot,
}

impl GpuId {
    /// Dense index across the cluster (node*6 + slot).
    pub fn index(self) -> usize {
        self.node.index() * 6 + self.slot.index()
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    use super::*;

    #[test]
    fn gpu_slot_water_loops() {
        assert_eq!(GpuSlot(0).socket(), Socket::P0);
        assert_eq!(GpuSlot(2).socket(), Socket::P0);
        assert_eq!(GpuSlot(3).socket(), Socket::P1);
        assert_eq!(GpuSlot(5).socket(), Socket::P1);
        assert_eq!(GpuSlot(0).loop_position(), 0);
        assert_eq!(GpuSlot(2).loop_position(), 2);
        assert_eq!(GpuSlot(4).loop_position(), 1);
    }

    #[test]
    #[should_panic(expected = "GPU slot must be 0..6")]
    fn gpu_slot_rejects_out_of_range() {
        GpuSlot::new(6);
    }

    #[test]
    fn gpu_id_dense_index() {
        let g = GpuId {
            node: NodeId(10),
            slot: GpuSlot(4),
        };
        assert_eq!(g.index(), 64);
    }

    #[test]
    fn msb_indexing() {
        for (i, m) in Msb::ALL.iter().enumerate() {
            assert_eq!(m.index(), i);
        }
        assert_eq!(Msb::C.name(), "MSB C");
    }

    #[test]
    fn display_formats() {
        assert_eq!(NodeId(7).to_string(), "node0007");
        assert_eq!(AllocationId(42).to_string(), "alloc42");
    }
}
