//! System specification constants (paper Tables 1 and 3).
//!
//! Every number here is taken from the paper: the Summit system
//! specification table, the scheduling-policy table, and the quantitative
//! claims of Sections 2 and 4.

/// Total compute nodes (IBM AC922 8335-GTX).
pub const TOTAL_NODES: usize = 4626;
/// Water-cooled cabinets on the floor.
pub const TOTAL_CABINETS: usize = 257;
/// Nodes per cabinet.
pub const NODES_PER_CABINET: usize = 18;
/// CPUs (Power9 sockets) per node.
pub const CPUS_PER_NODE: usize = 2;
/// GPUs (V100) per node.
pub const GPUS_PER_NODE: usize = 6;
/// Total GPUs in the machine.
pub const TOTAL_GPUS: usize = TOTAL_NODES * GPUS_PER_NODE; // 27,756 incl. spares; jobs span 27,648
/// Total CPUs in the machine.
pub const TOTAL_CPUS: usize = TOTAL_NODES * CPUS_PER_NODE;

/// Node maximum input power (W), Table 1.
pub const NODE_MAX_POWER_W: f64 = 2300.0;
/// CPU thermal design power (W).
pub const CPU_TDP_W: f64 = 300.0;
/// GPU thermal design power (W).
pub const GPU_TDP_W: f64 = 300.0;
/// System peak power consumption (W): 13 MW.
pub const SYSTEM_PEAK_POWER_W: f64 = 13.0e6;
/// System idle power consumption (W): 2.5 MW (Section 4.1).
pub const SYSTEM_IDLE_POWER_W: f64 = 2.5e6;
/// Supporting facility capacity (W): 20 MW.
pub const FACILITY_CAPACITY_W: f64 = 20.0e6;

/// Per-node idle input power (W), consistent with the 2.5 MW system idle.
pub const NODE_IDLE_POWER_W: f64 = SYSTEM_IDLE_POWER_W / TOTAL_NODES as f64; // ~540 W

/// MTW secondary-loop supply temperature range (°C): 64-71 °F.
pub const MTW_SUPPLY_MIN_C: f64 = 17.8;
/// MTW SUPPLY MAX C.
pub const MTW_SUPPLY_MAX_C: f64 = 21.7;
/// Nominal MTW supply (70 °F, Section 2).
pub const MTW_SUPPLY_NOMINAL_C: f64 = 21.1;
/// MTW return temperature range (°C): 80-100 °F.
pub const MTW_RETURN_MIN_C: f64 = 26.7;
/// MTW RETURN MAX C.
pub const MTW_RETURN_MAX_C: f64 = 37.8;

/// Fraction of the year the facility needs chilled water (Section 2:
/// "the facility uses chilled water for only about 20% of the year").
pub const CHILLED_WATER_YEAR_FRACTION: f64 = 0.20;

/// A scheduling class from the paper's Table 3.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SchedulingClass {
    /// Class number 1..=5.
    pub class: u8,
    /// Inclusive node-count range.
    pub node_range: (u32, u32),
    /// Maximum walltime in hours.
    pub max_walltime_h: f64,
}

/// The five Summit scheduling classes (Table 3).
pub const SCHEDULING_CLASSES: [SchedulingClass; 5] = [
    SchedulingClass {
        class: 1,
        node_range: (2765, 4608),
        max_walltime_h: 24.0,
    },
    SchedulingClass {
        class: 2,
        node_range: (922, 2764),
        max_walltime_h: 24.0,
    },
    SchedulingClass {
        class: 3,
        node_range: (92, 921),
        max_walltime_h: 12.0,
    },
    SchedulingClass {
        class: 4,
        node_range: (46, 91),
        max_walltime_h: 6.0,
    },
    SchedulingClass {
        class: 5,
        node_range: (1, 45),
        max_walltime_h: 2.0,
    },
];

/// Largest schedulable job (class 1 upper bound).
pub const MAX_JOB_NODES: u32 = 4608;

/// GPUs visible to jobs: the paper counts 27,648 job-visible GPUs
/// (4,608 schedulable nodes x 6), while the floor holds 27,756 across
/// all 4,626 nodes — the extra cabinet is held out of the batch
/// partition. Use this, not [`TOTAL_GPUS`], when sizing job placement.
pub const JOB_VISIBLE_GPUS: usize = MAX_JOB_NODES as usize * GPUS_PER_NODE;

/// Classifies a node count into its scheduling class (1..=5).
///
/// # Panics
/// If `nodes` is zero or above [`MAX_JOB_NODES`].
#[allow(clippy::panic)] // documented API contract; tracked in xtask/panic_allowlist.txt
pub fn class_of_node_count(nodes: u32) -> u8 {
    for c in SCHEDULING_CLASSES {
        if nodes >= c.node_range.0 && nodes <= c.node_range.1 {
            return c.class;
        }
    }
    panic!("node count {nodes} outside all scheduling classes");
}

/// The scheduling class record for a class number.
///
/// # Panics
/// If `class` is not one of the paper's Table 3 classes (1..=5).
#[allow(clippy::panic)] // documented API contract; tracked in xtask/panic_allowlist.txt
pub fn class_spec(class: u8) -> SchedulingClass {
    SCHEDULING_CLASSES
        .iter()
        .copied()
        .find(|c| c.class == class)
        .unwrap_or_else(|| panic!("unknown scheduling class {class}"))
}

/// Seconds in the simulated year (2020 was a leap year: 366 days).
pub const YEAR_S: f64 = 366.0 * 86_400.0;

/// Watts-to-tons-of-refrigeration conversion (1 ton = 3.517 kW of heat).
pub const WATTS_PER_TON: f64 = 3517.0;

/// Paper-reported average PUE for 2020.
pub const PAPER_AVG_PUE: f64 = 1.11;
/// Paper-reported average summer PUE.
pub const PAPER_SUMMER_PUE: f64 = 1.22;

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    use super::*;

    #[test]
    fn totals_match_paper() {
        // 257 cabinets x 18 = 4,626 nodes.
        assert_eq!(TOTAL_CABINETS * NODES_PER_CABINET, TOTAL_NODES);
        assert_eq!(TOTAL_GPUS, 27_756);
        assert_eq!(TOTAL_CPUS, 9_252);
    }

    #[test]
    fn job_visible_gpus_match_paper() {
        // The paper's 27,648 job-visible GPUs are the schedulable
        // subset of the 27,756 installed: one cabinet (18 nodes, 108
        // GPUs) is held out of the batch partition.
        assert_eq!(JOB_VISIBLE_GPUS, 27_648);
        assert_eq!(JOB_VISIBLE_GPUS, MAX_JOB_NODES as usize * GPUS_PER_NODE);
        assert_eq!(
            TOTAL_GPUS - JOB_VISIBLE_GPUS,
            (TOTAL_NODES - MAX_JOB_NODES as usize) * GPUS_PER_NODE
        );
    }

    #[test]
    fn classes_partition_the_node_range() {
        // Every node count 1..=4608 belongs to exactly one class.
        let mut last_class = 0;
        for n in 1..=MAX_JOB_NODES {
            let c = class_of_node_count(n);
            assert!((1..=5).contains(&c));
            // Classes are descending in node count.
            if n > 1 {
                assert!(c <= last_class || last_class == 0);
            }
            last_class = c;
        }
        assert_eq!(class_of_node_count(1), 5);
        assert_eq!(class_of_node_count(45), 5);
        assert_eq!(class_of_node_count(46), 4);
        assert_eq!(class_of_node_count(91), 4);
        assert_eq!(class_of_node_count(92), 3);
        assert_eq!(class_of_node_count(921), 3);
        assert_eq!(class_of_node_count(922), 2);
        assert_eq!(class_of_node_count(2764), 2);
        assert_eq!(class_of_node_count(2765), 1);
        assert_eq!(class_of_node_count(4608), 1);
    }

    #[test]
    #[should_panic(expected = "outside all scheduling classes")]
    fn class_rejects_oversized() {
        class_of_node_count(5000);
    }

    #[test]
    fn walltime_limits_match_table3() {
        assert_eq!(class_spec(1).max_walltime_h, 24.0);
        assert_eq!(class_spec(2).max_walltime_h, 24.0);
        assert_eq!(class_spec(3).max_walltime_h, 12.0);
        assert_eq!(class_spec(4).max_walltime_h, 6.0);
        assert_eq!(class_spec(5).max_walltime_h, 2.0);
    }

    #[test]
    fn idle_power_consistent() {
        assert!((NODE_IDLE_POWER_W - 540.4).abs() < 1.0);
        // Peak per node below the Table 1 max.
        assert!(SYSTEM_PEAK_POWER_W / TOTAL_NODES as f64 <= NODE_MAX_POWER_W * 1.25);
    }

    #[test]
    fn mtw_ranges_sane() {
        // Bind to locals so the relationships are checked as data, not
        // constant-folded away.
        let (lo, nom, hi, ret) = (
            MTW_SUPPLY_MIN_C,
            MTW_SUPPLY_NOMINAL_C,
            MTW_SUPPLY_MAX_C,
            MTW_RETURN_MIN_C,
        );
        assert!(lo < nom);
        assert!(nom < hi + 0.5);
        assert!(ret > hi);
    }
}
