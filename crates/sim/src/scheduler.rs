//! LSF-like scheduler: queueing, placement, and allocation logging.
//!
//! Produces the paper's Datasets C/D — the job allocation history and the
//! per-node allocation history — by placing synthetic jobs on the real
//! floor topology. Placement is first-fit over the free-node list, which
//! yields the mostly-contiguous, occasionally-fragmented allocations real
//! schedulers produce.

use std::collections::BTreeSet;
use summit_telemetry::ids::{AllocationId, NodeId};
use summit_telemetry::records::NodeAllocation;

use crate::jobs::SyntheticJob;
use crate::workload::WorkloadSignal;

/// A job actually running on nodes.
#[derive(Debug, Clone)]
pub struct PlacedJob {
    /// Job.
    pub job: SyntheticJob,
    /// Node ids assigned (length == node_count).
    pub nodes: Vec<NodeId>,
    /// Actual start time (>= requested begin time under contention).
    pub start_time: f64,
}

impl PlacedJob {
    /// End time given the actual start.
    pub fn end_time(&self) -> f64 {
        self.start_time + self.job.record.walltime_s()
    }

    /// The workload signal for this placement.
    pub fn signal(&self) -> WorkloadSignal {
        WorkloadSignal::new(
            self.job.profile,
            self.job.record.walltime_s(),
            self.job.seed,
        )
    }

    /// Per-node allocation records (Dataset D rows).
    pub fn node_allocations(&self) -> Vec<NodeAllocation> {
        self.nodes
            .iter()
            .map(|&node| NodeAllocation {
                allocation_id: self.job.record.allocation_id,
                node,
                begin_time: self.start_time,
                end_time: self.end_time(),
            })
            .collect()
    }
}

/// The scheduler state.
#[derive(Debug, Clone)]
pub struct Scheduler {
    free: BTreeSet<u32>,
    /// Running jobs sorted by end time (simple vec; counts stay small).
    running: Vec<PlacedJob>,
    /// Queue of jobs waiting for nodes, FIFO per submission order.
    queue: Vec<SyntheticJob>,
    /// Completed allocation log.
    completed: Vec<PlacedJob>,
}

impl Scheduler {
    /// Creates a scheduler over `node_count` free nodes.
    pub fn new(node_count: usize) -> Self {
        Self {
            free: (0..node_count as u32).collect(),
            running: Vec::new(),
            queue: Vec::new(),
            completed: Vec::new(),
        }
    }

    /// Free-node count.
    pub fn free_nodes(&self) -> usize {
        self.free.len()
    }

    /// Currently running jobs.
    pub fn running(&self) -> &[PlacedJob] {
        &self.running
    }

    /// Completed jobs so far.
    pub fn completed(&self) -> &[PlacedJob] {
        &self.completed
    }

    /// Submits a job to the queue.
    pub fn submit(&mut self, job: SyntheticJob) {
        self.queue.push(job);
    }

    /// Advances scheduler state to time `t`: finishes jobs whose walltime
    /// elapsed, then starts queued jobs that fit (FIFO with backfill —
    /// later jobs may start if earlier ones don't fit).
    pub fn advance(&mut self, t: f64) {
        // Complete finished jobs, returning their nodes.
        let mut i = 0;
        while i < self.running.len() {
            if self.running[i].end_time() <= t {
                let done = self.running.swap_remove(i);
                for n in &done.nodes {
                    self.free.insert(n.0);
                }
                self.completed.push(done);
            } else {
                i += 1;
            }
        }
        // Start queued jobs that have arrived and fit (backfill pass).
        let mut remaining = Vec::new();
        let queue = std::mem::take(&mut self.queue);
        for job in queue {
            if job.record.begin_time > t {
                remaining.push(job);
                continue;
            }
            let want = job.record.node_count as usize;
            if want <= self.free.len() {
                let nodes: Vec<NodeId> = self.free.iter().take(want).map(|&n| NodeId(n)).collect();
                for n in &nodes {
                    self.free.remove(&n.0);
                }
                self.running.push(PlacedJob {
                    job,
                    nodes,
                    start_time: t,
                });
            } else {
                remaining.push(job);
            }
        }
        self.queue = remaining;
    }

    /// All per-node allocation records from completed and running jobs.
    pub fn all_node_allocations(&self) -> Vec<NodeAllocation> {
        self.completed
            .iter()
            .chain(self.running.iter())
            .flat_map(|p| p.node_allocations())
            .collect()
    }

    /// Drains completed jobs (for streaming consumers).
    pub fn drain_completed(&mut self) -> Vec<PlacedJob> {
        std::mem::take(&mut self.completed)
    }

    /// Finds a running job by allocation id.
    pub fn find(&self, id: AllocationId) -> Option<&PlacedJob> {
        self.running
            .iter()
            .find(|p| p.job.record.allocation_id == id)
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    use super::*;
    use crate::jobs::JobGenerator;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn job(g: &mut JobGenerator, rng: &mut StdRng, t: f64, class: u8) -> SyntheticJob {
        g.generate_with_class(rng, t, class)
    }

    #[test]
    fn placement_and_completion() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut g = JobGenerator::new();
        let mut s = Scheduler::new(4626);
        let j = job(&mut g, &mut rng, 0.0, 2);
        let want = j.record.node_count as usize;
        let wall = j.record.walltime_s();
        s.submit(j);
        s.advance(0.0);
        assert_eq!(s.running().len(), 1);
        assert_eq!(s.free_nodes(), 4626 - want);
        assert_eq!(s.running()[0].nodes.len(), want);
        // Finish it.
        s.advance(wall + 1.0);
        assert_eq!(s.running().len(), 0);
        assert_eq!(s.free_nodes(), 4626);
        assert_eq!(s.completed().len(), 1);
    }

    #[test]
    fn no_double_allocation() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut g = JobGenerator::new();
        let mut s = Scheduler::new(200);
        for _ in 0..20 {
            s.submit(job(&mut g, &mut rng, 0.0, 5));
        }
        s.advance(0.0);
        let mut used = std::collections::HashSet::new();
        for p in s.running() {
            for n in &p.nodes {
                assert!(used.insert(n.0), "node {n} allocated twice");
            }
        }
    }

    #[test]
    fn queue_waits_for_space() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut g = JobGenerator::new();
        let mut s = Scheduler::new(4626);
        // Fill the machine with a class-1 job, then submit another.
        let j1 = job(&mut g, &mut rng, 0.0, 1);
        let wall1 = j1.record.walltime_s();
        let n1 = j1.record.node_count;
        s.submit(j1);
        s.advance(0.0);
        let j2 = {
            // Force a job too large for the remainder.
            let mut j = job(&mut g, &mut rng, 10.0, 1);
            while (j.record.node_count + n1) as usize <= 4626 {
                j = job(&mut g, &mut rng, 10.0, 1);
            }
            j
        };
        s.submit(j2);
        s.advance(10.0);
        assert_eq!(s.running().len(), 1, "second job must wait");
        s.advance(wall1 + 1.0);
        assert_eq!(
            s.running().len(),
            1,
            "second job starts after the first ends"
        );
        assert_eq!(s.completed().len(), 1);
    }

    #[test]
    fn backfill_lets_small_jobs_pass() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut g = JobGenerator::new();
        let mut s = Scheduler::new(100);
        // 90-node job runs; a 50-node job cannot start, but a 5-node can.
        let mut big = job(&mut g, &mut rng, 0.0, 4);
        big.record.node_count = 90;
        s.submit(big);
        s.advance(0.0);
        let mut blocked = job(&mut g, &mut rng, 1.0, 4);
        blocked.record.node_count = 50;
        let mut small = job(&mut g, &mut rng, 1.0, 5);
        small.record.node_count = 5;
        s.submit(blocked);
        s.submit(small);
        s.advance(1.0);
        assert_eq!(s.running().len(), 2, "small job backfills");
        assert_eq!(s.free_nodes(), 5);
    }

    #[test]
    fn allocation_log_covers_all_nodes_of_job() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut g = JobGenerator::new();
        let mut s = Scheduler::new(4626);
        let j = job(&mut g, &mut rng, 0.0, 3);
        let id = j.record.allocation_id;
        let n = j.record.node_count as usize;
        s.submit(j);
        s.advance(0.0);
        let allocs = s.all_node_allocations();
        let mine: Vec<_> = allocs.iter().filter(|a| a.allocation_id == id).collect();
        assert_eq!(mine.len(), n);
    }
}
