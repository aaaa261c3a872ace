//! Schedule representation: two ordered co-run queues plus a solo tail.

use crate::model::JobId;
use apu_sim::Device;

/// One scheduled execution: a job with its frequency level on the device it
/// is queued for (the paper's "associate each job with a frequency level").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Assignment {
    /// The job.
    pub job: JobId,
    /// Frequency level on the queue's device.
    pub level: usize,
}

/// A solo execution appended after the co-run queues drain: the job runs
/// with the other device left idle (how the heuristic handles `S_seq`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SoloRun {
    /// The job.
    pub job: JobId,
    /// Device it runs on.
    pub device: Device,
    /// Frequency level on that device.
    pub level: usize,
}

/// A complete co-schedule.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Schedule {
    /// CPU co-run queue, executed in order.
    pub cpu: Vec<Assignment>,
    /// GPU co-run queue, executed in order.
    pub gpu: Vec<Assignment>,
    /// Jobs executed alone after both queues drain, in order.
    pub solo_tail: Vec<SoloRun>,
}

impl Schedule {
    /// An empty schedule.
    pub fn new() -> Self {
        Schedule::default()
    }

    /// Total number of scheduled executions.
    pub fn len(&self) -> usize {
        self.cpu.len() + self.gpu.len() + self.solo_tail.len()
    }

    /// Whether nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The queue for `device`.
    pub fn queue(&self, device: Device) -> &Vec<Assignment> {
        match device {
            Device::Cpu => &self.cpu,
            Device::Gpu => &self.gpu,
        }
    }

    /// Mutable queue for `device`.
    pub fn queue_mut(&mut self, device: Device) -> &mut Vec<Assignment> {
        match device {
            Device::Cpu => &mut self.cpu,
            Device::Gpu => &mut self.gpu,
        }
    }

    /// All scheduled job ids, in queue order (CPU, GPU, solo tail).
    pub fn job_ids(&self) -> Vec<JobId> {
        self.cpu
            .iter()
            .map(|a| a.job)
            .chain(self.gpu.iter().map(|a| a.job))
            .chain(self.solo_tail.iter().map(|s| s.job))
            .collect()
    }

    /// Check the schedule covers each of `n` jobs exactly once.
    pub fn is_complete_for(&self, n: usize) -> bool {
        self.coverage(n).is_complete()
    }

    /// Structural analysis of job coverage against a workload of `n`
    /// jobs: which jobs are scheduled more than once, never, or are not
    /// jobs of the workload at all. A clean coverage is exactly
    /// [`is_complete_for`](Self::is_complete_for).
    pub fn coverage(&self, n: usize) -> Coverage {
        let mut times = vec![0usize; n];
        let mut out_of_range = Vec::new();
        for id in self.job_ids() {
            if id >= n {
                out_of_range.push(id);
            } else {
                times[id] += 1;
            }
        }
        let duplicates = (0..n).filter(|&j| times[j] > 1).collect();
        let missing = (0..n).filter(|&j| times[j] == 0).collect();
        Coverage {
            duplicates,
            missing,
            out_of_range,
        }
    }
}

/// Result of [`Schedule::coverage`]: how a schedule's job assignments
/// deviate from "each of the workload's jobs exactly once".
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Coverage {
    /// Jobs scheduled more than once, ascending.
    pub duplicates: Vec<JobId>,
    /// Jobs never scheduled, ascending.
    pub missing: Vec<JobId>,
    /// Scheduled ids outside `0..n`, in queue order.
    pub out_of_range: Vec<JobId>,
}

impl Coverage {
    /// Whether every job is scheduled exactly once.
    pub fn is_complete(&self) -> bool {
        self.duplicates.is_empty() && self.missing.is_empty() && self.out_of_range.is_empty()
    }
}

impl std::fmt::Display for Schedule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cpu: [")?;
        for a in &self.cpu {
            write!(f, "j{}@L{} ", a.job, a.level)?;
        }
        write!(f, "] gpu: [")?;
        for a in &self.gpu {
            write!(f, "j{}@L{} ", a.job, a.level)?;
        }
        write!(f, "] solo: [")?;
        for s in &self.solo_tail {
            write!(f, "j{}@{}L{} ", s.job, s.device, s.level)?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Schedule {
        Schedule {
            cpu: vec![
                Assignment { job: 0, level: 3 },
                Assignment { job: 2, level: 1 },
            ],
            gpu: vec![Assignment { job: 1, level: 5 }],
            solo_tail: vec![SoloRun {
                job: 3,
                device: Device::Gpu,
                level: 9,
            }],
        }
    }

    #[test]
    fn counts_and_ids() {
        let s = sample();
        assert_eq!(s.len(), 4);
        assert!(!s.is_empty());
        assert_eq!(s.job_ids(), vec![0, 2, 1, 3]);
    }

    #[test]
    fn completeness() {
        let s = sample();
        assert!(s.is_complete_for(4));
        assert!(!s.is_complete_for(5)); // job 4 missing
        let mut dup = s.clone();
        dup.solo_tail.push(SoloRun {
            job: 0,
            device: Device::Cpu,
            level: 0,
        });
        assert!(!dup.is_complete_for(4)); // duplicate job 0
    }

    #[test]
    fn coverage_reports_each_defect_class() {
        let mut s = sample();
        s.solo_tail.push(SoloRun {
            job: 0,
            device: Device::Cpu,
            level: 0,
        });
        s.gpu.push(Assignment { job: 7, level: 2 });
        let cov = s.coverage(5);
        assert_eq!(cov.duplicates, vec![0]);
        assert_eq!(cov.missing, vec![4]);
        assert_eq!(cov.out_of_range, vec![7]);
        assert!(!cov.is_complete());
        assert!(sample().coverage(4).is_complete());
    }

    #[test]
    fn queue_accessors() {
        let mut s = sample();
        assert_eq!(s.queue(Device::Cpu).len(), 2);
        s.queue_mut(Device::Gpu)
            .push(Assignment { job: 9, level: 0 });
        assert_eq!(s.queue(Device::Gpu).len(), 2);
    }

    #[test]
    fn display_is_readable() {
        let text = sample().to_string();
        assert!(text.contains("j0@L3"));
        assert!(text.contains("gpu"));
    }

    #[test]
    fn empty_schedule() {
        let s = Schedule::new();
        assert!(s.is_empty());
        assert!(s.is_complete_for(0));
        assert!(!s.is_complete_for(1));
    }
}
