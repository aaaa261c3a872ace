//! Structured parameter sweeps: run a set of scheduling methods across a
//! set of power caps (or machines) and collect a result table.
//!
//! The paper evaluates two workload sizes at one cap; deployments want the
//! whole frontier. These helpers are what the `power_cap_sweep` example and
//! the CLI's `sweep` subcommand are built on.

use crate::pipeline::{CoScheduleRuntime, RuntimeConfig};
use apu_sim::{Bias, JobSpec, MachineConfig};

/// A scheduling method included in a sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// Random baseline (average over a few seeds), GPU-biased governor.
    Random,
    /// Default baseline, GPU-biased governor.
    DefaultG,
    /// The paper's heuristic.
    Hcs,
    /// Heuristic plus refinement.
    HcsPlus,
}

impl Method {
    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            Method::Random => "random",
            Method::DefaultG => "default_g",
            Method::Hcs => "hcs",
            Method::HcsPlus => "hcs+",
        }
    }

    /// All methods in canonical order.
    pub const ALL: [Method; 4] = [
        Method::Random,
        Method::DefaultG,
        Method::Hcs,
        Method::HcsPlus,
    ];
}

/// One sweep cell: a method at a cap.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepCell {
    /// Power cap, watts.
    pub cap_w: f64,
    /// Method.
    pub method: Method,
    /// Ground-truth makespan, seconds.
    pub makespan_s: f64,
    /// Ground-truth energy, joules.
    pub energy_j: f64,
    /// Peak sampled power, watts.
    pub peak_power_w: f64,
}

/// Sweep result.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepResult {
    /// All cells, in (cap, method) order.
    pub cells: Vec<SweepCell>,
}

impl SweepResult {
    /// The cell for `(cap, method)`, if present.
    pub fn cell(&self, cap_w: f64, method: Method) -> Option<&SweepCell> {
        self.cells
            .iter()
            .find(|c| (c.cap_w - cap_w).abs() < 1e-9 && c.method == method)
    }

    /// Render as an aligned text table (rows = caps, columns = methods).
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut caps: Vec<f64> = self.cells.iter().map(|c| c.cap_w).collect();
        caps.sort_by(f64::total_cmp);
        caps.dedup_by(|a, b| (*a - *b).abs() < 1e-9);
        let mut out = String::new();
        let _ = write!(out, "{:>6}", "cap");
        for m in Method::ALL {
            let _ = write!(out, "{:>12}", m.name());
        }
        out.push('\n');
        for cap in caps {
            let _ = write!(out, "{cap:>5}W");
            for m in Method::ALL {
                match self.cell(cap, m) {
                    Some(c) => {
                        let _ = write!(out, "{:>11.1}s", c.makespan_s);
                    }
                    None => {
                        let _ = write!(out, "{:>12}", "-");
                    }
                }
            }
            out.push('\n');
        }
        out
    }
}

/// Run the sweep: every method at every cap over the same workload.
/// A fresh runtime (profiling + characterization) is built per cap since
/// the cap changes the scheduler's feasible set; with `cache_dir` set in
/// `base`, characterization is measured only once.
pub fn cap_sweep(
    machine: &MachineConfig,
    jobs: &[JobSpec],
    base: &RuntimeConfig,
    caps_w: &[f64],
    methods: &[Method],
    random_seeds: u64,
) -> SweepResult {
    let mut cells = Vec::new();
    for &cap in caps_w {
        let mut cfg = base.clone();
        cfg.cap_w = cap;
        let rt = CoScheduleRuntime::new(machine.clone(), jobs.to_vec(), cfg);
        for &method in methods {
            let report = match method {
                Method::Random => {
                    // Makespan averaged over seeds; the energy/peak columns
                    // come from the last seed's run (representative, since
                    // the governor pins power near the cap regardless of
                    // the placement draw).
                    let mut last_report = None;
                    let mut total = 0.0;
                    for seed in 0..random_seeds {
                        let r = rt.execute_governed(&rt.schedule_random(seed), Bias::Gpu);
                        total += r.makespan_s;
                        last_report = Some(r);
                    }
                    let mut r = last_report.expect("at least one seed");
                    r.makespan_s = total / random_seeds as f64;
                    r
                }
                Method::DefaultG => rt.execute_default(&rt.schedule_default(), Bias::Gpu),
                Method::Hcs => rt.execute_planned(&rt.schedule_hcs().schedule),
                Method::HcsPlus => rt.execute_planned(&rt.schedule_hcs_plus()),
            };
            cells.push(SweepCell {
                cap_w: cap,
                method,
                makespan_s: report.makespan_s,
                energy_j: report.trace.energy_j(),
                peak_power_w: report.trace.max_w(),
            });
        }
    }
    SweepResult { cells }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_covers_grid_and_orders_methods() {
        let machine = MachineConfig::ivy_bridge();
        let jobs: Vec<JobSpec> = kernels::rodinia8(&machine)
            .jobs
            .iter()
            .map(|j| kernels::with_input_scale(j, 0.1))
            .collect();
        let base = RuntimeConfig::fast(&machine);
        let caps = [18.0, 12.0];
        let r = cap_sweep(&machine, &jobs, &base, &caps, &Method::ALL, 3);
        assert_eq!(r.cells.len(), 8);
        for &cap in &caps {
            let rand = r.cell(cap, Method::Random).unwrap().makespan_s;
            let plus = r.cell(cap, Method::HcsPlus).unwrap().makespan_s;
            assert!(plus < rand, "HCS+ beats random at {cap} W");
        }
        // Tighter cap is slower for the planned scheduler.
        let loose = r.cell(18.0, Method::HcsPlus).unwrap().makespan_s;
        let tight = r.cell(12.0, Method::HcsPlus).unwrap().makespan_s;
        assert!(tight > loose);
        let table = r.render();
        assert!(table.contains("hcs+"));
        assert!(table.contains("12W") || table.contains(" 12W"));
    }

    #[test]
    fn missing_cells_render_as_dash() {
        let r = SweepResult {
            cells: vec![SweepCell {
                cap_w: 15.0,
                method: Method::Hcs,
                makespan_s: 100.0,
                energy_j: 1000.0,
                peak_power_w: 14.0,
            }],
        };
        let t = r.render();
        assert!(t.contains('-'));
        assert!(r.cell(15.0, Method::Random).is_none());
    }
}
