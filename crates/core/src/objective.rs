//! Schedule objectives beyond makespan: energy and energy-delay product.
//!
//! The paper optimizes throughput (minimal makespan) under a power cap;
//! deployments often want the battery story too. Since the model-based
//! evaluator already produces per-segment predicted power, energy and EDP
//! come for free, and the HCS+ refinement can optimize any of the three.

use crate::evaluate::EvalReport;

/// What a refinement/comparison pass optimizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Objective {
    /// Minimize the makespan (the paper's objective).
    Makespan,
    /// Minimize predicted total energy.
    Energy,
    /// Minimize the energy-delay product `E * T`.
    EnergyDelay,
}

/// Predicted total energy of an evaluated schedule, joules.
pub fn energy_j(report: &EvalReport) -> f64 {
    report
        .segments
        .iter()
        .map(|s| s.power_w * (s.t1 - s.t0))
        .sum()
}

/// Predicted energy-delay product, joule-seconds.
pub fn edp_js(report: &EvalReport) -> f64 {
    energy_j(report) * report.makespan_s
}

/// The scalar an [`Objective`] minimizes for a given evaluation.
pub fn objective_value(objective: Objective, report: &EvalReport) -> f64 {
    match objective {
        Objective::Makespan => report.makespan_s,
        Objective::Energy => energy_j(report),
        Objective::EnergyDelay => edp_js(report),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluate::evaluate;
    use crate::model::test_model::synthetic;
    use crate::schedule::{Assignment, Schedule};

    fn schedule_at(level_c: usize, level_g: usize) -> Schedule {
        let mut s = Schedule::new();
        s.cpu.push(Assignment {
            job: 0,
            level: level_c,
        });
        s.gpu.push(Assignment {
            job: 1,
            level: level_g,
        });
        s
    }

    #[test]
    fn energy_is_power_times_time() {
        let m = synthetic(2, 4, 4);
        let r = evaluate(&m, &schedule_at(3, 3), None);
        let e = energy_j(&r);
        // bounded by peak power x makespan and by >0
        assert!(e > 0.0);
        assert!(e <= r.peak_power_w * r.makespan_s + 1e-9);
        assert!((edp_js(&r) - e * r.makespan_s).abs() < 1e-9);
    }

    #[test]
    fn lower_levels_trade_time_for_energy() {
        let m = synthetic(2, 4, 4);
        let hi = evaluate(&m, &schedule_at(3, 3), None);
        let lo = evaluate(&m, &schedule_at(0, 0), None);
        assert!(lo.makespan_s > hi.makespan_s, "low clocks are slower");
        // With a convex power curve, lower clocks burn less energy even
        // though they run longer on this model.
        assert!(energy_j(&lo) < energy_j(&hi), "low clocks save energy");
    }

    #[test]
    fn objective_value_dispatch() {
        let m = synthetic(2, 4, 4);
        let r = evaluate(&m, &schedule_at(2, 2), None);
        assert_eq!(objective_value(Objective::Makespan, &r), r.makespan_s);
        assert_eq!(objective_value(Objective::Energy, &r), energy_j(&r));
        assert_eq!(objective_value(Objective::EnergyDelay, &r), edp_js(&r));
    }

    #[test]
    fn empty_schedule_zero_energy() {
        let m = synthetic(2, 4, 4);
        let r = evaluate(&m, &Schedule::new(), None);
        assert_eq!(energy_j(&r), 0.0);
        assert_eq!(edp_js(&r), 0.0);
    }
}
