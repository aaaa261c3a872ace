//! Characterization quality checks: leave-one-out cross-validation of the
//! degradation surfaces, and grid-resolution sensitivity.
//!
//! The paper picks 11 demand levels per axis without justifying the
//! resolution; these tools quantify what the interpolation loses at a given
//! grid, so a deployment can trade characterization time against accuracy.

use crate::surface::Grid2D;
use apu_sim::PerDevice;

/// Result of leave-one-out validation over one grid.
#[derive(Debug, Clone, PartialEq)]
pub struct LooReport {
    /// Mean absolute interpolation error at interior nodes (degradation
    /// units, e.g. 0.03 = 3 percentage points).
    pub mean_abs_err: f64,
    /// Maximum absolute error.
    pub max_abs_err: f64,
    /// Number of interior nodes evaluated.
    pub nodes: usize,
}

/// Leave-one-out validation of a grid: each *interior* node is predicted
/// by bilinear interpolation from its four axis-aligned neighbors and the
/// prediction compared to the measured value.
pub fn leave_one_out(grid: &Grid2D) -> LooReport {
    let nc = grid.cpu_axis.len();
    let ng = grid.gpu_axis.len();
    let mut errs = Vec::new();
    for i in 1..nc - 1 {
        for j in 1..ng - 1 {
            // Interpolate from the surrounding cross (average of the two
            // 1-D linear interpolations through the node).
            let x = grid.cpu_axis[i];
            let y = grid.gpu_axis[j];
            let tx = (x - grid.cpu_axis[i - 1]) / (grid.cpu_axis[i + 1] - grid.cpu_axis[i - 1]);
            let ty = (y - grid.gpu_axis[j - 1]) / (grid.gpu_axis[j + 1] - grid.gpu_axis[j - 1]);
            let along_x = grid.at(i - 1, j) + tx * (grid.at(i + 1, j) - grid.at(i - 1, j));
            let along_y = grid.at(i, j - 1) + ty * (grid.at(i, j + 1) - grid.at(i, j - 1));
            let pred = 0.5 * (along_x + along_y);
            errs.push((pred - grid.at(i, j)).abs());
        }
    }
    let nodes = errs.len();
    let mean = if nodes > 0 {
        errs.iter().sum::<f64>() / nodes as f64
    } else {
        0.0
    };
    let max = errs.iter().copied().fold(0.0, f64::max);
    LooReport {
        mean_abs_err: mean,
        max_abs_err: max,
        nodes,
    }
}

/// Leave-one-out over both device surfaces of a stage.
pub fn validate_stage(stage: &crate::characterize::Stage) -> PerDevice<LooReport> {
    PerDevice::new(
        leave_one_out(&stage.surface.deg.cpu),
        leave_one_out(&stage.surface.deg.gpu),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::characterize::{characterize_stage, CharacterizeConfig};
    use apu_sim::MachineConfig;

    #[test]
    fn perfectly_linear_grid_has_zero_error() {
        // f(x, y) = 2x + 3y is reproduced exactly by linear interpolation.
        let ax: Vec<f64> = (0..5).map(|i| i as f64).collect();
        let vals: Vec<f64> = (0..5)
            .flat_map(|i| (0..5).map(move |j| 2.0 * i as f64 + 3.0 * j as f64))
            .collect();
        let g = Grid2D::new(ax.clone(), ax, vals);
        let r = leave_one_out(&g);
        assert_eq!(r.nodes, 9);
        assert!(r.mean_abs_err < 1e-12);
        assert!(r.max_abs_err < 1e-12);
    }

    #[test]
    fn quadratic_grid_has_bounded_error() {
        // f(x, y) = x^2: second differences are constant -> LOO error is
        // exactly the curvature term.
        let ax: Vec<f64> = (0..6).map(|i| i as f64).collect();
        let vals: Vec<f64> = (0..6)
            .flat_map(|i| (0..6).map(move |_| (i * i) as f64))
            .collect();
        let g = Grid2D::new(ax.clone(), ax, vals);
        let r = leave_one_out(&g);
        assert!(r.mean_abs_err > 0.0);
        assert!(
            r.max_abs_err <= 1.0 + 1e-12,
            "curvature of x^2 on unit grid"
        );
    }

    #[test]
    fn tiny_grid_has_no_interior() {
        let g = Grid2D::new(vec![0.0, 1.0], vec![0.0, 1.0], vec![0.0; 4]);
        let r = leave_one_out(&g);
        assert_eq!(r.nodes, 0);
        assert_eq!(r.mean_abs_err, 0.0);
    }

    #[test]
    fn measured_surface_is_interpolation_friendly() {
        // The real degradation surface must be smooth enough that the
        // paper's interpolation approach makes sense: mean LOO error well
        // under 10 percentage points.
        let cfg = MachineConfig::ivy_bridge();
        let mut ccfg = CharacterizeConfig::fast(&cfg);
        ccfg.grid_points = 6;
        ccfg.micro_duration_s = 2.0;
        let stage = characterize_stage(&cfg, &ccfg, cfg.freqs.max_setting());
        let rep = validate_stage(&stage);
        assert!(
            rep.cpu.mean_abs_err < 0.10,
            "cpu surface LOO error {}",
            rep.cpu.mean_abs_err
        );
        assert!(
            rep.gpu.mean_abs_err < 0.10,
            "gpu surface LOO error {}",
            rep.gpu.mean_abs_err
        );
    }
}
