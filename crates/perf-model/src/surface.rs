//! The co-run degradation space: a 2-D grid of degradations over
//! (CPU demand, GPU demand), one grid per device per frequency stage,
//! queried by bilinear interpolation (paper Figures 5 and 6).

use apu_sim::{Device, PerDevice};

/// A rectangular grid of values over two demand axes with bilinear lookup.
#[derive(Debug, Clone, PartialEq)]
pub struct Grid2D {
    /// CPU-demand axis, GB/s, strictly increasing.
    pub cpu_axis: Vec<f64>,
    /// GPU-demand axis, GB/s, strictly increasing.
    pub gpu_axis: Vec<f64>,
    /// Row-major values: `values[i * gpu_axis.len() + j]` at
    /// `(cpu_axis[i], gpu_axis[j])`.
    pub values: Vec<f64>,
}

impl Grid2D {
    /// Build from axes and row-major values.
    ///
    /// # Panics
    /// Panics on dimension mismatch or non-increasing axes.
    pub fn new(cpu_axis: Vec<f64>, gpu_axis: Vec<f64>, values: Vec<f64>) -> Self {
        assert_eq!(values.len(), cpu_axis.len() * gpu_axis.len());
        assert!(cpu_axis.len() >= 2 && gpu_axis.len() >= 2);
        assert!(cpu_axis.windows(2).all(|w| w[0] < w[1]));
        assert!(gpu_axis.windows(2).all(|w| w[0] < w[1]));
        Grid2D {
            cpu_axis,
            gpu_axis,
            values,
        }
    }

    /// Value at grid node `(i, j)`.
    #[inline]
    pub fn at(&self, i: usize, j: usize) -> f64 {
        self.values[i * self.gpu_axis.len() + j]
    }

    /// Bilinear interpolation at `(cpu_demand, gpu_demand)`; queries outside
    /// the axes are clamped to the boundary (demands beyond the measured
    /// peak behave like the peak).
    pub fn interpolate(&self, cpu_demand: f64, gpu_demand: f64) -> f64 {
        let (i0, i1, tx) = bracket(&self.cpu_axis, cpu_demand);
        let (j0, j1, ty) = bracket(&self.gpu_axis, gpu_demand);
        let v00 = self.at(i0, j0);
        let v01 = self.at(i0, j1);
        let v10 = self.at(i1, j0);
        let v11 = self.at(i1, j1);
        let a = v00 + (v01 - v00) * ty;
        let b = v10 + (v11 - v10) * ty;
        a + (b - a) * tx
    }

    /// Maximum grid value.
    pub fn max_value(&self) -> f64 {
        self.values
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Mean grid value.
    pub fn mean_value(&self) -> f64 {
        self.values.iter().sum::<f64>() / self.values.len() as f64
    }

    /// Fraction of grid nodes whose value lies in `[lo, hi)`.
    pub fn frac_in(&self, lo: f64, hi: f64) -> f64 {
        let n = self.values.iter().filter(|&&v| v >= lo && v < hi).count();
        n as f64 / self.values.len() as f64
    }
}

/// Locate `x` within `axis`: returns `(lower index, upper index, weight)`
/// with the query clamped to the axis range.
fn bracket(axis: &[f64], x: f64) -> (usize, usize, f64) {
    let n = axis.len();
    if x <= axis[0] {
        return (0, 0, 0.0);
    }
    if x >= axis[n - 1] {
        return (n - 1, n - 1, 0.0);
    }
    // binary search for the segment
    let mut lo = 0;
    let mut hi = n - 1;
    while hi - lo > 1 {
        let mid = (lo + hi) / 2;
        if axis[mid] <= x {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let t = (x - axis[lo]) / (axis[hi] - axis[lo]);
    (lo, hi, t)
}

/// The degradation surfaces of one frequency stage: how much a CPU job and a
/// GPU job each slow down as a function of both solo demands.
#[derive(Debug, Clone, PartialEq)]
pub struct DegradationSurface {
    /// `deg.cpu` is the CPU job's degradation surface (Figure 5); `deg.gpu`
    /// the GPU job's (Figure 6). Values are fractional slowdowns (0.2 = 20%).
    pub deg: PerDevice<Grid2D>,
}

impl DegradationSurface {
    /// Predicted degradation of the job on `device` when its solo demand is
    /// `own_demand` and the co-runner's is `co_demand` (both GB/s).
    pub fn degradation(&self, device: Device, own_demand: f64, co_demand: f64) -> f64 {
        let g = self.deg.get(device);
        let v = match device {
            Device::Cpu => g.interpolate(own_demand, co_demand),
            Device::Gpu => g.interpolate(co_demand, own_demand),
        };
        v.max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> Grid2D {
        // f(x, y) = x + 10 y over axes {0,1,2} x {0,1}
        Grid2D::new(
            vec![0.0, 1.0, 2.0],
            vec![0.0, 1.0],
            vec![0.0, 10.0, 1.0, 11.0, 2.0, 12.0],
        )
    }

    #[test]
    fn exact_at_nodes() {
        let g = grid();
        assert_eq!(g.interpolate(0.0, 0.0), 0.0);
        assert_eq!(g.interpolate(2.0, 1.0), 12.0);
        assert_eq!(g.interpolate(1.0, 0.0), 1.0);
    }

    #[test]
    fn bilinear_is_exact_for_bilinear_function() {
        let g = grid();
        assert!((g.interpolate(0.5, 0.5) - 5.5).abs() < 1e-12);
        assert!((g.interpolate(1.5, 0.25) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn clamps_outside_axes() {
        let g = grid();
        assert_eq!(g.interpolate(-5.0, 0.0), 0.0);
        assert_eq!(g.interpolate(99.0, 99.0), 12.0);
    }

    #[test]
    fn stats() {
        let g = grid();
        assert_eq!(g.max_value(), 12.0);
        assert!((g.mean_value() - 6.0).abs() < 1e-12);
        assert!((g.frac_in(0.0, 2.5) - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn rejects_mismatched_dims() {
        let _ = Grid2D::new(vec![0.0, 1.0], vec![0.0, 1.0], vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn surface_orients_axes_per_device() {
        // CPU grid: rows = cpu demand; GPU grid mirrors (paper swaps axes
        // between Figures 5 and 6). Use asymmetric values to verify.
        let cpu_grid = Grid2D::new(vec![0.0, 10.0], vec![0.0, 10.0], vec![0.0, 0.5, 0.1, 0.65]);
        let gpu_grid = Grid2D::new(vec![0.0, 10.0], vec![0.0, 10.0], vec![0.0, 0.2, 0.3, 0.45]);
        let s = DegradationSurface {
            deg: PerDevice::new(cpu_grid, gpu_grid),
        };
        // CPU job with own demand 10, co-runner 0: value at (cpu=10, gpu=0)
        assert!((s.degradation(Device::Cpu, 10.0, 0.0) - 0.1).abs() < 1e-12);
        // GPU job with own demand 10, co-runner 0: grid is indexed
        // (cpu_demand=co, gpu_demand=own)
        assert!((s.degradation(Device::Gpu, 10.0, 0.0) - 0.2).abs() < 1e-12);
        assert!(s.degradation(Device::Cpu, 0.0, 0.0).abs() < 1e-12);
    }

    #[test]
    fn degradation_never_negative() {
        let g = Grid2D::new(vec![0.0, 1.0], vec![0.0, 1.0], vec![-0.05, 0.0, 0.0, 0.1]);
        let s = DegradationSurface {
            deg: PerDevice::new(g.clone(), g),
        };
        assert_eq!(s.degradation(Device::Cpu, 0.0, 0.0), 0.0);
    }
}
