//! Package power model and power traces.
//!
//! The model is analytic: each device draws an idle floor plus a dynamic
//! term `a * (f/f_max)^alpha * activity` (voltage tracks frequency on a DVFS
//! ladder, so dynamic power grows super-linearly with clock), plus a memory
//! term proportional to achieved DRAM bandwidth; a constant uncore term
//! covers the ring, LLC and system agent. This is the stand-in for the RAPL
//! package-energy counters the paper samples at 1 Hz (Figure 9).

use crate::device::{Device, PerDevice};
use crate::freq::{FreqSetting, PackageFreqs};

/// Instantaneous activity state of one device, as seen by the power model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceActivity {
    /// Compute-pipeline utilization in `[0, 1]` (0 = idle / fully stalled).
    pub compute_util: f64,
    /// Achieved DRAM bandwidth in GB/s attributed to this device.
    pub mem_bw_gbps: f64,
}

impl DeviceActivity {
    /// A fully idle device.
    pub const IDLE: DeviceActivity = DeviceActivity {
        compute_util: 0.0,
        mem_bw_gbps: 0.0,
    };
}

/// Package-level power parameters beyond the per-device ones.
#[derive(Debug, Clone)]
pub struct PackagePowerParams {
    /// Constant uncore power (ring, LLC, system agent, display), watts.
    pub uncore_w: f64,
}

/// Computes package power from device states.
///
/// Borrowed views keep this cheap to call every simulation tick.
#[derive(Debug, Clone, Copy)]
pub struct PowerModel<'a> {
    pub freqs: &'a PackageFreqs,
    pub cpu: &'a crate::device::DeviceParams,
    pub gpu: &'a crate::device::DeviceParams,
    pub pkg: &'a PackagePowerParams,
}

impl PowerModel<'_> {
    fn dev_params(&self, d: Device) -> &crate::device::DeviceParams {
        match d {
            Device::Cpu => self.cpu,
            Device::Gpu => self.gpu,
        }
    }

    /// Power drawn by one device at `level` with the given activity.
    pub fn device_power(
        &self,
        device: Device,
        setting: FreqSetting,
        activity: DeviceActivity,
    ) -> f64 {
        let p = self.dev_params(device);
        let f_rel = self.freqs.table(device).rel(setting.level(device));
        p.idle_power_w
            + p.dynamic_power(f_rel, activity.compute_util)
            + p.mem_power_w_per_gbps * activity.mem_bw_gbps
    }

    /// Total package power for the given per-device activities.
    pub fn package_power(&self, setting: FreqSetting, activity: PerDevice<DeviceActivity>) -> f64 {
        let p = self.pkg.uncore_w
            + self.device_power(Device::Cpu, setting, activity.cpu)
            + self.device_power(Device::Gpu, setting, activity.gpu);
        #[cfg(feature = "sanitize")]
        if !p.is_finite() || p < 0.0 {
            crate::sanitize::record(crate::sanitize::Violation::NonPhysicalPower { power_w: p });
        }
        p
    }

    /// Package power with both devices fully busy (compute_util = 1) and no
    /// memory traffic: the pessimistic static estimate schedulers use when
    /// they must guarantee a cap without a measured activity profile.
    pub fn package_power_busy(&self, setting: FreqSetting) -> f64 {
        let busy = DeviceActivity {
            compute_util: 1.0,
            mem_bw_gbps: 0.0,
        };
        self.package_power(setting, PerDevice::new(busy, busy))
    }
}

/// A time series of package-power samples at a fixed interval.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PowerTrace {
    /// Sampling interval, seconds.
    pub interval_s: f64,
    /// Package power at `t = i * interval_s`, watts.
    pub samples_w: Vec<f64>,
}

impl PowerTrace {
    /// New empty trace with the given sampling interval.
    pub fn new(interval_s: f64) -> Self {
        assert!(interval_s > 0.0);
        PowerTrace {
            interval_s,
            samples_w: Vec::new(),
        }
    }

    /// Append one sample.
    pub fn push(&mut self, watts: f64) {
        self.samples_w.push(watts);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples_w.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.samples_w.is_empty()
    }

    /// Duration covered, seconds.
    pub fn duration_s(&self) -> f64 {
        self.samples_w.len() as f64 * self.interval_s
    }

    /// Mean power, watts (0 for an empty trace).
    pub fn mean_w(&self) -> f64 {
        if self.samples_w.is_empty() {
            0.0
        } else {
            self.samples_w.iter().sum::<f64>() / self.samples_w.len() as f64
        }
    }

    /// Maximum sample, watts (0 for an empty trace).
    pub fn max_w(&self) -> f64 {
        self.samples_w.iter().copied().fold(0.0, f64::max)
    }

    /// Total energy, joules.
    pub fn energy_j(&self) -> f64 {
        self.samples_w.iter().sum::<f64>() * self.interval_s
    }

    /// Fraction of samples strictly above `cap_w`.
    pub fn frac_above(&self, cap_w: f64) -> f64 {
        if self.samples_w.is_empty() {
            return 0.0;
        }
        let n = self.samples_w.iter().filter(|&&w| w > cap_w).count();
        n as f64 / self.samples_w.len() as f64
    }

    /// Largest overshoot above `cap_w`, watts (0 if never above).
    pub fn max_overshoot(&self, cap_w: f64) -> f64 {
        self.samples_w
            .iter()
            .map(|w| (w - cap_w).max(0.0))
            .fold(0.0, f64::max)
    }

    /// Iterate `(time_s, watts)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        self.samples_w
            .iter()
            .enumerate()
            .map(move |(i, &w)| (i as f64 * self.interval_s, w))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceParams;
    use crate::freq::FreqTable;

    fn fixture() -> (PackageFreqs, DeviceParams, DeviceParams, PackagePowerParams) {
        let freqs = PackageFreqs {
            cpu: FreqTable::linear(1.2, 3.6, 16),
            gpu: FreqTable::linear(0.35, 1.25, 10),
        };
        let cpu = DeviceParams {
            gflops_per_ghz: 25.0,
            bw_peak_gbps: 11.0,
            bw_freq_floor: 0.6,
            idle_power_w: 1.5,
            dyn_power_w: 10.5,
            dyn_power_exp: 2.4,
            mem_power_w_per_gbps: 0.10,
            stall_power_frac: 0.40,
        };
        let gpu = DeviceParams {
            gflops_per_ghz: 200.0,
            bw_peak_gbps: 11.0,
            bw_freq_floor: 0.7,
            idle_power_w: 1.0,
            dyn_power_w: 7.0,
            dyn_power_exp: 2.2,
            mem_power_w_per_gbps: 0.08,
            stall_power_frac: 0.45,
        };
        let pkg = PackagePowerParams { uncore_w: 2.0 };
        (freqs, cpu, gpu, pkg)
    }

    #[test]
    fn idle_power_is_floor() {
        let (freqs, cpu, gpu, pkg) = fixture();
        let m = PowerModel {
            freqs: &freqs,
            cpu: &cpu,
            gpu: &gpu,
            pkg: &pkg,
        };
        let s = freqs.max_setting();
        let p = m.package_power(
            s,
            PerDevice::new(DeviceActivity::IDLE, DeviceActivity::IDLE),
        );
        assert!((p - (2.0 + 1.5 + 1.0)).abs() < 1e-9);
    }

    #[test]
    fn busy_exceeds_caps_of_interest() {
        // The unconstrained package must exceed the paper's 15/16 W caps so
        // that capped runs force genuine DVFS trade-offs.
        let (freqs, cpu, gpu, pkg) = fixture();
        let m = PowerModel {
            freqs: &freqs,
            cpu: &cpu,
            gpu: &gpu,
            pkg: &pkg,
        };
        let p = m.package_power_busy(freqs.max_setting());
        assert!(p > 16.0, "full-speed package power {p} should exceed 16 W");
    }

    #[test]
    fn power_monotone_in_frequency() {
        let (freqs, cpu, gpu, pkg) = fixture();
        let m = PowerModel {
            freqs: &freqs,
            cpu: &cpu,
            gpu: &gpu,
            pkg: &pkg,
        };
        let mut prev = 0.0;
        for c in 0..16 {
            let p = m.package_power_busy(FreqSetting::new(c, 5));
            assert!(p > prev);
            prev = p;
        }
    }

    #[test]
    fn memory_traffic_adds_power() {
        let (freqs, cpu, gpu, pkg) = fixture();
        let m = PowerModel {
            freqs: &freqs,
            cpu: &cpu,
            gpu: &gpu,
            pkg: &pkg,
        };
        let s = freqs.max_setting();
        let a0 = DeviceActivity {
            compute_util: 0.5,
            mem_bw_gbps: 0.0,
        };
        let a1 = DeviceActivity {
            compute_util: 0.5,
            mem_bw_gbps: 10.0,
        };
        let p0 = m.device_power(Device::Cpu, s, a0);
        let p1 = m.device_power(Device::Cpu, s, a1);
        assert!((p1 - p0 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn trace_stats() {
        let mut t = PowerTrace::new(1.0);
        for w in [10.0, 12.0, 17.0, 14.0] {
            t.push(w);
        }
        assert_eq!(t.len(), 4);
        assert!((t.mean_w() - 13.25).abs() < 1e-12);
        assert_eq!(t.max_w(), 17.0);
        assert!((t.energy_j() - 53.0).abs() < 1e-12);
        assert!((t.frac_above(15.0) - 0.25).abs() < 1e-12);
        assert!((t.max_overshoot(15.0) - 2.0).abs() < 1e-12);
        assert_eq!(t.duration_s(), 4.0);
    }

    #[test]
    fn empty_trace_stats() {
        let t = PowerTrace::new(0.5);
        assert!(t.is_empty());
        assert_eq!(t.mean_w(), 0.0);
        assert_eq!(t.max_w(), 0.0);
        assert_eq!(t.frac_above(1.0), 0.0);
    }

    #[test]
    fn trace_iter_times() {
        let mut t = PowerTrace::new(0.5);
        t.push(1.0);
        t.push(2.0);
        let v: Vec<(f64, f64)> = t.iter().collect();
        assert_eq!(v, vec![(0.0, 1.0), (0.5, 2.0)]);
    }
}
