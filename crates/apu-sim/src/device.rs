//! Device identity and per-device execution parameters.

/// One of the two processor types on the integrated package.
///
/// The paper (Definition 2.1) calls these "two types of units A and B"; on
/// the evaluation platform they are the 4-core CPU and the integrated GPU of
/// an Intel Ivy Bridge i7-3520M.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Device {
    /// The multicore CPU complex.
    Cpu,
    /// The integrated GPU.
    Gpu,
}

impl Device {
    /// The other device on the package.
    #[inline]
    pub fn other(self) -> Device {
        match self {
            Device::Cpu => Device::Gpu,
            Device::Gpu => Device::Cpu,
        }
    }

    /// All devices, in canonical order (CPU first).
    pub const ALL: [Device; 2] = [Device::Cpu, Device::Gpu];

    /// Stable index for array-backed per-device tables.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            Device::Cpu => 0,
            Device::Gpu => 1,
        }
    }

    /// Short lowercase name ("cpu" / "gpu").
    pub fn name(self) -> &'static str {
        match self {
            Device::Cpu => "cpu",
            Device::Gpu => "gpu",
        }
    }
}

impl std::fmt::Display for Device {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A pair of values indexed by [`Device`].
///
/// Used throughout the simulator for anything that exists once per processor
/// type (frequencies, demands, achieved bandwidth, power, ...).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PerDevice<T> {
    pub cpu: T,
    pub gpu: T,
}

impl<T> PerDevice<T> {
    /// Construct from explicit CPU and GPU values.
    pub fn new(cpu: T, gpu: T) -> Self {
        PerDevice { cpu, gpu }
    }

    /// Construct by evaluating a closure for each device.
    pub fn from_fn(mut f: impl FnMut(Device) -> T) -> Self {
        PerDevice {
            cpu: f(Device::Cpu),
            gpu: f(Device::Gpu),
        }
    }

    /// Immutable access by device.
    #[inline]
    pub fn get(&self, d: Device) -> &T {
        match d {
            Device::Cpu => &self.cpu,
            Device::Gpu => &self.gpu,
        }
    }

    /// Mutable access by device.
    #[inline]
    pub fn get_mut(&mut self, d: Device) -> &mut T {
        match d {
            Device::Cpu => &mut self.cpu,
            Device::Gpu => &mut self.gpu,
        }
    }

    /// Map both entries through a function.
    pub fn map<U>(&self, mut f: impl FnMut(&T) -> U) -> PerDevice<U> {
        PerDevice {
            cpu: f(&self.cpu),
            gpu: f(&self.gpu),
        }
    }
}

impl PerDevice<f64> {
    /// Sum of the two entries.
    #[inline]
    pub fn sum(&self) -> f64 {
        self.cpu + self.gpu
    }
}

/// Static execution parameters of one device.
///
/// The simulator's execution model is a roofline: a kernel phase needs
/// `flops` of compute and `bytes` of DRAM traffic; compute rate scales with
/// frequency, DRAM bandwidth scales only weakly with frequency (request
/// concurrency grows slightly with core clock).
#[derive(Debug, Clone)]
pub struct DeviceParams {
    /// Peak compute throughput in GFLOP/s per GHz of core clock.
    pub gflops_per_ghz: f64,
    /// Peak DRAM bandwidth this device can draw at its maximum frequency, GB/s.
    pub bw_peak_gbps: f64,
    /// Fraction of `bw_peak_gbps` still achievable at the lowest frequency.
    ///
    /// Effective solo bandwidth at frequency `f` is
    /// `bw_peak * (bw_floor + (1 - bw_floor) * f / f_max)`.
    pub bw_freq_floor: f64,
    /// Idle (leakage + base) power in watts, drawn whenever the device is
    /// powered, even with no job.
    pub idle_power_w: f64,
    /// Dynamic power coefficient `a` in `P_dyn = a * (f/f_max)^alpha * activity`.
    pub dyn_power_w: f64,
    /// Frequency exponent of dynamic power (captures voltage scaling with
    /// frequency; ~2-3 on real DVFS curves).
    pub dyn_power_exp: f64,
    /// Watts drawn per GB/s of achieved memory traffic attributed to this
    /// device (memory controller + DRAM activity).
    pub mem_power_w_per_gbps: f64,
    /// Fraction of dynamic power still drawn while memory-stalled (cores
    /// spin on outstanding misses rather than clock-gating fully).
    pub stall_power_frac: f64,
}

impl DeviceParams {
    /// Compute throughput (GFLOP/s) at core frequency `f_ghz`.
    #[inline]
    pub fn compute_rate(&self, f_ghz: f64) -> f64 {
        self.gflops_per_ghz * f_ghz
    }

    /// Solo effective DRAM bandwidth (GB/s) at frequency `f_ghz` with device
    /// maximum frequency `f_max_ghz`.
    #[inline]
    pub fn solo_bandwidth(&self, f_ghz: f64, f_max_ghz: f64) -> f64 {
        let scale = self.bw_freq_floor + (1.0 - self.bw_freq_floor) * (f_ghz / f_max_ghz);
        self.bw_peak_gbps * scale
    }

    /// Dynamic power (watts) at relative frequency `f/f_max` and activity
    /// factor `activity` in `[0, 1]`.
    #[inline]
    pub fn dynamic_power(&self, f_rel: f64, activity: f64) -> f64 {
        self.dyn_power_w * f_rel.powf(self.dyn_power_exp) * activity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn other_flips() {
        assert_eq!(Device::Cpu.other(), Device::Gpu);
        assert_eq!(Device::Gpu.other(), Device::Cpu);
        assert_eq!(Device::Cpu.other().other(), Device::Cpu);
    }

    #[test]
    fn per_device_indexing() {
        let mut p = PerDevice::new(1.0, 2.0);
        assert_eq!(*p.get(Device::Cpu), 1.0);
        assert_eq!(*p.get(Device::Gpu), 2.0);
        *p.get_mut(Device::Gpu) = 5.0;
        assert_eq!(p.sum(), 6.0);
        let q = p.map(|v| v * 2.0);
        assert_eq!(q.cpu, 2.0);
        assert_eq!(q.gpu, 10.0);
    }

    #[test]
    fn per_device_from_fn() {
        let p = PerDevice::from_fn(|d| d.index() as f64);
        assert_eq!(p.cpu, 0.0);
        assert_eq!(p.gpu, 1.0);
    }

    #[test]
    fn device_display_and_name() {
        assert_eq!(Device::Cpu.to_string(), "cpu");
        assert_eq!(Device::Gpu.name(), "gpu");
    }

    fn params() -> DeviceParams {
        DeviceParams {
            gflops_per_ghz: 25.0,
            bw_peak_gbps: 11.0,
            bw_freq_floor: 0.6,
            idle_power_w: 1.5,
            dyn_power_w: 10.0,
            dyn_power_exp: 2.4,
            mem_power_w_per_gbps: 0.1,
            stall_power_frac: 0.4,
        }
    }

    #[test]
    fn compute_rate_scales_linearly() {
        let p = params();
        assert!((p.compute_rate(2.0) - 50.0).abs() < 1e-12);
        assert!((p.compute_rate(3.6) / p.compute_rate(1.8) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn bandwidth_scales_weakly() {
        let p = params();
        let hi = p.solo_bandwidth(3.6, 3.6);
        let lo = p.solo_bandwidth(1.2, 3.6);
        assert!((hi - 11.0).abs() < 1e-12);
        // at 1/3 frequency, bandwidth only drops to 0.6 + 0.4/3 = 73.3%
        assert!((lo / hi - (0.6 + 0.4 / 3.0)).abs() < 1e-9);
    }

    #[test]
    fn dynamic_power_monotone_in_freq_and_activity() {
        let p = params();
        assert!(p.dynamic_power(1.0, 1.0) > p.dynamic_power(0.5, 1.0));
        assert!(p.dynamic_power(1.0, 1.0) > p.dynamic_power(1.0, 0.5));
        assert_eq!(p.dynamic_power(1.0, 0.0), 0.0);
    }
}
