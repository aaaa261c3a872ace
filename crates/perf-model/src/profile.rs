//! Standalone profiles: `l_{i,p,f}`, bandwidth demand, and solo power for
//! every job, device, and frequency level.
//!
//! The paper obtains these by offline profiling ("to assess the full
//! capability of the proposed co-scheduling algorithm ... we use offline
//! profiling to record the standalone performance and power usage at each
//! frequency level"); here the profiler runs each job alone on the
//! simulator. An analytic fast path is also provided for tests.

use apu_sim::{run_solo, Device, FreqSetting, JobSpec, MachineConfig, PerDevice};

/// Standalone measurements of one job on one device across that device's
/// frequency ladder.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceProfile {
    /// Run time (seconds) indexed by frequency level.
    pub time_s: Vec<f64>,
    /// Average DRAM demand (GB/s) indexed by frequency level.
    pub demand_gbps: Vec<f64>,
    /// Mean package power during the solo run (watts) indexed by level.
    pub power_w: Vec<f64>,
}

impl DeviceProfile {
    fn level_count(&self) -> usize {
        self.time_s.len()
    }
}

/// Full standalone profile of one job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobProfile {
    /// Job name.
    pub name: String,
    /// Per-device ladders.
    pub per_device: PerDevice<DeviceProfile>,
}

impl JobProfile {
    /// `l_{i,p,f}`: standalone time on `device` at frequency level `f`.
    pub fn time(&self, device: Device, level: usize) -> f64 {
        self.per_device.get(device).time_s[level]
    }

    /// Solo DRAM demand on `device` at level `f`, GB/s.
    pub fn demand(&self, device: Device, level: usize) -> f64 {
        self.per_device.get(device).demand_gbps[level]
    }

    /// Mean solo package power on `device` at level `f`, watts.
    pub fn power(&self, device: Device, level: usize) -> f64 {
        self.per_device.get(device).power_w[level]
    }

    /// The best (minimum) standalone time across both devices at their
    /// maximum frequencies.
    pub fn best_time_unconstrained(&self) -> f64 {
        Device::ALL
            .iter()
            .map(|&d| {
                let p = self.per_device.get(d);
                p.time_s[p.level_count() - 1]
            })
            .fold(f64::INFINITY, f64::min)
    }

    /// The device with the lower standalone time at maximum frequency.
    pub fn preferred_device_unconstrained(&self) -> Device {
        let c = &self.per_device.cpu;
        let g = &self.per_device.gpu;
        if c.time_s[c.level_count() - 1] <= g.time_s[g.level_count() - 1] {
            Device::Cpu
        } else {
            Device::Gpu
        }
    }
}

/// How standalone numbers are obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProfileMethod {
    /// Run every (job, device, level) combination on the simulator — the
    /// ground-truth equivalent of the paper's offline profiling runs.
    Measured,
    /// Use the analytic steady-state model (fast; accurate to <1% of the
    /// engine, suitable for tests).
    Analytic,
}

/// Profile one job on both devices at every frequency level.
pub fn profile_job(cfg: &MachineConfig, job: &JobSpec, method: ProfileMethod) -> JobProfile {
    let per_device = PerDevice::from_fn(|device| {
        let table = cfg.freqs.table(device);
        let mut time_s = Vec::with_capacity(table.len());
        let mut demand = Vec::with_capacity(table.len());
        let mut power = Vec::with_capacity(table.len());
        for (level, f_ghz) in table.iter() {
            let setting = match device {
                Device::Cpu => FreqSetting::new(level, 0),
                Device::Gpu => FreqSetting::new(0, level),
            };
            let (t, p) = match method {
                ProfileMethod::Measured => {
                    let out = run_solo(cfg, job, device, setting)
                        .expect("solo profiling run cannot stall");
                    (out.time_s, out.mean_power_w)
                }
                ProfileMethod::Analytic => {
                    let t = job.solo_time(cfg.device(device), device, f_ghz, cfg.f_max(device));
                    (t, analytic_solo_power(cfg, job, device, setting, t))
                }
            };
            time_s.push(t);
            demand.push(if t > 0.0 { job.total_bytes() / t } else { 0.0 });
            power.push(p);
        }
        DeviceProfile {
            time_s,
            demand_gbps: demand,
            power_w: power,
        }
    });
    JobProfile {
        name: job.name.clone(),
        per_device,
    }
}

/// Analytic approximation of mean solo package power (idle co-device).
fn analytic_solo_power(
    cfg: &MachineConfig,
    job: &JobSpec,
    device: Device,
    setting: FreqSetting,
    time_s: f64,
) -> f64 {
    if time_s <= 0.0 {
        return idle_package_power(cfg);
    }
    let dev = cfg.device(device);
    let f = cfg.freqs.ghz(device, setting);
    let f_max = cfg.f_max(device);
    // Time-weighted average compute utilization across phases.
    let mut util_time = 0.0;
    for p in &job.phases {
        let tc = p.compute_time(dev, device, f);
        let t = p.solo_time(dev, device, f, f_max);
        util_time += if t > 0.0 { tc } else { 0.0 };
    }
    let busy_t: f64 = job
        .phases
        .iter()
        .map(|p| p.solo_time(dev, device, f, f_max))
        .sum::<f64>()
        .max(1e-12);
    let busy_frac = (util_time / busy_t).min(1.0);
    let stall = cfg.device(device).stall_power_frac;
    let util = (busy_frac + stall * (1.0 - busy_frac)) * (busy_t / time_s);
    let bw = job.total_bytes() / time_s;
    let act = apu_sim::DeviceActivity {
        compute_util: util,
        mem_bw_gbps: bw,
    };
    let other = apu_sim::DeviceActivity::IDLE;
    let acts = match device {
        Device::Cpu => PerDevice::new(act, other),
        Device::Gpu => PerDevice::new(other, act),
    };
    cfg.power_model().package_power(setting, acts)
}

/// Package power with both devices idle (uncore + idle floors) — the
/// double-counted term removed by the co-run power predictor.
pub fn idle_package_power(cfg: &MachineConfig) -> f64 {
    cfg.package.uncore_w + cfg.cpu.idle_power_w + cfg.gpu.idle_power_w
}

/// Profile a whole batch of jobs.
pub fn profile_batch(
    cfg: &MachineConfig,
    jobs: &[JobSpec],
    method: ProfileMethod,
) -> Vec<JobProfile> {
    jobs.iter().map(|j| profile_job(cfg, j, method)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use kernels::by_name;

    fn cfg() -> MachineConfig {
        MachineConfig::ivy_bridge()
    }

    #[test]
    fn analytic_profile_matches_table1_at_max() {
        let cfg = cfg();
        let job = by_name(&cfg, "streamcluster").unwrap();
        let p = profile_job(&cfg, &job, ProfileMethod::Analytic);
        assert!((p.time(Device::Cpu, 15) - 59.71).abs() < 0.5);
        assert!((p.time(Device::Gpu, 9) - 23.72).abs() < 0.5);
        assert_eq!(p.preferred_device_unconstrained(), Device::Gpu);
    }

    #[test]
    fn measured_profile_close_to_analytic() {
        let cfg = cfg();
        let job = by_name(&cfg, "lud").unwrap();
        let a = profile_job(&cfg, &job, ProfileMethod::Analytic);
        let m = profile_job(&cfg, &job, ProfileMethod::Measured);
        for d in Device::ALL {
            let n = cfg.freqs.table(d).len();
            for l in [0, n / 2, n - 1] {
                let ta = a.time(d, l);
                let tm = m.time(d, l);
                assert!(
                    (ta - tm).abs() / ta < 0.03,
                    "{d} L{l}: analytic {ta} vs measured {tm}"
                );
            }
        }
    }

    #[test]
    fn times_monotone_decreasing_in_frequency() {
        let cfg = cfg();
        let job = by_name(&cfg, "hotspot").unwrap();
        let p = profile_job(&cfg, &job, ProfileMethod::Analytic);
        for d in Device::ALL {
            let times = &p.per_device.get(d).time_s;
            for w in times.windows(2) {
                assert!(w[0] >= w[1], "higher frequency must not be slower");
            }
        }
    }

    #[test]
    fn power_monotone_increasing_in_frequency() {
        let cfg = cfg();
        let job = by_name(&cfg, "leukocyte").unwrap();
        let p = profile_job(&cfg, &job, ProfileMethod::Analytic);
        for d in Device::ALL {
            let pw = &p.per_device.get(d).power_w;
            for w in pw.windows(2) {
                assert!(
                    w[0] <= w[1] + 1e-9,
                    "higher frequency must not use less power"
                );
            }
        }
    }

    #[test]
    fn memory_bound_job_insensitive_to_frequency() {
        let cfg = cfg();
        let sc = by_name(&cfg, "streamcluster").unwrap(); // memory-heavy
        let leu = by_name(&cfg, "leukocyte").unwrap(); // compute-heavy
        let psc = profile_job(&cfg, &sc, ProfileMethod::Analytic);
        let ple = profile_job(&cfg, &leu, ProfileMethod::Analytic);
        let sc_ratio = psc.time(Device::Gpu, 0) / psc.time(Device::Gpu, 9);
        let le_ratio = ple.time(Device::Gpu, 0) / ple.time(Device::Gpu, 9);
        assert!(
            le_ratio > sc_ratio + 0.1,
            "compute-bound slows more at low freq: {le_ratio} vs {sc_ratio}"
        );
    }

    #[test]
    fn idle_power_constant() {
        let cfg = cfg();
        assert!((idle_package_power(&cfg) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn batch_profiles_all() {
        let cfg = cfg();
        let jobs = kernels::rodinia_suite(&cfg);
        let ps = profile_batch(&cfg, &jobs, ProfileMethod::Analytic);
        assert_eq!(ps.len(), 8);
        // Table I preference row: 6 GPU, dwt2d CPU, lud near-tied.
        let gpu_pref = ps
            .iter()
            .filter(|p| p.preferred_device_unconstrained() == Device::Gpu)
            .count();
        assert!(gpu_pref >= 6);
        let dwt = ps.iter().find(|p| p.name == "dwt2d").unwrap();
        assert_eq!(dwt.preferred_device_unconstrained(), Device::Cpu);
    }
}
