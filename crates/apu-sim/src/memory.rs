//! Shared memory subsystem: bandwidth arbitration and LLC interference.
//!
//! On the modeled package the CPU and GPU share the last-level cache, the
//! on-chip ring, and the DRAM controller (paper, Figure 1). Previous work
//! cited by the paper found that *main memory* contention, not LLC capacity
//! contention, dominates co-run slowdown; accordingly the first-order model
//! here is bandwidth arbitration. A second-order LLC term is kept because a
//! cache-resident CPU program co-running with a streaming GPU kernel loses
//! its working set and can degrade far beyond what bandwidth sharing alone
//! predicts (the paper's Section III observes an 81% slowdown for dwt2d
//! against streamcluster).
//!
//! The arbitration model has two stages:
//!
//! 1. **Latency inflation.** Before DRAM bandwidth saturates, each device's
//!    achievable request rate is reduced by pressure from the other device
//!    (queueing in the shared controller / ring):
//!    `achievable_d = demand_d / (1 + lambda_d * pressure^gamma_d)` where
//!    `pressure = demand_other / bw_ref`. The GPU is modeled with earlier,
//!    near-linear inflation (its many outstanding requests queue behind CPU
//!    traffic), the CPU with a high-exponent term that only bites at heavy
//!    combined load — reproducing the shapes of the paper's Figures 5 and 6.
//! 2. **Saturation sharing.** If the sum of achievable rates exceeds the
//!    controller capacity, bandwidth is split proportionally with per-device
//!    weights; the GPU's bursty request streams win arbitration, so the CPU
//!    weight is below 1 and the CPU suffers more at the high-high corner
//!    (paper: max CPU degradation ~65% vs. ~45% for the GPU).

use crate::device::{Device, PerDevice};

/// Which arbitration law the shared controller follows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ContentionKind {
    /// The calibrated two-stage model: cross-device latency inflation, then
    /// weighted water-filling at saturation (see module docs). Matches the
    /// shapes of the paper's Figures 5/6.
    #[default]
    TwoStage,
    /// A plain fair-share controller: no latency inflation; on saturation
    /// each device gets an equal share, capped at its demand (max-min
    /// fairness, unweighted). The textbook model — used by the
    /// `contention_model` ablation to show which conclusions depend on the
    /// richer law.
    FairShare,
}

/// Parameters of the shared-memory contention model.
#[derive(Debug, Clone)]
pub struct MemoryParams {
    /// Which arbitration law to apply.
    pub kind: ContentionKind,
    /// Total DRAM controller capacity in GB/s when both devices pull.
    pub total_bw_gbps: f64,
    /// Reference bandwidth used to normalize cross-device pressure (roughly
    /// the per-device peak).
    pub pressure_ref_gbps: f64,
    /// Latency-inflation coefficient per device (`lambda`).
    pub inflation_coeff: PerDevice<f64>,
    /// Latency-inflation exponent per device (`gamma`).
    pub inflation_exp: PerDevice<f64>,
    /// Arbitration weight per device under saturation.
    pub arb_weight: PerDevice<f64>,
    /// Last-level cache capacity in MiB (shared).
    pub llc_mib: f64,
}

/// Outcome of arbitrating two simultaneous bandwidth demands.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arbitration {
    /// Bandwidth each device actually achieves, GB/s.
    pub achieved: PerDevice<f64>,
    /// Per-device slowdown of the memory-bound portion: `demand / achieved`
    /// (1.0 when unimpeded; demand 0 maps to 1.0).
    pub mem_slowdown: PerDevice<f64>,
    /// Whether the controller was saturated.
    pub saturated: bool,
}

impl MemoryParams {
    /// Arbitrate simultaneous steady-state demands (GB/s) from the two
    /// devices. Demands must be non-negative and finite.
    pub fn arbitrate(&self, demand: PerDevice<f64>) -> Arbitration {
        debug_assert!(demand.cpu >= 0.0 && demand.cpu.is_finite());
        debug_assert!(demand.gpu >= 0.0 && demand.gpu.is_finite());
        if self.kind == ContentionKind::FairShare {
            return self.arbitrate_fair_share(demand);
        }

        // Stage 1: latency inflation from cross-device pressure.
        let achievable = PerDevice::from_fn(|d| {
            let own = *demand.get(d);
            if own <= 0.0 {
                return 0.0;
            }
            let pressure = (*demand.get(d.other()) / self.pressure_ref_gbps).max(0.0);
            let infl =
                1.0 + self.inflation_coeff.get(d) * pressure.powf(*self.inflation_exp.get(d));
            own / infl
        });

        // Stage 2: proportional weighted sharing if the controller saturates.
        // Shares are capped at each device's unconstrained rate (a device
        // never receives more than it asks for); capped leftover flows to
        // the other device (two-party weighted max-min / water-filling).
        let total = achievable.sum();
        let (achieved, saturated) = if total > self.total_bw_gbps && total > 0.0 {
            let bt = self.total_bw_gbps;
            let wc = self.arb_weight.cpu * achievable.cpu;
            let wg = self.arb_weight.gpu * achievable.gpu;
            let denom = wc + wg;
            let share_c = bt * wc / denom;
            let share_g = bt * wg / denom;
            let a = if share_c > achievable.cpu {
                PerDevice::new(achievable.cpu, (bt - achievable.cpu).min(achievable.gpu))
            } else if share_g > achievable.gpu {
                PerDevice::new((bt - achievable.gpu).min(achievable.cpu), achievable.gpu)
            } else {
                PerDevice::new(share_c, share_g)
            };
            (a, true)
        } else {
            (achievable, false)
        };

        let mem_slowdown = PerDevice::from_fn(|d| {
            let own = *demand.get(d);
            let got = *achieved.get(d);
            if own <= 0.0 || got <= 0.0 {
                1.0
            } else {
                (own / got).max(1.0)
            }
        });

        Arbitration {
            achieved,
            mem_slowdown,
            saturated,
        }
    }

    /// Unweighted max-min fair sharing with no latency term.
    fn arbitrate_fair_share(&self, demand: PerDevice<f64>) -> Arbitration {
        let total = demand.sum();
        let (achieved, saturated) = if total > self.total_bw_gbps && total > 0.0 {
            let half = self.total_bw_gbps / 2.0;
            let a = if demand.cpu <= half {
                PerDevice::new(
                    demand.cpu,
                    (self.total_bw_gbps - demand.cpu).min(demand.gpu),
                )
            } else if demand.gpu <= half {
                PerDevice::new(
                    (self.total_bw_gbps - demand.gpu).min(demand.cpu),
                    demand.gpu,
                )
            } else {
                PerDevice::new(half, half)
            };
            (a, true)
        } else {
            (demand, false)
        };
        let mem_slowdown = PerDevice::from_fn(|d| {
            let own = *demand.get(d);
            let got = *achieved.get(d);
            if own <= 0.0 || got <= 0.0 {
                1.0
            } else {
                (own / got).max(1.0)
            }
        });
        Arbitration {
            achieved,
            mem_slowdown,
            saturated,
        }
    }

    /// Solo achieved bandwidth: a single device with no co-runner simply
    /// gets `min(demand, total)`.
    pub fn solo(&self, device: Device, demand_gbps: f64) -> f64 {
        let _ = device;
        demand_gbps.min(self.total_bw_gbps)
    }

    /// Extra DRAM-traffic multiplier a job suffers from LLC thrashing.
    ///
    /// `footprint_mib` is the job's working set; `sensitivity` is how much of
    /// its traffic is cache-filtered when resident (a cache-friendly kernel
    /// re-reads its working set many times); `co_pressure` in `[0, 1]` is the
    /// co-runner's LLC pressure (streaming kernels evict aggressively).
    ///
    /// A job whose working set fits comfortably in the LLC is fully exposed
    /// to eviction; a job that never fit is unaffected (its traffic already
    /// goes to DRAM).
    pub fn llc_traffic_multiplier(
        &self,
        footprint_mib: f64,
        sensitivity: f64,
        co_pressure: f64,
    ) -> f64 {
        if sensitivity <= 0.0 || co_pressure <= 0.0 {
            return 1.0;
        }
        // Residency: 1 when the footprint fits in (a share of) the LLC, falling
        // to 0 once the footprint is several times the cache size.
        let fit = (self.llc_mib / footprint_mib.max(1e-9)).min(1.0);
        let residency = fit * fit; // quadratic fall-off past capacity
        1.0 + sensitivity * residency * co_pressure.clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> MemoryParams {
        MemoryParams {
            kind: ContentionKind::TwoStage,
            total_bw_gbps: 14.3,
            pressure_ref_gbps: 11.0,
            inflation_coeff: PerDevice::new(0.25, 0.40),
            inflation_exp: PerDevice::new(2.5, 1.2),
            arb_weight: PerDevice::new(0.785, 1.0),
            llc_mib: 4.0,
        }
    }

    #[test]
    fn no_contention_when_one_idle() {
        let m = params();
        let a = m.arbitrate(PerDevice::new(8.0, 0.0));
        assert!((a.achieved.cpu - 8.0).abs() < 1e-9);
        assert_eq!(a.achieved.gpu, 0.0);
        assert!((a.mem_slowdown.cpu - 1.0).abs() < 1e-9);
        assert!(!a.saturated);
    }

    #[test]
    fn zero_demand_zero_achieved() {
        let m = params();
        let a = m.arbitrate(PerDevice::new(0.0, 0.0));
        assert_eq!(a.achieved.cpu, 0.0);
        assert_eq!(a.achieved.gpu, 0.0);
        assert_eq!(a.mem_slowdown.cpu, 1.0);
        assert_eq!(a.mem_slowdown.gpu, 1.0);
    }

    #[test]
    fn gpu_suffers_at_moderate_contention_cpu_does_not() {
        // Paper Fig 5/6: GPU degradations are broad (20-40%), CPU suffers
        // less than 20% in about half the cases.
        let m = params();
        let a = m.arbitrate(PerDevice::new(5.0, 5.0));
        let cpu_deg = a.mem_slowdown.cpu - 1.0;
        let gpu_deg = a.mem_slowdown.gpu - 1.0;
        assert!(
            cpu_deg < 0.10,
            "cpu deg {cpu_deg} too high at moderate load"
        );
        assert!(gpu_deg > cpu_deg, "gpu should suffer more at moderate load");
        assert!(gpu_deg > 0.08 && gpu_deg < 0.40);
    }

    #[test]
    fn cpu_overtakes_gpu_at_high_high_corner() {
        // Paper: "the CPU shows much more serious slowdown than the GPU when
        // both co-runners have a high memory demand (over 8.5 GB/s)".
        let m = params();
        let a = m.arbitrate(PerDevice::new(11.0, 11.0));
        let cpu_deg = a.mem_slowdown.cpu - 1.0;
        let gpu_deg = a.mem_slowdown.gpu - 1.0;
        assert!(a.saturated);
        assert!(
            cpu_deg > gpu_deg,
            "cpu {cpu_deg} should exceed gpu {gpu_deg}"
        );
        // Largest CPU degradation about 65%, GPU about 45% (pure-memory phase).
        assert!(cpu_deg > 0.50 && cpu_deg < 0.85, "cpu corner deg {cpu_deg}");
        assert!(gpu_deg > 0.30 && gpu_deg < 0.60, "gpu corner deg {gpu_deg}");
    }

    #[test]
    fn achieved_never_exceeds_capacity() {
        let m = params();
        for i in 0..=11 {
            for j in 0..=11 {
                let a = m.arbitrate(PerDevice::new(i as f64, j as f64));
                assert!(a.achieved.sum() <= m.total_bw_gbps + 1e-9);
                assert!(a.achieved.cpu <= i as f64 + 1e-9);
                assert!(a.achieved.gpu <= j as f64 + 1e-9);
            }
        }
    }

    #[test]
    fn slowdown_monotone_in_corunner_demand() {
        let m = params();
        let mut prev_c = 0.0;
        let mut prev_g = 0.0;
        for j in 0..=11 {
            let a = m.arbitrate(PerDevice::new(9.0, j as f64));
            let dc = a.mem_slowdown.cpu - 1.0;
            let ag = m.arbitrate(PerDevice::new(j as f64, 9.0)).mem_slowdown.gpu - 1.0;
            assert!(dc + 1e-9 >= prev_c, "cpu slowdown must not decrease");
            assert!(ag + 1e-9 >= prev_g, "gpu slowdown must not decrease");
            prev_c = dc;
            prev_g = ag;
        }
    }

    #[test]
    fn solo_caps_at_total() {
        let m = params();
        assert_eq!(m.solo(Device::Cpu, 5.0), 5.0);
        assert_eq!(m.solo(Device::Gpu, 50.0), m.total_bw_gbps);
    }

    #[test]
    fn fair_share_has_no_latency_term() {
        let mut m = params();
        m.kind = ContentionKind::FairShare;
        // Below capacity: everyone gets what they ask, no inflation at all.
        let a = m.arbitrate(PerDevice::new(6.0, 6.0));
        assert_eq!(a.achieved.cpu, 6.0);
        assert_eq!(a.achieved.gpu, 6.0);
        assert_eq!(a.mem_slowdown.cpu, 1.0);
        assert!(!a.saturated);
    }

    #[test]
    fn fair_share_splits_evenly_at_saturation() {
        let mut m = params();
        m.kind = ContentionKind::FairShare;
        let a = m.arbitrate(PerDevice::new(11.0, 11.0));
        assert!(a.saturated);
        assert!((a.achieved.cpu - m.total_bw_gbps / 2.0).abs() < 1e-9);
        assert!((a.achieved.gpu - m.total_bw_gbps / 2.0).abs() < 1e-9);
        // symmetric: no CPU/GPU asymmetry, unlike the two-stage model
        assert_eq!(a.mem_slowdown.cpu, a.mem_slowdown.gpu);
    }

    #[test]
    fn fair_share_caps_small_demand_at_its_ask() {
        let mut m = params();
        m.kind = ContentionKind::FairShare;
        let a = m.arbitrate(PerDevice::new(3.0, 13.0));
        assert_eq!(a.achieved.cpu, 3.0, "small demand fully served");
        assert!((a.achieved.gpu - (m.total_bw_gbps - 3.0)).abs() < 1e-9);
    }

    #[test]
    fn llc_multiplier_fits_cache() {
        let m = params();
        // 2 MiB working set fits the 4 MiB LLC: fully exposed to thrashing.
        let hi = m.llc_traffic_multiplier(2.0, 8.0, 1.0);
        assert!((hi - 9.0).abs() < 1e-9);
        // no co-runner pressure: no effect
        assert_eq!(m.llc_traffic_multiplier(2.0, 8.0, 0.0), 1.0);
        // insensitive job: no effect
        assert_eq!(m.llc_traffic_multiplier(2.0, 0.0, 1.0), 1.0);
    }

    #[test]
    fn llc_multiplier_decays_past_capacity() {
        let m = params();
        let fits = m.llc_traffic_multiplier(4.0, 8.0, 1.0);
        let big = m.llc_traffic_multiplier(16.0, 8.0, 1.0);
        let huge = m.llc_traffic_multiplier(64.0, 8.0, 1.0);
        assert!(fits > big && big > huge);
        assert!(
            huge < 1.05,
            "a streaming working set is barely LLC-sensitive"
        );
    }
}
