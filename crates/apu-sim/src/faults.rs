//! Deterministic, seeded fault injection for [`Session`](crate::Session)
//! runs.
//!
//! A production co-scheduling service sees machines die, power meters
//! glitch, and jobs fail or straggle; the paper's runtime assumes none of
//! that. This module makes those events *first-class and reproducible*:
//! a [`FaultPlan`] describes what goes wrong, and every decision it makes
//! is a pure function of `(seed, job tag, attempt)` — two runs with the
//! same plan inject exactly the same faults, which is what lets the
//! service layer property-test its recovery paths instead of eyeballing
//! chaos runs.
//!
//! Fault classes:
//!
//! * **Machine crashes** — a machine stops dead at a planned simulated
//!   time ([`SessionState::Crashed`](crate::SessionState)); in-flight
//!   jobs are lost and must be rescheduled by the caller.
//! * **Power-meter noise and spikes** — the *measured* window-average
//!   power is perturbed before the governor and trace see it, so a
//!   reactive cap governor trips on phantom excursions. The engine's
//!   energy accounting itself stays clean (the fault is in the sensor,
//!   not the physics).
//! * **Job failures** — a dispatched job dies partway through (at a
//!   seeded fraction of its progress) without producing a completion
//!   record.
//! * **Stragglers** — a dispatched job runs slower by a fixed factor
//!   while burning the same power.
//!
//! Plans are written as `@chaos key=value ...` directive lines — either
//! in a standalone fault-plan file or inline in a workload spec (the
//! spec parser skips them; `corun_verify::lint_chaos` extracts and lints
//! them as the `SRV001` diagnostic). See `docs/FAULTS.md` for the full
//! grammar.

use crate::hash::{splitmix64, unit};
use std::collections::HashMap;

/// A planned machine crash.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MachineCrash {
    /// Machine (worker) index the crash targets.
    pub machine: usize,
    /// Simulated time on that machine's clock at which it dies, seconds.
    pub at_s: f64,
}

/// Periodic power-meter spike: every `period_s` simulated seconds the
/// measured sample jumps by `magnitude_w` watts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeterSpike {
    /// Spike period, simulated seconds.
    pub period_s: f64,
    /// Added watts on the spiked sample.
    pub magnitude_w: f64,
}

/// A deterministic, seeded fault schedule. `Default` is the no-fault
/// plan; [`FaultPlan::parse`] builds one from `@chaos` directives.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Root seed; every injected decision derives from it.
    pub seed: u64,
    /// Planned machine crashes.
    pub crashes: Vec<MachineCrash>,
    /// Uniform measurement noise amplitude, watts (`0` = off).
    pub meter_noise_w: f64,
    /// Periodic measurement spikes.
    pub meter_spike: Option<MeterSpike>,
    /// Probability a dispatched job fails partway through, per attempt.
    pub job_fail_prob: f64,
    /// Probability a dispatched job straggles, per attempt.
    pub straggler_prob: f64,
    /// Slowdown factor applied to stragglers (>= 1).
    pub straggler_factor: f64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 0,
            crashes: Vec::new(),
            meter_noise_w: 0.0,
            meter_spike: None,
            job_fail_prob: 0.0,
            straggler_prob: 0.0,
            straggler_factor: 1.0,
        }
    }
}

impl FaultPlan {
    /// Whether this plan injects nothing at all.
    pub fn is_noop(&self) -> bool {
        self.crashes.is_empty()
            && self.meter_noise_w <= 0.0
            && self.meter_spike.is_none()
            && self.job_fail_prob <= 0.0
            && self.straggler_prob <= 0.0
    }

    /// Whether the plan perturbs the power meter (callers typically pair
    /// this with a reactive governor so spikes have something to trip).
    pub fn perturbs_meter(&self) -> bool {
        self.meter_noise_w > 0.0 || self.meter_spike.is_some()
    }

    /// Apply one directive payload (the part after `@chaos`):
    /// whitespace-separated `key=value` tokens. Errors name the offending
    /// token; earlier tokens on the line stay applied.
    pub fn apply_directive(&mut self, directive: &str) -> Result<(), String> {
        for tok in directive.split_whitespace() {
            let (key, value) = tok
                .split_once('=')
                .ok_or_else(|| format!("expected key=value, got `{tok}`"))?;
            match key {
                "seed" => {
                    self.seed = value.parse().map_err(|_| format!("bad seed `{value}`"))?;
                }
                "crash" => {
                    for item in value.split(',') {
                        let (m, t) = item
                            .split_once(':')
                            .ok_or_else(|| format!("crash wants MACHINE:AT_S, got `{item}`"))?;
                        let machine = m.parse().map_err(|_| format!("bad crash machine `{m}`"))?;
                        let at_s: f64 = t.parse().map_err(|_| format!("bad crash time `{t}`"))?;
                        if at_s <= 0.0 || at_s.is_nan() {
                            return Err(format!("crash time must be positive, got `{t}`"));
                        }
                        self.crashes.push(MachineCrash { machine, at_s });
                    }
                }
                "meter-noise" => {
                    let w: f64 = value
                        .parse()
                        .map_err(|_| format!("bad meter-noise `{value}`"))?;
                    if w < 0.0 {
                        return Err(format!("meter-noise must be >= 0, got `{value}`"));
                    }
                    self.meter_noise_w = w;
                }
                "meter-spike" => {
                    let (p, m) = value.split_once(':').ok_or_else(|| {
                        format!("meter-spike wants PERIOD_S:MAGNITUDE_W, got `{value}`")
                    })?;
                    let period_s: f64 = p.parse().map_err(|_| format!("bad spike period `{p}`"))?;
                    let magnitude_w: f64 = m
                        .parse()
                        .map_err(|_| format!("bad spike magnitude `{m}`"))?;
                    if period_s <= 0.0 || period_s.is_nan() {
                        return Err(format!("spike period must be positive, got `{p}`"));
                    }
                    self.meter_spike = Some(MeterSpike {
                        period_s,
                        magnitude_w,
                    });
                }
                "job-fail" => {
                    let p: f64 = value
                        .parse()
                        .map_err(|_| format!("bad job-fail `{value}`"))?;
                    if !(0.0..=1.0).contains(&p) {
                        return Err(format!("job-fail must be in [0, 1], got `{value}`"));
                    }
                    self.job_fail_prob = p;
                }
                "straggle" => {
                    let (p, f) = value
                        .split_once(':')
                        .ok_or_else(|| format!("straggle wants PROB:FACTOR, got `{value}`"))?;
                    let prob: f64 = p.parse().map_err(|_| format!("bad straggle prob `{p}`"))?;
                    let factor: f64 = f
                        .parse()
                        .map_err(|_| format!("bad straggle factor `{f}`"))?;
                    if !(0.0..=1.0).contains(&prob) {
                        return Err(format!("straggle prob must be in [0, 1], got `{p}`"));
                    }
                    if factor < 1.0 {
                        return Err(format!("straggle factor must be >= 1, got `{f}`"));
                    }
                    self.straggler_prob = prob;
                    self.straggler_factor = factor;
                }
                other => return Err(format!("unknown chaos key `{other}`")),
            }
        }
        Ok(())
    }

    /// Parse a fault plan from text: every `@chaos ...` line contributes
    /// directives (other lines — job specs, comments — are ignored, so a
    /// full workload spec parses too). Fails on the first malformed
    /// directive or if no `@chaos` line exists.
    pub fn parse(text: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        let mut saw = false;
        for (idx, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            let Some(rest) = line.strip_prefix("@chaos") else {
                continue;
            };
            saw = true;
            plan.apply_directive(rest)
                .map_err(|e| format!("line {}: {e}", idx + 1))?;
        }
        if !saw {
            return Err("no `@chaos` directive found".into());
        }
        Ok(plan)
    }

    /// Build the per-machine injector a [`Session`](crate::Session)
    /// consumes via [`Session::set_faults`](crate::Session::set_faults).
    pub fn injector(&self, machine: usize) -> FaultInjector {
        FaultInjector {
            seed: self.seed,
            machine,
            crash_at_s: self
                .crashes
                .iter()
                .filter(|c| c.machine == machine)
                .map(|c| c.at_s)
                .fold(None, |acc: Option<f64>, t| {
                    Some(acc.map_or(t, |a| a.min(t)))
                }),
            meter_noise_w: self.meter_noise_w,
            meter_spike: self.meter_spike,
            job_fail_prob: self.job_fail_prob,
            straggler_prob: self.straggler_prob,
            straggler_factor: self.straggler_factor.max(1.0),
            attempts: HashMap::new(),
            events: Vec::new(),
            last_spike_k: 0,
            noise_samples: 0,
            noise_noted: false,
        }
    }
}

/// What a recorded fault event was.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// The machine died ([`SessionState::Crashed`](crate::SessionState)).
    MachineCrash,
    /// A dispatched job was slowed by the given factor.
    Straggler {
        /// Slowdown factor applied.
        factor: f64,
    },
    /// A measured power sample was spiked by the given watts.
    MeterSpike {
        /// Added watts.
        magnitude_w: f64,
    },
    /// Measurement noise became active (recorded once per injector).
    MeterNoise {
        /// Noise amplitude, watts.
        amplitude_w: f64,
    },
}

/// One injected fault, for the caller's diagnostics.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultEvent {
    /// Simulated time the fault took effect, seconds.
    pub at_s: f64,
    /// The affected job tag, when the fault targets a job.
    pub tag: Option<usize>,
    /// What happened.
    pub kind: FaultKind,
}

/// Per-dispatch fault decisions, computed when a job is handed to the
/// engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobFaultProfile {
    /// Progress slowdown factor (1.0 = healthy).
    pub slowdown: f64,
    /// If set, the job dies when its overall progress fraction reaches
    /// this value.
    pub fail_at_frac: Option<f64>,
}

/// The per-machine fault state a [`Session`](crate::Session) consults
/// while advancing. Decisions are pure functions of
/// `(seed, tag, attempt)` where `attempt` counts dispatches of that tag
/// seen by *this* injector, so a plan replays identically.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    seed: u64,
    machine: usize,
    crash_at_s: Option<f64>,
    meter_noise_w: f64,
    meter_spike: Option<MeterSpike>,
    job_fail_prob: f64,
    straggler_prob: f64,
    straggler_factor: f64,
    attempts: HashMap<usize, u64>,
    events: Vec<FaultEvent>,
    last_spike_k: u64,
    noise_samples: u64,
    noise_noted: bool,
}

// Domain-separation salts for the seeded decisions.
const SALT_STRAGGLE: u64 = 0x51;
const SALT_FAIL: u64 = 0xF1;
const SALT_FAIL_AT: u64 = 0xFA;
const SALT_NOISE: u64 = 0x40;

impl FaultInjector {
    /// The machine index this injector was derived for.
    pub fn machine(&self) -> usize {
        self.machine
    }

    /// Whether the planned crash time has been reached.
    pub fn crash_due(&self, now_s: f64) -> bool {
        self.crash_at_s.is_some_and(|t| now_s + 1e-12 >= t)
    }

    /// The scheduled crash time, if the plan has one that has not fired
    /// yet. The event-driven engine bounds its wake-up jumps with this
    /// so a crash lands exactly on its planned timestamp.
    pub fn next_crash_s(&self) -> Option<f64> {
        self.crash_at_s
    }

    /// Record the crash; the engine calls this exactly once before
    /// returning [`SessionState::Crashed`](crate::SessionState).
    pub fn note_crash(&mut self, now_s: f64) {
        self.crash_at_s = None;
        self.events.push(FaultEvent {
            at_s: now_s,
            tag: None,
            kind: FaultKind::MachineCrash,
        });
    }

    /// Decide this dispatch's fate. Increments the tag's attempt counter,
    /// so a retried job re-rolls rather than failing forever.
    pub fn profile(&mut self, tag: usize, now_s: f64) -> JobFaultProfile {
        let attempt = {
            let a = self.attempts.entry(tag).or_insert(0);
            *a += 1;
            *a
        };
        let mut prof = JobFaultProfile {
            slowdown: 1.0,
            fail_at_frac: None,
        };
        if self.straggler_prob > 0.0
            && unit(mix(&[self.seed, SALT_STRAGGLE, tag as u64, attempt])) < self.straggler_prob
        {
            prof.slowdown = self.straggler_factor;
            self.events.push(FaultEvent {
                at_s: now_s,
                tag: Some(tag),
                kind: FaultKind::Straggler {
                    factor: self.straggler_factor,
                },
            });
        }
        if self.job_fail_prob > 0.0
            && unit(mix(&[self.seed, SALT_FAIL, tag as u64, attempt])) < self.job_fail_prob
        {
            let frac = 0.05 + 0.9 * unit(mix(&[self.seed, SALT_FAIL_AT, tag as u64, attempt]));
            prof.fail_at_frac = Some(frac);
        }
        prof
    }

    /// Perturb one measured window-average power sample: additive uniform
    /// noise plus periodic spikes. The clean value keeps feeding the
    /// engine's internal accounting; only the *observed* sample changes.
    pub fn perturb_sample(&mut self, now_s: f64, avg_w: f64) -> f64 {
        let mut w = avg_w;
        if self.meter_noise_w > 0.0 {
            if !self.noise_noted {
                self.noise_noted = true;
                self.events.push(FaultEvent {
                    at_s: now_s,
                    tag: None,
                    kind: FaultKind::MeterNoise {
                        amplitude_w: self.meter_noise_w,
                    },
                });
            }
            let h = mix(&[
                self.seed,
                SALT_NOISE,
                self.machine as u64,
                self.noise_samples,
            ]);
            self.noise_samples += 1;
            w += self.meter_noise_w * (2.0 * unit(h) - 1.0);
        }
        if let Some(sp) = self.meter_spike {
            let k = (now_s / sp.period_s).floor() as u64;
            if k > self.last_spike_k {
                self.last_spike_k = k;
                w += sp.magnitude_w;
                self.events.push(FaultEvent {
                    at_s: now_s,
                    tag: None,
                    kind: FaultKind::MeterSpike {
                        magnitude_w: sp.magnitude_w,
                    },
                });
            }
        }
        w.max(0.0)
    }

    /// Fault events recorded so far.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Take and clear the recorded fault events (for incremental
    /// harvesting by a service loop).
    pub fn drain_events(&mut self) -> Vec<FaultEvent> {
        std::mem::take(&mut self.events)
    }
}

/// Combine components into one well-mixed 64-bit value.
fn mix(parts: &[u64]) -> u64 {
    parts
        .iter()
        .fold(0x243F_6A88_85A3_08D3, |acc, &p| splitmix64(acc ^ p))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_full_grammar() {
        let plan = FaultPlan::parse(
            "# a spec with a chaos section\n\
             lud x0.5 *2\n\
             @chaos seed=42 crash=0:25,1:60\n\
             @chaos meter-noise=0.8 meter-spike=10:5 # inline comment\n\
             @chaos job-fail=0.2 straggle=0.15:3\n",
        )
        .unwrap();
        assert_eq!(plan.seed, 42);
        assert_eq!(plan.crashes.len(), 2);
        assert_eq!(plan.crashes[1].machine, 1);
        assert_eq!(plan.meter_noise_w, 0.8);
        assert_eq!(
            plan.meter_spike,
            Some(MeterSpike {
                period_s: 10.0,
                magnitude_w: 5.0
            })
        );
        assert_eq!(plan.job_fail_prob, 0.2);
        assert_eq!(plan.straggler_prob, 0.15);
        assert_eq!(plan.straggler_factor, 3.0);
        assert!(!plan.is_noop());
        assert!(plan.perturbs_meter());
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(FaultPlan::parse("lud x0.5\n").is_err()); // no @chaos line
        for bad in [
            "@chaos nonsense",
            "@chaos crash=0",
            "@chaos crash=a:5",
            "@chaos crash=0:-1",
            "@chaos job-fail=1.5",
            "@chaos straggle=0.5:0.5",
            "@chaos meter-spike=5",
            "@chaos what=ever",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "should reject `{bad}`");
        }
    }

    #[test]
    fn default_plan_is_noop() {
        let plan = FaultPlan::default();
        assert!(plan.is_noop());
        assert!(!plan.perturbs_meter());
        let mut inj = plan.injector(0);
        assert!(!inj.crash_due(1e9));
        let p = inj.profile(7, 0.0);
        assert_eq!(p.slowdown, 1.0);
        assert_eq!(p.fail_at_frac, None);
        assert_eq!(inj.perturb_sample(1.0, 12.5), 12.5);
        assert!(inj.events().is_empty());
    }

    #[test]
    fn decisions_are_deterministic_per_seed() {
        let mut plan = FaultPlan::default();
        plan.apply_directive("seed=7 job-fail=0.5 straggle=0.5:2")
            .unwrap();
        let mut a = plan.injector(0);
        let mut b = plan.injector(0);
        for tag in 0..32 {
            assert_eq!(a.profile(tag, 0.0), b.profile(tag, 0.0));
        }
        // A different seed flips at least one decision across 32 tags.
        plan.seed = 8;
        let mut c = plan.injector(0);
        let differs = (0..32).any(|tag| {
            let mut a2 = plan.clone();
            a2.seed = 7;
            a2.injector(0).profile(tag, 0.0) != c.profile(tag, 0.0)
        });
        assert!(differs);
    }

    #[test]
    fn retries_reroll_decisions() {
        let mut plan = FaultPlan::default();
        plan.apply_directive("seed=3 job-fail=0.5").unwrap();
        let mut inj = plan.injector(0);
        // Across many attempts of one tag, a 0.5 fail rate cannot be
        // constant — the attempt counter must enter the roll.
        let rolls: Vec<bool> = (0..64)
            .map(|_| inj.profile(5, 0.0).fail_at_frac.is_some())
            .collect();
        assert!(rolls.iter().any(|&r| r));
        assert!(rolls.iter().any(|&r| !r));
    }

    #[test]
    fn crash_targets_only_its_machine() {
        let plan = FaultPlan::parse("@chaos crash=1:30\n").unwrap();
        let inj0 = plan.injector(0);
        let mut inj1 = plan.injector(1);
        assert!(!inj0.crash_due(1e9));
        assert!(!inj1.crash_due(29.9));
        assert!(inj1.crash_due(30.0));
        inj1.note_crash(30.0);
        assert_eq!(inj1.events().len(), 1);
        assert!(matches!(inj1.events()[0].kind, FaultKind::MachineCrash));
    }

    #[test]
    fn meter_spikes_fire_once_per_period() {
        let plan = FaultPlan::parse("@chaos meter-spike=10:5\n").unwrap();
        let mut inj = plan.injector(0);
        let base = 12.0;
        let mut spiked = 0;
        for i in 1..=40 {
            let t = i as f64; // 1s samples, 40s horizon
            if inj.perturb_sample(t, base) > base + 1.0 {
                spiked += 1;
            }
        }
        assert_eq!(spiked, 4, "spikes at t=10,20,30,40");
        let spikes = inj
            .events()
            .iter()
            .filter(|e| matches!(e.kind, FaultKind::MeterSpike { .. }))
            .count();
        assert_eq!(spikes, 4);
    }

    #[test]
    fn noise_stays_within_amplitude_and_non_negative() {
        let plan = FaultPlan::parse("@chaos seed=9 meter-noise=2\n").unwrap();
        let mut inj = plan.injector(0);
        for i in 0..200 {
            let w = inj.perturb_sample(i as f64, 5.0);
            assert!((3.0 - 1e-9..=7.0 + 1e-9).contains(&w));
        }
        let w = inj.perturb_sample(201.0, 0.5);
        assert!(w >= 0.0, "perturbed power must stay physical");
        // Noise is announced exactly once.
        let notes = inj
            .events()
            .iter()
            .filter(|e| matches!(e.kind, FaultKind::MeterNoise { .. }))
            .count();
        assert_eq!(notes, 1);
    }
}
