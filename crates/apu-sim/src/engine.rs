//! The discrete-event co-execution engine.
//!
//! The simulated machine is piecewise-constant between *wake-ups*: the
//! co-run dynamics (rates, utilizations, DRAM demands) only change when a
//! phase completes, a governor sampling window closes, a dispatcher
//! wake-up or fault-plan event fires, or host setup ends. The default
//! [`EngineMode::Event`] core therefore jumps the clock straight from one
//! wake-up to the next and integrates energy, utilization, and progress
//! in closed form over the skipped interval (see `docs/SIM.md`). Each
//! wake-up it:
//!
//! 1. derives every running job's *unimpeded* instantaneous behaviour
//!    (dedicated compute time, memory time at full device bandwidth, and the
//!    resulting DRAM demand — the same "throughput setting" coordinates the
//!    paper's micro-benchmark sweeps),
//! 2. arbitrates the simultaneous demands through the shared-memory model,
//! 3. stretches each job's memory portion by its device's memory slowdown
//!    and schedules each job's next phase/failure crossing at the stretched
//!    rate,
//! 4. integrates package power, and at every sampling boundary reports the
//!    window-averaged power to the governor, which may change frequencies
//!    (this sampling delay is what produces the transient cap overshoots the
//!    paper shows in Figure 9).
//!
//! [`EngineMode::FixedStep`] keeps the original fixed-tick loop
//! (`cfg.tick_s` per step) as the equivalence reference; the property
//! tests in `tests/engine_equivalence.rs` pin the two cores to each
//! other.
//!
//! Job dispatch is pluggable: a [`Dispatcher`] is consulted whenever a
//! device has a free slot, which is how schedules, the Random/Default
//! baselines, and steady-state characterization harnesses all drive the same
//! engine.

use crate::config::MachineConfig;
use crate::device::{Device, PerDevice};
use crate::events::{EventKind, EventLog};
use crate::faults::FaultInjector;
use crate::freq::FreqSetting;
use crate::governor::Governor;
use crate::power::{DeviceActivity, PowerTrace};
use crate::work::JobSpec;
use std::sync::Arc;

/// Consecutive zero-length wake-ups the event core tolerates before
/// convicting the run as a livelock (SIM005): far above any legitimate
/// coincident-event burst, far below "hung".
const ZERO_PROGRESS_LIMIT: usize = 1024;

/// Errors the engine can produce.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// No job is running, the dispatcher is not drained, yet it returned
    /// `Idle` for every free device — the run cannot make progress.
    Stalled { at_s: f64 },
    /// The simulation exceeded its wall-clock limit.
    TimeLimit { limit_s: f64 },
    /// A dispatcher tried to run more CPU jobs than the configured slots.
    NoCapacity { device: Device },
    /// An injected fault plan crashed the machine (one-shot runs only;
    /// resumable sessions surface [`SessionState::Crashed`] instead so
    /// the caller can evict and reschedule).
    Faulted { at_s: f64 },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Stalled { at_s } => write!(f, "simulation stalled at t={at_s:.3}s"),
            SimError::TimeLimit { limit_s } => {
                write!(f, "simulation exceeded time limit of {limit_s:.1}s")
            }
            SimError::NoCapacity { device } => write!(f, "no free slot on {device}"),
            SimError::Faulted { at_s } => {
                write!(f, "machine crashed (injected fault) at t={at_s:.3}s")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// A job handed to the engine by a dispatcher.
#[derive(Debug, Clone)]
pub struct DispatchJob {
    /// The workload to run.
    pub job: Arc<JobSpec>,
    /// Caller-chosen identifier propagated into [`JobRecord`]s.
    pub tag: usize,
    /// If set, the package switches to this frequency setting at dispatch
    /// (how a schedule's planned per-segment frequencies take effect).
    pub set_freq: Option<FreqSetting>,
}

/// Dispatcher response for a free device slot.
#[derive(Debug, Clone)]
pub enum Dispatch {
    /// Start this job on the free slot.
    Run(DispatchJob),
    /// Deliberately leave the slot empty for now (allowed only while work is
    /// still running elsewhere — the engine re-polls on every completion).
    Idle,
    /// Nothing to run *yet*: re-poll at the given simulated time (used by
    /// online schedulers waiting for a job arrival). The engine idles the
    /// machine forward if nothing else is running.
    WaitUntil(f64),
    /// No jobs will ever be offered again.
    Drained,
}

/// Read-only view handed to dispatchers.
#[derive(Debug, Clone, Copy)]
pub struct DispatchCtx {
    /// Current package frequency setting.
    pub setting: FreqSetting,
    /// Number of jobs currently running per device.
    pub running: PerDevice<usize>,
}

/// Supplies jobs to free device slots.
pub trait Dispatcher {
    /// Called whenever `device` has a free slot at simulated time `now_s`.
    fn next(&mut self, device: Device, now_s: f64, ctx: &DispatchCtx) -> Dispatch;
}

/// Completion record of one job execution.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRecord {
    /// Dispatcher-chosen tag.
    pub tag: usize,
    /// Job name.
    pub name: String,
    /// Device it ran on.
    pub device: Device,
    /// Dispatch time, seconds.
    pub start_s: f64,
    /// Completion time, seconds.
    pub end_s: f64,
}

impl JobRecord {
    /// Wall-clock duration of this execution.
    pub fn duration_s(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// Result of a full engine run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Time from start until the last job completed.
    pub makespan_s: f64,
    /// Per-job completion records, in completion order.
    pub records: Vec<JobRecord>,
    /// Package power trace at the configured sampling interval.
    pub trace: PowerTrace,
    /// Frequency setting at the end of the run.
    pub final_setting: FreqSetting,
}

impl RunReport {
    /// The record for `tag`, if that job completed.
    pub fn record(&self, tag: usize) -> Option<&JobRecord> {
        self.records.iter().find(|r| r.tag == tag)
    }
}

/// Which advancement core a run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineMode {
    /// Discrete-event core (default): jump between wake-ups, integrating
    /// the skipped interval in closed form. ~10-100x cheaper per
    /// simulated second than fixed stepping on realistic workloads.
    Event,
    /// Original fixed-tick core (`cfg.tick_s` per step). Kept as the
    /// equivalence reference and for bit-exact reproduction of results
    /// produced before the event core existed.
    FixedStep,
}

/// Options of a single engine run.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Frequency setting at t=0 (dispatchers may override per dispatch).
    pub initial_setting: FreqSetting,
    /// Simultaneous CPU job slots (1 = the paper's schedulers; >1 enables
    /// the OS-style time sharing only the Default baseline exercises).
    pub cpu_slots: usize,
    /// Hard simulated-time limit.
    pub limit_s: f64,
    /// Advancement core (see [`EngineMode`]).
    pub engine: EngineMode,
}

impl RunOptions {
    /// Standard options: single job per device, given initial setting,
    /// generous limit, event-driven core.
    pub fn new(initial_setting: FreqSetting) -> Self {
        RunOptions {
            initial_setting,
            cpu_slots: 1,
            limit_s: 1.0e5,
            engine: EngineMode::Event,
        }
    }

    /// Same options on the fixed-step reference core.
    pub fn fixed_step(initial_setting: FreqSetting) -> Self {
        RunOptions {
            engine: EngineMode::FixedStep,
            ..RunOptions::new(initial_setting)
        }
    }
}

struct Running {
    job: Arc<JobSpec>,
    tag: usize,
    device: Device,
    phase: usize,
    progress: f64,
    setup_left: f64,
    start_s: f64,
    /// Straggler slowdown factor from the fault injector (1.0 = healthy).
    slowdown: f64,
    /// If set, the job dies when its overall progress fraction reaches
    /// this value (injected failure).
    fail_at: Option<f64>,
    failed: bool,
}

impl Running {
    fn new(dj: &DispatchJob, device: Device, now: f64) -> Self {
        Running {
            job: dj.job.clone(),
            tag: dj.tag,
            device,
            phase: 0,
            progress: 0.0,
            setup_left: dj.job.host_setup_s,
            start_s: now,
            slowdown: 1.0,
            fail_at: None,
            failed: false,
        }
    }

    /// Overall progress fraction across all phases, in `[0, 1]`.
    fn overall_frac(&self) -> f64 {
        let n = self.job.phases.len().max(1) as f64;
        ((self.phase as f64 + self.progress.clamp(0.0, 1.0)) / n).min(1.0)
    }

    /// Skip over zero-work phases; true if the job is finished.
    fn skip_trivial(&mut self) -> bool {
        while self.phase < self.job.phases.len() && self.job.phases[self.phase].is_trivial() {
            self.phase += 1;
            self.progress = 0.0;
        }
        self.phase >= self.job.phases.len()
    }
}

/// Per-job instantaneous dynamics computed each tick.
struct Dynamics {
    /// Progress rate in phase-fractions per second (0 while in host setup).
    rate: f64,
    /// Contribution to device compute utilization.
    util: f64,
    /// Actual DRAM consumption rate, GB/s.
    consumption: f64,
}

/// The co-execution engine over one machine configuration.
pub struct Engine<'a> {
    cfg: &'a MachineConfig,
}

impl<'a> Engine<'a> {
    /// New engine over `cfg`.
    pub fn new(cfg: &'a MachineConfig) -> Self {
        Engine { cfg }
    }

    /// The machine configuration this engine simulates.
    pub fn config(&self) -> &MachineConfig {
        self.cfg
    }

    /// Run to completion with the given dispatcher and governor.
    pub fn run(
        &self,
        dispatcher: &mut dyn Dispatcher,
        governor: &mut dyn Governor,
        opts: &RunOptions,
    ) -> Result<RunReport, SimError> {
        self.run_recorded(dispatcher, governor, opts, None)
    }

    /// Like [`Engine::run`], additionally recording structured events
    /// (dispatches, completions, frequency changes, cap overshoots) into
    /// `log`.
    pub fn run_recorded(
        &self,
        dispatcher: &mut dyn Dispatcher,
        governor: &mut dyn Governor,
        opts: &RunOptions,
        mut log: Option<&mut EventLog>,
    ) -> Result<RunReport, SimError> {
        let mut session = self.session(opts.clone());
        loop {
            match session.advance(dispatcher, governor, f64::INFINITY, log.as_deref_mut())? {
                SessionState::Finished => return Ok(session.into_report()),
                SessionState::Starved => {
                    return Err(SimError::Stalled {
                        at_s: session.now_s(),
                    })
                }
                SessionState::Crashed => {
                    return Err(SimError::Faulted {
                        at_s: session.now_s(),
                    })
                }
                // Unreachable with an infinite horizon, but harmless: keep
                // advancing.
                SessionState::Advanced => {}
            }
        }
    }

    /// Open a resumable [`Session`]: the incremental entry point behind
    /// [`Engine::run`]. A session holds all mid-run state (clock, running
    /// jobs, power windows, trace), so callers can interleave simulation
    /// with outside work — admit newly arrived jobs between
    /// [`Session::advance`] calls, read partial results, and keep going.
    /// This is what a resident scheduling service drives.
    pub fn session(&self, opts: RunOptions) -> Session<'a> {
        Session::new(self.cfg, opts)
    }
}

/// Where a [`Session`] stands after [`Session::advance`] returns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionState {
    /// The requested horizon elapsed with the run still active.
    Advanced,
    /// Nothing is running, nothing is scheduled to wake, and the
    /// dispatcher is not drained: the session cannot make progress until
    /// the dispatcher has new work. The resumable analogue of
    /// [`SimError::Stalled`] — call [`Session::advance`] again once work
    /// exists.
    Starved,
    /// The dispatcher drained and every dispatched job completed. Harvest
    /// with [`Session::into_report`].
    Finished,
    /// An injected fault plan crashed the machine: the session is dead,
    /// in-flight jobs (see [`Session::running_tags`]) are lost and must
    /// be rescheduled elsewhere. Terminal — further `advance` calls
    /// return `Crashed` again without simulating.
    Crashed,
}

/// A job that died mid-run from an injected fault (no [`JobRecord`] is
/// produced for it). Collected by [`Session::take_failures`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobFailure {
    /// Dispatcher-chosen tag of the failed job.
    pub tag: usize,
    /// Device it was running on.
    pub device: Device,
    /// Dispatch time, seconds.
    pub start_s: f64,
    /// Failure time, seconds.
    pub at_s: f64,
}

/// A resumable engine run (see [`Engine::session`]).
///
/// All state of [`Engine::run`]'s loop lives here, so the simulation can
/// be advanced in bounded slices of simulated time. Between slices the
/// caller may inspect [`records`](Session::records) and
/// [`trace`](Session::trace) and feed its dispatcher more jobs; a
/// [`SessionState::Starved`] session resumes cleanly once the dispatcher
/// has work again (unlike a one-shot run, which fails with
/// [`SimError::Stalled`]).
pub struct Session<'a> {
    cfg: &'a MachineConfig,
    opts: RunOptions,
    now: f64,
    setting: FreqSetting,
    jobs: Vec<Running>,
    records: Vec<JobRecord>,
    trace: PowerTrace,
    drained: bool,
    wake_at: Option<f64>,
    window_energy: f64,
    window_t: f64,
    window_util: PerDevice<f64>,
    started: bool,
    finished: bool,
    faults: Option<FaultInjector>,
    crashed: bool,
    failures: Vec<JobFailure>,
    #[cfg(feature = "sanitize")]
    san: Option<crate::sanitize::RunSanitizer>,
}

impl<'a> Session<'a> {
    /// New session over `cfg` at t=0 with nothing dispatched yet.
    pub fn new(cfg: &'a MachineConfig, opts: RunOptions) -> Self {
        Session {
            cfg,
            setting: opts.initial_setting,
            opts,
            now: 0.0,
            jobs: Vec::new(),
            records: Vec::new(),
            trace: PowerTrace::new(cfg.power_sample_s),
            drained: false,
            wake_at: None,
            window_energy: 0.0,
            window_t: 0.0,
            window_util: PerDevice::new(0.0, 0.0),
            started: false,
            finished: false,
            faults: None,
            crashed: false,
            failures: Vec::new(),
            #[cfg(feature = "sanitize")]
            san: None,
        }
    }

    /// Attach a fault injector (from
    /// [`FaultPlan::injector`](crate::FaultPlan::injector)); subsequent
    /// [`Session::advance`] calls inject its crashes, job faults, and
    /// meter disturbances.
    pub fn set_faults(&mut self, injector: FaultInjector) {
        self.faults = Some(injector);
    }

    /// The attached fault injector, if any — e.g. to drain its recorded
    /// [`FaultEvent`](crate::FaultEvent)s between advances.
    pub fn faults_mut(&mut self) -> Option<&mut FaultInjector> {
        self.faults.as_mut()
    }

    /// Take the injected job failures observed so far (each failed job
    /// produced no [`JobRecord`]; the caller decides whether to retry).
    pub fn take_failures(&mut self) -> Vec<JobFailure> {
        std::mem::take(&mut self.failures)
    }

    /// Tags of all currently running jobs (the in-flight set lost when
    /// the session reports [`SessionState::Crashed`]).
    pub fn running_tags(&self) -> Vec<usize> {
        self.jobs.iter().map(|r| r.tag).collect()
    }

    /// Current simulated time, seconds.
    pub fn now_s(&self) -> f64 {
        self.now
    }

    /// Completion records so far, in completion order.
    pub fn records(&self) -> &[JobRecord] {
        &self.records
    }

    /// Power trace so far (full windows only; a final partial window is
    /// flushed by [`Session::into_report`]).
    pub fn trace(&self) -> &PowerTrace {
        &self.trace
    }

    /// Current package frequency setting.
    pub fn setting(&self) -> FreqSetting {
        self.setting
    }

    /// Jobs currently running per device.
    pub fn running(&self) -> PerDevice<usize> {
        PerDevice::from_fn(|d| self.jobs.iter().filter(|r| r.device == d).count())
    }

    /// Whether the session reached [`SessionState::Finished`].
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// Advance the simulation by up to `horizon_s` simulated seconds (pass
    /// `f64::INFINITY` to run until finished or starved). Returns the
    /// state the session stopped in; errors are terminal.
    pub fn advance(
        &mut self,
        dispatcher: &mut dyn Dispatcher,
        governor: &mut dyn Governor,
        horizon_s: f64,
        mut log: Option<&mut EventLog>,
    ) -> Result<SessionState, SimError> {
        if self.finished {
            return Ok(SessionState::Finished);
        }
        if self.crashed {
            return Ok(SessionState::Crashed);
        }
        if let Some(f) = self.faults.as_mut() {
            if f.crash_due(self.now) {
                f.note_crash(self.now);
                self.crashed = true;
                return Ok(SessionState::Crashed);
            }
        }
        #[cfg(feature = "sanitize")]
        if self.san.is_none() {
            self.san = Some(crate::sanitize::RunSanitizer::new(
                log.as_ref().and_then(|l| l.cap_of_interest_w),
                self.cfg.power_sample_s,
            ));
        }

        // First call, or resuming after Starved: poll the dispatcher
        // before advancing so an empty session never burns simulated time.
        if !self.started || self.jobs.is_empty() {
            self.started = true;
            self.refill(dispatcher, &mut log)?;
            if self.jobs.is_empty() && self.wake_at.is_none() {
                if self.drained {
                    self.finished = true;
                    return Ok(SessionState::Finished);
                }
                return Ok(SessionState::Starved);
            }
        }

        match self.opts.engine {
            EngineMode::Event => self.advance_event(dispatcher, governor, horizon_s, log),
            EngineMode::FixedStep => self.advance_fixed(dispatcher, governor, horizon_s, log),
        }
    }

    /// The original fixed-tick core: one `cfg.tick_s` step per loop
    /// iteration. Kept verbatim as the equivalence reference for the
    /// event core.
    fn advance_fixed(
        &mut self,
        dispatcher: &mut dyn Dispatcher,
        governor: &mut dyn Governor,
        horizon_s: f64,
        mut log: Option<&mut EventLog>,
    ) -> Result<SessionState, SimError> {
        let cfg = self.cfg;
        let dt = cfg.tick_s;
        let end = self.now + horizon_s;
        loop {
            // --- injected machine crash --------------------------------
            if let Some(f) = self.faults.as_mut() {
                if f.crash_due(self.now) {
                    f.note_crash(self.now);
                    self.crashed = true;
                    return Ok(SessionState::Crashed);
                }
            }

            // --- dynamics for this tick --------------------------------
            let dyns = self.tick_dynamics(&self.jobs, self.setting, self.now);

            // --- power integration -------------------------------------
            let power = self.instant_power(&self.jobs, &dyns, self.setting);
            self.window_energy += power * dt;
            self.window_t += dt;
            for d in Device::ALL {
                let u: f64 = self
                    .jobs
                    .iter()
                    .zip(dyns.iter())
                    .filter(|(r, _)| r.device == d)
                    .map(|(_, dy)| dy.util)
                    .sum();
                *self.window_util.get_mut(d) += u.min(1.0) * dt;
            }

            // --- advance jobs -------------------------------------------
            let mut completed_any = false;
            for (r, d) in self.jobs.iter_mut().zip(dyns.iter()) {
                if r.setup_left > 0.0 {
                    r.setup_left -= dt;
                    continue;
                }
                r.progress += d.rate * dt / r.slowdown;
                if let Some(fail_at) = r.fail_at {
                    if r.overall_frac() >= fail_at {
                        r.failed = true;
                        completed_any = true;
                        continue;
                    }
                }
                while r.progress >= 1.0 && r.phase < r.job.phases.len() {
                    r.progress -= 1.0;
                    r.phase += 1;
                    if r.skip_trivial() {
                        break;
                    }
                }
                if r.phase >= r.job.phases.len() {
                    completed_any = true;
                }
            }
            self.now += dt;
            #[cfg(feature = "sanitize")]
            if let Some(san) = self.san.as_mut() {
                san.on_tick(self.now, power);
            }

            // --- power sample + governor --------------------------------
            if self.window_t + 1e-12 >= cfg.power_sample_s {
                let avg = self.window_energy / self.window_t;
                // Meter faults perturb the *measured* sample — what the
                // trace, governor, and cap accounting observe. The
                // sanitizer watches the clean value: its envelope checks
                // guard engine invariants, not the sensor.
                let measured = match self.faults.as_mut() {
                    Some(f) => f.perturb_sample(self.now, avg),
                    None => avg,
                };
                self.trace.push(measured);
                #[cfg(feature = "sanitize")]
                if let Some(san) = self.san.as_mut() {
                    san.on_window(self.now, avg);
                }
                let avg_util = self.window_util.map(|u| u / self.window_t);
                self.window_util = PerDevice::new(0.0, 0.0);
                let new_setting =
                    governor.on_sample_util(self.now, measured, avg_util, self.setting, &cfg.freqs);
                if let Some(l) = log.as_deref_mut() {
                    if let Some(cap) = l.cap_of_interest_w {
                        if measured > cap {
                            l.push(self.now, EventKind::CapOvershoot { power_w: measured });
                        }
                    }
                    if new_setting != self.setting {
                        l.push(
                            self.now,
                            EventKind::FreqChange {
                                from: self.setting,
                                to: new_setting,
                            },
                        );
                    }
                }
                self.setting = new_setting;
                self.window_energy = 0.0;
                self.window_t = 0.0;
            }

            // --- completions + refill ------------------------------------
            if completed_any {
                let mut i = 0;
                while i < self.jobs.len() {
                    if self.jobs[i].failed {
                        // Injected failure: the job dies without a
                        // completion record; the caller sees it through
                        // take_failures() and decides whether to retry.
                        let r = self.jobs.remove(i);
                        self.failures.push(JobFailure {
                            tag: r.tag,
                            device: r.device,
                            start_s: r.start_s,
                            at_s: self.now,
                        });
                        continue;
                    }
                    if self.jobs[i].phase >= self.jobs[i].job.phases.len() {
                        let r = self.jobs.remove(i);
                        if let Some(l) = log.as_deref_mut() {
                            l.push(
                                self.now,
                                EventKind::Complete {
                                    tag: r.tag,
                                    device: r.device,
                                },
                            );
                        }
                        self.records.push(JobRecord {
                            tag: r.tag,
                            name: r.job.name.clone(),
                            device: r.device,
                            start_s: r.start_s,
                            end_s: self.now,
                        });
                    } else {
                        i += 1;
                    }
                }
                self.refill(dispatcher, &mut log)?;
            } else if self.wake_at.is_some_and(|w| self.now + 1e-9 >= w) {
                // A scheduled wakeup came due while jobs were running.
                self.refill(dispatcher, &mut log)?;
            }

            if self.jobs.is_empty() {
                if self.drained {
                    break;
                }
                // Nothing running: re-poll, then honour any wakeup by
                // idling the machine forward to it.
                self.refill(dispatcher, &mut log)?;
                if self.jobs.is_empty() {
                    if self.drained {
                        break;
                    }
                    let Some(w) = self.wake_at else {
                        return Ok(SessionState::Starved);
                    };
                    if w <= self.now + 1e-12 {
                        return Ok(SessionState::Starved);
                    }
                    // Idle-advance: integrate idle power until the wakeup.
                    let idle_p = cfg.power_model().package_power(
                        self.setting,
                        PerDevice::new(DeviceActivity::IDLE, DeviceActivity::IDLE),
                    );
                    while self.now + 1e-12 < w {
                        if let Some(f) = self.faults.as_mut() {
                            if f.crash_due(self.now) {
                                f.note_crash(self.now);
                                self.crashed = true;
                                return Ok(SessionState::Crashed);
                            }
                        }
                        let step = dt.min(w - self.now);
                        self.window_energy += idle_p * step;
                        self.window_t += step;
                        self.now += step;
                        #[cfg(feature = "sanitize")]
                        if let Some(san) = self.san.as_mut() {
                            san.on_tick(self.now, idle_p);
                        }
                        if self.window_t + 1e-12 >= cfg.power_sample_s {
                            let avg = self.window_energy / self.window_t;
                            let measured = match self.faults.as_mut() {
                                Some(f) => f.perturb_sample(self.now, avg),
                                None => avg,
                            };
                            self.trace.push(measured);
                            #[cfg(feature = "sanitize")]
                            if let Some(san) = self.san.as_mut() {
                                san.on_window(self.now, avg);
                            }
                            self.setting =
                                governor.on_sample(self.now, measured, self.setting, &cfg.freqs);
                            self.window_energy = 0.0;
                            self.window_t = 0.0;
                        }
                    }
                    self.refill(dispatcher, &mut log)?;
                    if self.jobs.is_empty() && !self.drained && self.wake_at.is_none() {
                        return Ok(SessionState::Starved);
                    }
                    if self.jobs.is_empty() && self.drained {
                        break;
                    }
                }
            }

            if self.now > self.opts.limit_s {
                return Err(SimError::TimeLimit {
                    limit_s: self.opts.limit_s,
                });
            }
            if self.now >= end {
                return Ok(SessionState::Advanced);
            }
        }

        self.finished = true;
        Ok(SessionState::Finished)
    }

    /// The discrete-event core: each loop iteration jumps the clock to
    /// the earliest pending wake-up and integrates the skipped interval
    /// in closed form. The wake-up sources are
    ///
    /// * the governor/meter window boundary (cadence on *accumulated*
    ///   window time, matching the fixed-step engine),
    /// * each running job's host-setup end, phase-completion crossing,
    ///   and injected-failure crossing at the current stretched rate,
    /// * the dispatcher's `WaitUntil` wake-up, and
    /// * the fault plan's scheduled machine crash.
    ///
    /// Dynamics are piecewise-constant between wake-ups (jitter is
    /// evaluated at segment start; window boundaries bound every segment
    /// to at most one sampling interval), so the integration is exact up
    /// to that quantization. Coincident events fire in the fixed-step
    /// engine's order: crash, then window flush, then completions and
    /// refill.
    fn advance_event(
        &mut self,
        dispatcher: &mut dyn Dispatcher,
        governor: &mut dyn Governor,
        horizon_s: f64,
        mut log: Option<&mut EventLog>,
    ) -> Result<SessionState, SimError> {
        let cfg = self.cfg;
        let end = self.now + horizon_s;
        // Livelock conviction (SIM005): a component that keeps
        // rescheduling itself at the same timestamp makes no progress;
        // a bounded run of zero-length wake-ups is a stall, not a
        // schedule.
        let mut zero_dt = 0usize;
        loop {
            // --- injected machine crash --------------------------------
            if let Some(f) = self.faults.as_mut() {
                if f.crash_due(self.now) {
                    f.note_crash(self.now);
                    self.crashed = true;
                    return Ok(SessionState::Crashed);
                }
            }

            if !self.jobs.is_empty() {
                // --- dynamics for this segment -------------------------
                let dyns = self.tick_dynamics(&self.jobs, self.setting, self.now);

                // --- earliest wake-up ----------------------------------
                let mut t_next = self.now + (cfg.power_sample_s - self.window_t).max(0.0);
                for (r, dy) in self.jobs.iter().zip(dyns.iter()) {
                    if r.setup_left > 0.0 {
                        t_next = t_next.min(self.now + r.setup_left);
                    } else if dy.rate > 0.0 {
                        let eff = dy.rate / r.slowdown;
                        let mut frac = (1.0 - r.progress).max(0.0);
                        if let Some(fail_at) = r.fail_at {
                            let n = r.job.phases.len().max(1) as f64;
                            let to_fail = fail_at * n - r.phase as f64 - r.progress;
                            frac = frac.min(to_fail.max(0.0));
                        }
                        t_next = t_next.min(self.now + frac / eff);
                    }
                }
                if let Some(w) = self.wake_at {
                    if w > self.now {
                        t_next = t_next.min(w);
                    }
                }
                if let Some(c) = self.faults.as_ref().and_then(FaultInjector::next_crash_s) {
                    if c > self.now {
                        t_next = t_next.min(c);
                    }
                }
                let dt = (t_next - self.now).max(0.0);
                self.check_progress(dt, &mut zero_dt)?;

                // --- closed-form integration over [now, t_next) --------
                let power = self.instant_power(&self.jobs, &dyns, self.setting);
                self.window_energy += power * dt;
                self.window_t += dt;
                for d in Device::ALL {
                    let u: f64 = self
                        .jobs
                        .iter()
                        .zip(dyns.iter())
                        .filter(|(r, _)| r.device == d)
                        .map(|(_, dy)| dy.util)
                        .sum();
                    *self.window_util.get_mut(d) += u.min(1.0) * dt;
                }

                // --- advance jobs to the wake-up -----------------------
                let mut completed_any = false;
                for (r, dy) in self.jobs.iter_mut().zip(dyns.iter()) {
                    if r.setup_left > 0.0 {
                        r.setup_left -= dt;
                        if r.setup_left < 1e-9 {
                            // The segment was scheduled to end exactly at
                            // setup end: snap the FP residue.
                            r.setup_left = 0.0;
                        }
                        continue;
                    }
                    r.progress += dy.rate * dt / r.slowdown;
                    if let Some(fail_at) = r.fail_at {
                        if r.overall_frac() + 1e-9 >= fail_at {
                            r.failed = true;
                            completed_any = true;
                            continue;
                        }
                    }
                    while r.progress + 1e-9 >= 1.0 && r.phase < r.job.phases.len() {
                        r.progress = (r.progress - 1.0).max(0.0);
                        r.phase += 1;
                        if r.skip_trivial() {
                            break;
                        }
                    }
                    if r.phase >= r.job.phases.len() {
                        completed_any = true;
                    }
                }
                self.now = t_next;
                #[cfg(feature = "sanitize")]
                if let Some(san) = self.san.as_mut() {
                    san.on_tick(self.now, power);
                }

                // --- power sample + governor ---------------------------
                if self.window_t + 1e-12 >= cfg.power_sample_s {
                    let avg = self.window_energy / self.window_t;
                    let measured = match self.faults.as_mut() {
                        Some(f) => f.perturb_sample(self.now, avg),
                        None => avg,
                    };
                    self.trace.push(measured);
                    #[cfg(feature = "sanitize")]
                    if let Some(san) = self.san.as_mut() {
                        san.on_window(self.now, avg);
                    }
                    let avg_util = self.window_util.map(|u| u / self.window_t);
                    self.window_util = PerDevice::new(0.0, 0.0);
                    let new_setting = governor.on_sample_util(
                        self.now,
                        measured,
                        avg_util,
                        self.setting,
                        &cfg.freqs,
                    );
                    if let Some(l) = log.as_deref_mut() {
                        if let Some(cap) = l.cap_of_interest_w {
                            if measured > cap {
                                l.push(self.now, EventKind::CapOvershoot { power_w: measured });
                            }
                        }
                        if new_setting != self.setting {
                            l.push(
                                self.now,
                                EventKind::FreqChange {
                                    from: self.setting,
                                    to: new_setting,
                                },
                            );
                        }
                    }
                    self.setting = new_setting;
                    self.window_energy = 0.0;
                    self.window_t = 0.0;
                }

                // --- completions + refill ------------------------------
                if completed_any {
                    let mut i = 0;
                    while i < self.jobs.len() {
                        if self.jobs[i].failed {
                            let r = self.jobs.remove(i);
                            self.failures.push(JobFailure {
                                tag: r.tag,
                                device: r.device,
                                start_s: r.start_s,
                                at_s: self.now,
                            });
                            continue;
                        }
                        if self.jobs[i].phase >= self.jobs[i].job.phases.len() {
                            let r = self.jobs.remove(i);
                            if let Some(l) = log.as_deref_mut() {
                                l.push(
                                    self.now,
                                    EventKind::Complete {
                                        tag: r.tag,
                                        device: r.device,
                                    },
                                );
                            }
                            self.records.push(JobRecord {
                                tag: r.tag,
                                name: r.job.name.clone(),
                                device: r.device,
                                start_s: r.start_s,
                                end_s: self.now,
                            });
                        } else {
                            i += 1;
                        }
                    }
                    self.refill(dispatcher, &mut log)?;
                } else if self.wake_at.is_some_and(|w| self.now + 1e-9 >= w) {
                    // The dispatcher's scheduled wake-up is itself an
                    // event, so it fires exactly on time.
                    self.refill(dispatcher, &mut log)?;
                }
            }

            if self.jobs.is_empty() {
                if self.drained {
                    break;
                }
                // Nothing running: re-poll, then honour any wake-up by
                // idling the machine forward to it.
                self.refill(dispatcher, &mut log)?;
                if self.jobs.is_empty() {
                    if self.drained {
                        break;
                    }
                    let Some(w) = self.wake_at else {
                        return Ok(SessionState::Starved);
                    };
                    if w <= self.now + 1e-12 {
                        return Ok(SessionState::Starved);
                    }
                    // Idle-advance as events: the only wake-ups are the
                    // window boundary, the dispatcher wake-up itself, and
                    // a pending crash; idle power is constant between
                    // them, so an idle session costs O(windows), not
                    // O(ticks).
                    let idle_p = cfg.power_model().package_power(
                        self.setting,
                        PerDevice::new(DeviceActivity::IDLE, DeviceActivity::IDLE),
                    );
                    while self.now + 1e-12 < w {
                        if let Some(f) = self.faults.as_mut() {
                            if f.crash_due(self.now) {
                                f.note_crash(self.now);
                                self.crashed = true;
                                return Ok(SessionState::Crashed);
                            }
                        }
                        let mut t_next =
                            w.min(self.now + (cfg.power_sample_s - self.window_t).max(0.0));
                        if let Some(c) = self.faults.as_ref().and_then(FaultInjector::next_crash_s)
                        {
                            if c > self.now {
                                t_next = t_next.min(c);
                            }
                        }
                        let step = (t_next - self.now).max(0.0);
                        self.check_progress(step, &mut zero_dt)?;
                        self.window_energy += idle_p * step;
                        self.window_t += step;
                        self.now = t_next;
                        #[cfg(feature = "sanitize")]
                        if let Some(san) = self.san.as_mut() {
                            san.on_tick(self.now, idle_p);
                        }
                        if self.window_t + 1e-12 >= cfg.power_sample_s {
                            let avg = self.window_energy / self.window_t;
                            let measured = match self.faults.as_mut() {
                                Some(f) => f.perturb_sample(self.now, avg),
                                None => avg,
                            };
                            self.trace.push(measured);
                            #[cfg(feature = "sanitize")]
                            if let Some(san) = self.san.as_mut() {
                                san.on_window(self.now, avg);
                            }
                            self.setting =
                                governor.on_sample(self.now, measured, self.setting, &cfg.freqs);
                            self.window_energy = 0.0;
                            self.window_t = 0.0;
                        }
                    }
                    self.refill(dispatcher, &mut log)?;
                    if self.jobs.is_empty() && !self.drained && self.wake_at.is_none() {
                        return Ok(SessionState::Starved);
                    }
                    if self.jobs.is_empty() && self.drained {
                        break;
                    }
                }
            }

            if self.now > self.opts.limit_s {
                return Err(SimError::TimeLimit {
                    limit_s: self.opts.limit_s,
                });
            }
            if self.now >= end {
                return Ok(SessionState::Advanced);
            }
        }

        self.finished = true;
        Ok(SessionState::Finished)
    }

    /// SIM005 guard: convict a run of consecutive zero-length wake-ups
    /// as a livelock instead of hanging (see [`EngineMode::Event`]).
    fn check_progress(&mut self, dt: f64, zero_dt: &mut usize) -> Result<(), SimError> {
        if dt > 1e-12 {
            *zero_dt = 0;
            return Ok(());
        }
        *zero_dt += 1;
        if *zero_dt < ZERO_PROGRESS_LIMIT {
            return Ok(());
        }
        #[cfg(feature = "sanitize")]
        if self.san.is_some() {
            crate::sanitize::record(crate::sanitize::Violation::ZeroProgressWakeup {
                at_s: self.now,
            });
        }
        Err(SimError::Stalled { at_s: self.now })
    }

    /// Close the session: flush the final partial power window and return
    /// the run report for everything simulated so far.
    pub fn into_report(mut self) -> RunReport {
        // Flush a final partial power window so short runs still trace.
        if self.window_t > 0.0 {
            let avg = self.window_energy / self.window_t;
            self.trace.push(avg);
            #[cfg(feature = "sanitize")]
            if let Some(san) = self.san.as_mut() {
                san.on_window(self.now, avg);
            }
        }
        #[cfg(feature = "sanitize")]
        if let Some(san) = self.san.as_mut() {
            san.finish(self.now);
        }

        let makespan = self.records.iter().map(|r| r.end_s).fold(0.0, f64::max);
        RunReport {
            makespan_s: makespan,
            records: self.records,
            trace: self.trace,
            final_setting: self.setting,
        }
    }

    fn slots(&self, device: Device) -> usize {
        match device {
            Device::Cpu => self.opts.cpu_slots.min(self.cfg.multiprog.max_cpu_slots),
            Device::Gpu => 1,
        }
    }

    fn refill(
        &mut self,
        dispatcher: &mut dyn Dispatcher,
        log: &mut Option<&mut EventLog>,
    ) -> Result<(), SimError> {
        if self.drained {
            return Ok(());
        }
        self.wake_at = None;
        for device in Device::ALL {
            loop {
                let used = self.jobs.iter().filter(|r| r.device == device).count();
                if used >= self.slots(device) {
                    break;
                }
                let ctx = DispatchCtx {
                    setting: self.setting,
                    running: PerDevice::from_fn(|d| {
                        self.jobs.iter().filter(|r| r.device == d).count()
                    }),
                };
                match dispatcher.next(device, self.now, &ctx) {
                    Dispatch::Run(dj) => {
                        if let Some(fs) = dj.set_freq {
                            if fs != self.setting {
                                if let Some(l) = log.as_deref_mut() {
                                    l.push(
                                        self.now,
                                        EventKind::FreqChange {
                                            from: self.setting,
                                            to: fs,
                                        },
                                    );
                                }
                            }
                            self.setting = fs;
                        }
                        if let Some(l) = log.as_deref_mut() {
                            l.push(
                                self.now,
                                EventKind::Dispatch {
                                    tag: dj.tag,
                                    name: dj.job.name.clone(),
                                    device,
                                },
                            );
                        }
                        let mut r = Running::new(&dj, device, self.now);
                        if let Some(f) = self.faults.as_mut() {
                            let prof = f.profile(dj.tag, self.now);
                            r.slowdown = prof.slowdown.max(1.0);
                            r.fail_at = prof.fail_at_frac;
                        }
                        if r.skip_trivial() && r.setup_left <= 0.0 {
                            // Degenerate empty job: completes instantly.
                            continue;
                        }
                        self.jobs.push(r);
                    }
                    Dispatch::Idle => break,
                    Dispatch::WaitUntil(t) => {
                        if t > self.now {
                            self.wake_at = Some(self.wake_at.map_or(t, |w: f64| w.min(t)));
                        }
                        break;
                    }
                    Dispatch::Drained => {
                        self.drained = true;
                        return Ok(());
                    }
                }
            }
        }
        Ok(())
    }

    /// Compute per-job dynamics for one tick.
    fn tick_dynamics(&self, jobs: &[Running], setting: FreqSetting, now: f64) -> Vec<Dynamics> {
        let cfg = self.cfg;

        // Cross-device LLC pressure: the max pressure any active phase on the
        // other device exerts.
        let pressure = PerDevice::from_fn(|d| {
            jobs.iter()
                .filter(|r| r.device == d && r.setup_left <= 0.0)
                .filter_map(|r| r.job.phases.get(r.phase))
                .map(|p| p.llc_pressure)
                .fold(0.0, f64::max)
        });

        let count = PerDevice::from_fn(|d| jobs.iter().filter(|r| r.device == d).count());
        let rate_factor = PerDevice::from_fn(|d| match d {
            Device::Cpu => cfg.multiprog_rate(count.cpu),
            Device::Gpu => 1.0,
        });
        let traffic_mult = PerDevice::from_fn(|d| match d {
            Device::Cpu => cfg.multiprog_traffic(count.cpu),
            Device::Gpu => 1.0,
        });

        // Pass 1: unimpeded per-job times and demands.
        struct Pre {
            tc: f64,
            tm0: f64,
            demand0: f64,
        }
        let pre: Vec<Option<Pre>> = jobs
            .iter()
            .map(|r| {
                if r.setup_left > 0.0 {
                    return None;
                }
                let phase = r.job.phases.get(r.phase)?;
                let d = r.device;
                let dev = cfg.device(d);
                let f = cfg.freqs.ghz(d, setting);
                let f_max = cfg.f_max(d);
                let llc_mult = cfg.memory.llc_traffic_multiplier(
                    phase.llc_footprint_mib,
                    phase.llc_sensitivity,
                    *pressure.get(d.other()),
                );
                let scale = r.job.jitter(now - r.start_s) * traffic_mult.get(d);
                let base_bytes = phase.bytes * scale;
                let extra_bytes = phase.bytes * (llc_mult - 1.0) * scale;
                let bytes_eff = base_bytes + extra_bytes;
                let tc = phase.compute_time(dev, d, f);
                let bw = dev.solo_bandwidth(f, f_max);
                // Thrash-induced misses are latency-bound: they stream at
                // the phase's miss bandwidth, not the device's peak.
                let miss_bw = if phase.llc_miss_bw_gbps > 0.0 {
                    phase.llc_miss_bw_gbps.min(bw)
                } else {
                    bw
                };
                let tm0 = if bytes_eff <= 0.0 {
                    0.0
                } else {
                    base_bytes / bw + extra_bytes / miss_bw
                };
                let t0 = phase.combine(tc, tm0);
                let demand0 = if t0 > 0.0 {
                    (bytes_eff / t0.max(1e-12)) * rate_factor.get(d)
                } else {
                    0.0
                };
                Some(Pre { tc, tm0, demand0 })
            })
            .collect();

        // Pass 2: arbitrate combined demands.
        let demand = PerDevice::from_fn(|d| {
            jobs.iter()
                .zip(pre.iter())
                .filter(|(r, _)| r.device == d)
                .filter_map(|(_, p)| p.as_ref())
                .map(|p| p.demand0)
                .sum::<f64>()
        });
        let arb = cfg.memory.arbitrate(demand);

        // Pass 3: stretched per-job times and rates.
        jobs.iter()
            .zip(pre.iter())
            .map(|(r, p)| {
                let Some(p) = p else {
                    // Host setup: negligible device activity.
                    return Dynamics {
                        rate: 0.0,
                        util: 0.05,
                        consumption: 0.0,
                    };
                };
                let d = r.device;
                let phase = &r.job.phases[r.phase];
                let slow = *arb.mem_slowdown.get(d);
                let tm = p.tm0 * slow;
                let t_inst = phase.combine(p.tc, tm).max(1e-12);
                let share = *rate_factor.get(d);
                let rate = share / t_inst;
                // Power-wise the job occupies its full time slice (1/k of
                // the device); context-switch overhead burns energy without
                // making progress, so utilization uses the raw slice, not
                // the progress-effective `rate_factor`.
                let slice = 1.0 / (*count.get(d)).max(1) as f64;
                let busy_frac = (p.tc / t_inst).min(1.0);
                let stall = cfg.device(d).stall_power_frac;
                let util = slice * (busy_frac + stall * (1.0 - busy_frac));
                let consumption = p.demand0 / share.max(1e-12) * share / slow.max(1.0);
                Dynamics {
                    rate,
                    util,
                    consumption,
                }
            })
            .collect()
    }

    fn instant_power(&self, jobs: &[Running], dyns: &[Dynamics], setting: FreqSetting) -> f64 {
        let act = PerDevice::from_fn(|d| {
            let mut util = 0.0;
            let mut bw = 0.0;
            for (r, dy) in jobs.iter().zip(dyns.iter()) {
                if r.device == d {
                    util += dy.util;
                    bw += dy.consumption;
                }
            }
            DeviceActivity {
                compute_util: util.min(1.0),
                mem_bw_gbps: bw,
            }
        });
        self.cfg.power_model().package_power(setting, act)
    }
}

// ---------------------------------------------------------------------------
// Convenience harnesses built on the engine
// ---------------------------------------------------------------------------

/// Dispatcher that runs a fixed list of jobs on one device, in order, with
/// nothing on the other device.
struct SoloDispatcher {
    device: Device,
    queue: std::collections::VecDeque<Arc<JobSpec>>,
    next_tag: usize,
}

impl Dispatcher for SoloDispatcher {
    fn next(&mut self, device: Device, _now: f64, _ctx: &DispatchCtx) -> Dispatch {
        if device != self.device {
            return Dispatch::Idle;
        }
        match self.queue.pop_front() {
            Some(job) => {
                let tag = self.next_tag;
                self.next_tag += 1;
                Dispatch::Run(DispatchJob {
                    job,
                    tag,
                    set_freq: None,
                })
            }
            None => Dispatch::Drained,
        }
    }
}

/// Outcome of a solo run.
#[derive(Debug, Clone)]
pub struct SoloOutcome {
    /// Job wall time.
    pub time_s: f64,
    /// Mean package power over the run.
    pub mean_power_w: f64,
    /// Full power trace.
    pub trace: PowerTrace,
}

/// Run a single job alone on `device` at `setting`; returns its wall time
/// and power profile. This is the simulated equivalent of the paper's
/// offline standalone profiling runs.
pub fn run_solo(
    cfg: &MachineConfig,
    job: &JobSpec,
    device: Device,
    setting: FreqSetting,
) -> Result<SoloOutcome, SimError> {
    let engine = Engine::new(cfg);
    let mut disp = SoloDispatcher {
        device,
        queue: [Arc::new(job.clone())].into_iter().collect(),
        next_tag: 0,
    };
    let mut gov = crate::governor::NullGovernor;
    let report = engine.run(&mut disp, &mut gov, &RunOptions::new(setting))?;
    Ok(SoloOutcome {
        time_s: report.makespan_s,
        mean_power_w: report.trace.mean_w(),
        trace: report.trace,
    })
}

/// Dispatcher for a single co-run pair: one job per device, no refills.
struct PairDispatcher {
    cpu: Option<Arc<JobSpec>>,
    gpu: Option<Arc<JobSpec>>,
}

impl Dispatcher for PairDispatcher {
    fn next(&mut self, device: Device, _now: f64, _ctx: &DispatchCtx) -> Dispatch {
        let slot = match device {
            Device::Cpu => &mut self.cpu,
            Device::Gpu => &mut self.gpu,
        };
        match slot.take() {
            Some(job) => Dispatch::Run(DispatchJob {
                job,
                tag: device.index(),
                set_freq: None,
            }),
            None => {
                if self.cpu.is_none() && self.gpu.is_none() {
                    Dispatch::Drained
                } else {
                    Dispatch::Idle
                }
            }
        }
    }
}

/// Outcome of a two-job co-run.
#[derive(Debug, Clone)]
pub struct PairOutcome {
    /// Wall time of the CPU job.
    pub cpu_time_s: f64,
    /// Wall time of the GPU job.
    pub gpu_time_s: f64,
    /// Makespan of the pair.
    pub makespan_s: f64,
    /// Power trace of the whole co-run.
    pub trace: PowerTrace,
}

/// Co-run `cpu_job` on the CPU and `gpu_job` on the GPU, both starting at
/// t=0; after one finishes the other continues alone. The ground-truth
/// measurement the paper obtains by actually co-running two programs.
pub fn run_pair(
    cfg: &MachineConfig,
    cpu_job: &JobSpec,
    gpu_job: &JobSpec,
    setting: FreqSetting,
    governor: &mut dyn Governor,
) -> Result<PairOutcome, SimError> {
    let engine = Engine::new(cfg);
    let mut disp = PairDispatcher {
        cpu: Some(Arc::new(cpu_job.clone())),
        gpu: Some(Arc::new(gpu_job.clone())),
    };
    let report = engine.run(&mut disp, governor, &RunOptions::new(setting))?;
    let cpu_time = report
        .records
        .iter()
        .find(|r| r.device == Device::Cpu)
        .map_or(0.0, JobRecord::duration_s);
    let gpu_time = report
        .records
        .iter()
        .find(|r| r.device == Device::Gpu)
        .map_or(0.0, JobRecord::duration_s);
    Ok(PairOutcome {
        cpu_time_s: cpu_time,
        gpu_time_s: gpu_time,
        makespan_s: report.makespan_s,
        trace: report.trace,
    })
}

/// Dispatcher that runs `fore` once on its device while endlessly restarting
/// `back` on the other device.
struct BackgroundDispatcher {
    fore_device: Device,
    fore: Option<Arc<JobSpec>>,
    back: Arc<JobSpec>,
    fore_done: bool,
    next_tag: usize,
}

impl Dispatcher for BackgroundDispatcher {
    fn next(&mut self, device: Device, _now: f64, _ctx: &DispatchCtx) -> Dispatch {
        if device == self.fore_device {
            match self.fore.take() {
                Some(job) => Dispatch::Run(DispatchJob {
                    job,
                    tag: 0,
                    set_freq: None,
                }),
                None => {
                    self.fore_done = true;
                    Dispatch::Drained
                }
            }
        } else {
            // keep the background device busy until the engine drains
            let tag = self.next_tag;
            self.next_tag += 1;
            Dispatch::Run(DispatchJob {
                job: self.back.clone(),
                tag: 1000 + tag,
                set_freq: None,
            })
        }
    }
}

/// Run `fore` once on `fore_device` while the other device continuously
/// re-runs `back`; returns the foreground job's wall time. This measures
/// *steady-state* co-run degradation — how the paper's micro-benchmark
/// characterization isolates one point of the degradation space.
pub fn run_with_background(
    cfg: &MachineConfig,
    fore: &JobSpec,
    fore_device: Device,
    back: &JobSpec,
    setting: FreqSetting,
) -> Result<f64, SimError> {
    let engine = Engine::new(cfg);
    let mut disp = BackgroundDispatcher {
        fore_device,
        fore: Some(Arc::new(fore.clone())),
        back: Arc::new(back.clone()),
        fore_done: false,
        next_tag: 0,
    };
    let mut gov = crate::governor::NullGovernor;
    let report = engine.run(&mut disp, &mut gov, &RunOptions::new(setting))?;
    report
        .records
        .iter()
        .find(|r| r.tag == 0)
        .map(JobRecord::duration_s)
        .ok_or(SimError::Stalled { at_s: 0.0 })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::work::{single_phase_job, PhaseWork};

    fn cfg() -> MachineConfig {
        MachineConfig::ivy_bridge()
    }

    fn compute_phase(flops: f64) -> PhaseWork {
        PhaseWork {
            flops,
            bytes: 0.0,
            cpu_eff: 1.0,
            gpu_eff: 1.0,
            llc_footprint_mib: 64.0,
            llc_sensitivity: 0.0,
            llc_pressure: 0.0,
            llc_miss_bw_gbps: 0.0,
            overlap: 0.2,
        }
    }

    fn memory_phase(bytes: f64) -> PhaseWork {
        PhaseWork {
            flops: 0.0,
            bytes,
            cpu_eff: 1.0,
            gpu_eff: 1.0,
            llc_footprint_mib: 256.0,
            llc_sensitivity: 0.0,
            llc_pressure: 0.9,
            llc_miss_bw_gbps: 0.0,
            overlap: 0.2,
        }
    }

    #[test]
    fn solo_compute_job_matches_analytic_time() {
        let cfg = cfg();
        // 900 GFLOP on the CPU at 3.6 GHz, 25 GFLOPs/GHz: 10 s.
        let job = single_phase_job("c", compute_phase(900.0));
        let out = run_solo(&cfg, &job, Device::Cpu, cfg.freqs.max_setting()).unwrap();
        assert!((out.time_s - 10.0).abs() < 0.05, "got {}", out.time_s);
    }

    #[test]
    fn solo_memory_job_matches_analytic_time() {
        let cfg = cfg();
        let job = single_phase_job("m", memory_phase(110.0));
        let out = run_solo(&cfg, &job, Device::Gpu, cfg.freqs.max_setting()).unwrap();
        assert!((out.time_s - 10.0).abs() < 0.05, "got {}", out.time_s);
    }

    #[test]
    fn solo_engine_agrees_with_spec_solo_time() {
        let cfg = cfg();
        let job = JobSpec::plain(
            "mix",
            vec![
                compute_phase(450.0),
                memory_phase(55.0),
                compute_phase(225.0),
            ],
        );
        let analytic = job.solo_time(
            &cfg.cpu,
            Device::Cpu,
            cfg.f_max(Device::Cpu),
            cfg.f_max(Device::Cpu),
        );
        let out = run_solo(&cfg, &job, Device::Cpu, cfg.freqs.max_setting()).unwrap();
        assert!(
            (out.time_s - analytic).abs() / analytic < 0.01,
            "engine {} vs analytic {analytic}",
            out.time_s
        );
    }

    #[test]
    fn corun_of_memory_jobs_degrades_both() {
        let cfg = cfg();
        let a = single_phase_job("a", memory_phase(220.0));
        let b = single_phase_job("b", memory_phase(220.0));
        let s = cfg.freqs.max_setting();
        let solo_a = run_solo(&cfg, &a, Device::Cpu, s).unwrap().time_s;
        let solo_b = run_solo(&cfg, &b, Device::Gpu, s).unwrap().time_s;
        let mut gov = crate::governor::NullGovernor;
        let pair = run_pair(&cfg, &a, &b, s, &mut gov).unwrap();
        assert!(
            pair.cpu_time_s > solo_a * 1.2,
            "CPU job must degrade under contention"
        );
        assert!(
            pair.gpu_time_s > solo_b * 1.2,
            "GPU job must degrade under contention"
        );
    }

    #[test]
    fn corun_of_compute_jobs_degrades_neither() {
        let cfg = cfg();
        let a = single_phase_job("a", compute_phase(900.0));
        let b = single_phase_job("b", compute_phase(2500.0));
        let s = cfg.freqs.max_setting();
        let solo_a = run_solo(&cfg, &a, Device::Cpu, s).unwrap().time_s;
        let solo_b = run_solo(&cfg, &b, Device::Gpu, s).unwrap().time_s;
        let mut gov = crate::governor::NullGovernor;
        let pair = run_pair(&cfg, &a, &b, s, &mut gov).unwrap();
        assert!((pair.cpu_time_s - solo_a).abs() / solo_a < 0.02);
        assert!((pair.gpu_time_s - solo_b).abs() / solo_b < 0.02);
    }

    #[test]
    fn after_corunner_finishes_job_speeds_up() {
        let cfg = cfg();
        let long = single_phase_job("long", memory_phase(220.0));
        let short = single_phase_job("short", memory_phase(44.0));
        let s = cfg.freqs.max_setting();
        let solo_long = run_solo(&cfg, &long, Device::Cpu, s).unwrap().time_s;
        let mut gov = crate::governor::NullGovernor;
        let pair = run_pair(&cfg, &long, &short, s, &mut gov).unwrap();
        // The long job is only contended while the short one runs; its total
        // slowdown must be well below the steady-state degradation.
        let steady = run_with_background(&cfg, &long, Device::Cpu, &short, s).unwrap();
        assert!(
            pair.cpu_time_s < steady,
            "partial overlap must beat steady-state contention"
        );
        assert!(
            pair.cpu_time_s > solo_long,
            "but it is still slower than solo"
        );
    }

    #[test]
    fn background_harness_measures_steady_state() {
        let cfg = cfg();
        let fore = single_phase_job("fore", memory_phase(110.0));
        let back = single_phase_job("back", memory_phase(11.0)); // short, restarts often
        let s = cfg.freqs.max_setting();
        let solo = run_solo(&cfg, &fore, Device::Cpu, s).unwrap().time_s;
        let co = run_with_background(&cfg, &fore, Device::Cpu, &back, s).unwrap();
        assert!(
            co > solo * 1.3,
            "steady contention expected, solo={solo} co={co}"
        );
    }

    #[test]
    fn power_trace_reflects_load() {
        let cfg = cfg();
        let job = single_phase_job("c", compute_phase(900.0));
        let out = run_solo(&cfg, &job, Device::Cpu, cfg.freqs.max_setting()).unwrap();
        // CPU busy at max frequency: idle floors + uncore + cpu dynamic.
        assert!(out.mean_power_w > 10.0, "got {}", out.mean_power_w);
        assert!(out.mean_power_w < 20.0, "got {}", out.mean_power_w);
        assert!(!out.trace.is_empty());
    }

    #[test]
    fn lower_frequency_uses_less_power() {
        let cfg = cfg();
        let job = single_phase_job("c", compute_phase(450.0));
        let hi = run_solo(&cfg, &job, Device::Cpu, cfg.freqs.max_setting()).unwrap();
        let lo = run_solo(&cfg, &job, Device::Cpu, FreqSetting::new(0, 0)).unwrap();
        assert!(lo.mean_power_w < hi.mean_power_w);
        assert!(lo.time_s > hi.time_s);
    }

    #[test]
    fn empty_dispatcher_yields_empty_report() {
        let cfg = cfg();
        struct Empty;
        impl Dispatcher for Empty {
            fn next(&mut self, _d: Device, _n: f64, _c: &DispatchCtx) -> Dispatch {
                Dispatch::Drained
            }
        }
        let engine = Engine::new(&cfg);
        let mut gov = crate::governor::NullGovernor;
        let r = engine
            .run(
                &mut Empty,
                &mut gov,
                &RunOptions::new(cfg.freqs.max_setting()),
            )
            .unwrap();
        assert_eq!(r.makespan_s, 0.0);
        assert!(r.records.is_empty());
    }

    #[test]
    fn stalled_dispatcher_is_an_error() {
        let cfg = cfg();
        struct Lazy;
        impl Dispatcher for Lazy {
            fn next(&mut self, _d: Device, _n: f64, _c: &DispatchCtx) -> Dispatch {
                Dispatch::Idle
            }
        }
        let engine = Engine::new(&cfg);
        let mut gov = crate::governor::NullGovernor;
        let r = engine.run(
            &mut Lazy,
            &mut gov,
            &RunOptions::new(cfg.freqs.max_setting()),
        );
        assert!(matches!(r, Err(SimError::Stalled { .. })));
    }

    #[test]
    fn time_limit_enforced() {
        let cfg = cfg();
        let job = single_phase_job("c", compute_phase(9000.0)); // 100 s
        let engine = Engine::new(&cfg);
        let mut disp = SoloDispatcher {
            device: Device::Cpu,
            queue: [Arc::new(job)].into_iter().collect(),
            next_tag: 0,
        };
        let mut gov = crate::governor::NullGovernor;
        let mut opts = RunOptions::new(cfg.freqs.max_setting());
        opts.limit_s = 5.0;
        let r = engine.run(&mut disp, &mut gov, &opts);
        assert!(matches!(r, Err(SimError::TimeLimit { .. })));
    }

    #[test]
    fn governor_keeps_power_near_cap() {
        let cfg = cfg();
        let a = single_phase_job("a", compute_phase(2000.0));
        let b = single_phase_job("b", compute_phase(5000.0));
        let cap = 15.0;
        let mut gov = crate::governor::BiasedGovernor::gpu_biased(cap);
        let pair = run_pair(&cfg, &a, &b, cfg.freqs.max_setting(), &mut gov).unwrap();
        // After the governor settles, power must hover at/below the cap;
        // transient overshoot is bounded (paper: typically < 2 W).
        let late: Vec<f64> = pair
            .trace
            .samples_w
            .iter()
            .copied()
            .skip(pair.trace.len() / 2)
            .collect();
        let late_max = late.iter().copied().fold(0.0, f64::max);
        assert!(
            late_max <= cap + 2.0,
            "late max {late_max} too far above cap"
        );
    }

    #[test]
    fn multiprog_cpu_slows_each_job() {
        let cfg = cfg();
        let engine = Engine::new(&cfg);
        let job = single_phase_job("c", compute_phase(225.0)); // 2.5 s dedicated
        struct TwoCpu {
            left: Vec<Arc<JobSpec>>,
        }
        impl Dispatcher for TwoCpu {
            fn next(&mut self, d: Device, _n: f64, _c: &DispatchCtx) -> Dispatch {
                if d == Device::Cpu {
                    match self.left.pop() {
                        Some(j) => Dispatch::Run(DispatchJob {
                            job: j,
                            tag: self.left.len(),
                            set_freq: None,
                        }),
                        None => Dispatch::Drained,
                    }
                } else {
                    Dispatch::Idle
                }
            }
        }
        let mut disp = TwoCpu {
            left: vec![Arc::new(job.clone()), Arc::new(job.clone())],
        };
        let mut gov = crate::governor::NullGovernor;
        let mut opts = RunOptions::new(cfg.freqs.max_setting());
        opts.cpu_slots = 2;
        let r = engine.run(&mut disp, &mut gov, &opts).unwrap();
        // Two 2.5 s jobs time-shared: each takes > 5 s (sharing + overhead),
        // and the makespan exceeds the sum of dedicated times.
        assert!(r.makespan_s > 5.0, "makespan {}", r.makespan_s);
        for rec in &r.records {
            assert!(
                rec.duration_s() > 5.0,
                "each shared job must see >2x slowdown"
            );
        }
    }

    #[test]
    fn records_are_complete_and_ordered() {
        let cfg = cfg();
        let engine = Engine::new(&cfg);
        let jobs: Vec<Arc<JobSpec>> = (0..3)
            .map(|i| Arc::new(single_phase_job(format!("j{i}"), compute_phase(90.0))))
            .collect();
        let mut disp = SoloDispatcher {
            device: Device::Gpu,
            queue: jobs.into_iter().collect(),
            next_tag: 0,
        };
        let mut gov = crate::governor::NullGovernor;
        let r = engine
            .run(
                &mut disp,
                &mut gov,
                &RunOptions::new(cfg.freqs.max_setting()),
            )
            .unwrap();
        assert_eq!(r.records.len(), 3);
        for w in r.records.windows(2) {
            assert!(w[0].end_s <= w[1].end_s + 1e-9);
            assert!(
                (w[1].start_s - w[0].end_s).abs() < 1e-6,
                "sequential dispatch"
            );
        }
        assert!((r.makespan_s - r.records.last().unwrap().end_s).abs() < 1e-9);
    }

    #[test]
    fn event_log_captures_run_structure() {
        let cfg = cfg();
        let a = single_phase_job("a", compute_phase(450.0));
        let b = single_phase_job("b", compute_phase(1250.0));
        let engine = Engine::new(&cfg);
        let mut disp = PairDispatcher {
            cpu: Some(Arc::new(a)),
            gpu: Some(Arc::new(b)),
        };
        let mut gov = crate::governor::BiasedGovernor::gpu_biased(15.0);
        let mut log = crate::events::EventLog::new(Some(15.0));
        let report = engine
            .run_recorded(
                &mut disp,
                &mut gov,
                &RunOptions::new(cfg.freqs.max_setting()),
                Some(&mut log),
            )
            .unwrap();
        assert_eq!(log.dispatches().count(), 2);
        assert_eq!(log.completions().count(), 2);
        // Max-frequency compute pair exceeds 15 W: the governor must act.
        assert!(log.freq_changes().count() > 0, "governor reacted");
        assert!(log.overshoots().count() > 0, "initial overshoot recorded");
        // Events are time-ordered and inside the run window.
        for w in log.events().windows(2) {
            assert!(w[0].at_s <= w[1].at_s + 1e-9);
        }
        assert!(log.events().last().unwrap().at_s <= report.makespan_s + 1e-6);
    }

    #[test]
    fn wait_until_advances_idle_time() {
        // A dispatcher that releases its only job at t=3.
        let cfg = cfg();
        struct Delayed {
            job: Option<Arc<JobSpec>>,
        }
        impl Dispatcher for Delayed {
            fn next(&mut self, d: Device, now: f64, _c: &DispatchCtx) -> Dispatch {
                if d != Device::Gpu {
                    return Dispatch::Idle;
                }
                if now + 1e-9 < 3.0 {
                    return Dispatch::WaitUntil(3.0);
                }
                match self.job.take() {
                    Some(job) => Dispatch::Run(DispatchJob {
                        job,
                        tag: 0,
                        set_freq: None,
                    }),
                    None => Dispatch::Drained,
                }
            }
        }
        let job = single_phase_job("late", compute_phase(250.0)); // 1 s at max
        let engine = Engine::new(&cfg);
        let mut disp = Delayed {
            job: Some(Arc::new(job)),
        };
        let mut gov = crate::governor::NullGovernor;
        let r = engine
            .run(
                &mut disp,
                &mut gov,
                &RunOptions::new(cfg.freqs.max_setting()),
            )
            .unwrap();
        let rec = r.record(0).unwrap();
        assert!(rec.start_s >= 3.0 - 1e-6, "job started at {}", rec.start_s);
        assert!(
            (r.makespan_s - 4.0).abs() < 0.1,
            "makespan {}",
            r.makespan_s
        );
        // The idle lead-in is power-traced too.
        assert!(r.trace.duration_s() >= 3.5);
    }

    #[test]
    fn session_advance_matches_one_shot_run() {
        // Stepping a session in small horizons must reproduce the one-shot
        // run exactly: same records, same makespan, same trace length.
        let cfg = cfg();
        let jobs: Vec<Arc<JobSpec>> = (0..3)
            .map(|i| {
                Arc::new(single_phase_job(
                    format!("j{i}"),
                    compute_phase(200.0 + 50.0 * i as f64),
                ))
            })
            .collect();
        let one_shot = {
            let mut disp = SoloDispatcher {
                device: Device::Gpu,
                queue: jobs.clone().into_iter().collect(),
                next_tag: 0,
            };
            let mut gov = crate::governor::NullGovernor;
            Engine::new(&cfg)
                .run(
                    &mut disp,
                    &mut gov,
                    &RunOptions::new(cfg.freqs.max_setting()),
                )
                .unwrap()
        };
        let stepped = {
            let mut disp = SoloDispatcher {
                device: Device::Gpu,
                queue: jobs.into_iter().collect(),
                next_tag: 0,
            };
            let mut gov = crate::governor::NullGovernor;
            let engine = Engine::new(&cfg);
            let mut session = engine.session(RunOptions::new(cfg.freqs.max_setting()));
            loop {
                match session.advance(&mut disp, &mut gov, 0.37, None).unwrap() {
                    SessionState::Finished => break,
                    SessionState::Starved => panic!("solo queue cannot starve"),
                    SessionState::Crashed => panic!("no faults attached"),
                    SessionState::Advanced => {}
                }
            }
            session.into_report()
        };
        assert_eq!(one_shot.records, stepped.records);
        assert_eq!(one_shot.makespan_s, stepped.makespan_s);
        assert_eq!(one_shot.trace.samples_w, stepped.trace.samples_w);
        assert_eq!(one_shot.final_setting, stepped.final_setting);
    }

    #[test]
    fn starved_session_resumes_when_work_appears() {
        // A dispatcher whose queue is fed between advance() calls: the
        // session starves, then resumes and completes the late job.
        let cfg = cfg();
        struct Fed {
            queue: Vec<Arc<JobSpec>>,
            tag: usize,
            drained: bool,
        }
        impl Dispatcher for Fed {
            fn next(&mut self, d: Device, _n: f64, _c: &DispatchCtx) -> Dispatch {
                if d != Device::Cpu {
                    return Dispatch::Idle;
                }
                match self.queue.pop() {
                    Some(job) => {
                        let tag = self.tag;
                        self.tag += 1;
                        Dispatch::Run(DispatchJob {
                            job,
                            tag,
                            set_freq: None,
                        })
                    }
                    None if self.drained => Dispatch::Drained,
                    None => Dispatch::Idle,
                }
            }
        }
        let engine = Engine::new(&cfg);
        let mut gov = crate::governor::NullGovernor;
        let mut disp = Fed {
            queue: vec![Arc::new(single_phase_job("first", compute_phase(90.0)))],
            tag: 0,
            drained: false,
        };
        let mut session = engine.session(RunOptions::new(cfg.freqs.max_setting()));
        // Run the first job dry.
        loop {
            match session.advance(&mut disp, &mut gov, 1.0, None).unwrap() {
                SessionState::Starved => break,
                SessionState::Advanced => {}
                SessionState::Finished => panic!("not drained yet"),
                SessionState::Crashed => panic!("no faults attached"),
            }
        }
        assert_eq!(session.records().len(), 1);
        let starved_at = session.now_s();
        // Feed a second job and drain.
        disp.queue
            .push(Arc::new(single_phase_job("second", compute_phase(90.0))));
        disp.drained = true;
        loop {
            match session.advance(&mut disp, &mut gov, 1.0, None).unwrap() {
                SessionState::Finished => break,
                SessionState::Advanced => {}
                SessionState::Starved => panic!("work was fed"),
                SessionState::Crashed => panic!("no faults attached"),
            }
        }
        let report = session.into_report();
        assert_eq!(report.records.len(), 2);
        assert!(report.records[1].start_s >= starved_at - 1e-9);
        assert!(report.makespan_s > starved_at);
    }

    #[test]
    fn host_setup_adds_serial_time() {
        let cfg = cfg();
        let mut job = single_phase_job("s", compute_phase(90.0));
        job.host_setup_s = 2.0;
        let out = run_solo(&cfg, &job, Device::Gpu, cfg.freqs.max_setting()).unwrap();
        let plain = {
            let j = single_phase_job("p", compute_phase(90.0));
            run_solo(&cfg, &j, Device::Gpu, cfg.freqs.max_setting())
                .unwrap()
                .time_s
        };
        assert!((out.time_s - plain - 2.0).abs() < 0.05);
    }

    #[test]
    fn injected_crash_ends_session_and_reports_in_flight() {
        let cfg = cfg();
        let plan = crate::FaultPlan::parse("@chaos crash=0:5\n").unwrap();
        let engine = Engine::new(&cfg);
        let mut disp = SoloDispatcher {
            device: Device::Cpu,
            queue: [Arc::new(single_phase_job("c", compute_phase(900.0)))] // 10 s
                .into_iter()
                .collect(),
            next_tag: 0,
        };
        let mut gov = crate::governor::NullGovernor;
        let mut session = engine.session(RunOptions::new(cfg.freqs.max_setting()));
        session.set_faults(plan.injector(0));
        let state = session
            .advance(&mut disp, &mut gov, f64::INFINITY, None)
            .unwrap();
        assert_eq!(state, SessionState::Crashed);
        assert!(
            (session.now_s() - 5.0).abs() < 0.1,
            "at {}",
            session.now_s()
        );
        assert_eq!(session.running_tags(), vec![0], "job 0 was in flight");
        assert!(session.records().is_empty(), "no completion record");
        // Terminal: advancing again stays Crashed without simulating.
        let again = session
            .advance(&mut disp, &mut gov, f64::INFINITY, None)
            .unwrap();
        assert_eq!(again, SessionState::Crashed);
    }

    #[test]
    fn injected_failure_loses_job_without_record() {
        let cfg = cfg();
        // job-fail=1 guarantees the failure roll hits on every attempt.
        let plan = crate::FaultPlan::parse("@chaos seed=11 job-fail=1\n").unwrap();
        let engine = Engine::new(&cfg);
        let mut disp = SoloDispatcher {
            device: Device::Gpu,
            queue: [Arc::new(single_phase_job("f", compute_phase(250.0)))]
                .into_iter()
                .collect(),
            next_tag: 0,
        };
        let mut gov = crate::governor::NullGovernor;
        let mut session = engine.session(RunOptions::new(cfg.freqs.max_setting()));
        session.set_faults(plan.injector(0));
        let state = session
            .advance(&mut disp, &mut gov, f64::INFINITY, None)
            .unwrap();
        assert_eq!(state, SessionState::Finished);
        assert!(session.records().is_empty(), "failed job leaves no record");
        let failures = session.take_failures();
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].tag, 0);
        assert_eq!(failures[0].device, Device::Gpu);
        assert!(failures[0].at_s > failures[0].start_s);
    }

    #[test]
    fn straggler_slows_job_deterministically() {
        let cfg = cfg();
        let plan = crate::FaultPlan::parse("@chaos seed=1 straggle=1:2.5\n").unwrap();
        let job = single_phase_job("s", compute_phase(450.0));
        let s = cfg.freqs.max_setting();
        let healthy = run_solo(&cfg, &job, Device::Cpu, s).unwrap().time_s;
        let engine = Engine::new(&cfg);
        let run_once = || {
            let mut disp = SoloDispatcher {
                device: Device::Cpu,
                queue: [Arc::new(job.clone())].into_iter().collect(),
                next_tag: 0,
            };
            let mut gov = crate::governor::NullGovernor;
            let mut session = engine.session(RunOptions::new(s));
            session.set_faults(plan.injector(0));
            loop {
                match session
                    .advance(&mut disp, &mut gov, f64::INFINITY, None)
                    .unwrap()
                {
                    SessionState::Finished => break,
                    SessionState::Crashed | SessionState::Starved => panic!("unexpected"),
                    SessionState::Advanced => {}
                }
            }
            session.into_report().makespan_s
        };
        let slow_a = run_once();
        let slow_b = run_once();
        assert_eq!(slow_a, slow_b, "same seed, same slowdown");
        assert!(
            (slow_a / healthy - 2.5).abs() < 0.05,
            "expected ~2.5x slowdown, got {}x",
            slow_a / healthy
        );
    }

    #[test]
    fn meter_spike_trips_reactive_governor() {
        let cfg = cfg();
        let plan = crate::FaultPlan::parse("@chaos meter-spike=0.5:40\n").unwrap();
        let cap = 15.0;
        // A light job that never approaches the cap on its own.
        let job = single_phase_job("lite", compute_phase(900.0));
        let engine = Engine::new(&cfg);
        let run = |faulted: bool| {
            let mut disp = SoloDispatcher {
                device: Device::Cpu,
                queue: [Arc::new(job.clone())].into_iter().collect(),
                next_tag: 0,
            };
            let mut gov = crate::governor::BiasedGovernor::gpu_biased(cap);
            let mut session = engine.session(RunOptions::new(cfg.freqs.max_setting()));
            if faulted {
                session.set_faults(plan.injector(0));
            }
            loop {
                match session
                    .advance(&mut disp, &mut gov, f64::INFINITY, None)
                    .unwrap()
                {
                    SessionState::Finished => break,
                    SessionState::Crashed | SessionState::Starved => panic!("unexpected"),
                    SessionState::Advanced => {}
                }
            }
            session.into_report()
        };
        let clean = run(false);
        let faulted = run(true);
        // Phantom 40 W spikes must show in the observed trace and force
        // the governor to throttle: the run gets slower.
        let clean_max = clean.trace.samples_w.iter().copied().fold(0.0, f64::max);
        let fault_max = faulted.trace.samples_w.iter().copied().fold(0.0, f64::max);
        assert!(fault_max > clean_max + 20.0, "spike visible in trace");
        assert!(
            faulted.makespan_s > clean.makespan_s * 1.01,
            "governor throttled on phantom spikes: {} vs {}",
            faulted.makespan_s,
            clean.makespan_s
        );
    }

    #[test]
    fn starved_session_under_fault_still_terminates() {
        // Regression: a session that starves (dispatcher has no work)
        // while a fault plan is attached must still reach a terminal
        // state — the pending crash fires even with nothing running.
        let cfg = cfg();
        let plan = crate::FaultPlan::parse("@chaos crash=0:1\n").unwrap();
        struct Never;
        impl Dispatcher for Never {
            fn next(&mut self, _d: Device, _n: f64, _c: &DispatchCtx) -> Dispatch {
                Dispatch::Idle
            }
        }
        let engine = Engine::new(&cfg);
        let mut gov = crate::governor::NullGovernor;
        let mut session = engine.session(RunOptions::new(cfg.freqs.max_setting()));
        session.set_faults(plan.injector(0));
        // Starves immediately (crash at t=1 not yet due at t=0)...
        let s1 = session.advance(&mut Never, &mut gov, 5.0, None).unwrap();
        assert_eq!(s1, SessionState::Starved);
        // ...a waiting dispatcher then idles time forward into the crash.
        struct Waiter;
        impl Dispatcher for Waiter {
            fn next(&mut self, _d: Device, now: f64, _c: &DispatchCtx) -> Dispatch {
                Dispatch::WaitUntil(now + 0.5)
            }
        }
        let mut bounded = 0;
        loop {
            match session.advance(&mut Waiter, &mut gov, 5.0, None).unwrap() {
                SessionState::Crashed => break,
                SessionState::Finished => panic!("cannot finish, never drained"),
                _ => {}
            }
            bounded += 1;
            assert!(bounded < 100, "session must terminate, not spin");
        }
        assert!(session.now_s() <= 1.5, "crashed near t=1");
    }

    #[test]
    fn llc_sensitive_job_thrashed_by_streaming_corunner() {
        let cfg = cfg();
        // Cache-resident CPU job: small footprint, low raw traffic, very
        // LLC-sensitive (the dwt2d pattern from the paper's Section III).
        let victim = single_phase_job(
            "victim",
            PhaseWork {
                flops: 450.0,
                bytes: 20.0,
                cpu_eff: 1.0,
                gpu_eff: 1.0,
                llc_footprint_mib: 3.0,
                llc_sensitivity: 8.0,
                llc_pressure: 0.2,
                llc_miss_bw_gbps: 4.5,
                overlap: 0.2,
            },
        );
        let streamer = single_phase_job("streamer", memory_phase(40.0));
        let gentle = single_phase_job("gentle", compute_phase(500.0));
        let s = cfg.freqs.max_setting();
        let solo = run_solo(&cfg, &victim, Device::Cpu, s).unwrap().time_s;
        let vs_stream = run_with_background(&cfg, &victim, Device::Cpu, &streamer, s).unwrap();
        let vs_gentle = run_with_background(&cfg, &victim, Device::Cpu, &gentle, s).unwrap();
        let deg_stream = vs_stream / solo - 1.0;
        let deg_gentle = vs_gentle / solo - 1.0;
        assert!(
            deg_stream > 3.0 * deg_gentle.max(0.01),
            "streaming co-runner must hurt far more: {deg_stream} vs {deg_gentle}"
        );
        assert!(
            deg_stream > 0.4,
            "thrashing must be severe, got {deg_stream}"
        );
    }
}
