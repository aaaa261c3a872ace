//! # apu-sim — integrated CPU-GPU processor simulator
//!
//! A discrete-time simulator of an integrated CPU-GPU package ("APU") with:
//!
//! * per-device DVFS ladders (16 CPU levels, 10 GPU levels on the calibrated
//!   Ivy Bridge preset),
//! * a shared memory subsystem with bandwidth arbitration, cross-device
//!   latency inflation, and LLC interference,
//! * an analytic package power model with RAPL-style sampled enforcement via
//!   pluggable reactive governors,
//! * a roofline execution model over abstract multi-phase jobs.
//!
//! This crate is the hardware substitute for the platform used by
//! *"Co-Run Scheduling with Power Cap on Integrated CPU-GPU Systems"*
//! (Zhu et al., IPDPS 2017): an Intel i7-3520M with HD Graphics 4000, RAPL
//! power capping, and OpenCL workloads. Everything the paper's runtime
//! observes on hardware — standalone run times per frequency, co-run
//! degradations, bandwidth profiles, package power — is produced here with
//! the same qualitative structure.
//!
//! ## Quick start
//!
//! ```
//! use apu_sim::{MachineConfig, Device, run_solo, run_pair, NullGovernor};
//! use apu_sim::work::{JobSpec, PhaseWork};
//!
//! let cfg = MachineConfig::ivy_bridge();
//! let job = apu_sim::work::single_phase_job("demo", PhaseWork {
//!     flops: 450.0, bytes: 55.0,
//!     cpu_eff: 1.0, gpu_eff: 0.8,
//!     llc_footprint_mib: 64.0, llc_sensitivity: 0.0, llc_pressure: 0.6,
//!     llc_miss_bw_gbps: 0.0,
//!     overlap: 0.2,
//! });
//! let solo = run_solo(&cfg, &job, Device::Cpu, cfg.freqs.max_setting()).unwrap();
//! assert!(solo.time_s > 0.0);
//! ```

pub mod config;
pub mod device;
pub mod engine;
pub mod events;
pub mod faults;
pub mod freq;
pub mod governor;
pub mod hash;
pub mod memory;
pub mod power;
#[cfg(feature = "sanitize")]
pub mod sanitize;
pub mod stats;
pub mod validate;
pub mod work;

pub use config::{MachineConfig, MultiprogParams};
pub use device::{Device, DeviceParams, PerDevice};
pub use engine::{
    run_pair, run_solo, run_with_background, Dispatch, DispatchCtx, DispatchJob, Dispatcher,
    Engine, EngineMode, JobFailure, JobRecord, PairOutcome, RunOptions, RunReport, Session,
    SessionState, SimError, SoloOutcome,
};
pub use events::{Event, EventKind, EventLog};
pub use faults::{
    FaultEvent, FaultInjector, FaultKind, FaultPlan, JobFaultProfile, MachineCrash, MeterSpike,
};
pub use freq::{FreqLevel, FreqSetting, FreqTable, PackageFreqs};
pub use governor::{Bias, BiasedGovernor, Governor, NullGovernor, OndemandGovernor};
pub use memory::{Arbitration, ContentionKind, MemoryParams};
pub use power::{DeviceActivity, PackagePowerParams, PowerModel, PowerTrace};
pub use stats::{run_stats, RunStats};
pub use validate::{validate, validated, ConfigIssue};
pub use work::{single_phase_job, JobSpec, PhaseWork};
