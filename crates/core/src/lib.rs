//! **The emulation platform** — the paper's primary contribution, as a
//! library: fast fault-tolerance analysis of CNN inference accelerators by
//! running the CNN on an (emulated) accelerator whose multipliers carry
//! programmable fault injectors.
//!
//! The pieces:
//!
//! * [`EmulationPlatform`] — one-stop assembly: quantized model → compiled
//!   plan → programmed accelerator, with fault programming and evaluation
//!   helpers (the role the ARM-side software stack plays on the real Zynq);
//! * [`campaign`] — fault-injection campaigns: random multiplier subsets
//!   (Fig. 2), exhaustive single-multiplier sweeps (Fig. 3), fixed lists;
//!   scheduled at two levels: an outer lock-free cursor hands fault
//!   configurations to worker groups, and each group's [`DevicePool`]
//!   shards the evaluation batch across its device instances, so campaigns
//!   saturate the thread budget whether they are wide (many configurations)
//!   or narrow (one configuration, many images);
//! * [`pool`] — the [`DevicePool`]: a set of identical device instances
//!   (independent emulated FPGA boards) that splits one classification
//!   batch into contiguous image shards and deterministically merges the
//!   per-shard predictions back in image order, bit-identical to a single
//!   device;
//! * [`stats`] — five-number summaries for box plots and accuracy-drop heat
//!   maps;
//! * [`report`] — ASCII rendering (box plots, heat maps) plus CSV/JSON
//!   export of every result;
//! * [`experiments`] — the drivers that regenerate each table/figure of the
//!   paper (Table I, Fig. 2, Fig. 3, the Sec. IV speedup claim), used by
//!   `nvfi-bench`'s binaries;
//! * [`artifacts`] — train-once caching of the quantized network.
//!
//! # Examples
//!
//! ```no_run
//! use nvfi::{EmulationPlatform, PlatformConfig};
//! use nvfi::campaign::{Campaign, CampaignSpec, TargetSelection};
//! use nvfi_accel::FaultKind;
//!
//! # fn demo(qmodel: nvfi_quant::QuantModel, data: nvfi_dataset::Dataset)
//! #     -> Result<(), nvfi::PlatformError> {
//! let platform = EmulationPlatform::assemble(&qmodel, PlatformConfig::default())?;
//! let spec = CampaignSpec {
//!     selection: TargetSelection::RandomSubsets { k: 3, trials: 10, seed: 42 },
//!     kinds: vec![FaultKind::StuckAtZero],
//!     eval_images: 100,
//!     threads: 8, // two-level: 10 trials share 8 devices, one per group
//!     ..Default::default()
//! };
//! let result = Campaign::new(&qmodel, platform.config()).run(&spec, &data)?;
//! println!("median drop: {:.1} pp", result.drops_pct()[0]);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifacts;
pub mod campaign;
pub mod experiments;
mod platform;
pub mod pool;
pub mod report;
pub mod stats;

pub use platform::{EmulationPlatform, PlatformConfig, PlatformError};
pub use pool::{DevicePool, GoldenActivationCache, QuantizedEvalSet};
