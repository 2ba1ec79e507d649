//! Drivers that regenerate every table and figure of the paper.
//!
//! | Paper artifact | Driver | Output files (under the results dir) |
//! |---|---|---|
//! | Table I (latency + synthesis) | [`run_table1`] | `table1.csv`, `table1.json` |
//! | Fig. 2 (drop vs #multipliers) | [`run_fig2`] | `fig2.csv`, `fig2.json` |
//! | Fig. 3 (per-multiplier heat maps) | [`run_fig3`] | `fig3.csv`, `fig3.json` |
//! | Sec. IV speedup claim | [`run_speedup`] | `speedup.json` |
//!
//! Absolute numbers differ from the paper (simulated substrate, retrained
//! CNN — see DESIGN.md); each result type carries the paper's reference
//! values so EXPERIMENTS.md can tabulate both.

use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

use nvfi_accel::FaultKind;
use nvfi_compiler::regmap::{MultId, MAC_UNITS, MULTS_PER_MAC};
use nvfi_obs::progress;
use nvfi_quant::{quantize, QuantConfig, QuantModel};
use nvfi_synth::{table1_synthesis_rows, SynthRow};
use serde_json::json;

use crate::artifacts::{get_or_train_quantized, ModelSpec};
use crate::campaign::{Campaign, CampaignSpec, TargetSelection};
use crate::platform::{EmulationPlatform, PlatformConfig};
use crate::report;
use crate::stats::{FiveNum, HeatMap};

/// The injected 18-bit constants of the paper's experiments.
pub const INJECTED_VALUES: [i32; 3] = [0, 1, -1];

/// Shared experiment configuration.
#[derive(Clone, Debug, PartialEq)]
pub struct ExperimentConfig {
    /// The trained network used for the accuracy experiments.
    pub model: ModelSpec,
    /// ResNet width used for the Table I latency model (needs no training).
    pub table1_width: usize,
    /// Evaluation images per fault configuration.
    pub eval_images: usize,
    /// Random trials per `#multipliers` point in Fig. 2.
    pub trials_per_k: usize,
    /// Largest `#multipliers` in Fig. 2 (paper: 7).
    pub max_k: usize,
    /// Campaign worker threads.
    pub threads: usize,
    /// Devices per fault configuration (0 = auto; see
    /// [`crate::campaign::CampaignSpec::pool_devices`]).
    pub pool_devices: usize,
    /// Device-pool shard granularity in images (0 = one mini-batch; see
    /// [`crate::PlatformConfig::shard_images`]).
    pub shard_images: usize,
    /// Byte budget of the golden-prefix activation cache for windowed
    /// campaigns (see [`crate::campaign::CampaignSpec::golden_cache_bytes`];
    /// default 256 MiB, `usize::MAX` = unbounded, `0` = disabled).
    pub golden_cache_bytes: usize,
    /// Worker processes of a distributed campaign (`NVFI_WORKERS`; see
    /// [`crate::campaign::CampaignSpec::workers`]). `0` (the default) runs
    /// in-process. Honoured by the `nvfi-bench` experiment binaries (fig2,
    /// fig3, all), which schedule through the `nvfi-dist` coordinator via
    /// [`run_fig2_with`] / [`run_fig3_with`] when this is non-zero: without
    /// [`ExperimentConfig::dist_addr`] the workers are spawned locally
    /// (self-exec); with it they are expected to attach from other hosts.
    pub workers: usize,
    /// Listen address of the distributed coordinator (`NVFI_DIST_ADDR`,
    /// e.g. `0.0.0.0:7070`). When set, the `nvfi-bench` experiment
    /// binaries bind the coordinator there and wait for all
    /// [`ExperimentConfig::workers`] workers to attach **remotely**
    /// (`nvfi_worker <this-host>:7070` on each machine) instead of spawning
    /// local processes. `None` (the default) binds an ephemeral localhost
    /// port for locally spawned workers.
    pub dist_addr: Option<String>,
    /// Per-shard silence timeout of a distributed campaign, in **seconds**
    /// (`NVFI_TASK_TIMEOUT`). Consumed by the `nvfi-bench` experiment
    /// binaries, which plumb it into the coordinator's
    /// `FleetSpec::task_timeout`: a worker whose shard goes silent (no
    /// heartbeat, no completion) for longer is treated as lost and its
    /// shard is requeued. `None` (the default) waits forever — the right
    /// call for local fleets, where a dead worker closes its socket and is
    /// detected immediately anyway; set it for cross-host fleets behind
    /// links that can stall silently.
    pub task_timeout: Option<u64>,
    /// Checkpoint file for distributed campaigns (`NVFI_CHECKPOINT`; see
    /// [`crate::campaign::CampaignSpec::checkpoint_path`]). Sequential
    /// campaigns of one experiment may share the path: each campaign
    /// removes the file when it completes, and a leftover log from a
    /// killed run resumes only the shards a later campaign shares with it.
    pub checkpoint: Option<PathBuf>,
    /// Fraction of completed distributed shards silently re-dispatched to
    /// a second worker and compared byte-for-byte (`NVFI_AUDIT_RATE`,
    /// `0.0..=1.0`; plumbed into the coordinator's `FleetSpec::audit_rate`).
    /// Every executed baseline shard is audited whatever the rate. Default
    /// `0.0` (baseline-only).
    pub audit_rate: f64,
    /// Where result files are written.
    pub out_dir: PathBuf,
    /// Progress on stderr.
    pub verbose: bool,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            model: ModelSpec::default(),
            table1_width: 16,
            eval_images: 200,
            trials_per_k: 10,
            max_k: 7,
            threads: 1,
            pool_devices: 0,
            shard_images: 0,
            golden_cache_bytes: crate::campaign::GOLDEN_CACHE_DEFAULT_BYTES,
            workers: 0,
            dist_addr: None,
            task_timeout: None,
            checkpoint: None,
            audit_rate: 0.0,
            out_dir: PathBuf::from("results"),
            verbose: false,
        }
    }
}

impl ExperimentConfig {
    /// A very small configuration for tests and smoke runs.
    #[must_use]
    pub fn quick() -> Self {
        ExperimentConfig {
            model: ModelSpec {
                width: 4,
                epochs: 1,
                train: 60,
                test: 30,
                artifact_dir: std::env::temp_dir().join("nvfi_quick_artifacts"),
                ..Default::default()
            },
            table1_width: 8,
            eval_images: 10,
            trials_per_k: 2,
            max_k: 3,
            threads: 1,
            pool_devices: 0,
            shard_images: 0,
            golden_cache_bytes: crate::campaign::GOLDEN_CACHE_DEFAULT_BYTES,
            workers: 0,
            dist_addr: None,
            task_timeout: None,
            checkpoint: None,
            audit_rate: 0.0,
            out_dir: std::env::temp_dir().join("nvfi_quick_results"),
            verbose: false,
        }
    }

    /// The default configuration with `NVFI_*` environment overrides:
    /// `NVFI_WIDTH`, `NVFI_EPOCHS`, `NVFI_TRAIN`, `NVFI_TEST`, `NVFI_NOISE`,
    /// `NVFI_EVAL`, `NVFI_TRIALS`, `NVFI_MAX_K`, `NVFI_TABLE1_WIDTH`,
    /// `NVFI_THREADS`, `NVFI_POOL`, `NVFI_SHARD`, `NVFI_GOLDEN_CACHE`,
    /// `NVFI_WORKERS`, `NVFI_DIST_ADDR`, `NVFI_TASK_TIMEOUT` (seconds;
    /// unset = wait forever), `NVFI_CHECKPOINT` (checkpoint file path),
    /// `NVFI_AUDIT_RATE` (fraction of distributed shards silently
    /// re-checked on a second worker), `NVFI_OUT_DIR`, `NVFI_VERBOSE`.
    #[must_use]
    pub fn from_env() -> Self {
        fn get<T: std::str::FromStr>(key: &str, default: T) -> T {
            std::env::var(key)
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(default)
        }
        let mut cfg = ExperimentConfig {
            verbose: true,
            ..Default::default()
        };
        cfg.model.width = get("NVFI_WIDTH", cfg.model.width);
        cfg.model.epochs = get("NVFI_EPOCHS", cfg.model.epochs);
        cfg.model.train = get("NVFI_TRAIN", cfg.model.train);
        cfg.model.test = get("NVFI_TEST", cfg.model.test);
        cfg.model.noise = get("NVFI_NOISE", cfg.model.noise);
        cfg.model.label_noise = get("NVFI_LABEL_NOISE", cfg.model.label_noise);
        cfg.model.verbose = true;
        cfg.eval_images = get("NVFI_EVAL", cfg.eval_images);
        cfg.trials_per_k = get("NVFI_TRIALS", cfg.trials_per_k);
        cfg.max_k = get("NVFI_MAX_K", cfg.max_k);
        cfg.table1_width = get("NVFI_TABLE1_WIDTH", cfg.table1_width);
        cfg.threads = get("NVFI_THREADS", cfg.threads);
        cfg.pool_devices = get("NVFI_POOL", cfg.pool_devices);
        cfg.shard_images = get("NVFI_SHARD", cfg.shard_images);
        cfg.golden_cache_bytes = get("NVFI_GOLDEN_CACHE", cfg.golden_cache_bytes);
        cfg.workers = get("NVFI_WORKERS", cfg.workers);
        if let Ok(addr) = std::env::var("NVFI_DIST_ADDR") {
            if !addr.is_empty() {
                cfg.dist_addr = Some(addr);
            }
        }
        if let Ok(secs) = std::env::var("NVFI_TASK_TIMEOUT") {
            cfg.task_timeout = secs.parse().ok().filter(|&s| s > 0);
        }
        if let Ok(path) = std::env::var("NVFI_CHECKPOINT") {
            if !path.is_empty() {
                cfg.checkpoint = Some(PathBuf::from(path));
            }
        }
        cfg.audit_rate = get("NVFI_AUDIT_RATE", cfg.audit_rate).clamp(0.0, 1.0);
        cfg.verbose = get("NVFI_VERBOSE", 1u8) != 0;
        if let Ok(dir) = std::env::var("NVFI_OUT_DIR") {
            cfg.out_dir = PathBuf::from(dir);
        }
        cfg
    }

    /// The platform configuration campaign experiments run with (the
    /// default device plus this config's pool scheduling knobs).
    #[must_use]
    pub fn platform(&self) -> PlatformConfig {
        PlatformConfig {
            shard_images: self.shard_images,
            ..Default::default()
        }
    }
}

// ---------------------------------------------------------------------------
// Fig. 2
// ---------------------------------------------------------------------------

/// One Fig. 2 group: a box of accuracy drops for `(k, injected value)`.
#[derive(Clone, Debug, PartialEq)]
pub struct Fig2Group {
    /// Number of simultaneously affected multipliers.
    pub k: usize,
    /// Injected 18-bit constant.
    pub value: i32,
    /// Accuracy drop (percentage points, negative = worse) per trial.
    pub drops: Vec<f64>,
    /// Box-plot summary of `drops`.
    pub stats: FiveNum,
}

/// The Fig. 2 reproduction.
#[derive(Clone, Debug, PartialEq)]
pub struct Fig2Result {
    /// Fault-free int8 accuracy (percent).
    pub baseline_pct: f64,
    /// Groups ordered by `(k, value index)`.
    pub groups: Vec<Fig2Group>,
    /// Total fault injections performed.
    pub total_fis: usize,
    /// Wall-clock seconds.
    pub wall_seconds: f64,
}

impl Fig2Result {
    /// Writes `fig2.csv` and `fig2.json`.
    ///
    /// # Errors
    ///
    /// Returns any I/O error.
    pub fn save(&self, dir: &Path) -> io::Result<()> {
        let mut rows = Vec::new();
        for g in &self.groups {
            for (trial, d) in g.drops.iter().enumerate() {
                rows.push(vec![
                    g.k.to_string(),
                    g.value.to_string(),
                    trial.to_string(),
                    format!("{d:.4}"),
                ]);
            }
        }
        report::write_csv(dir, "fig2.csv", &["k", "value", "trial", "drop_pct"], &rows)?;
        let groups: Vec<serde_json::Value> = self
            .groups
            .iter()
            .map(|g| {
                json!({
                    "k": g.k,
                    "value": g.value,
                    "drops_pct": g.drops,
                    "median": g.stats.median,
                    "q1": g.stats.q1,
                    "q3": g.stats.q3,
                })
            })
            .collect();
        report::write_json(
            dir,
            "fig2.json",
            &json!({
                "baseline_pct": self.baseline_pct,
                "total_fis": self.total_fis,
                "wall_seconds": self.wall_seconds,
                "groups": groups,
            }),
        )?;
        Ok(())
    }
}

impl fmt::Display for Fig2Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let rows: Vec<(String, FiveNum)> = self
            .groups
            .iter()
            .map(|g| (format!("k={} inj={:>2}", g.k, g.value), g.stats))
            .collect();
        let chart = report::box_plot_chart(
            &format!(
                "Fig. 2 — accuracy drop [pp] vs #affected multipliers ({} FIs, baseline {:.1}%)",
                self.total_fis, self.baseline_pct
            ),
            &rows,
            48,
        );
        f.write_str(&chart)
    }
}

/// The signature a campaign executor must satisfy for the `*_with`
/// experiment drivers ([`run_fig2_with`], [`run_fig3_with`]): given the
/// trained model, the platform configuration and one campaign spec, produce
/// the result. The in-process executor is
/// `|m, c, spec, eval| Campaign::new(m, c).run(spec, eval)` (what
/// [`run_fig2`] / [`run_fig3`] use); the `nvfi-bench` experiment binaries
/// substitute the `nvfi-dist` coordinator when
/// [`ExperimentConfig::workers`] / [`ExperimentConfig::dist_addr`] ask for
/// a distributed fleet — this crate itself stays socket-free, and because
/// the distributed path is record-bit-identical, the figures are too.
pub trait CampaignRunner<E> {
    /// Runs one campaign.
    ///
    /// # Errors
    ///
    /// Whatever the executor's error type is (the in-process runner's
    /// [`crate::PlatformError`], `nvfi-dist`'s `DistError`, ...).
    fn run_campaign(
        &mut self,
        model: &QuantModel,
        config: PlatformConfig,
        spec: &CampaignSpec,
        eval: &nvfi_dataset::Dataset,
    ) -> Result<crate::campaign::CampaignResult, E>;
}

impl<E, F> CampaignRunner<E> for F
where
    F: FnMut(
        &QuantModel,
        PlatformConfig,
        &CampaignSpec,
        &nvfi_dataset::Dataset,
    ) -> Result<crate::campaign::CampaignResult, E>,
{
    fn run_campaign(
        &mut self,
        model: &QuantModel,
        config: PlatformConfig,
        spec: &CampaignSpec,
        eval: &nvfi_dataset::Dataset,
    ) -> Result<crate::campaign::CampaignResult, E> {
        self(model, config, spec, eval)
    }
}

/// Reproduces Fig. 2: random multiplier subsets of growing size, injected
/// values 0 / +1 / -1.
///
/// # Errors
///
/// Propagates platform errors.
pub fn run_fig2(cfg: &ExperimentConfig) -> Result<Fig2Result, crate::PlatformError> {
    run_fig2_with(cfg, in_process_campaign)
}

/// The in-process [`CampaignRunner`]: `Campaign::new(model, config).run(..)`.
///
/// # Errors
///
/// Propagates platform errors.
pub fn in_process_campaign(
    model: &QuantModel,
    config: PlatformConfig,
    spec: &CampaignSpec,
    eval: &nvfi_dataset::Dataset,
) -> Result<crate::campaign::CampaignResult, crate::PlatformError> {
    Campaign::new(model, config).run(spec, eval)
}

/// Runner-generic [`run_fig2`]: the campaign executor is injected (see
/// [`CampaignRunner`]), so a driver can schedule every campaign through the
/// `nvfi-dist` coordinator — honouring `NVFI_WORKERS` / `NVFI_DIST_ADDR` —
/// without this crate depending on sockets.
///
/// # Errors
///
/// Propagates the executor's errors.
pub fn run_fig2_with<E>(
    cfg: &ExperimentConfig,
    mut runner: impl CampaignRunner<E>,
) -> Result<Fig2Result, E> {
    let (qmodel, data, base_acc) = get_or_train_quantized(&cfg.model);
    let start = Instant::now();
    let mut groups = Vec::new();
    let mut total = 0usize;
    for k in 1..=cfg.max_k {
        for (vi, &value) in INJECTED_VALUES.iter().enumerate() {
            let spec = CampaignSpec {
                selection: TargetSelection::RandomSubsets {
                    k,
                    trials: cfg.trials_per_k,
                    seed: cfg.model.seed ^ ((k as u64) << 16) ^ (vi as u64),
                },
                kinds: vec![FaultKind::Constant(value)],
                eval_images: cfg.eval_images,
                threads: cfg.threads,
                pool_devices: cfg.pool_devices,
                workers: cfg.workers,
                golden_cache_bytes: cfg.golden_cache_bytes,
                checkpoint_path: cfg.checkpoint.clone(),
                verbose: cfg.verbose,
                ..Default::default()
            };
            let result = runner.run_campaign(&qmodel, cfg.platform(), &spec, &data.test)?;
            let drops = result.drops_pct();
            total += drops.len();
            if cfg.verbose {
                progress::note(format!(
                    "fig2: k={k} inj={value}: median drop {:.1} pp",
                    FiveNum::from_sample(&drops).median
                ));
            }
            groups.push(Fig2Group {
                k,
                value,
                stats: FiveNum::from_sample(&drops),
                drops,
            });
        }
    }
    Ok(Fig2Result {
        baseline_pct: base_acc * 100.0,
        groups,
        total_fis: total,
        wall_seconds: start.elapsed().as_secs_f64(),
    })
}

// ---------------------------------------------------------------------------
// Fig. 3
// ---------------------------------------------------------------------------

/// The Fig. 3 reproduction: one heat map per injected value.
#[derive(Clone, Debug, PartialEq)]
pub struct Fig3Result {
    /// Fault-free int8 accuracy (percent).
    pub baseline_pct: f64,
    /// `(injected value, MAC x multiplier drop map)`.
    pub maps: Vec<(i32, HeatMap)>,
    /// Wall-clock seconds.
    pub wall_seconds: f64,
}

impl Fig3Result {
    /// The most sensitive `(MAC, multiplier)` cell per injected value
    /// (1-based, as the paper labels them).
    #[must_use]
    pub fn worst_cells(&self) -> Vec<(i32, usize, usize)> {
        self.maps
            .iter()
            .map(|(v, m)| {
                let (r, c) = m.argmin();
                (*v, r + 1, c + 1)
            })
            .collect()
    }

    /// Writes `fig3.csv` and `fig3.json`.
    ///
    /// # Errors
    ///
    /// Returns any I/O error.
    pub fn save(&self, dir: &Path) -> io::Result<()> {
        let mut rows = Vec::new();
        for (v, map) in &self.maps {
            for mac in 0..map.rows() {
                for mult in 0..map.cols() {
                    rows.push(vec![
                        v.to_string(),
                        (mac + 1).to_string(),
                        (mult + 1).to_string(),
                        format!("{:.4}", map.at(mac, mult)),
                    ]);
                }
            }
        }
        report::write_csv(
            dir,
            "fig3.csv",
            &["value", "mac", "mult", "drop_pct"],
            &rows,
        )?;
        let maps: Vec<serde_json::Value> = self
            .maps
            .iter()
            .map(|(v, m)| json!({"value": v, "cells_row_major": m.cells()}))
            .collect();
        report::write_json(
            dir,
            "fig3.json",
            &json!({
                "baseline_pct": self.baseline_pct,
                "wall_seconds": self.wall_seconds,
                "worst_cells_one_based": self.worst_cells()
                    .iter().map(|(v, r, c)| json!([v, r, c])).collect::<Vec<_>>(),
                "maps": maps,
            }),
        )?;
        Ok(())
    }
}

impl fmt::Display for Fig3Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (mut lo, mut hi) = (0f64, 0f64);
        for (_, m) in &self.maps {
            let (a, b) = m.range();
            lo = lo.min(a);
            hi = hi.max(b);
        }
        for (v, m) in &self.maps {
            f.write_str(&report::heat_map_chart(
                &format!("Fig. 3 — accuracy drop heat map, injected {v}"),
                m,
                lo,
                hi,
            ))?;
        }
        for (v, mac, mult) in self.worst_cells() {
            writeln!(
                f,
                "  worst cell for injected {v}: MAC {mac}, multiplier {mult}"
            )?;
        }
        Ok(())
    }
}

/// Reproduces Fig. 3: every multiplier faulted alone, per injected value.
///
/// # Errors
///
/// Propagates platform errors.
pub fn run_fig3(cfg: &ExperimentConfig) -> Result<Fig3Result, crate::PlatformError> {
    run_fig3_with(cfg, in_process_campaign)
}

/// Runner-generic [`run_fig3`] (see [`CampaignRunner`] and
/// [`run_fig2_with`]).
///
/// # Errors
///
/// Propagates the executor's errors.
pub fn run_fig3_with<E>(
    cfg: &ExperimentConfig,
    mut runner: impl CampaignRunner<E>,
) -> Result<Fig3Result, E> {
    let (qmodel, data, base_acc) = get_or_train_quantized(&cfg.model);
    let start = Instant::now();
    let mut maps = Vec::new();
    for &value in &INJECTED_VALUES {
        let spec = CampaignSpec {
            selection: TargetSelection::ExhaustiveSingle,
            kinds: vec![FaultKind::Constant(value)],
            eval_images: cfg.eval_images,
            threads: cfg.threads,
            pool_devices: cfg.pool_devices,
            workers: cfg.workers,
            golden_cache_bytes: cfg.golden_cache_bytes,
            checkpoint_path: cfg.checkpoint.clone(),
            verbose: cfg.verbose,
            ..Default::default()
        };
        let result = runner.run_campaign(&qmodel, cfg.platform(), &spec, &data.test)?;
        let mut map = HeatMap::new(MAC_UNITS, MULTS_PER_MAC);
        for rec in &result.records {
            let m = rec.targets[0];
            map.set(m.mac as usize, m.mult as usize, rec.drop_pct);
        }
        if cfg.verbose {
            let (r, c) = map.argmin();
            progress::note(format!(
                "fig3: inj={value}: worst cell MAC {} mult {}",
                r + 1,
                c + 1
            ));
        }
        maps.push((value, map));
    }
    Ok(Fig3Result {
        baseline_pct: base_acc * 100.0,
        maps,
        wall_seconds: start.elapsed().as_secs_f64(),
    })
}

// ---------------------------------------------------------------------------
// Table I
// ---------------------------------------------------------------------------

/// One latency row of Table I.
#[derive(Clone, Debug, PartialEq)]
pub struct LatencyRow {
    /// Device description.
    pub device: String,
    /// Threads (0 = not applicable).
    pub threads: usize,
    /// Clock description.
    pub clock: String,
    /// Measured or modelled single-inference latency in ms.
    pub ms: f64,
    /// The paper's corresponding number, when one exists.
    pub paper_ms: Option<f64>,
}

/// The Table I reproduction: latency rows + synthesis rows.
#[derive(Clone, Debug, PartialEq)]
pub struct Table1Result {
    /// Latency rows (host CPU measured, accelerator modelled).
    pub latency: Vec<LatencyRow>,
    /// Synthesis rows from the structural cost model.
    pub synth: Vec<SynthRow>,
    /// ResNet width used for the rows.
    pub width: usize,
    /// MACs per inference of that network.
    pub macs: u64,
}

impl Table1Result {
    /// Writes `table1.csv` and `table1.json`.
    ///
    /// # Errors
    ///
    /// Returns any I/O error.
    pub fn save(&self, dir: &Path) -> io::Result<()> {
        let mut rows: Vec<Vec<String>> = self
            .latency
            .iter()
            .map(|r| {
                vec![
                    r.device.clone(),
                    r.threads.to_string(),
                    r.clock.clone(),
                    format!("{:.3}", r.ms),
                    r.paper_ms.map_or(String::new(), |v| v.to_string()),
                    String::new(),
                    String::new(),
                ]
            })
            .collect();
        for s in &self.synth {
            rows.push(vec![
                s.label.to_string(),
                String::new(),
                "187.5 MHz".into(),
                String::new(),
                String::new(),
                s.luts.to_string(),
                s.ffs.to_string(),
            ]);
        }
        report::write_csv(
            dir,
            "table1.csv",
            &[
                "device",
                "threads",
                "clock",
                "inference_ms",
                "paper_ms",
                "luts",
                "ffs",
            ],
            &rows,
        )?;
        report::write_json(
            dir,
            "table1.json",
            &json!({
                "width": self.width,
                "macs_per_inference": self.macs,
                "latency": self.latency.iter().map(|r| json!({
                    "device": r.device, "threads": r.threads, "clock": r.clock,
                    "ms": r.ms, "paper_ms": r.paper_ms,
                })).collect::<Vec<_>>(),
                "synthesis": self.synth.iter().map(|s| json!({
                    "label": s.label, "luts": s.luts, "ffs": s.ffs,
                    "paper_luts": s.paper_luts, "paper_ffs": s.paper_ffs,
                })).collect::<Vec<_>>(),
            }),
        )?;
        Ok(())
    }
}

impl fmt::Display for Table1Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Table I — ResNet-18 (width {}, {:.1} MMAC) inference and synthesis",
            self.width,
            self.macs as f64 / 1e6
        )?;
        writeln!(
            f,
            "{:<44} {:>8} {:>12} {:>10}",
            "Device", "Threads", "Clock", "ms"
        )?;
        for r in &self.latency {
            writeln!(
                f,
                "{:<44} {:>8} {:>12} {:>10.3}{}",
                r.device,
                if r.threads == 0 {
                    "-".to_string()
                } else {
                    r.threads.to_string()
                },
                r.clock,
                r.ms,
                r.paper_ms
                    .map_or(String::new(), |v| format!("   (paper {v} ms)")),
            )?;
        }
        writeln!(f, "{:<32} {:>8} {:>8}", "Synthesis", "LUT", "FF")?;
        for s in &self.synth {
            writeln!(f, "{s}")?;
        }
        Ok(())
    }
}

/// Reproduces Table I. CPU rows are measured on this host with the int8
/// reference executor; accelerator rows come from the 187.5 MHz cycle
/// model; synthesis rows from the structural cost model.
///
/// # Errors
///
/// Propagates platform errors.
pub fn run_table1(cfg: &ExperimentConfig) -> Result<Table1Result, crate::PlatformError> {
    // Latency is weight-independent: an untrained net of the right shape
    // suffices (calibrated on synthetic images so scales are sane).
    let qmodel = untrained_quant_model(cfg.table1_width, cfg.model.seed);
    let data = nvfi_dataset::SynthCifar::new(nvfi_dataset::SynthCifarConfig {
        train: 8,
        test: 8,
        ..Default::default()
    })
    .generate();

    let time_cpu = |threads: usize| -> f64 {
        let input = qmodel.quantize_input(&data.test.images.slice_image(0));
        // Warm-up, then measure.
        let _ = nvfi_quant::exec::forward(&qmodel, &input, threads);
        let reps = 5;
        let t0 = Instant::now();
        for _ in 0..reps {
            let _ = nvfi_quant::exec::forward(&qmodel, &input, threads);
        }
        t0.elapsed().as_secs_f64() * 1e3 / f64::from(reps)
    };

    let platform = EmulationPlatform::assemble(&qmodel, PlatformConfig::default())?;
    let accel_ms = platform.modeled_latency_ms();

    let host = format!("Host CPU int8 reference ({} hw threads)", num_threads());
    let latency = vec![
        LatencyRow {
            device: format!("{host} [ARM Cortex-A53 row]"),
            threads: 1,
            clock: "host".into(),
            ms: time_cpu(1),
            paper_ms: Some(22.68),
        },
        LatencyRow {
            device: format!("{host} [ARM Cortex-A53 row]"),
            threads: 4,
            clock: "host".into(),
            ms: time_cpu(4),
            paper_ms: Some(14.12),
        },
        LatencyRow {
            device: "NVDLA model (cycle model)".into(),
            threads: 0,
            clock: "187.5 MHz".into(),
            ms: accel_ms,
            paper_ms: Some(4.59),
        },
        LatencyRow {
            device: "NVDLA model + FI (any variant)".into(),
            threads: 0,
            clock: "187.5 MHz".into(),
            ms: accel_ms, // FI muxes are combinational: same latency
            paper_ms: Some(4.59),
        },
    ];

    Ok(Table1Result {
        latency,
        synth: table1_synthesis_rows(),
        width: cfg.table1_width,
        macs: qmodel.macs_per_inference(),
    })
}

// ---------------------------------------------------------------------------
// Speedup (Sec. IV)
// ---------------------------------------------------------------------------

/// The Sec. IV throughput comparison.
#[derive(Clone, Debug, PartialEq)]
pub struct SpeedupResult {
    /// Modelled FPGA throughput for the campaign network (inferences/s).
    pub fpga_modeled_inf_per_s: f64,
    /// The paper's FPGA figure (217 inf/s, full ResNet-18).
    pub paper_fpga_inf_per_s: f64,
    /// Measured cycle-driven systolic simulator rate on the two largest
    /// conv layers (simulations/s).
    pub systolic_sims_per_s: f64,
    /// The paper's software-engine figure (5.8 sim/s, two conv layers).
    pub paper_sw_sims_per_s: f64,
    /// Measured graph-level software FI rate (full-network inferences/s).
    pub graph_sw_inf_per_s: f64,
    /// Measured throughput of this emulator running on the host
    /// (inferences/s) — how fast the *simulation* itself is.
    pub emulator_host_inf_per_s: f64,
}

impl SpeedupResult {
    /// FPGA-vs-cycle-driven-software speedup factor (the paper's
    /// order-of-magnitude claim).
    #[must_use]
    pub fn speedup(&self) -> f64 {
        self.fpga_modeled_inf_per_s / self.systolic_sims_per_s.max(1e-12)
    }

    /// Writes `speedup.json`.
    ///
    /// # Errors
    ///
    /// Returns any I/O error.
    pub fn save(&self, dir: &Path) -> io::Result<()> {
        report::write_json(
            dir,
            "speedup.json",
            &json!({
                "fpga_modeled_inf_per_s": self.fpga_modeled_inf_per_s,
                "paper_fpga_inf_per_s": self.paper_fpga_inf_per_s,
                "systolic_sims_per_s": self.systolic_sims_per_s,
                "paper_sw_sims_per_s": self.paper_sw_sims_per_s,
                "graph_sw_inf_per_s": self.graph_sw_inf_per_s,
                "emulator_host_inf_per_s": self.emulator_host_inf_per_s,
                "speedup_vs_cycle_sim": self.speedup(),
            }),
        )?;
        Ok(())
    }
}

impl fmt::Display for SpeedupResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Speedup (Sec. IV) — FT-analysis throughput")?;
        writeln!(
            f,
            "  emulated FPGA (cycle model)        {:>10.1} inf/s   (paper: {} inf/s)",
            self.fpga_modeled_inf_per_s, self.paper_fpga_inf_per_s
        )?;
        writeln!(
            f,
            "  cycle-driven systolic simulator    {:>10.2} sim/s   (paper: {} sim/s, 2 layers)",
            self.systolic_sims_per_s, self.paper_sw_sims_per_s
        )?;
        writeln!(
            f,
            "  graph-level software FI            {:>10.1} inf/s",
            self.graph_sw_inf_per_s
        )?;
        writeln!(
            f,
            "  this emulator on the host          {:>10.1} inf/s",
            self.emulator_host_inf_per_s
        )?;
        writeln!(f, "  FPGA vs cycle-driven software: {:.0}x", self.speedup())
    }
}

/// Reproduces the Sec. IV throughput comparison.
///
/// # Errors
///
/// Propagates platform errors.
pub fn run_speedup(cfg: &ExperimentConfig) -> Result<SpeedupResult, crate::PlatformError> {
    let (qmodel, data, _) = get_or_train_quantized(&cfg.model);
    let mut platform = EmulationPlatform::assemble(&qmodel, PlatformConfig::default())?;
    let fpga = platform.modeled_inferences_per_second();

    let image = qmodel.quantize_input(&data.test.images.slice_image(0));

    // Cycle-driven systolic simulation of the first two conv layers.
    let reps = 3;
    let t0 = Instant::now();
    for _ in 0..reps {
        let _ = nvfi_systolic::sim::simulate_first_convs(&qmodel, &image, 2, 8, &[]);
    }
    let systolic = f64::from(reps) / t0.elapsed().as_secs_f64();

    // Graph-level software FI (full network).
    let faults = [nvfi_quant::swfi::GraphFault::StuckZeroChannel { op: 0, channel: 0 }];
    let t0 = Instant::now();
    for _ in 0..reps {
        let _ = nvfi_quant::exec::forward_with_graph_faults(&qmodel, &image, 1, &faults);
    }
    let graph_sw = f64::from(reps) / t0.elapsed().as_secs_f64();

    // This emulator's own host-side throughput.
    let img_f32 = data.test.images.slice_image(0);
    let t0 = Instant::now();
    for _ in 0..reps {
        let _ = platform.run(&img_f32)?;
    }
    let emulator = f64::from(reps) / t0.elapsed().as_secs_f64();

    Ok(SpeedupResult {
        fpga_modeled_inf_per_s: fpga,
        paper_fpga_inf_per_s: 217.0,
        systolic_sims_per_s: systolic,
        paper_sw_sims_per_s: 5.8,
        graph_sw_inf_per_s: graph_sw,
        emulator_host_inf_per_s: emulator,
    })
}

// ---------------------------------------------------------------------------

/// Builds an untrained (random-weight) quantized ResNet-18 of the given
/// width — sufficient for latency work, which is weight-independent.
#[must_use]
pub fn untrained_quant_model(width: usize, seed: u64) -> QuantModel {
    let net = nvfi_nn::resnet::ResNet::resnet18(width, 10, seed);
    let deploy = nvfi_nn::fold::fold_resnet(&net, 32);
    let calib = nvfi_dataset::SynthCifar::new(nvfi_dataset::SynthCifarConfig {
        train: 8,
        test: 0,
        ..Default::default()
    })
    .generate();
    quantize(&deploy, &calib.train.images, &QuantConfig::default())
        .expect("untrained model quantizes")
}

fn num_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Sanity helper shared by tests: a single-multiplier fault config.
#[must_use]
pub fn single_fault(mac: u8, mult: u8, value: i32) -> nvfi_accel::FaultConfig {
    nvfi_accel::FaultConfig::new(vec![MultId::new(mac, mult)], FaultKind::Constant(value))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig2_quick_has_expected_groups() {
        let cfg = ExperimentConfig::quick();
        let r = run_fig2(&cfg).unwrap();
        assert_eq!(r.groups.len(), cfg.max_k * INJECTED_VALUES.len());
        assert_eq!(r.total_fis, cfg.max_k * 3 * cfg.trials_per_k);
        assert!(r.baseline_pct >= 0.0);
        r.save(&cfg.out_dir).unwrap();
        assert!(cfg.out_dir.join("fig2.csv").exists());
        // Display renders without panicking and mentions every k.
        let text = r.to_string();
        assert!(text.contains("k=1"));
    }

    #[test]
    fn table1_quick_rows() {
        let cfg = ExperimentConfig::quick();
        let r = run_table1(&cfg).unwrap();
        assert_eq!(r.latency.len(), 4);
        assert!(r.latency[0].ms > 0.0);
        // FI adds no latency.
        assert_eq!(r.latency[2].ms, r.latency[3].ms);
        assert_eq!(r.synth.len(), 3);
        r.save(&cfg.out_dir).unwrap();
        assert!(r.to_string().contains("Table I"));
    }

    #[test]
    fn speedup_quick_is_positive_and_ordered() {
        let cfg = ExperimentConfig::quick();
        let r = run_speedup(&cfg).unwrap();
        assert!(r.fpga_modeled_inf_per_s > 0.0);
        assert!(r.systolic_sims_per_s > 0.0);
        assert!(
            r.speedup() > 1.0,
            "modelled FPGA ({:.1}/s) must beat cycle-driven sim ({:.2}/s)",
            r.fpga_modeled_inf_per_s,
            r.systolic_sims_per_s
        );
        r.save(&cfg.out_dir).unwrap();
        assert!(r.to_string().contains("Speedup"));
    }

    #[test]
    fn untrained_model_has_right_shape() {
        let q = untrained_quant_model(8, 1);
        assert_eq!(q.input_shape.c, 3);
        assert!(q.macs_per_inference() > 1_000_000);
    }
}
