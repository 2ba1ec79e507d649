//! Fault-injection campaigns.
//!
//! A campaign evaluates classification accuracy on a fixed image set under
//! a sequence of fault configurations. The two campaign shapes of the paper:
//!
//! * **random subsets** (Fig. 2): for each trial, `k` distinct multipliers
//!   are drawn uniformly and all forced to the same value;
//! * **exhaustive single** (Fig. 3): every one of the 64 multipliers is
//!   faulted alone, once per injected value.
//!
//! Campaigns use **two-level scheduling** over a fleet of device instances
//! (mirroring how independent FPGA boards would split a campaign):
//!
//! 1. an outer lock-free cursor hands out `(targets, kind)` work items to
//!    worker groups, exactly one fault configuration in flight per group;
//! 2. each group owns a [`DevicePool`] and shards the evaluation batch
//!    across its members, so when the work list is narrower than the thread
//!    budget (one configuration, many images) the spare threads still pull
//!    their weight.
//!
//! With `threads` ≤ work items every pool has one device and the scheduler
//! degenerates to the classic one-device-per-worker loop; with a single
//! work item it degenerates to pure batch sharding. Either way, records are
//! bit-identical to the single-threaded, single-device run.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use nvfi_accel::{FaultConfig, FaultKind, IdleLanePolicy};
use nvfi_compiler::regmap::{MultId, TOTAL_MULTS};
use nvfi_compiler::verify::{fault_reachability, verify_plan};
use nvfi_compiler::ExecutionPlan;
use nvfi_dataset::Dataset;
use nvfi_obs::{progress, trace};
use nvfi_quant::QuantModel;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::platform::{EmulationPlatform, PlatformConfig, PlatformError};
use crate::pool::{DevicePool, GoldenActivationCache, QuantizedEvalSet};

pub use nvfi_compiler::verify::VerifyMode;

/// Which multipliers each fault configuration targets.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TargetSelection {
    /// `trials` random draws of `k` distinct multipliers (seeded).
    RandomSubsets {
        /// Number of simultaneously faulted multipliers.
        k: usize,
        /// Number of independent draws.
        trials: usize,
        /// RNG seed.
        seed: u64,
    },
    /// Each of the 64 multipliers alone.
    ExhaustiveSingle,
    /// Explicit target sets.
    Fixed(Vec<Vec<MultId>>),
}

/// Default golden-prefix cache budget
/// ([`CampaignSpec::golden_cache_bytes`]): large enough to checkpoint any
/// fixture in this repository whole, small enough that an oversized
/// evaluation set falls back to recomputing prefixes instead of exhausting
/// host memory.
pub const GOLDEN_CACHE_DEFAULT_BYTES: usize = 256 << 20;

/// A campaign specification.
#[derive(Clone, Debug, PartialEq)]
pub struct CampaignSpec {
    /// Target selection strategy.
    pub selection: TargetSelection,
    /// Fault kinds to inject (each target set is run once per kind).
    pub kinds: Vec<FaultKind>,
    /// Number of evaluation images (clamped to the dataset size).
    pub eval_images: usize,
    /// Total device/thread budget of the campaign. Devices are grouped into
    /// per-work-item pools by the two-level scheduler (see [`Campaign::run`]).
    pub threads: usize,
    /// Requested devices per fault configuration ([`DevicePool`] size).
    /// `0` (the default) auto-sizes: `threads` devices are spread evenly
    /// over `min(threads, work items)` pools, so a narrow work list gets
    /// wide pools and a wide work list gets one device per worker. A
    /// non-zero request is clamped to the `threads` budget, which is always
    /// spread in full over the resulting groups ([`Campaign::pool_layout`]).
    pub pool_devices: usize,
    /// Optional transient fault window (in per-inference MAC cycles),
    /// applied alongside every injected fault configuration. Only the plan
    /// ops whose MAC-cycle span intersects the window pay for lane-delta
    /// corrections (op-scoped execution); the fault-free prefix is restored
    /// from a
    /// campaign-lifetime [`GoldenActivationCache`] (see
    /// [`CampaignSpec::golden_cache_bytes`]). The baseline pass stays
    /// fault- and window-free. Validated against the compiled plan up
    /// front: a window that cannot overlap any retired MAC cycle is
    /// rejected instead of silently running a fault-free campaign.
    pub fault_window: Option<Range<u64>>,
    /// Worker **processes** of a distributed campaign (`NVFI_WORKERS` in
    /// the experiment drivers). `0` (the default) runs in-process. This
    /// knob is consumed by the `nvfi-dist` coordinator
    /// (`nvfi_dist::run_campaign`), which spawns/attaches that many worker
    /// processes, ships them the compiled plan + DRAM weight image once,
    /// and schedules work items (and, when the work list is narrower than
    /// the worker fleet, image shards of each item) across them —
    /// bit-identical to the in-process path. [`Campaign::run`] itself
    /// always executes in-process, whatever this field says: it is the
    /// fallback the coordinator delegates to when `workers == 0`.
    pub workers: usize,
    /// Byte budget of the golden-prefix activation cache used by windowed
    /// campaigns (`NVFI_GOLDEN_CACHE` in the experiment drivers). Defaults
    /// to [`GOLDEN_CACHE_DEFAULT_BYTES`] (256 MiB — far more than any
    /// fixture here needs, but bounded, so a huge evaluation set degrades
    /// to recomputing prefixes instead of exhausting memory). A smaller
    /// budget checkpoints only the leading `budget / stride` images and
    /// the rest recompute their prefix (bit-identical, slower); `0`
    /// disables the cache entirely; `usize::MAX` removes the bound.
    pub golden_cache_bytes: usize,
    /// Checkpoint file of a **distributed** campaign (`NVFI_CHECKPOINT` in
    /// the experiment drivers). When set, the `nvfi-dist` coordinator
    /// persists completed shards there as they land and a restarted
    /// coordinator resumes the campaign, redoing only unfinished shards —
    /// with records bit-identical to an uninterrupted run. The file is
    /// removed once the campaign completes. Ignored by the in-process
    /// [`Campaign::run`], which has no coordinator process to lose.
    pub checkpoint_path: Option<std::path::PathBuf>,
    /// Static verification at plan load ([`VerifyMode::Warn`] by default):
    /// the compiled plan is checked against the `nvfi_compiler::verify`
    /// invariant catalogue (strict mode turns diagnostics into
    /// [`PlatformError::Verify`], warn mode prints them), and every work
    /// item is classified by the fault-reachability analysis — provably
    /// masked items skip emulation entirely and their records are
    /// synthesized from the fault-free predictions (bit-identical by
    /// construction; counted in [`CampaignResult::masked_static`]).
    /// [`VerifyMode::Off`] disables both. Independent of all this, fault
    /// kinds that are provable no-ops (`FaultKind::validate`) are always
    /// rejected up front.
    pub verify: VerifyMode,
    /// Progress lines on stderr.
    pub verbose: bool,
}

impl Default for CampaignSpec {
    /// An exhaustive single-multiplier sweep, stuck-at-zero, single thread —
    /// override what the experiment needs via struct update syntax.
    fn default() -> Self {
        CampaignSpec {
            selection: TargetSelection::ExhaustiveSingle,
            kinds: vec![FaultKind::StuckAtZero],
            eval_images: 100,
            threads: 1,
            pool_devices: 0,
            workers: 0,
            fault_window: None,
            golden_cache_bytes: GOLDEN_CACHE_DEFAULT_BYTES,
            checkpoint_path: None,
            verify: VerifyMode::default(),
            verbose: false,
        }
    }
}

/// Runs the plan verifier according to `mode`: [`VerifyMode::Off`] skips,
/// [`VerifyMode::Warn`] prints every diagnostic to stderr,
/// [`VerifyMode::Strict`] turns any diagnostic into
/// [`PlatformError::Verify`]. Shared by [`Campaign::run`] and the
/// `nvfi-dist` coordinator so both entry points enforce the same policy.
///
/// # Errors
///
/// Returns [`PlatformError::Verify`] in strict mode when the plan has any
/// diagnostic.
pub fn run_plan_verifier(plan: &ExecutionPlan, mode: VerifyMode) -> Result<(), PlatformError> {
    if mode == VerifyMode::Off {
        return Ok(());
    }
    let diags = verify_plan(plan);
    if diags.is_empty() {
        return Ok(());
    }
    if mode == VerifyMode::Strict {
        return Err(PlatformError::Verify(format!(
            "plan fails verification with {} diagnostic(s): {}",
            diags.len(),
            diags
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join("; ")
        )));
    }
    for d in &diags {
        progress::note(format!("nvfi-verify warning: {d}"));
    }
    Ok(())
}

/// Rejects campaign fault kinds that are provable no-ops (see
/// [`FaultKind::validate`]) — shared by [`Campaign::run`] and the
/// `nvfi-dist` coordinator.
///
/// # Errors
///
/// Returns [`PlatformError::Verify`] naming the offending kind.
pub fn validate_fault_kinds(kinds: &[FaultKind]) -> Result<(), PlatformError> {
    for k in kinds {
        k.validate().map_err(PlatformError::Verify)?;
    }
    Ok(())
}

/// Whether `(targets, kind)` under `window` is provably masked on `plan`:
/// a thin adapter from campaign-level types onto
/// [`nvfi_compiler::verify::fault_reachability`]. `gated` is the platform's
/// idle-lane policy. `ProvablyMasked` is sound — the exact engine cannot
/// produce anything but the fault-free predictions — which is what lets
/// campaigns skip these items bit-identically.
#[must_use]
pub fn fault_provably_masked(
    plan: &ExecutionPlan,
    targets: &[MultId],
    kind: FaultKind,
    gated: bool,
    window: Option<&Range<u64>>,
) -> bool {
    let lanes: Vec<usize> = targets.iter().map(|t| t.lane()).collect();
    let (fsel, fdata, xor) = kind.registers();
    fault_reachability(plan, &lanes, fsel, fdata, xor, gated, window).is_provably_masked()
}

/// Per-image outcome taxonomy of one fault injection, following the usual
/// FT-analysis classification (FIdelity/SAFFIRA style): a fault can be
/// architecturally **masked** (prediction unchanged vs. the fault-free run)
/// or cause **silent data corruption** (prediction flipped). Accuracy alone
/// hides masking; this exposes it.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct OutcomeCounts {
    /// Images whose prediction equals the fault-free prediction.
    pub masked: usize,
    /// Images whose prediction changed (silent data corruption).
    pub sdc: usize,
}

impl OutcomeCounts {
    /// Fraction of evaluated images with silent data corruption.
    #[must_use]
    pub fn sdc_rate(&self) -> f64 {
        let n = self.masked + self.sdc;
        if n == 0 {
            return 0.0;
        }
        self.sdc as f64 / n as f64
    }
}

/// One fault-injection measurement.
#[derive(Clone, Debug, PartialEq)]
pub struct FiRecord {
    /// Which multipliers were faulted.
    pub targets: Vec<MultId>,
    /// The injected fault.
    pub kind: FaultKind,
    /// Classification accuracy under the fault.
    pub accuracy: f64,
    /// Accuracy change vs. baseline in percentage points (negative = drop).
    pub drop_pct: f64,
    /// Masked / silent-data-corruption breakdown vs. the fault-free
    /// predictions.
    pub outcomes: OutcomeCounts,
}

/// Fraction of `preds` equal to `labels` — the one accuracy fold of the
/// campaign stack, shared by [`Campaign::run`] (baseline and, via
/// [`FiRecord::from_preds`], every record) and the `nvfi-dist` coordinator.
///
/// # Panics
///
/// Panics if the lengths differ.
#[must_use]
pub fn prediction_accuracy(preds: &[u8], labels: &[u8]) -> f64 {
    assert_eq!(preds.len(), labels.len(), "one prediction per label");
    if preds.is_empty() {
        return 0.0;
    }
    preds.iter().zip(labels).filter(|(p, y)| p == y).count() as f64 / preds.len() as f64
}

impl FiRecord {
    /// Folds one fault configuration's predictions into a record: accuracy
    /// against `labels`, masked/SDC classification against the fault-free
    /// `clean_preds`, drop against `baseline_accuracy` (a fraction, not a
    /// percentage). This is **the** record fold — the in-process
    /// [`Campaign::run`] and the `nvfi-dist` coordinator both call it, so
    /// their advertised bit-identity is structural rather than two copies
    /// of the same arithmetic.
    ///
    /// # Panics
    ///
    /// Panics if `preds`, `clean_preds` and `labels` do not all have the
    /// same length.
    #[must_use]
    pub fn from_preds(
        targets: Vec<MultId>,
        kind: FaultKind,
        preds: &[u8],
        clean_preds: &[u8],
        labels: &[u8],
        baseline_accuracy: f64,
    ) -> Self {
        assert_eq!(preds.len(), clean_preds.len(), "one clean prediction each");
        let accuracy = prediction_accuracy(preds, labels);
        let mut outcomes = OutcomeCounts::default();
        for (p, c) in preds.iter().zip(clean_preds) {
            if p == c {
                outcomes.masked += 1;
            } else {
                outcomes.sdc += 1;
            }
        }
        FiRecord {
            targets,
            kind,
            accuracy,
            drop_pct: (accuracy - baseline_accuracy) * 100.0,
            outcomes,
        }
    }
}

/// A completed campaign.
#[derive(Clone, Debug, PartialEq)]
pub struct CampaignResult {
    /// Fault-free accuracy on the evaluation set.
    pub baseline_accuracy: f64,
    /// One record per (target set, kind), in deterministic order.
    pub records: Vec<FiRecord>,
    /// Work items the fault-reachability analysis proved masked and skipped
    /// without emulation (their records are synthesized from the fault-free
    /// predictions and count no inferences). `0` when verification is off.
    pub masked_static: usize,
    /// Total emulated inferences.
    pub total_inferences: u64,
    /// Wall-clock seconds the campaign took.
    pub wall_seconds: f64,
}

impl CampaignResult {
    /// All accuracy drops in percentage points.
    #[must_use]
    pub fn drops_pct(&self) -> Vec<f64> {
        self.records.iter().map(|r| r.drop_pct).collect()
    }

    /// Fault-injection evaluations per second of wall clock (each
    /// evaluation is `eval_images` emulated inferences).
    #[must_use]
    pub fn inferences_per_second(&self) -> f64 {
        if self.wall_seconds == 0.0 {
            return 0.0;
        }
        self.total_inferences as f64 / self.wall_seconds
    }

    /// Mean silent-data-corruption rate across all records.
    #[must_use]
    pub fn mean_sdc_rate(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        self.records
            .iter()
            .map(|r| r.outcomes.sdc_rate())
            .sum::<f64>()
            / self.records.len() as f64
    }
}

/// Campaign runner bound to a model and platform configuration.
#[derive(Clone, Debug)]
pub struct Campaign {
    model: QuantModel,
    config: PlatformConfig,
}

impl Campaign {
    /// Creates a runner (devices are instantiated per worker at run time).
    #[must_use]
    pub fn new(model: &QuantModel, config: PlatformConfig) -> Self {
        Campaign {
            model: model.clone(),
            config,
        }
    }

    /// Expands the target selection into explicit target sets.
    #[must_use]
    pub fn expand_targets(selection: &TargetSelection) -> Vec<Vec<MultId>> {
        match selection {
            TargetSelection::RandomSubsets { k, trials, seed } => {
                let mut rng = StdRng::seed_from_u64(*seed);
                let mut all: Vec<MultId> = MultId::all().collect();
                (0..*trials)
                    .map(|_| {
                        all.shuffle(&mut rng);
                        let mut set = all[..(*k).min(TOTAL_MULTS)].to_vec();
                        set.sort();
                        set
                    })
                    .collect()
            }
            TargetSelection::ExhaustiveSingle => MultId::all().map(|m| vec![m]).collect(),
            TargetSelection::Fixed(sets) => sets.clone(),
        }
    }

    /// Devices per worker group: the full `threads` budget spread over the
    /// outer scheduling width, remainder devices going to the leading
    /// groups. With `pool_devices == 0` the width is
    /// `min(threads, work_items)`; a non-zero `pool_devices` requests that
    /// group size instead, clamped to the thread budget — the layout never
    /// exceeds `threads` devices in total and never leaves budgeted threads
    /// idle (at least one group, never more groups than work items).
    #[must_use]
    pub fn pool_layout(threads: usize, work_items: usize, pool_devices: usize) -> Vec<usize> {
        let threads = threads.max(1);
        let work_items = work_items.max(1);
        let outer = if pool_devices == 0 {
            threads.min(work_items)
        } else {
            let per_group = pool_devices.min(threads);
            (threads / per_group).min(work_items).max(1)
        };
        let base = threads / outer;
        let rem = threads % outer;
        (0..outer).map(|i| base + usize::from(i < rem)).collect()
    }

    /// Runs the campaign on `eval` data.
    ///
    /// The evaluation split is quantized to i8 exactly **once**, up front
    /// (a campaign-lifetime [`QuantizedEvalSet`], mirroring the paper's
    /// quantize-at-bitstream-programming flow); every fault configuration
    /// and every device shard then classifies borrowed sub-views of that
    /// set with zero per-work-item quantization or pixel copies.
    ///
    /// Scheduling is two-level: an outer lock-free cursor over the expanded
    /// `(targets, kind)` work list, and — whenever the work list is narrower
    /// than `spec.threads` — inner sharding of each configuration's
    /// evaluation batch across the worker group's [`DevicePool`]. The
    /// baseline pass runs through the full fleet the same way. Records,
    /// `total_inferences` and record order are bit-identical to the
    /// single-device, single-threaded path for every `threads`,
    /// `pool_devices` and shard granularity.
    ///
    /// # Errors
    ///
    /// Propagates platform/device errors.
    ///
    /// # Panics
    ///
    /// Panics if the spec has no kinds, zero evaluation images, or a target
    /// selection that expands to an empty work list
    /// (`TargetSelection::Fixed(vec![])` or `RandomSubsets { trials: 0, .. }`).
    pub fn run(
        &self,
        spec: &CampaignSpec,
        eval: &Dataset,
    ) -> Result<CampaignResult, PlatformError> {
        assert!(
            !spec.kinds.is_empty(),
            "campaign needs at least one fault kind"
        );
        assert!(spec.eval_images > 0, "campaign needs evaluation images");
        validate_fault_kinds(&spec.kinds)?;
        // The work list: (index, targets, kind).
        let targets = Self::expand_targets(&spec.selection);
        assert!(
            !targets.is_empty(),
            "campaign target selection expands to no target sets \
             (Fixed(vec![]) or RandomSubsets {{ trials: 0, .. }}): the result \
             would have no records, which downstream statistics \
             (FiveNum::from_sample) reject"
        );
        let mut work: Vec<(usize, Vec<MultId>, FaultKind)> = Vec::new();
        for t in &targets {
            for k in &spec.kinds {
                work.push((work.len(), t.clone(), *k));
            }
        }
        let eval = eval.take(spec.eval_images);
        let start = Instant::now();
        let _run_span = trace::span("campaign.run");

        // Quantize the evaluation split to i8 exactly once per campaign —
        // the software equivalent of the paper's flow, which quantizes the
        // evaluation set when the bitstream is programmed. Every work item
        // and every device shard below classifies borrowed sub-views of
        // this set; no per-work-item or per-shard re-quantization (asserted
        // by the `nvfi_quant::batch::quantization_passes` probe in
        // tests/quantize_once.rs).
        let qset = {
            let _s = trace::span("campaign.quantize");
            QuantizedEvalSet::build(&self.model, &eval.images)
        };

        // The device fleet: compile the plan once, clone it per member, one
        // pool of devices per outer worker group. Groups are capped at the
        // number of shards the evaluation batch can actually produce, so a
        // huge thread budget over a tiny eval set does not clone devices
        // that could never receive a shard.
        let max_shards = eval
            .len()
            .div_ceil(DevicePool::granularity(&self.config))
            .max(1);
        let mut layout = Self::pool_layout(spec.threads, work.len(), spec.pool_devices);
        for size in &mut layout {
            *size = (*size).min(max_shards);
        }
        let fleet_size: usize = layout.iter().sum();
        // One prototype device first: it validates the transient window
        // against the compiled plan and the execution mode *before* any
        // work is scheduled (a window that cannot overlap any MAC cycle
        // used to run a silent fault-free campaign at exact-engine cost),
        // and — still fault-free — captures the golden-prefix activation
        // cache windowed work items restore from.
        let mut proto = EmulationPlatform::assemble(&self.model, self.config)?;
        // Static verification at plan load, then fault reachability: work
        // items the analysis proves masked never reach a device — their
        // records are synthesized from the fault-free predictions after the
        // fleet runs, which is bit-identical by the analysis' soundness.
        run_plan_verifier(proto.plan(), spec.verify)?;
        let gated = self.config.accel.idle_lanes == IdleLanePolicy::Gated;
        let masked: Vec<bool> = if spec.verify == VerifyMode::Off {
            vec![false; work.len()]
        } else {
            work.iter()
                .map(|(_, targets, kind)| {
                    fault_provably_masked(
                        proto.plan(),
                        targets,
                        *kind,
                        gated,
                        spec.fault_window.as_ref(),
                    )
                })
                .collect()
        };
        let masked_static = masked.iter().filter(|&&m| m).count();
        if spec.verbose && masked_static > 0 {
            progress::note(format!(
                "  {masked_static}/{} work item(s) provably masked; skipping emulation",
                work.len()
            ));
        }
        let golden = match &spec.fault_window {
            Some(w) => {
                proto.accel().validate_fault_window(w)?;
                let _s = trace::span("campaign.golden_build");
                GoldenActivationCache::build(&mut proto, &qset, w, spec.golden_cache_bytes)?
            }
            None => None,
        };
        let mut fleet = DevicePool::from_device(proto, fleet_size);

        // Baseline through the same pool, sharded across the whole fleet:
        // accuracy plus the fault-free predictions used for masked/SDC
        // classification.
        let clean_preds = {
            let _s = trace::span("campaign.baseline");
            fleet.classify_i8(&qset)?
        };
        let baseline_accuracy = prediction_accuracy(&clean_preds, &eval.labels);

        let pools = fleet.split(&layout);
        // Lock-free work distribution: a fetch-add cursor hands out indices
        // and every worker group accumulates `(idx, record)` pairs
        // privately; the buffers are merged (and re-ordered by index) after
        // join, so the steady-state campaign loop takes no lock at all.
        let next = AtomicUsize::new(0);
        // Completion counter behind the progress lines: one monotonically
        // increasing `done/total` line per finished work item, regardless of
        // which group finished which index.
        let done = AtomicUsize::new(0);

        let mut worker_results: Vec<Vec<(usize, FiRecord)>> = Vec::with_capacity(pools.len());
        std::thread::scope(|scope| -> Result<(), PlatformError> {
            let mut handles = Vec::new();
            for (worker_id, mut pool) in pools.into_iter().enumerate() {
                let eval = &eval;
                let qset = &qset;
                let work = &work;
                let next = &next;
                let done = &done;
                let clean_preds = &clean_preds;
                let golden = &golden;
                let masked = &masked;
                handles.push(scope.spawn(
                    move || -> Result<Vec<(usize, FiRecord)>, PlatformError> {
                        let _ctx = trace::with_ids(trace::Ids {
                            worker: worker_id as u64,
                            ..Default::default()
                        });
                        let mut local: Vec<(usize, FiRecord)> = Vec::new();
                        loop {
                            let idx = next.fetch_add(1, Ordering::Relaxed);
                            if idx >= work.len() {
                                break;
                            }
                            if masked[idx] {
                                // Provably masked: the record is synthesized
                                // from the fault-free predictions after join.
                                continue;
                            }
                            let _item_span = trace::span("campaign.item");
                            let (_, targets, kind) = &work[idx];
                            pool.inject(&FaultConfig::new(targets.clone(), *kind));
                            let preds = if spec.fault_window.is_some() {
                                pool.set_fault_window(spec.fault_window.clone())?;
                                // Windowed items run op-scoped per image,
                                // restoring the golden prefix when cached.
                                pool.classify_i8_golden(qset, golden.as_ref())?
                            } else {
                                pool.classify_i8(qset)?
                            };
                            pool.clear_faults();
                            let record = FiRecord::from_preds(
                                targets.clone(),
                                *kind,
                                &preds,
                                clean_preds,
                                &eval.labels,
                                baseline_accuracy,
                            );
                            if spec.verbose {
                                // `emit_tick` holds the renderer lock across
                                // the increment and the write, so the printed
                                // `done/total` is strictly monotonic; the
                                // `[worker k]` suffix attributes each item to
                                // its worker group, mirroring the per-worker
                                // attribution of distributed (`nvfi-dist`)
                                // progress lines.
                                progress::emit_tick(done, |finished| progress::Event::ItemDone {
                                    done: finished,
                                    total: work.len(),
                                    worker: worker_id,
                                    detail: format!(
                                        "{:?} on {} mult(s) -> {:.1}% (sdc {:.0}%)",
                                        kind,
                                        targets.len(),
                                        record.accuracy * 100.0,
                                        record.outcomes.sdc_rate() * 100.0
                                    ),
                                });
                            }
                            local.push((idx, record));
                        }
                        Ok(local)
                    },
                ));
            }
            for h in handles {
                worker_results.push(h.join().expect("campaign worker panicked")?);
            }
            Ok(())
        })?;

        let mut slots: Vec<Option<FiRecord>> = vec![None; work.len()];
        for (idx, rec) in worker_results.into_iter().flatten() {
            debug_assert!(slots[idx].is_none(), "duplicate record for work item {idx}");
            slots[idx] = Some(rec);
        }
        // Provably-masked items produce exactly the fault-free predictions,
        // so their records fold the clean predictions against themselves —
        // the same record the device would have produced, without running it.
        for (idx, is_masked) in masked.iter().enumerate() {
            if *is_masked {
                let (_, targets, kind) = &work[idx];
                debug_assert!(slots[idx].is_none(), "masked item {idx} was executed");
                slots[idx] = Some(FiRecord::from_preds(
                    targets.clone(),
                    *kind,
                    &clean_preds,
                    &clean_preds,
                    &eval.labels,
                    baseline_accuracy,
                ));
            }
        }
        let records: Vec<FiRecord> = slots
            .into_iter()
            .map(|r| r.expect("record missing"))
            .collect();
        let executed = records.len() - masked_static;
        let total_inferences = (executed as u64 + 1) * eval.len() as u64;
        // Close the campaign span before exporting so it lands in the ring;
        // the export is cumulative, so running under a `CampaignServer`
        // (which exports again at `stop()`) loses nothing.
        drop(_run_span);
        trace::maybe_export();
        Ok(CampaignResult {
            baseline_accuracy,
            records,
            masked_static,
            total_inferences,
            wall_seconds: start.elapsed().as_secs_f64(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvfi_dataset::{SynthCifar, SynthCifarConfig};
    use nvfi_nn::fold::fold_resnet;
    use nvfi_nn::resnet::ResNet;
    use nvfi_quant::{quantize, QuantConfig};

    fn setup() -> (QuantModel, Dataset) {
        let data = SynthCifar::new(SynthCifarConfig {
            train: 16,
            test: 12,
            ..Default::default()
        })
        .generate();
        let net = ResNet::new(4, &[1, 1], 10, 3);
        let deploy = fold_resnet(&net, 32);
        let q = quantize(&deploy, &data.train.images, &QuantConfig::default()).unwrap();
        (q, data.test)
    }

    #[test]
    fn random_subsets_are_deterministic_distinct_and_sized() {
        let sel = TargetSelection::RandomSubsets {
            k: 5,
            trials: 20,
            seed: 9,
        };
        let a = Campaign::expand_targets(&sel);
        let b = Campaign::expand_targets(&sel);
        assert_eq!(a, b);
        for set in &a {
            assert_eq!(set.len(), 5);
            let uniq: std::collections::HashSet<_> = set.iter().collect();
            assert_eq!(uniq.len(), 5, "targets must be distinct");
        }
    }

    #[test]
    fn exhaustive_covers_all_64() {
        let sets = Campaign::expand_targets(&TargetSelection::ExhaustiveSingle);
        assert_eq!(sets.len(), 64);
        let all: std::collections::HashSet<_> = sets.iter().map(|s| s[0]).collect();
        assert_eq!(all.len(), 64);
    }

    #[test]
    fn pool_layout_conserves_the_thread_budget() {
        for threads in 1..=9usize {
            for work_items in 1..=9usize {
                for pool_devices in 0..=12usize {
                    let layout = Campaign::pool_layout(threads, work_items, pool_devices);
                    let total: usize = layout.iter().sum();
                    assert_eq!(
                        total, threads,
                        "layout {layout:?} must use the whole budget \
                         (threads={threads} work={work_items} pool={pool_devices})"
                    );
                    assert!(
                        layout.len() <= work_items,
                        "never more groups than work items"
                    );
                    assert!(layout.iter().all(|&s| s > 0));
                    // Even spread: group sizes differ by at most one.
                    let (lo, hi) = (layout.iter().min(), layout.iter().max());
                    assert!(hi.unwrap() - lo.unwrap() <= 1);
                }
            }
        }
        // Auto layout: wide work list => one device per group.
        assert_eq!(Campaign::pool_layout(3, 10, 0), vec![1, 1, 1]);
        // Narrow work list: the budget folds into wide pools.
        assert_eq!(Campaign::pool_layout(8, 1, 0), vec![8]);
        // Requested group size is honoured when it divides the budget...
        assert_eq!(Campaign::pool_layout(8, 4, 4), vec![4, 4]);
        // ...and clamped to the budget when it exceeds it.
        assert_eq!(Campaign::pool_layout(1, 3, 32), vec![1]);
    }

    #[test]
    fn campaign_runs_and_counts() {
        let (q, eval) = setup();
        let campaign = Campaign::new(&q, PlatformConfig::default());
        let spec = CampaignSpec {
            selection: TargetSelection::Fixed(vec![
                vec![MultId::new(0, 0)],
                vec![MultId::new(1, 1), MultId::new(2, 2)],
            ]),
            kinds: vec![FaultKind::StuckAtZero, FaultKind::Constant(-1)],
            eval_images: 8,
            threads: 1,
            verbose: false,
            ..Default::default()
        };
        let result = campaign.run(&spec, &eval).unwrap();
        assert_eq!(result.records.len(), 4);
        assert_eq!(result.total_inferences, 5 * 8);
        assert!(result.wall_seconds > 0.0);
        assert!((0.0..=1.0).contains(&result.baseline_accuracy));
        for r in &result.records {
            assert!((-100.0..=100.0).contains(&r.drop_pct));
            // Outcome taxonomy covers every evaluated image.
            assert_eq!(r.outcomes.masked + r.outcomes.sdc, 8);
            assert!((0.0..=1.0).contains(&r.outcomes.sdc_rate()));
        }
        assert!((0.0..=1.0).contains(&result.mean_sdc_rate()));
    }

    #[test]
    fn fault_free_record_is_fully_masked() {
        let (q, eval) = setup();
        let campaign = Campaign::new(&q, PlatformConfig::default());
        // Inject value 0 into a multiplier that only ever sees idle lanes?
        // Simpler: target an empty set — selection Fixed with one empty
        // target list means the injector enable is set but no lane selected,
        // so behaviour must be identical to clean.
        let spec = CampaignSpec {
            selection: TargetSelection::Fixed(vec![vec![]]),
            kinds: vec![FaultKind::StuckAtZero],
            eval_images: 6,
            threads: 1,
            verbose: false,
            ..Default::default()
        };
        let result = campaign.run(&spec, &eval).unwrap();
        let r = &result.records[0];
        assert_eq!(r.outcomes.sdc, 0, "no selected lane => fully masked");
        assert_eq!(r.drop_pct, 0.0);
    }

    /// A single-stage width-2 net: channel counts are 3 (stem input), 2
    /// (block convs) and 2 (head input), so multiplier lanes `j >= 3` are
    /// idle in every MAC op — the fixture for provable-masking tests.
    fn narrow_setup() -> (QuantModel, Dataset) {
        let data = SynthCifar::new(SynthCifarConfig {
            train: 16,
            test: 12,
            ..Default::default()
        })
        .generate();
        let net = ResNet::new(2, &[1], 10, 3);
        let deploy = fold_resnet(&net, 32);
        let q = quantize(&deploy, &data.train.images, &QuantConfig::default()).unwrap();
        (q, data.test)
    }

    #[test]
    fn no_op_fault_kinds_are_rejected_up_front() {
        let (q, eval) = setup();
        let campaign = Campaign::new(&q, PlatformConfig::default());
        for kind in [
            FaultKind::StuckBits { fsel: 0, fdata: 5 },
            FaultKind::FlipBits { mask: 0 },
        ] {
            let spec = CampaignSpec {
                kinds: vec![FaultKind::StuckAtZero, kind],
                eval_images: 2,
                ..Default::default()
            };
            match campaign.run(&spec, &eval) {
                Err(PlatformError::Verify(msg)) => {
                    assert!(
                        msg.contains("no-op"),
                        "error must explain the rejection: {msg}"
                    )
                }
                other => panic!("no-op kind {kind:?} must be rejected, got {other:?}"),
            }
        }
    }

    #[test]
    fn provably_masked_items_prune_bit_identically() {
        let (q, eval) = narrow_setup();
        let campaign = Campaign::new(&q, PlatformConfig::default());
        // Lane (0, 5): multiplier 5 is idle in every op of the narrow net
        // and stuck-at-zero cannot perturb a zero-fed idle lane — provably
        // masked. Lane (0, 0) is live — always executed.
        let mk_spec = |verify| CampaignSpec {
            selection: TargetSelection::Fixed(vec![
                vec![MultId::new(0, 5)],
                vec![MultId::new(0, 0)],
            ]),
            kinds: vec![FaultKind::StuckAtZero],
            eval_images: 6,
            verify,
            ..Default::default()
        };
        let pruned = campaign.run(&mk_spec(VerifyMode::Warn), &eval).unwrap();
        let full = campaign.run(&mk_spec(VerifyMode::Off), &eval).unwrap();
        assert_eq!(pruned.masked_static, 1, "the idle-lane item is pruned");
        assert_eq!(full.masked_static, 0, "verify off disables pruning");
        assert_eq!(
            pruned.records, full.records,
            "pruning must be bit-identical to emulating the masked item"
        );
        assert_eq!(pruned.baseline_accuracy, full.baseline_accuracy);
        // Only the executed items count inferences: baseline + 1 vs. + 2.
        assert_eq!(pruned.total_inferences, 2 * 6);
        assert_eq!(full.total_inferences, 3 * 6);
        // The same fault with a nonzero override perturbs the zero-fed idle
        // lane, so it must NOT be pruned.
        let live_spec = CampaignSpec {
            selection: TargetSelection::Fixed(vec![vec![MultId::new(0, 5)]]),
            kinds: vec![FaultKind::Constant(1)],
            eval_images: 6,
            ..Default::default()
        };
        let live = campaign.run(&live_spec, &eval).unwrap();
        assert_eq!(live.masked_static, 0);
    }

    #[test]
    fn campaign_is_batch_size_invariant() {
        // The mini-batch wired through PlatformConfig.accel.batch is purely
        // a host-side throughput knob: records must be bit-identical.
        let (q, eval) = setup();
        let spec = CampaignSpec {
            selection: TargetSelection::RandomSubsets {
                k: 2,
                trials: 3,
                seed: 11,
            },
            kinds: vec![FaultKind::StuckAtZero, FaultKind::Constant(1)],
            eval_images: 7,
            threads: 1,
            verbose: false,
            ..Default::default()
        };
        let run_with_batch = |batch: usize| {
            let mut config = PlatformConfig::default();
            config.accel.batch = batch;
            Campaign::new(&q, config).run(&spec, &eval).unwrap()
        };
        let a = run_with_batch(1);
        let b = run_with_batch(4);
        let c = run_with_batch(64);
        assert_eq!(a.baseline_accuracy, b.baseline_accuracy);
        assert_eq!(a.records, b.records);
        assert_eq!(a.records, c.records);
    }

    #[test]
    fn threaded_campaign_matches_single_threaded() {
        let (q, eval) = setup();
        let campaign = Campaign::new(&q, PlatformConfig::default());
        let mk_spec = |threads| CampaignSpec {
            selection: TargetSelection::RandomSubsets {
                k: 2,
                trials: 3,
                seed: 5,
            },
            kinds: vec![FaultKind::StuckAtZero],
            eval_images: 6,
            threads,
            verbose: false,
            ..Default::default()
        };
        let a = campaign.run(&mk_spec(1), &eval).unwrap();
        let b = campaign.run(&mk_spec(4), &eval).unwrap();
        assert_eq!(a.baseline_accuracy, b.baseline_accuracy);
        assert_eq!(
            a.records, b.records,
            "record order and values must be deterministic"
        );
    }
}
