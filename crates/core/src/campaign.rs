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
//! Every campaign — in process or on the `nvfi-dist` fabric — runs one
//! pipeline, built from three pieces of this module and the pool:
//!
//! 1. [`CampaignPlan::prepare`] validates the fault kinds, expands the work
//!    list (item 0 is the fault-free baseline), quantizes the evaluation
//!    set once, assembles and verifies the prototype device, prunes
//!    provably masked items and builds the golden-prefix cache;
//! 2. [`CampaignPlan::execute`] runs one work item over an image range
//!    through [`DevicePool::run_item`];
//! 3. [`CampaignPlan::fold`] turns per-item predictions into records.
//!
//! [`Campaign::run`] executes the items with **two-level scheduling** over
//! a fleet of device instances (mirroring how independent FPGA boards
//! would split a campaign):
//!
//! 1. an outer lock-free cursor hands out work items to worker groups,
//!    exactly one fault configuration in flight per group;
//! 2. each group owns a [`DevicePool`] and shards the evaluation batch
//!    across its members, so when the work list is narrower than the thread
//!    budget (one configuration, many images) the spare threads still pull
//!    their weight.
//!
//! With `threads` ≤ work items every pool has one device and the scheduler
//! degenerates to the classic one-device-per-worker loop; with a single
//! work item it degenerates to pure batch sharding. Either way, records are
//! bit-identical to the single-threaded, single-device run — and to the
//! distributed run, which executes the same plan shard by shard.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
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
    /// appends each shard there as it lands, as an append-only log of
    /// `(shard key, predictions)` records, and a restarted coordinator
    /// resumes the campaign, redoing only unfinished shards — with records
    /// bit-identical to an uninterrupted run. Records another campaign left
    /// at the path serve only the shards the two share. The file is
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
/// [`PlatformError::Verify`].
fn run_plan_verifier(plan: &ExecutionPlan, mode: VerifyMode) -> Result<(), PlatformError> {
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

/// Whether `fault` under `window` is provably masked on `plan`: a thin
/// adapter from campaign-level types onto
/// [`nvfi_compiler::verify::fault_reachability`]. `gated` is the platform's
/// idle-lane policy. `ProvablyMasked` is sound — the exact engine cannot
/// produce anything but the fault-free predictions — which is what lets
/// campaigns skip these items bit-identically.
fn fault_provably_masked(
    plan: &ExecutionPlan,
    fault: &FaultConfig,
    gated: bool,
    window: Option<&Range<u64>>,
) -> bool {
    let lanes: Vec<usize> = fault.targets.iter().map(|t| t.lane()).collect();
    let (fsel, fdata, xor) = fault.kind.registers();
    fault_reachability(plan, &lanes, fsel, fdata, xor, gated, window).is_provably_masked()
}

/// Fraction of `preds` equal to `labels` — the one accuracy fold of the
/// campaign stack (baseline and every record).
fn prediction_accuracy(preds: &[u8], labels: &[u8]) -> f64 {
    assert_eq!(preds.len(), labels.len(), "one prediction per label");
    if preds.is_empty() {
        return 0.0;
    }
    preds.iter().zip(labels).filter(|(p, y)| p == y).count() as f64 / preds.len() as f64
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

impl FiRecord {
    /// Folds one fault configuration's predictions into a record: accuracy
    /// against `labels`, masked/SDC classification against the fault-free
    /// `clean_preds`, drop against `baseline_accuracy` (a fraction, not a
    /// percentage).
    ///
    /// # Panics
    ///
    /// Panics if `preds`, `clean_preds` and `labels` do not all have the
    /// same length.
    fn from_preds(
        fault: &FaultConfig,
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
            targets: fault.targets.clone(),
            kind: fault.kind,
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

/// A prepared campaign: the work list, the once-quantized evaluation set,
/// the static-pruning verdicts and the golden-prefix cache — everything
/// needed to execute any work item on any pool programmed with the
/// campaign's plan, and to fold the predictions into a [`CampaignResult`].
///
/// Work item 0 is the fault-free baseline; items `1..` are the
/// `(targets × kinds)` fault configurations in deterministic order. The
/// in-process [`Campaign::run`] and the `nvfi-dist` server both start from
/// [`CampaignPlan::prepare`] and end in [`CampaignPlan::fold`]; the server
/// only adds the artifact export, hashing and task layout of the fabric.
#[derive(Debug)]
pub struct CampaignPlan {
    work: Vec<Option<FaultConfig>>,
    masked: Vec<bool>,
    masked_static: usize,
    window: Option<Range<u64>>,
    qset: QuantizedEvalSet,
    golden: Option<GoldenActivationCache>,
    labels: Vec<u8>,
    started: Instant,
}

impl CampaignPlan {
    /// Prepares `spec` on `eval`: rejects provable no-op fault kinds,
    /// expands the work list, quantizes the evaluation split exactly once
    /// (the software equivalent of the paper's flow, which quantizes the
    /// evaluation set when the bitstream is programmed), assembles the
    /// prototype device, validates the transient window against its plan,
    /// runs the plan verifier, prunes provably masked items and — when a
    /// windowed item remains to execute — captures the golden-prefix cache
    /// on the still fault-free prototype.
    ///
    /// Returns the plan and the programmed prototype, which callers clone
    /// into their device pool.
    ///
    /// # Errors
    ///
    /// [`PlatformError::Verify`] for a no-op fault kind or (strict mode) a
    /// plan diagnostic; compile, device and window errors as their
    /// [`PlatformError`] variants.
    ///
    /// # Panics
    ///
    /// Panics if the spec has no kinds, zero evaluation images, or a target
    /// selection that expands to an empty work list
    /// (`TargetSelection::Fixed(vec![])` or `RandomSubsets { trials: 0, .. }`).
    pub fn prepare(
        model: &QuantModel,
        config: PlatformConfig,
        spec: &CampaignSpec,
        eval: &Dataset,
    ) -> Result<(Self, EmulationPlatform), PlatformError> {
        assert!(
            !spec.kinds.is_empty(),
            "campaign needs at least one fault kind"
        );
        assert!(spec.eval_images > 0, "campaign needs evaluation images");
        for k in &spec.kinds {
            k.validate().map_err(PlatformError::Verify)?;
        }
        let targets = Campaign::expand_targets(&spec.selection);
        assert!(
            !targets.is_empty(),
            "campaign target selection expands to no target sets \
             (Fixed(vec![]) or RandomSubsets {{ trials: 0, .. }}): the result \
             would have no records, which downstream statistics \
             (FiveNum::from_sample) reject"
        );
        let mut work = vec![None];
        for t in &targets {
            for k in &spec.kinds {
                work.push(Some(FaultConfig::new(t.clone(), *k)));
            }
        }
        let eval = eval.take(spec.eval_images);
        let started = Instant::now();
        // Every work item and device shard classifies borrowed sub-views of
        // this set (asserted by the `quantization_passes` probe in
        // tests/quantize_once.rs).
        let qset = {
            let _s = trace::span("campaign.quantize");
            QuantizedEvalSet::build(model, &eval.images)
        };
        // The prototype validates the window before any work is scheduled
        // (a window that cannot overlap any MAC cycle would otherwise run a
        // silent fault-free campaign).
        let mut proto = EmulationPlatform::assemble(model, config)?;
        if let Some(w) = &spec.fault_window {
            proto.accel().validate_fault_window(w)?;
        }
        // Static verification at plan load, then fault reachability: items
        // the analysis proves masked never reach a device — `fold` gives
        // them the baseline's predictions, which is bit-identical by the
        // analysis' soundness.
        run_plan_verifier(proto.plan(), spec.verify)?;
        let gated = config.accel.idle_lanes == IdleLanePolicy::Gated;
        let masked: Vec<bool> = work
            .iter()
            .map(|item| match item {
                Some(f) if spec.verify != VerifyMode::Off => {
                    fault_provably_masked(proto.plan(), f, gated, spec.fault_window.as_ref())
                }
                _ => false,
            })
            .collect();
        let masked_static = masked.iter().filter(|&&m| m).count();
        if spec.verbose && masked_static > 0 {
            progress::note(format!(
                "  {masked_static}/{} work item(s) provably masked; skipping emulation",
                work.len() - 1
            ));
        }
        let golden = match &spec.fault_window {
            Some(w) if masked_static < work.len() - 1 => {
                let _s = trace::span("campaign.golden_build");
                GoldenActivationCache::build(&mut proto, &qset, w, spec.golden_cache_bytes)?
            }
            _ => None,
        };
        let plan = CampaignPlan {
            work,
            masked,
            masked_static,
            window: spec.fault_window.clone(),
            qset,
            golden,
            labels: eval.labels,
            started,
        };
        Ok((plan, proto))
    }

    /// The work list: item 0 is the baseline (`None`), items `1..` the
    /// fault configurations.
    #[must_use]
    pub fn work(&self) -> &[Option<FaultConfig>] {
        &self.work
    }

    /// Per work item, whether static analysis proved it masked (the
    /// baseline never is).
    #[must_use]
    pub fn masked(&self) -> &[bool] {
        &self.masked
    }

    /// Whether every fault item is provably masked: the campaign is its
    /// baseline pass.
    #[must_use]
    pub fn all_masked(&self) -> bool {
        self.masked_static == self.work.len() - 1
    }

    /// Work item `work_id`'s fault and transient window. The baseline runs
    /// fault- and window-free.
    ///
    /// # Panics
    ///
    /// Panics if `work_id` is out of range.
    #[must_use]
    pub fn item(&self, work_id: usize) -> (Option<&FaultConfig>, Option<Range<u64>>) {
        match &self.work[work_id] {
            Some(f) => (Some(f), self.window.clone()),
            None => (None, None),
        }
    }

    /// The evaluation set, quantized once.
    #[must_use]
    pub fn qset(&self) -> &QuantizedEvalSet {
        &self.qset
    }

    /// The golden-prefix cache of a windowed campaign, if one was built.
    #[must_use]
    pub fn golden(&self) -> Option<&GoldenActivationCache> {
        self.golden.as_ref()
    }

    /// The evaluation labels.
    #[must_use]
    pub fn labels(&self) -> &[u8] {
        &self.labels
    }

    /// When preparation started — the campaign's wall-clock origin.
    #[must_use]
    pub fn started(&self) -> Instant {
        self.started
    }

    /// Runs work item `work_id` over the evaluation images `range` on
    /// `pool`, which must be programmed with this campaign's plan.
    ///
    /// # Errors
    ///
    /// Propagates [`DevicePool::run_item`] errors.
    ///
    /// # Panics
    ///
    /// Panics if `work_id` or `range` is out of range.
    pub fn execute(
        &self,
        pool: &mut DevicePool,
        work_id: usize,
        range: Range<usize>,
    ) -> Result<Vec<u8>, PlatformError> {
        let (fault, window) = self.item(work_id);
        pool.run_item(fault, window, &self.qset, range, self.golden.as_ref())
    }

    /// Folds per-item predictions (`per_item[0]` the baseline's, one entry
    /// per work item; entries of masked items are ignored) into the
    /// campaign result. Masked items fold the baseline's predictions, and
    /// only executed items count toward `total_inferences`.
    ///
    /// # Panics
    ///
    /// Panics if `per_item` does not have one entry per work item or an
    /// executed item's predictions do not cover the evaluation set.
    #[must_use]
    pub fn fold(&self, per_item: Vec<Vec<u8>>) -> CampaignResult {
        assert_eq!(per_item.len(), self.work.len(), "one entry per work item");
        let mut per_item = per_item.into_iter();
        let clean = per_item.next().unwrap_or_default();
        let baseline_accuracy = prediction_accuracy(&clean, &self.labels);
        let records = self.work[1..]
            .iter()
            .flatten()
            .zip(&self.masked[1..])
            .zip(per_item)
            .map(|((fault, &masked), preds)| {
                let preds = if masked { &clean } else { &preds };
                FiRecord::from_preds(fault, preds, &clean, &self.labels, baseline_accuracy)
            })
            .collect();
        let executed = self.work.len() - self.masked_static;
        CampaignResult {
            baseline_accuracy,
            records,
            masked_static: self.masked_static,
            total_inferences: executed as u64 * self.qset.len() as u64,
            wall_seconds: self.started.elapsed().as_secs_f64(),
        }
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

    /// Runs the campaign on `eval` data: [`CampaignPlan::prepare`], the
    /// baseline, every unpruned work item, [`CampaignPlan::fold`].
    ///
    /// Scheduling is two-level: an outer lock-free cursor over the work
    /// items, and — whenever the work list is narrower than `spec.threads`
    /// — inner sharding of each item's evaluation batch across the worker
    /// group's [`DevicePool`]. The baseline pass runs through the full
    /// fleet the same way. Records, `total_inferences` and record order are
    /// bit-identical to the single-device, single-threaded path for every
    /// `threads`, `pool_devices` and shard granularity.
    ///
    /// # Errors
    ///
    /// Propagates preparation and device errors.
    ///
    /// # Panics
    ///
    /// Panics on the spec violations [`CampaignPlan::prepare`] rejects.
    pub fn run(
        &self,
        spec: &CampaignSpec,
        eval: &Dataset,
    ) -> Result<CampaignResult, PlatformError> {
        let _run_span = trace::span("campaign.run");
        let (plan, proto) = CampaignPlan::prepare(&self.model, self.config, spec, eval)?;
        let images = plan.qset().len();
        let items = plan.work().len();

        // The device fleet: the prototype cloned per member, one pool of
        // devices per outer worker group. Groups are capped at the number of
        // shards the evaluation batch can actually produce, so a huge thread
        // budget over a tiny eval set does not clone devices that could
        // never receive a shard.
        let max_shards = images
            .div_ceil(DevicePool::granularity(&self.config))
            .max(1);
        let mut layout = Self::pool_layout(spec.threads, items - 1, spec.pool_devices);
        for size in &mut layout {
            *size = (*size).min(max_shards);
        }
        let mut fleet = DevicePool::from_device(proto, layout.iter().sum());

        let clean = {
            let _s = trace::span("campaign.baseline");
            plan.execute(&mut fleet, 0, 0..images)?
        };
        let baseline_accuracy = prediction_accuracy(&clean, plan.labels());

        // Every executed item's predictions are copied into a buffer
        // allocated here, on the calling thread. Handing back a buffer a
        // worker thread allocated would keep a live allocation above the
        // worker's freed device memory, pinning that memory resident
        // (about +4 MB peak RSS on a Fig. 2 sweep).
        let per_item: Vec<Mutex<Vec<u8>>> = plan
            .masked()
            .iter()
            .enumerate()
            .map(|(idx, &masked)| {
                let executed_here = idx > 0 && !masked;
                Mutex::new(Vec::with_capacity(if executed_here { images } else { 0 }))
            })
            .collect();
        // Lock-free work distribution: a fetch-add cursor hands out item
        // indices; each item's buffer is touched by exactly one worker.
        let next = AtomicUsize::new(1);
        // Completion counter behind the progress lines: one monotonically
        // increasing `done/total` line per finished work item, regardless of
        // which group finished which index.
        let done = AtomicUsize::new(0);
        std::thread::scope(|scope| -> Result<(), PlatformError> {
            let mut handles = Vec::new();
            for (worker_id, mut pool) in fleet.split(&layout).into_iter().enumerate() {
                let (plan, next, done, per_item, clean) = (&plan, &next, &done, &per_item, &clean);
                handles.push(scope.spawn(move || -> Result<(), PlatformError> {
                    let _ctx = trace::with_ids(trace::Ids {
                        worker: worker_id as u64,
                        ..Default::default()
                    });
                    loop {
                        let idx = next.fetch_add(1, Ordering::Relaxed);
                        if idx >= items {
                            break;
                        }
                        if plan.masked()[idx] {
                            continue; // `fold` gives it the baseline's predictions
                        }
                        let _item_span = trace::span("campaign.item");
                        let preds = plan.execute(&mut pool, idx, 0..images)?;
                        match plan.item(idx) {
                            // `emit_tick` holds the renderer lock across
                            // the increment and the write, so the printed
                            // `done/total` is strictly monotonic; the
                            // `[worker k]` suffix attributes each item to
                            // its worker group, as distributed
                            // (`nvfi-dist`) progress lines attribute
                            // shards to workers.
                            (Some(fault), _) if spec.verbose => {
                                let record = FiRecord::from_preds(
                                    fault,
                                    &preds,
                                    clean,
                                    plan.labels(),
                                    baseline_accuracy,
                                );
                                progress::emit_tick(done, |finished| progress::Event::ItemDone {
                                    done: finished,
                                    total: items - 1,
                                    worker: worker_id,
                                    detail: format!(
                                        "{:?} on {} mult(s) -> {:.1}% (sdc {:.0}%)",
                                        fault.kind,
                                        fault.targets.len(),
                                        record.accuracy * 100.0,
                                        record.outcomes.sdc_rate() * 100.0
                                    ),
                                });
                            }
                            _ => {}
                        }
                        per_item[idx]
                            .lock()
                            .unwrap_or_else(PoisonError::into_inner)
                            .extend_from_slice(&preds);
                    }
                    Ok(())
                }));
            }
            for h in handles {
                h.join().expect("campaign worker panicked")?;
            }
            Ok(())
        })?;
        let mut per_item: Vec<Vec<u8>> = per_item
            .into_iter()
            .map(|m| m.into_inner().unwrap_or_else(PoisonError::into_inner))
            .collect();
        per_item[0] = clean;
        // Close the campaign span before exporting so it lands in the ring;
        // the export is cumulative, so running under a `CampaignServer`
        // (which exports again at `stop()`) loses nothing.
        drop(_run_span);
        trace::maybe_export();
        Ok(plan.fold(per_item))
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
