//! Device pools: shard one evaluation batch across several device instances.
//!
//! A fault-injection campaign with few fault configurations but a large
//! evaluation set is serialized by per-configuration devices: one device
//! evaluates every image while the other worker threads idle. A
//! [`DevicePool`] is the batch-level counterpart — a set of identical
//! [`EmulationPlatform`] instances (think independent FPGA boards programmed
//! with the same bitstream and network) that splits a classification batch
//! into contiguous image shards, runs one shard per device on scoped
//! threads, and merges the per-shard predictions back in image order.
//!
//! Determinism: every pool member is a clone of the same programmed device,
//! per-image inference does not depend on which images a device ran before
//! (transient fault windows gate on per-inference cycle numbering, see
//! [`nvfi_accel::Accelerator::set_fault_window`]), and shards are contiguous
//! and ordered — so the merged prediction vector is bit-identical to running
//! the whole batch on a single device, for every pool size and mini-batch
//! (the shard granularity).
//!
//! Input movement: campaigns quantize their evaluation split to i8 once, up
//! front, into a [`QuantizedEvalSet`]; [`DevicePool::classify_i8`] shards
//! that set **by reference** (borrowed contiguous sub-views), so the
//! per-classification cost is zero pixel copies and zero quantization. The
//! f32 [`DevicePool::classify`] remains as a thin quantize-once-then-delegate
//! wrapper.
//!
//! Work items: [`DevicePool::run_item`] is the one place a campaign item
//! runs — clear, inject, arm the window, classify an image range, clear —
//! for the in-process campaign loop, distributed workers and the server's
//! audit arbiter alike.

use std::ops::Range;

use nvfi_accel::{AccelError, FaultConfig};
use nvfi_obs::trace;
use nvfi_quant::QuantModel;
use nvfi_tensor::{Shape4, Tensor};

use crate::platform::{EmulationPlatform, PlatformConfig, PlatformError};

/// Per-shard classification closure of the pool's shared shard/merge
/// protocol: classifies one device's contiguous image range.
type ShardFn<'a> =
    dyn Fn(&mut EmulationPlatform, Range<usize>) -> Result<Vec<u8>, PlatformError> + Sync + 'a;

/// A campaign-lifetime cache of golden (fault-free) activations at one op
/// boundary — the state a transient-window work item needs to skip the
/// fault-free prefix of every inference.
///
/// A transient fault window can only be observed by the plan ops whose
/// MAC-cycle span intersects it; every op before the first such op computes
/// exactly the same activations for every one of a campaign's thousands of
/// windowed work items. The cache runs that prefix **once per image**
/// ([`nvfi_accel::Accelerator::run_prefix_i8_view`], counted per image by
/// the `nvfi_accel::golden_prefix_passes` probe), snapshots the boundary's
/// live-in surfaces (`ExecutionPlan::live_in_surfaces` — every surface some
/// suffix op reads before the suffix itself rewrites it, so aliasing
/// allocators are handled) as DRAM would hold them, and work items restore
/// those bytes instead of recomputing the prefix
/// ([`nvfi_accel::Accelerator::run_suffix_i8_view`]).
///
/// # Memory model
///
/// Entries are laid out contiguously, one fixed-stride record per image
/// (`stride = Σ live-in surface bytes`), so the records of images `i..j`
/// are one contiguous slice ([`GoldenActivationCache::records`]), which a
/// work item restores as one mini-batch launch. Capture is one prefix
/// launch per mini-batch of [`nvfi_accel::AccelConfig::batch`] images,
/// whose records do not depend on the batch size. The whole cache is shared
/// **read-only** across every device of a [`DevicePool`] (borrowed into the
/// shard threads — no copies, no locks). The byte budget
/// (`CampaignSpec::golden_cache_bytes`, `NVFI_GOLDEN_CACHE`) bounds the
/// cache: when the full evaluation set does not fit, only the leading
/// `budget / stride` images are checkpointed and the rest transparently fall
/// back to the op-scoped path that recomputes the prefix — bit-identical
/// either way, just slower.
#[derive(Clone, Debug)]
pub struct GoldenActivationCache {
    /// First plan op whose MAC-cycle span intersects the window.
    boundary: usize,
    /// Live-in `(addr, bytes)` surfaces of the boundary, in capture order.
    surfaces: Vec<(u64, u64)>,
    /// Bytes per cached image.
    stride: usize,
    /// `cached_images * stride` bytes of captured surfaces.
    data: Vec<i8>,
    /// Images `0..cached_images` of the evaluation set are cached.
    cached_images: usize,
}

impl GoldenActivationCache {
    /// Captures golden-prefix checkpoints for `set` on `device`, for the
    /// transient window `window`, within `budget_bytes`.
    ///
    /// Returns `Ok(None)` when a cache cannot help: the budget is `0`
    /// (disabled), the window first bites in op 0 (no prefix to skip), the
    /// window misses the plan entirely, or the budget cannot hold even one
    /// image. The device must be **fault-free** — capture runs the fast
    /// path, and the snapshot is only golden without programmed faults.
    ///
    /// # Errors
    ///
    /// Propagates device errors from the capture runs.
    pub fn build(
        device: &mut EmulationPlatform,
        set: &QuantizedEvalSet,
        window: &Range<u64>,
        budget_bytes: usize,
    ) -> Result<Option<Self>, PlatformError> {
        if budget_bytes == 0 {
            return Ok(None);
        }
        let Some(boundary) = device.accel().first_op_in_window(window) else {
            return Ok(None);
        };
        if boundary == 0 {
            return Ok(None);
        }
        let surfaces = device.plan().live_in_surfaces(boundary);
        let stride: usize = surfaces.iter().map(|&(_, b)| b as usize).sum();
        if stride == 0 {
            return Ok(None);
        }
        let cached_images = set.len().min(budget_bytes / stride);
        if cached_images == 0 {
            return Ok(None);
        }
        let batch = device.accel().config().batch.max(1);
        let mut data = Vec::with_capacity(cached_images * stride);
        for start in (0..cached_images).step_by(batch) {
            let images = set.view(start..(start + batch).min(cached_images));
            device
                .accel_mut()
                .run_prefix_i8_view(images, boundary, &surfaces, &mut data)?;
        }
        Ok(Some(GoldenActivationCache {
            boundary,
            surfaces,
            stride,
            data,
            cached_images,
        }))
    }

    /// Reassembles a cache from its shipped parts — the receiving end of a
    /// distributed campaign, where the coordinator built the cache once and
    /// a worker reconstructs it from the wire (stride is re-derived from
    /// the surfaces).
    ///
    /// Returns `None` when the parts are inconsistent: a zero stride, or a
    /// data length that is not `cached_images` whole strides.
    #[must_use]
    pub fn from_parts(
        boundary: usize,
        surfaces: Vec<(u64, u64)>,
        data: Vec<i8>,
        cached_images: usize,
    ) -> Option<Self> {
        let stride: usize = surfaces.iter().map(|&(_, b)| b as usize).sum();
        if stride == 0 || data.len() != cached_images * stride {
            return None;
        }
        Some(GoldenActivationCache {
            boundary,
            surfaces,
            stride,
            data,
            cached_images,
        })
    }

    /// The op boundary the cache checkpoints.
    #[must_use]
    pub fn boundary(&self) -> usize {
        self.boundary
    }

    /// The live-in `(addr, bytes)` surfaces of the boundary, in capture
    /// order.
    #[must_use]
    pub fn surfaces(&self) -> &[(u64, u64)] {
        &self.surfaces
    }

    /// The raw captured bytes, `cached_images` fixed strides.
    #[must_use]
    pub fn data(&self) -> &[i8] {
        &self.data
    }

    /// Number of images checkpointed (a budget-limited prefix of the set).
    #[must_use]
    pub fn cached_images(&self) -> usize {
        self.cached_images
    }

    /// Total cache payload in bytes.
    #[must_use]
    pub fn byte_size(&self) -> usize {
        self.data.len()
    }

    /// The captured records of the images `range`, back to back — what
    /// [`nvfi_accel::Accelerator::run_suffix_i8_view`] restores.
    ///
    /// # Panics
    ///
    /// Panics if `range` reaches past [`GoldenActivationCache::cached_images`].
    #[must_use]
    pub fn records(&self, range: Range<usize>) -> &[i8] {
        &self.data[range.start * self.stride..range.end * self.stride]
    }
}

/// An evaluation set quantized to i8 exactly once, for the lifetime of a
/// campaign.
///
/// The paper's emulation flow quantizes the evaluation images once, when the
/// bitstream is programmed; re-quantizing per fault configuration (or per
/// device shard) is pure multiplied waste. A `QuantizedEvalSet` is the
/// software equivalent: build it up front from the f32 split, then hand
/// [`DevicePool::classify_i8`] borrowed sub-views — the images stay
/// contiguous in NCHW order, so any shard range aligned to whole images
/// (in particular the mini-batch-aligned ranges of
/// [`DevicePool::shard_plan`]) is a zero-copy slice.
///
/// Quantization is elementwise, so building one set for the whole split is
/// bit-identical to quantizing each shard separately (property-tested in
/// `nvfi-quant`); building it costs exactly one pass of the
/// [`nvfi_quant::batch::quantization_passes`] probe.
#[derive(Clone, Debug)]
pub struct QuantizedEvalSet {
    images: Tensor<i8>,
}

impl QuantizedEvalSet {
    /// Quantizes `images` with `model`'s input scale — one batch-quantization
    /// pass, however many work items and shards later consume the set.
    #[must_use]
    pub fn build(model: &QuantModel, images: &Tensor<f32>) -> Self {
        QuantizedEvalSet {
            images: model.quantize_input(images),
        }
    }

    /// Quantizes `images` with an explicit input scale (the compiled plan's
    /// `input_scale` — what a pool of programmed devices knows without the
    /// model).
    #[must_use]
    pub fn from_scale(images: &Tensor<f32>, scale: f32) -> Self {
        let data = nvfi_quant::batch::quantize_slice(images.as_slice(), scale);
        QuantizedEvalSet {
            images: Tensor::from_vec(images.shape(), data),
        }
    }

    /// Wraps an already-quantized batch.
    #[must_use]
    pub fn from_tensor(images: Tensor<i8>) -> Self {
        QuantizedEvalSet { images }
    }

    /// Number of images in the set.
    #[must_use]
    pub fn len(&self) -> usize {
        self.images.shape().n
    }

    /// Whether the set has no images.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The set's shape (`n` images).
    #[must_use]
    pub fn shape(&self) -> Shape4 {
        self.images.shape()
    }

    /// The quantized images.
    #[must_use]
    pub fn images(&self) -> &Tensor<i8> {
        &self.images
    }

    /// Borrow of the images in `range` as one contiguous dense i8 slice.
    ///
    /// # Panics
    ///
    /// Panics if `range` is out of bounds.
    #[must_use]
    pub fn view(&self, range: Range<usize>) -> &[i8] {
        let image_len = self.images.shape().image_len();
        &self.images.as_slice()[range.start * image_len..range.end * image_len]
    }
}

/// A pool of identical emulated devices sharing the work of one evaluation
/// batch.
#[derive(Clone, Debug)]
pub struct DevicePool {
    devices: Vec<EmulationPlatform>,
}

impl DevicePool {
    /// Compiles `model` once and populates the pool with `devices` clones of
    /// the programmed device (cloning device state is much cheaper than
    /// recompiling the plan per member). Each clone costs O(plan footprint):
    /// the device's sparse DRAM backing holds only the bytes the plan has
    /// written, never the full modelled `dram_capacity`.
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError`] if lowering fails or the plan does not fit
    /// the device.
    ///
    /// # Panics
    ///
    /// Panics if `devices == 0`.
    pub fn assemble(
        model: &QuantModel,
        config: PlatformConfig,
        devices: usize,
    ) -> Result<Self, PlatformError> {
        Ok(Self::from_device(
            EmulationPlatform::assemble(model, config)?,
            devices,
        ))
    }

    /// Builds a pool of `devices` members by cloning one programmed device.
    /// A clone copies the device's resident DRAM (at most the plan's
    /// `dram_size`, see `Accelerator::dram_resident_bytes`) and its weight
    /// arena, but not its scratch buffers, so the cost is O(plan footprint)
    /// per member, independent of the modelled DRAM capacity.
    ///
    /// # Panics
    ///
    /// Panics if `devices == 0`.
    #[must_use]
    pub fn from_device(device: EmulationPlatform, devices: usize) -> Self {
        assert!(devices > 0, "a device pool needs at least one device");
        let mut v = Vec::with_capacity(devices);
        for _ in 1..devices {
            v.push(device.clone());
        }
        v.push(device);
        DevicePool { devices: v }
    }

    /// Number of devices in the pool.
    #[must_use]
    pub fn size(&self) -> usize {
        self.devices.len()
    }

    /// The (shared) platform configuration of the pool members.
    #[must_use]
    pub fn config(&self) -> PlatformConfig {
        self.devices[0].config()
    }

    /// Partitions the pool into sub-pools of the given sizes (in order).
    ///
    /// # Panics
    ///
    /// Panics if `sizes` does not sum to the pool size or contains a zero.
    #[must_use]
    pub fn split(self, sizes: &[usize]) -> Vec<DevicePool> {
        assert_eq!(
            sizes.iter().sum::<usize>(),
            self.devices.len(),
            "split sizes must consume the whole pool"
        );
        let mut devices = self.devices.into_iter();
        sizes
            .iter()
            .map(|&n| {
                assert!(n > 0, "sub-pools need at least one device");
                DevicePool {
                    devices: devices.by_ref().take(n).collect(),
                }
            })
            .collect()
    }

    /// Programs `fault` into every pool member. The register stream is
    /// encoded once and replayed per device, so re-injection across the pool
    /// allocates once regardless of pool size.
    pub fn inject(&mut self, fault: &FaultConfig) {
        let writes = fault.reg_writes();
        for d in &mut self.devices {
            d.accel_mut().inject_writes(&writes);
        }
    }

    /// Disables fault injection (and any transient window) on every member.
    pub fn clear_faults(&mut self) {
        for d in &mut self.devices {
            d.clear_faults();
        }
    }

    /// Sets the transient fault window on every member.
    ///
    /// # Errors
    ///
    /// Propagates the engine's window validation
    /// ([`nvfi_accel::Accelerator::set_fault_window`]): a window that cannot
    /// overlap any MAC cycle of the loaded plan is rejected as a silent
    /// no-op.
    pub fn set_fault_window(&mut self, window: Option<Range<u64>>) -> Result<(), PlatformError> {
        for d in &mut self.devices {
            d.accel_mut().set_fault_window(window.clone())?;
        }
        Ok(())
    }

    /// The shard granularity a pool under `config` uses: one device
    /// mini-batch ([`nvfi_accel::AccelConfig::batch`]).
    #[must_use]
    pub fn granularity(config: &PlatformConfig) -> usize {
        config.accel.batch.max(1)
    }

    /// The deterministic shard layout: `images` images split into at most
    /// `devices` contiguous ranges, each — except possibly the last — a
    /// multiple of `granularity` images, with the leading shards taking the
    /// extra granules.
    #[must_use]
    pub fn shard_plan(images: usize, devices: usize, granularity: usize) -> Vec<Range<usize>> {
        if images == 0 {
            return Vec::new();
        }
        let g = granularity.max(1);
        let granules = images.div_ceil(g);
        let shards = devices.max(1).min(granules);
        let per = granules / shards;
        let rem = granules % shards;
        let mut out = Vec::with_capacity(shards);
        let mut start = 0usize;
        for i in 0..shards {
            let n = (per + usize::from(i < rem)) * g;
            let end = (start + n).min(images);
            out.push(start..end);
            start = end;
        }
        out
    }

    /// Classifies `images`, sharding the batch across the pool members on
    /// scoped threads. Merged predictions are in image order and
    /// bit-identical to [`EmulationPlatform::classify`] on one device.
    ///
    /// A thin quantize-then-delegate wrapper around
    /// [`DevicePool::classify_i8`]: the batch is quantized **once** (with
    /// the compiled plan's input scale) and sharded by reference —
    /// campaign-lifetime callers that already hold a [`QuantizedEvalSet`]
    /// should call [`DevicePool::classify_i8`] directly and skip even that
    /// one pass.
    ///
    /// # Errors
    ///
    /// Propagates the first device error (by shard order).
    pub fn classify(&mut self, images: &Tensor<f32>) -> Result<Vec<u8>, PlatformError> {
        let scale = self.devices[0].plan().input_scale;
        let set = QuantizedEvalSet::from_scale(images, scale);
        self.classify_i8(&set)
    }

    /// Classifies a pre-quantized evaluation set, sharding the batch across
    /// the pool members on scoped threads — by reference: every shard is a
    /// borrowed sub-view of `set`, so the per-call cost is zero pixel copies
    /// and zero quantization. Merged predictions are in image order and
    /// bit-identical to the f32 path on one device.
    ///
    /// # Ragged tails
    ///
    /// The image count does not have to be a multiple of the shard
    /// granularity (the device mini-batch): [`DevicePool::shard_plan`]
    /// keeps every shard except the last a whole number of granules, and
    /// only the **last** shard may carry the ragged tail. An image count
    /// that *is* a multiple of the granularity has an empty tail (every
    /// shard whole); one that is not ends in a final shard smaller than a
    /// granule, which the engine's mini-batch loop handles as a short final
    /// batch. Either way predictions are bit-identical to the unsharded run
    /// (covered explicitly by the ragged-tail tests below).
    ///
    /// # Errors
    ///
    /// Propagates the first device error (by shard order). Returns
    /// [`PlatformError::Accel`] if `set`'s image shape does not match the
    /// compiled plan's input shape.
    pub fn classify_i8(&mut self, set: &QuantizedEvalSet) -> Result<Vec<u8>, PlatformError> {
        self.classify_range(set, 0..set.len(), None)
    }

    /// Classifies a pre-quantized evaluation set under an armed transient
    /// fault window, restoring the images' golden prefixes from `cache`, a
    /// mini-batch at a time, instead of recomputing them. Images outside the
    /// cache's byte budget — or all of them, when `cache` is `None` — run
    /// the full op-scoped inference in mini-batches (clean prefix,
    /// lane-delta on the window's ops, clean suffix). Predictions are
    /// bit-identical to [`DevicePool::classify_i8`] for every cache budget
    /// (asserted by `tests/campaign_determinism.rs`).
    ///
    /// # Errors
    ///
    /// As [`DevicePool::classify_i8`].
    pub fn classify_i8_golden(
        &mut self,
        set: &QuantizedEvalSet,
        cache: Option<&GoldenActivationCache>,
    ) -> Result<Vec<u8>, PlatformError> {
        self.classify_range(set, 0..set.len(), cache)
    }

    /// Runs one campaign work item over the images `range` of `set`: clears
    /// the pool, programs `fault` (none for the fault-free baseline), arms
    /// `window`, classifies, and clears again, so no fault or window ever
    /// leaks into the next item. Under an armed window each image's golden
    /// prefix is restored from `golden` when cached; without a window the
    /// cache is ignored.
    ///
    /// This is the one executor of the campaign stack: the in-process
    /// [`crate::campaign::Campaign::run`], a distributed worker (once per
    /// heartbeat wave of a shard) and the server's audit arbiter all run
    /// their items through it. Predictions for `range` are bit-identical to
    /// the same slice of a whole-set run, however the range is cut.
    ///
    /// # Errors
    ///
    /// Window validation errors ([`DevicePool::set_fault_window`]), the
    /// first device error by shard order, and [`PlatformError::Accel`] on an
    /// evaluation-set shape mismatch. The pool is cleared either way.
    ///
    /// # Panics
    ///
    /// Panics if `range` is out of bounds of `set`.
    pub fn run_item(
        &mut self,
        fault: Option<&FaultConfig>,
        window: Option<Range<u64>>,
        set: &QuantizedEvalSet,
        range: Range<usize>,
        golden: Option<&GoldenActivationCache>,
    ) -> Result<Vec<u8>, PlatformError> {
        self.clear_faults();
        if let Some(f) = fault {
            self.inject(f);
        }
        let golden = golden.filter(|_| window.is_some());
        let preds = self
            .set_fault_window(window)
            .and_then(|()| self.classify_range(set, range, golden));
        self.clear_faults();
        preds
    }

    /// The one ranged classify behind every entry point: shards the images
    /// `range` of `set` across the pool per [`DevicePool::shard_plan`] and
    /// merges in image order. With a golden cache, each shard walks its
    /// images in chunks of one device mini-batch: the chunk's cached images
    /// (looked up by **absolute** index, so a shard of images `64..96` hits
    /// records `64..96`) run as one batched restore, and its uncached ones
    /// as one full mini-batch launch.
    fn classify_range(
        &mut self,
        set: &QuantizedEvalSet,
        range: Range<usize>,
        golden: Option<&GoldenActivationCache>,
    ) -> Result<Vec<u8>, PlatformError> {
        let s = set.shape();
        let plan_input = self.devices[0].plan().input_shape;
        if s.n > 0 && s.with_n(1) != plan_input.with_n(1) {
            return Err(PlatformError::Accel(AccelError::BadPlan(format!(
                "evaluation set {s} does not match plan input {plan_input}"
            ))));
        }
        assert!(
            range.start <= range.end && range.end <= set.len(),
            "image range {range:?} outside the {}-image set",
            set.len()
        );
        let offset = range.start;
        let Some(cache) = golden else {
            return self.classify_sharded(range.len(), &move |device, r| {
                device.classify_i8(set.view(offset + r.start..offset + r.end))
            });
        };
        let batch = Self::granularity(&self.config());
        self.classify_sharded(range.len(), &move |device, r| {
            let (start, end) = (offset + r.start, offset + r.end);
            let accel = device.accel_mut();
            let mut preds = Vec::with_capacity(r.len());
            for c0 in (start..end).step_by(batch) {
                let c1 = (c0 + batch).min(end);
                let split = cache.cached_images().clamp(c0, c1);
                if c0 < split {
                    let records = cache.records(c0..split);
                    let out =
                        accel.run_suffix_i8_view(cache.boundary(), cache.surfaces(), records)?;
                    preds.extend(out.iter().map(|r| r.class));
                }
                if split < c1 {
                    let out = accel.run_batch_i8_view(set.view(split..c1))?;
                    preds.extend(out.iter().map(|r| r.class));
                }
            }
            Ok(preds)
        })
    }

    /// The shard/merge protocol of [`DevicePool::classify_range`]: splits
    /// `images` per [`DevicePool::shard_plan`], runs `run_shard` once per
    /// `(device, image range)` — on the calling thread for a single shard,
    /// on scoped threads otherwise — and merges the per-shard predictions
    /// in shard (= image) order, propagating the first error by shard
    /// order.
    fn classify_sharded(
        &mut self,
        images: usize,
        run_shard: &ShardFn<'_>,
    ) -> Result<Vec<u8>, PlatformError> {
        let granularity = Self::granularity(&self.config());
        let plan = Self::shard_plan(images, self.devices.len(), granularity);
        if plan.len() <= 1 {
            let _s = trace::span("pool.shard");
            return run_shard(&mut self.devices[0], 0..images);
        }
        // Shard threads inherit the spawning thread's trace ids (worker
        // group, campaign) so their `pool.shard` spans attribute correctly.
        let ids = trace::current_ids();
        let mut results: Vec<Result<Vec<u8>, PlatformError>> = Vec::with_capacity(plan.len());
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for (shard, (device, range)) in self
                .devices
                .iter_mut()
                .zip(plan.iter().cloned())
                .enumerate()
            {
                handles.push(scope.spawn(move || {
                    let _ctx = trace::with_ids(trace::Ids {
                        shard: shard as u64,
                        ..ids
                    });
                    let _s = trace::span("pool.shard");
                    run_shard(device, range)
                }));
            }
            for h in handles {
                results.push(h.join().expect("pool shard worker panicked"));
            }
        });
        let mut preds = Vec::with_capacity(images);
        for r in results {
            preds.extend(r?);
        }
        Ok(preds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvfi_accel::FaultKind;
    use nvfi_compiler::regmap::MultId;
    use nvfi_dataset::{SynthCifar, SynthCifarConfig};

    fn setup() -> (QuantModel, nvfi_dataset::Dataset) {
        let q = crate::experiments::untrained_quant_model(4, 12);
        let data = SynthCifar::new(SynthCifarConfig {
            train: 0,
            test: 11,
            ..Default::default()
        })
        .generate();
        (q, data.test)
    }

    #[test]
    fn shard_plan_covers_contiguously() {
        for (images, devices, g) in [
            (10, 3, 1),
            (10, 3, 4),
            (7, 8, 1),
            (256, 8, 8),
            (5, 1, 2),
            (9, 4, 2),
        ] {
            let plan = DevicePool::shard_plan(images, devices, g);
            assert!(plan.len() <= devices);
            assert_eq!(plan[0].start, 0);
            assert_eq!(plan.last().unwrap().end, images);
            for w in plan.windows(2) {
                assert_eq!(w[0].end, w[1].start, "shards must be contiguous");
                assert!(!w[0].is_empty());
            }
            for r in &plan[..plan.len() - 1] {
                assert_eq!(r.len() % g, 0, "non-final shards keep granularity {g}");
            }
        }
        assert!(DevicePool::shard_plan(0, 4, 2).is_empty());
        // More devices than granules: surplus devices get no shard.
        assert_eq!(DevicePool::shard_plan(6, 8, 4).len(), 2);
    }

    #[test]
    fn pool_matches_single_device_with_and_without_faults() {
        let (q, eval) = setup();
        let mut single = EmulationPlatform::assemble(&q, PlatformConfig::default()).unwrap();
        let mut pool = DevicePool::assemble(&q, PlatformConfig::default(), 3).unwrap();
        assert_eq!(pool.size(), 3);
        assert_eq!(
            single.classify(&eval.images).unwrap(),
            pool.classify(&eval.images).unwrap()
        );
        let fault = FaultConfig::new(
            vec![MultId::new(1, 2), MultId::new(3, 4)],
            FaultKind::Constant(-1),
        );
        single.inject(&fault);
        pool.inject(&fault);
        assert_eq!(
            single.classify(&eval.images).unwrap(),
            pool.classify(&eval.images).unwrap()
        );
        single.clear_faults();
        pool.clear_faults();
        assert_eq!(
            single.classify(&eval.images).unwrap(),
            pool.classify(&eval.images).unwrap()
        );
    }

    #[test]
    fn i8_set_matches_f32_classify() {
        let (q, eval) = setup();
        let mut pool = DevicePool::assemble(&q, PlatformConfig::default(), 3).unwrap();
        let set = QuantizedEvalSet::build(&q, &eval.images);
        assert_eq!(set.len(), eval.images.shape().n);
        assert!(!set.is_empty());
        let fault = FaultConfig::new(vec![MultId::new(2, 5)], FaultKind::StuckAtZero);
        pool.inject(&fault);
        assert_eq!(
            pool.classify(&eval.images).unwrap(),
            pool.classify_i8(&set).unwrap(),
            "borrowed-i8 path must be bit-identical to the f32 wrapper"
        );
    }

    /// The ragged-tail contract of [`DevicePool::classify_i8`]: with a
    /// mini-batch of 4 as the granularity, only the *last* shard may be a
    /// partial granule. Both tail shapes — empty (count divisible by the
    /// granularity) and a tail smaller than one granule — must merge to the
    /// same predictions as the unsharded device.
    #[test]
    fn ragged_tail_is_explicit_and_bit_identical() {
        let q = crate::experiments::untrained_quant_model(4, 31);
        let mut config = PlatformConfig::default();
        config.accel.batch = 4;
        let mut single = EmulationPlatform::assemble(&q, PlatformConfig::default()).unwrap();
        let mut pool = DevicePool::assemble(&q, config, 3).unwrap();

        // Empty tail: 8 images over granularity 4 = 2 whole granules; every
        // shard is whole.
        let even = SynthCifar::new(SynthCifarConfig {
            train: 0,
            test: 8,
            ..Default::default()
        })
        .generate()
        .test;
        let plan = DevicePool::shard_plan(8, 3, 4);
        assert_eq!(
            plan,
            vec![0..4, 4..8],
            "8 images / g=4: two whole shards, empty tail"
        );
        assert_eq!(
            single.classify(&even.images).unwrap(),
            pool.classify(&even.images).unwrap()
        );

        // Ragged tail smaller than a granule (one mini-batch): 11 images ->
        // shards of 4, 4 and a 3-image tail.
        let ragged = SynthCifar::new(SynthCifarConfig {
            train: 0,
            test: 11,
            ..Default::default()
        })
        .generate()
        .test;
        let plan = DevicePool::shard_plan(11, 3, 4);
        assert_eq!(
            plan,
            vec![0..4, 4..8, 8..11],
            "only the last shard is partial"
        );
        assert!(plan.last().unwrap().len() < 4);
        let set = QuantizedEvalSet::build(&q, &ragged.images);
        assert_eq!(
            single.classify(&ragged.images).unwrap(),
            pool.classify_i8(&set).unwrap()
        );
    }

    #[test]
    fn mismatched_set_shape_is_rejected() {
        let (q, _) = setup();
        let mut pool = DevicePool::assemble(&q, PlatformConfig::default(), 2).unwrap();
        // Wrong spatial extent: 3x8x8 instead of the plan's 3x32x32.
        let bad =
            QuantizedEvalSet::from_tensor(Tensor::zeros(nvfi_tensor::Shape4::new(2, 3, 8, 8)));
        assert!(pool.classify_i8(&bad).is_err());
    }

    #[test]
    fn pool_is_shard_granularity_invariant() {
        let (q, eval) = setup();
        let classify_with = |batch: usize| {
            let mut config = PlatformConfig::default();
            config.accel.batch = batch;
            DevicePool::assemble(&q, config, 4)
                .unwrap()
                .classify(&eval.images)
                .unwrap()
        };
        let a = classify_with(8);
        let b = classify_with(1);
        let c = classify_with(5);
        assert_eq!(a, b);
        assert_eq!(a, c);
    }

    #[test]
    fn split_partitions_in_order() {
        let (q, _) = setup();
        let pool = DevicePool::assemble(&q, PlatformConfig::default(), 5).unwrap();
        let parts = pool.split(&[2, 2, 1]);
        assert_eq!(
            parts.iter().map(DevicePool::size).collect::<Vec<_>>(),
            vec![2, 2, 1]
        );
    }

    /// [`DevicePool::run_item`] over heartbeat-wave sub-ranges — how a
    /// distributed worker executes a shard — concatenates to the
    /// whole-range run: waves of 1, 3 and the shard granularity (ragged
    /// tails included), over the whole set and over a shard starting
    /// mid-set, for the baseline, a permanent fault, and a windowed fault
    /// with and without a golden cache.
    #[test]
    fn waved_run_item_equals_whole_range() {
        // A model whose predictions vary across these images, so a wave
        // that read the wrong images (or golden entries) would show.
        let q = crate::experiments::untrained_quant_model(2, 4);
        let (_, eval) = setup();
        let set = QuantizedEvalSet::build(&q, &eval.images);
        let n = set.len();
        let mut proto = EmulationPlatform::assemble(&q, PlatformConfig::default()).unwrap();
        let total = proto.plan().total_mac_cycles();
        let window = total / 2..total / 2 + total / 8;
        let golden = GoldenActivationCache::build(&mut proto, &set, &window, usize::MAX).unwrap();
        assert!(golden.is_some(), "a mid-inference window has a prefix");
        let mut pool = DevicePool::from_device(proto, 2);
        let g = DevicePool::granularity(&pool.config());
        assert!(
            g > 3 && !n.is_multiple_of(g) && !n.is_multiple_of(3),
            "ragged tails"
        );
        let fault = FaultConfig::new(
            vec![MultId::new(1, 2), MultId::new(3, 4)],
            FaultKind::Constant(-1),
        );
        let cases = [
            (None, None, None),
            (Some(&fault), None, None),
            (Some(&fault), Some(window.clone()), golden.as_ref()),
            (Some(&fault), Some(window), None),
        ];
        let mut baseline = None;
        for (fault, window, golden) in cases {
            let whole = pool
                .run_item(fault, window.clone(), &set, 0..n, golden)
                .unwrap();
            baseline.get_or_insert_with(|| whole.clone());
            assert_eq!(whole.len(), n);
            assert!(whole.iter().any(|&c| c != whole[0]), "predictions vary");
            for start in [0, 2] {
                for wave in [1, 3, g] {
                    let mut waved = Vec::new();
                    let mut at = start;
                    while at < n {
                        let stop = (at + wave).min(n);
                        waved.extend(
                            pool.run_item(fault, window.clone(), &set, at..stop, golden)
                                .unwrap(),
                        );
                        at = stop;
                    }
                    assert_eq!(
                        waved,
                        whole[start..],
                        "waves of {wave} from image {start} (fault {fault:?}, \
                         window {window:?}, golden {})",
                        golden.is_some()
                    );
                }
            }
        }
        // Nothing leaks out of an item: the baseline is unchanged after the
        // faulted and windowed runs.
        assert_eq!(
            Some(pool.run_item(None, None, &set, 0..n, None).unwrap()),
            baseline
        );
    }

    /// Capture runs one prefix launch per mini-batch, yet records the same
    /// bytes as one-image launches: a cache built with `accel.batch = 8`
    /// equals one built with `accel.batch = 1`, for a budget that holds the
    /// whole set and one that holds a ragged 5 of its 11 images.
    #[test]
    fn batched_golden_capture_matches_per_image() {
        let (q, eval) = setup();
        let set = QuantizedEvalSet::build(&q, &eval.images);
        let build = |batch: usize, budget: usize| {
            let mut config = PlatformConfig::default();
            config.accel.batch = batch;
            let mut device = EmulationPlatform::assemble(&q, config).unwrap();
            let total = device.plan().total_mac_cycles();
            let window = total / 2..total / 2 + 100;
            GoldenActivationCache::build(&mut device, &set, &window, budget)
                .unwrap()
                .expect("a mid-inference window has a prefix")
        };
        let one = build(1, usize::MAX);
        assert_eq!(one.cached_images(), set.len());
        let stride = one.byte_size() / set.len();
        for budget in [usize::MAX, 5 * stride] {
            let (per_image, batched) = (build(1, budget), build(8, budget));
            assert_eq!(batched.boundary(), per_image.boundary());
            assert_eq!(batched.surfaces(), per_image.surfaces());
            assert_eq!(batched.cached_images(), per_image.cached_images());
            assert!(batched.data() == per_image.data(), "budget {budget}");
        }
        assert_eq!(build(8, 5 * stride).cached_images(), 5);
    }

    #[test]
    #[should_panic(expected = "at least one device")]
    fn zero_sized_pool_rejected() {
        let (q, _) = setup();
        let _ = DevicePool::assemble(&q, PlatformConfig::default(), 0);
    }
}
