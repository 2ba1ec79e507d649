//! The execution engine: runs compiled plans on the modelled datapath.
//!
//! # Campaign-lifetime reuse
//!
//! A fault-injection campaign runs the *same* plan for every image of every
//! fault configuration, so all per-plan work is hoisted out of the
//! per-inference path:
//!
//! * the **weight arena** ([`WeightArena`]) unpacks every conv/linear
//!   layer's weights from the blocked DRAM surface format once, at
//!   [`Accelerator::load_plan`] time, and keeps them laid out as the dense
//!   `K x (C*R*S)` GEMM operand. Host-visible DRAM mutation
//!   ([`Accelerator::dma_write`], [`Accelerator::flip_dram_bit`]) that
//!   overlaps a cached weight region marks the entry dirty, and the next use
//!   re-unpacks from DRAM — so weight-memory SEU experiments observe exactly
//!   the same data a cold device would;
//! * the **scratch arena** ([`Scratch`]) owns every intermediate buffer the
//!   op executors need (DMA staging, unpacked activations, im2col columns,
//!   i32 accumulators, SDP output, packed surfaces). Buffers are resized per
//!   op but their capacity only grows, so steady-state inference performs
//!   zero heap allocation;
//! * [`Accelerator::run_batch_i8`] executes the fast path over an image
//!   mini-batch: one im2col + GEMM per layer with the mini-batch's columns
//!   side by side. Per-column independence of GEMM makes the batched result
//!   bit-identical to the per-image path; intermediate surfaces live in the
//!   scratch arena rather than DRAM, which the batched path touches only for
//!   weight-arena refills and the final logits write.
//!
//! # Lane-delta fault execution
//!
//! An injector touches only the products of its selected lanes, and the
//! mux is the identity everywhere else. So the exact accumulator of a
//! faulted op is the clean one plus one delta per injected product:
//!
//! ```text
//! acc_exact[k, col] = acc_clean[k, col] + Σ (f(p) − p)
//! ```
//!
//! where `f` is the injector's `fsel`/`fdata` mux followed by its XOR, and
//! the sum runs over the selected lanes' products inside the window.
//! Wrapping i32 addition is associative, so adding the deltas after the
//! GEMM is bit-identical to the per-product engine. Every faulted op
//! therefore runs the clean im2col + GEMM and then `lane_delta_into`,
//! which reads the products straight out of the im2col columns (padding
//! taps are already zero there). It has two arms:
//!
//! * **permanent** (the window covers the whole op): for lane `(m, j)`,
//!   every kernel row `k ≡ m (mod 8)` with `k < K` and every reduction row
//!   `(c, r, s)` with `c ≡ j (mod 8)` and `c < C`, add `f(w·x) − w·x` over
//!   every column — in the batched path the columns of the whole
//!   mini-batch. The inner loop is branch-free over contiguous columns, so
//!   it vectorizes; a lane costs 1/64 of the op's MACs. Zero-fed idle
//!   channels (`c ≥ C`) multiply zeros, so each adds the constant
//!   `(cb_n − real_blocks)·R·S·f(0)` per output element; gated ones add
//!   nothing;
//! * **windowed**: MAC cycles are numbered lexicographically in
//!   `(kg, oy, ox, cb, r, s)` from the op's schedule-table span start, so a
//!   window is one contiguous cycle range per op and only the selected
//!   lanes' products inside it are visited — O(window × lanes). The base
//!   comes from the span table, not the running counter, so the per-image,
//!   batched and golden-suffix paths agree.
//!
//! The per-product `conv_exact_into` survives only as the
//! [`ExecMode::Exact`] oracle. The `engine_path_*` counters of the
//! per-image path say which executor ran per op: `engine_path_fast` when no
//! selected lane observes the op, `engine_path_fast_corrected` when
//! lane-delta ran, and `engine_path_exact` for the oracle.
//!
//! # Phase timing
//!
//! While `nvfi_obs` tracing is on, every conv and linear op (per-image and
//! batched) records the nanoseconds of each phase it runs into the
//! histograms `engine_phase_{im2col,gemm,lane_delta,sdp,surface,exact}_ns`:
//! im2col (the batched head's operand transpose too), the GEMM,
//! lane-delta, the SDP (the linear head's bias add), DRAM surface
//! unpack/pack, and the per-product oracle under [`ExecMode::Exact`]. Off,
//! an op pays one trace-gate load and no clock read.

use std::collections::HashMap;
use std::ops::Range;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use nvfi_obs::metrics::{self, Counter, Histogram};
use nvfi_obs::trace;

use nvfi_compiler::plan::{ConvOp, ExecutionPlan, LinearOp, PlanOp, PoolKind, PoolOp, RegWrite};
use nvfi_compiler::surface;
use nvfi_hwnum::{sat, I18};
use nvfi_quant::exec::sdp_postprocess;
use nvfi_tensor::{gemm, im2col, pool, ConvGeom, Shape4, Tensor};

use crate::csb::CsbSpace;
use crate::dram::Dram;
use crate::error::AccelError;
use crate::fi::{FaultConfig, FaultInjectorBank};
use crate::perf::{self, AccelConfig, PerfReport};

/// How convolutions are evaluated functionally.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// Every product goes through its injector mux, one by one. Slow — the
    /// ground-truth oracle the other modes are tested against.
    Exact,
    /// Clean GEMM plus lane-delta corrections, restricted to permanent
    /// full-lane overrides (the paper's 0 / +1 / -1 experiments); errors
    /// with [`AccelError::FastPathUnsupported`] on bit-granular faults, and
    /// on transient windows already at [`Accelerator::set_fault_window`]
    /// time.
    Fast,
    /// Clean GEMM plus lane-delta corrections for every fault kind and
    /// window (see the module docs). Ops no selected lane can observe —
    /// under a window, the fault-free prefix and the post-pulse suffix —
    /// run the clean GEMM alone. Bit-identical to [`ExecMode::Exact`].
    #[default]
    Auto,
}

/// How one plan op is evaluated — the per-op refinement of [`ExecMode`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum OpPath {
    /// Clean register-tiled im2col + GEMM; no selected lane observes any
    /// cycle of this op.
    Fast,
    /// Clean im2col + GEMM plus [`lane_delta_into`] over the op's faulted
    /// cycles.
    LaneDelta,
    /// The per-product oracle ([`ExecMode::Exact`] only).
    Exact,
}

/// Process-wide count of golden-prefix captures
/// ([`Accelerator::run_prefix_i8_view`] calls), backed by the `nvfi_obs`
/// metrics registry under `golden_prefix_passes`. A test probe in the
/// spirit of `nvfi_quant::batch::quantization_passes`: a campaign must
/// capture the golden prefix of each image exactly once, however many
/// windowed work items later restore it.
fn golden_prefix_counter() -> &'static Counter {
    static C: OnceLock<Counter> = OnceLock::new();
    C.get_or_init(|| metrics::counter("golden_prefix_passes"))
}

/// Process-wide count of golden restores
/// ([`Accelerator::run_suffix_i8_view`] calls) — the cheap half of the
/// golden-prefix protocol. Registry name: `golden_restores`.
fn golden_restore_counter() -> &'static Counter {
    static C: OnceLock<Counter> = OnceLock::new();
    C.get_or_init(|| metrics::counter("golden_restores"))
}

/// Per-op path-decision counters of the per-image path: how often the
/// engine took each [`OpPath`] — `engine_path_fast` (no selected lane
/// observes the op), `engine_path_fast_corrected` (lane-delta ran) and
/// `engine_path_exact` (the [`ExecMode::Exact`] oracle).
fn path_counter(path: OpPath) -> &'static Counter {
    static FAST: OnceLock<Counter> = OnceLock::new();
    static CORRECTED: OnceLock<Counter> = OnceLock::new();
    static EXACT: OnceLock<Counter> = OnceLock::new();
    match path {
        OpPath::Fast => FAST.get_or_init(|| metrics::counter("engine_path_fast")),
        OpPath::LaneDelta => {
            CORRECTED.get_or_init(|| metrics::counter("engine_path_fast_corrected"))
        }
        OpPath::Exact => EXACT.get_or_init(|| metrics::counter("engine_path_exact")),
    }
}

/// A phase of a conv or linear op, timed by [`PhaseTimer`].
#[derive(Copy, Clone)]
enum Phase {
    Im2col,
    Gemm,
    LaneDelta,
    Sdp,
    Surface,
    Exact,
}

/// The `engine_phase_*_ns` histograms, indexed by [`Phase`].
fn phase_histogram(phase: Phase) -> &'static Histogram {
    static H: OnceLock<[Histogram; 6]> = OnceLock::new();
    let all = H.get_or_init(|| {
        ["im2col", "gemm", "lane_delta", "sdp", "surface", "exact"]
            .map(|p| metrics::histogram(&format!("engine_phase_{p}_ns")))
    });
    &all[phase as usize]
}

/// Lap timer over one op's phases. Armed only when tracing is on at the
/// start of the op; disarmed, [`PhaseTimer::lap`] reads no clock.
struct PhaseTimer(Option<Instant>);

impl PhaseTimer {
    fn start() -> Self {
        PhaseTimer(trace::is_enabled().then(Instant::now))
    }

    /// Records the time since the previous lap as `phase`.
    fn lap(&mut self, phase: Phase) {
        if let Some(last) = &mut self.0 {
            let now = Instant::now();
            let ns = u64::try_from(now.duration_since(*last).as_nanos()).unwrap_or(u64::MAX);
            phase_histogram(phase).observe(ns);
            *last = now;
        }
    }
}

/// Reads the process-wide golden-prefix capture counter (test probe).
#[must_use]
pub fn golden_prefix_passes() -> u64 {
    golden_prefix_counter().get()
}

/// Reads the process-wide golden-restore counter (test probe).
#[must_use]
pub fn golden_restores() -> u64 {
    golden_restore_counter().get()
}

/// What happens on multiplier lanes whose channel index exceeds the layer's
/// channel count (partial channel blocks).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Default)]
pub enum IdleLanePolicy {
    /// Idle lanes multiply zeros — their (overridable!) products still enter
    /// the adder tree, as in CMAC's zero-padded atomic ops. Default.
    #[default]
    ZeroFed,
    /// Idle lanes are clock-gated: no product, faults have no effect there.
    Gated,
}

/// Result of one inference.
#[derive(Clone, Debug)]
pub struct InferenceResult {
    /// Raw i32 logits read back from DRAM.
    pub logits: Vec<i32>,
    /// Argmax class.
    pub class: u8,
    /// Cycle/latency model output for this inference.
    pub perf: PerfReport,
}

/// One cached weight region: the DRAM backing range plus the unpacked
/// `(K, C, R, S)` tensor (whose dense buffer is also the row-major
/// `K x (C*R*S)` GEMM operand).
#[derive(Clone, Debug)]
struct WeightEntry {
    addr: u64,
    bytes: u64,
    shape: Shape4,
    weights: Tensor<i8>,
    /// DRAM under this entry changed since the last unpack.
    dirty: bool,
}

/// Plan-lifetime cache of unpacked weights, indexed by plan-op position.
#[derive(Clone, Debug, Default)]
struct WeightArena {
    entries: Vec<WeightEntry>,
    /// `by_op[i]` is the entry index of plan op `i`, if it has weights.
    by_op: Vec<Option<usize>>,
}

impl WeightArena {
    fn clear(&mut self) {
        self.entries.clear();
        self.by_op.clear();
    }

    /// Marks every entry overlapping `[addr, addr + len)` dirty.
    fn invalidate_overlap(&mut self, addr: u64, len: u64) {
        for e in &mut self.entries {
            if addr < e.addr.saturating_add(e.bytes) && e.addr < addr.saturating_add(len) {
                e.dirty = true;
            }
        }
    }
}

/// Reusable intermediate buffers of the op executors. Every field is
/// resized per use; capacities persist, so the steady state allocates
/// nothing.
#[derive(Clone, Debug, Default)]
struct Scratch {
    /// DMA staging for surface reads and arena refills.
    dma: Vec<i8>,
    /// Unpacked (dense CHW) input of the current op.
    input: Vec<i8>,
    /// im2col column matrix.
    cols: Vec<i8>,
    /// i32 accumulators of the current op.
    acc: Vec<i32>,
    /// Dense CHW output of the current op (pre-packing).
    out: Vec<i8>,
    /// DMA staging for the residual surface.
    res_raw: Vec<i8>,
    /// Unpacked residual input.
    res: Vec<i8>,
    /// Packed output surface to write back.
    packed: Vec<i8>,
    /// Logit staging for the linear head.
    logits: Vec<i32>,
    /// Quantized-input staging of the f32 convenience wrappers.
    qinput: Vec<i8>,
    /// Batched intermediate surfaces (dense CHW, batch-major), by address.
    batch_surfaces: HashMap<u64, Vec<i8>>,
}

/// The emulated accelerator device.
#[derive(Clone, Debug)]
pub struct Accelerator {
    config: AccelConfig,
    csb: CsbSpace,
    dram: Dram,
    plan: Option<Arc<ExecutionPlan>>,
    /// Functional MAC-array cycle counter (atomic ops retired); used to gate
    /// transient fault windows in exact mode.
    cycle: u64,
    arena: WeightArena,
    scratch: Scratch,
    /// Cycle-model report of the loaded plan (fault-independent, so it is
    /// computed once per plan and cloned per inference).
    perf_template: Option<PerfReport>,
    /// Per-op MAC-cycle spans of the loaded plan
    /// ([`ExecutionPlan::mac_cycle_spans`], computed once per plan) — the
    /// schedule table op-scoped exact execution consults per op.
    spans: Vec<Range<u64>>,
}

impl Accelerator {
    /// Creates a device with the given configuration.
    #[must_use]
    pub fn new(config: AccelConfig) -> Self {
        Accelerator {
            config,
            csb: CsbSpace::new(),
            dram: Dram::new(config.dram_capacity),
            plan: None,
            cycle: 0,
            arena: WeightArena::default(),
            scratch: Scratch::default(),
            perf_template: None,
            spans: Vec::new(),
        }
    }

    /// The device configuration.
    #[must_use]
    pub fn config(&self) -> &AccelConfig {
        &self.config
    }

    /// CSB register write (AXI4-Lite).
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::BadRegister`] for unmapped addresses.
    pub fn csb_write(&mut self, addr: u32, value: u32) -> Result<(), AccelError> {
        self.csb.write(addr, value)
    }

    /// CSB register read (AXI4-Lite).
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::BadRegister`] for unmapped addresses.
    pub fn csb_read(&self, addr: u32) -> Result<u32, AccelError> {
        self.csb.read(addr)
    }

    /// Host DMA into DRAM. Invalidates any weight-arena entry whose backing
    /// region overlaps the written range.
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::DramOutOfBounds`] on a bad range.
    pub fn dma_write(&mut self, addr: u64, bytes: &[i8]) -> Result<(), AccelError> {
        self.dram.write_i8(addr, bytes)?;
        self.arena.invalidate_overlap(addr, bytes.len() as u64);
        Ok(())
    }

    /// Bytes of DRAM backing memory this device holds: one past the highest
    /// byte ever written (see the crate docs' DRAM memory model). Cloning the
    /// device copies exactly this much DRAM.
    #[must_use]
    pub fn dram_resident_bytes(&self) -> u64 {
        self.dram.resident_bytes()
    }

    /// Host DMA out of DRAM.
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::DramOutOfBounds`] on a bad range.
    pub fn dma_read(&self, addr: u64, len: u64) -> Result<Vec<i8>, AccelError> {
        self.dram.read_i8(addr, len)
    }

    /// Flips one bit of DRAM — a memory single-event upset (SEU). Pointing
    /// this at a weight region emulates weight-memory faults, complementing
    /// the datapath injectors (part of the paper's "study the impact of
    /// introducing various FT mechanisms" future-work agenda). A flip that
    /// lands in a cached weight region invalidates the arena entry, so the
    /// next inference re-reads the faulted bytes exactly as a cold device
    /// would.
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::DramOutOfBounds`] if `addr` is outside DRAM.
    ///
    /// # Panics
    ///
    /// Panics if `bit >= 8`.
    pub fn flip_dram_bit(&mut self, addr: u64, bit: u8) -> Result<(), AccelError> {
        assert!(bit < 8, "bit index {bit} out of a byte");
        let byte = self.dram.read_i8(addr, 1)?[0];
        self.dram.write_i8(addr, &[byte ^ (1 << bit)])?;
        self.arena.invalidate_overlap(addr, 1);
        Ok(())
    }

    /// Exports the loaded plan's weight regions as a DRAM image: one
    /// `(addr, bytes)` record per conv/linear weight region, read from the
    /// device's **current** DRAM contents — so a weight-memory SEU injected
    /// with [`Accelerator::flip_dram_bit`] travels with the image. This is
    /// what a distributed campaign ships to remote workers once per session
    /// (the `nvfi-dist` coordinator), the software analogue of DMA-ing the
    /// programmed bitstream's weight memory to another board.
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::NoPlan`] if no plan is loaded; propagates DRAM
    /// errors.
    pub fn export_weight_image(&mut self) -> Result<Vec<(u64, Vec<i8>)>, AccelError> {
        if self.plan.is_none() {
            return Err(AccelError::NoPlan);
        }
        let regions: Vec<(u64, u64)> = self
            .arena
            .entries
            .iter()
            .map(|e| (e.addr, e.bytes))
            .collect();
        let mut out = Vec::with_capacity(regions.len());
        for (addr, bytes) in regions {
            out.push((addr, self.dram.read_i8(addr, bytes)?));
        }
        Ok(out)
    }

    /// Imports a weight image exported by [`Accelerator::export_weight_image`]
    /// (or carried by [`ExecutionPlan::weight_image`]): DMA-writes every
    /// region, invalidating overlapping weight-arena entries so the next
    /// inference unpacks the imported bytes exactly as a cold device would.
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::DramOutOfBounds`] if a region does not fit.
    pub fn import_weight_image(&mut self, regions: &[(u64, Vec<i8>)]) -> Result<(), AccelError> {
        for (addr, bytes) in regions {
            self.dma_write(*addr, bytes)?;
        }
        Ok(())
    }

    /// Loads a compiled plan: validates it against the DRAM capacity,
    /// preloads the packed weight regions and builds the weight arena.
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::BadPlan`] if the plan does not fit.
    pub fn load_plan(&mut self, plan: &ExecutionPlan) -> Result<(), AccelError> {
        if plan.dram_size > self.config.dram_capacity {
            return Err(AccelError::BadPlan(format!(
                "plan needs {} bytes, device has {}",
                plan.dram_size, self.config.dram_capacity
            )));
        }
        for (addr, bytes) in &plan.weight_image {
            self.dram.write_i8(*addr, bytes)?;
        }
        self.install_plan(Arc::new(plan.clone()))
    }

    /// Loads a plan that was streamed into the command FIFO as register
    /// writes (see [`nvfi_compiler::plan::encode_reg_stream`]). Weights must
    /// be DMA'd separately, exactly as a real driver would; the arena
    /// entries built here start dirty-on-write, so weight DMA arriving after
    /// the commit is picked up on first use.
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::BadPlan`] if the FIFO contents do not decode.
    pub fn commit_cmd_fifo(&mut self) -> Result<(), AccelError> {
        let plan = nvfi_compiler::plan::decode_words(&self.csb.cmd_fifo)
            .map_err(|e| AccelError::BadPlan(e.to_string()))?;
        if plan.dram_size > self.config.dram_capacity {
            return Err(AccelError::BadPlan("plan exceeds dram".into()));
        }
        self.install_plan(Arc::new(plan))
    }

    /// Shared tail of the two plan loaders: resets the run state and builds
    /// the weight arena from the plan's current DRAM contents.
    fn install_plan(&mut self, plan: Arc<ExecutionPlan>) -> Result<(), AccelError> {
        // A window programmed before the plan (or valid for a previous
        // plan) must be re-validated against this plan's schedule, or a
        // stale past-the-end window would silently disarm every injection.
        if let Some(w) = &self.csb.fi.window {
            Self::validate_window(w, plan.total_mac_cycles())?;
        }
        self.cycle = 0;
        // Every surface the plan touches lies below `dram_size`, so one
        // reservation keeps steady-state inference free of DRAM reallocation.
        self.dram.reserve(plan.dram_size);
        self.perf_template = Some(perf::plan_report(&plan, self.config.clock_hz));
        self.spans = plan.mac_cycle_spans();
        self.arena.clear();
        self.arena.by_op = vec![None; plan.ops.len()];
        for (i, op) in plan.ops.iter().enumerate() {
            let (addr, shape) = match op {
                PlanOp::Conv(c) => (c.weight_addr, c.geom.weight_shape()),
                PlanOp::Linear(l) => (l.weight_addr, Shape4::new(l.out_f, l.in_f, 1, 1)),
                PlanOp::Pool(_) => continue,
            };
            let bytes = surface::weight_bytes(shape.n, shape.c, shape.h, shape.w) as u64;
            self.arena.by_op[i] = Some(self.arena.entries.len());
            self.arena.entries.push(WeightEntry {
                addr,
                bytes,
                shape,
                weights: Tensor::zeros(shape),
                dirty: true,
            });
        }
        self.plan = Some(plan);
        // Eager unpack so campaign steady state starts warm.
        for i in 0..self.arena.by_op.len() {
            self.refresh_weights(i)?;
        }
        Ok(())
    }

    /// Re-unpacks the weights of plan op `op_idx` from DRAM if the cached
    /// copy is stale (or was never filled).
    fn refresh_weights(&mut self, op_idx: usize) -> Result<(), AccelError> {
        let Some(Some(ei)) = self.arena.by_op.get(op_idx).copied() else {
            return Ok(());
        };
        if !self.arena.entries[ei].dirty {
            return Ok(());
        }
        let (addr, bytes, shape) = {
            let e = &self.arena.entries[ei];
            (e.addr, e.bytes, e.shape)
        };
        self.dram.read_i8_into(addr, bytes, &mut self.scratch.dma)?;
        let e = &mut self.arena.entries[ei];
        surface::unpack_weights_into(&self.scratch.dma, shape, e.weights.as_mut_slice());
        e.dirty = false;
        Ok(())
    }

    /// Applies the register writes of `stream` (FI programming, command
    /// FIFO, ...) in order.
    ///
    /// # Errors
    ///
    /// Propagates the first failing write.
    pub fn apply_reg_stream(&mut self, stream: &[RegWrite]) -> Result<(), AccelError> {
        for w in stream {
            self.csb_write(w.addr, w.value)?;
        }
        Ok(())
    }

    /// Programs a fault configuration through the CSB registers.
    pub fn inject(&mut self, fault: &FaultConfig) {
        self.inject_writes(&fault.reg_writes());
    }

    /// Programs a fault from an already-encoded register stream.
    ///
    /// [`FaultConfig::reg_writes`] allocates the stream; when the same fault
    /// is re-injected across every member of a device pool, encoding it once
    /// and replaying the writes per device keeps re-injection allocation-free.
    pub fn inject_writes(&mut self, writes: &[RegWrite]) {
        for w in writes {
            self.csb
                .write(w.addr, w.value)
                .expect("FI registers are mapped");
        }
    }

    /// Disables all fault injection.
    pub fn clear_faults(&mut self) {
        self.csb.fi = FaultInjectorBank::new();
    }

    /// Restricts injection to a cycle window (a transient / "pulse" fault).
    /// Under [`ExecMode::Auto`] only the ops whose MAC-cycle span intersects
    /// the window pay anything: lane-delta visits the selected lanes'
    /// products inside the window, and every other op runs the clean GEMM.
    /// [`ExecMode::Exact`] runs every product through the oracle. Windowed
    /// batches run image by image, the granularity of golden-prefix
    /// restores.
    ///
    /// Cycle numbering restarts at every launched inference (see
    /// [`Accelerator::mac_cycles_retired`]), so the window describes a pulse
    /// relative to inference start: every image of a campaign experiences
    /// the same transient, regardless of which device of a pool — or which
    /// position in a mini-batch — it lands on.
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::FastPathUnsupported`] for a non-`None` window
    /// under [`ExecMode::Fast`] (its contract is permanent full-lane
    /// overrides; rejecting here surfaces the conflict before any
    /// inference), and [`AccelError::BadPlan`] if a plan is loaded and the
    /// window cannot overlap any retired MAC cycle (`1..=total`): such a
    /// "pulse" would silently run a fault-free campaign.
    pub fn set_fault_window(&mut self, window: Option<Range<u64>>) -> Result<(), AccelError> {
        if let Some(w) = &window {
            self.validate_fault_window(w)?;
        }
        self.csb.fi.window = window;
        Ok(())
    }

    /// Read-only validation of a prospective transient window: everything
    /// [`Accelerator::set_fault_window`] checks (execution-mode conflict,
    /// plan-schedule overlap when a plan is loaded) without mutating the
    /// device — for callers that want to surface window errors up front.
    ///
    /// # Errors
    ///
    /// Same contract as [`Accelerator::set_fault_window`].
    pub fn validate_fault_window(&self, window: &Range<u64>) -> Result<(), AccelError> {
        if self.config.mode == ExecMode::Fast {
            return Err(AccelError::FastPathUnsupported);
        }
        if let Some(plan) = &self.plan {
            Self::validate_window(window, plan.total_mac_cycles())?;
        }
        Ok(())
    }

    /// Rejects a transient window that cannot overlap any retired MAC cycle
    /// (`1..=total`) of a plan. Shared by [`Accelerator::set_fault_window`]
    /// and the plan loaders (a window programmed before — or across — plan
    /// loads is re-validated at install time).
    fn validate_window(w: &Range<u64>, total: u64) -> Result<(), AccelError> {
        if w.start >= w.end || w.end <= 1 || w.start > total {
            return Err(AccelError::BadPlan(format!(
                "transient fault window {}..{} cannot overlap any MAC \
                 cycle of this plan (the per-inference counter retires \
                 cycles 1..={total}); the campaign would be a \
                 fault-free no-op",
                w.start, w.end
            )));
        }
        Ok(())
    }

    /// The per-inference MAC-cycle span `[start, end)` of every plan op, in
    /// retired-counter numbering (see [`ExecutionPlan::mac_cycle_spans`]).
    /// Empty without a loaded plan.
    #[must_use]
    pub fn mac_cycle_spans(&self) -> &[Range<u64>] {
        &self.spans
    }

    /// Total MAC cycles one inference of the loaded plan retires.
    #[must_use]
    pub fn total_mac_cycles(&self) -> Option<u64> {
        self.plan.as_ref().map(|p| p.total_mac_cycles())
    }

    /// Index of the first plan op whose MAC-cycle span intersects `window`
    /// — the earliest op that can observe a transient fault in that window.
    /// `None` without a plan or when the window misses every op.
    #[must_use]
    pub fn first_op_in_window(&self, window: &Range<u64>) -> Option<usize> {
        self.spans.iter().position(|s| span_intersects(s, window))
    }

    /// MAC cycles retired by ops `0..boundary` — the value the cycle counter
    /// holds when op `boundary` starts, which a golden restore
    /// ([`Accelerator::run_suffix_i8_view`]) must re-seed.
    ///
    /// # Panics
    ///
    /// Panics if `boundary > ops.len()` of the loaded plan (or none is).
    #[must_use]
    pub fn prefix_mac_cycles(&self, boundary: usize) -> u64 {
        if boundary == self.spans.len() {
            return self.spans.last().map_or(0, |s| s.end - 1);
        }
        self.spans[boundary].start - 1
    }

    /// The functional MAC-array cycle counter: atomic ops retired by the
    /// most recent inference launch ([`Accelerator::run_inference_i8`] run,
    /// or one [`Accelerator::run_batch_i8`] fast-path batch). The counter
    /// restarts at each launch so transient fault windows are
    /// per-inference-deterministic.
    #[must_use]
    pub fn mac_cycles_retired(&self) -> u64 {
        self.cycle
    }

    /// Quantizes, runs and classifies one f32 image (shape `(1, C, H, W)`).
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::NoPlan`] without a loaded plan,
    /// [`AccelError::BadPlan`] if `image` is not exactly one plan-shaped
    /// image, or any engine error.
    pub fn run_inference(&mut self, image: &Tensor<f32>) -> Result<InferenceResult, AccelError> {
        let plan = self.plan.as_ref().ok_or(AccelError::NoPlan)?;
        let s = image.shape();
        if s.n != 1 || s != plan.input_shape.with_n(1) {
            return Err(AccelError::BadPlan(format!(
                "input {s} does not match plan input {} (single image)",
                plan.input_shape
            )));
        }
        let scale = plan.input_scale;
        let mut qimg = std::mem::take(&mut self.scratch.qinput);
        nvfi_quant::batch::quantize_slice_into(image.as_slice(), scale, &mut qimg);
        let result = self.run_inference_i8_view(&qimg);
        self.scratch.qinput = qimg;
        result
    }

    /// Runs one pre-quantized i8 image.
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::NoPlan`] without a loaded plan,
    /// [`AccelError::BadPlan`] if `image` is not exactly one plan-shaped
    /// image (multi-image batches go through
    /// [`Accelerator::run_batch_i8`]), or any engine error.
    pub fn run_inference_i8(&mut self, image: &Tensor<i8>) -> Result<InferenceResult, AccelError> {
        let plan = self.plan.as_ref().ok_or(AccelError::NoPlan)?;
        let s = image.shape();
        if s.n != 1 || s != plan.input_shape.with_n(1) {
            return Err(AccelError::BadPlan(format!(
                "input {s} does not match plan input {} (single image)",
                plan.input_shape
            )));
        }
        self.run_inference_i8_view(image.image(0))
    }

    /// Runs one pre-quantized i8 image borrowed as a dense CHW slice — the
    /// zero-copy entry point device pools drive with sub-views of a
    /// campaign-lifetime quantized evaluation set.
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::NoPlan`] without a loaded plan,
    /// [`AccelError::BadPlan`] if `image.len()` is not exactly one plan
    /// input image, or any engine error.
    pub fn run_inference_i8_view(&mut self, image: &[i8]) -> Result<InferenceResult, AccelError> {
        let plan = self.plan.clone().ok_or(AccelError::NoPlan)?;
        // Per-inference cycle numbering: transient windows gate on cycles
        // since *this* launch, not since plan load.
        self.cycle = 0;
        self.write_input_surface(&plan, image)?;
        self.exec_ops(&plan, 0, plan.ops.len())?;
        self.read_result(&plan)
    }

    /// Runs only the plan's prefix `ops[0..boundary]` on one pre-quantized
    /// i8 image, leaving DRAM in exactly the state a full run would have at
    /// that op boundary (and the cycle counter at the prefix's retired
    /// count). This is the **capture** half of the golden-prefix protocol: a
    /// campaign runs it fault-free once per image, snapshots the boundary's
    /// live-in surfaces (see `ExecutionPlan::live_in_surfaces`) and replays
    /// them into [`Accelerator::run_suffix_i8_view`] for every windowed work
    /// item. Counted by the process-wide [`golden_prefix_passes`] probe.
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::NoPlan`] without a loaded plan,
    /// [`AccelError::BadPlan`] on a shape mismatch or `boundary` outside the
    /// plan, or any engine error.
    pub fn run_prefix_i8_view(&mut self, image: &[i8], boundary: usize) -> Result<(), AccelError> {
        let plan = self.plan.clone().ok_or(AccelError::NoPlan)?;
        if boundary > plan.ops.len() {
            return Err(AccelError::BadPlan(format!(
                "prefix boundary {boundary} outside the {}-op plan",
                plan.ops.len()
            )));
        }
        self.cycle = 0;
        self.write_input_surface(&plan, image)?;
        self.exec_ops(&plan, 0, boundary)?;
        golden_prefix_counter().inc();
        Ok(())
    }

    /// Runs the plan's suffix `ops[boundary..]` from a restored golden
    /// prefix: `surfaces` names the boundary's live-in `(addr, bytes)`
    /// regions and `data` holds their bytes back to back, exactly as
    /// captured after [`Accelerator::run_prefix_i8_view`]. The cycle counter
    /// is re-seeded with the prefix's retired count, so transient fault
    /// windows observe the same absolute cycle numbers as a full run —
    /// results are bit-identical to [`Accelerator::run_inference_i8_view`]
    /// of the same image (property-tested in `tests/equivalence.rs`).
    /// Counted by the process-wide [`golden_restores`] probe.
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::NoPlan`] without a loaded plan,
    /// [`AccelError::BadPlan`] if `boundary` is outside the plan or `data`
    /// does not match `surfaces`, or any engine error.
    pub fn run_suffix_i8_view(
        &mut self,
        boundary: usize,
        surfaces: &[(u64, u64)],
        data: &[i8],
    ) -> Result<InferenceResult, AccelError> {
        let plan = self.plan.clone().ok_or(AccelError::NoPlan)?;
        if boundary > plan.ops.len() {
            return Err(AccelError::BadPlan(format!(
                "suffix boundary {boundary} outside the {}-op plan",
                plan.ops.len()
            )));
        }
        let need: u64 = surfaces.iter().map(|(_, b)| b).sum();
        if need != data.len() as u64 {
            return Err(AccelError::BadPlan(format!(
                "golden restore of {} bytes against a {}-byte live-in set",
                data.len(),
                need
            )));
        }
        let mut off = 0usize;
        for &(addr, bytes) in surfaces {
            let bytes = bytes as usize;
            self.dram.write_i8(addr, &data[off..off + bytes])?;
            // Activation surfaces never alias weight regions by allocator
            // construction, but keep the DRAM-mutation contract anyway.
            self.arena.invalidate_overlap(addr, bytes as u64);
            off += bytes;
        }
        self.cycle = self.prefix_mac_cycles(boundary);
        self.exec_ops(&plan, boundary, plan.ops.len())?;
        golden_restore_counter().inc();
        self.read_result(&plan)
    }

    /// Packs one dense-CHW i8 image into the plan's input surface.
    fn write_input_surface(
        &mut self,
        plan: &ExecutionPlan,
        image: &[i8],
    ) -> Result<(), AccelError> {
        let in_shape = plan.input_shape.with_n(1);
        if image.len() != in_shape.image_len() {
            return Err(AccelError::BadPlan(format!(
                "input of {} pixels does not match plan input {} ({} pixels)",
                image.len(),
                plan.input_shape,
                in_shape.image_len()
            )));
        }
        self.scratch.packed.resize(
            surface::surface_bytes(in_shape.c, in_shape.h, in_shape.w),
            0,
        );
        surface::pack_surface_into(image, in_shape, &mut self.scratch.packed);
        let packed = std::mem::take(&mut self.scratch.packed);
        self.dram.write_i8(plan.input_addr, &packed)?;
        self.scratch.packed = packed;
        Ok(())
    }

    /// Executes plan ops `[from, to)` on the per-image path.
    fn exec_ops(&mut self, plan: &ExecutionPlan, from: usize, to: usize) -> Result<(), AccelError> {
        for (i, op) in plan.ops.iter().enumerate().take(to).skip(from) {
            match op {
                PlanOp::Conv(c) => self.exec_conv(i, c)?,
                PlanOp::Pool(p) => self.exec_pool(p)?,
                PlanOp::Linear(l) => self.exec_linear(i, l)?,
            }
        }
        Ok(())
    }

    /// Reads the logits back and assembles an [`InferenceResult`].
    fn read_result(&mut self, plan: &ExecutionPlan) -> Result<InferenceResult, AccelError> {
        let logits = self.dram.read_i32(plan.output_addr, plan.num_classes)?;
        let class = nvfi_quant::exec::argmax(&logits);
        Ok(InferenceResult {
            logits,
            class,
            perf: self.perf_report(),
        })
    }

    fn perf_report(&self) -> PerfReport {
        self.perf_template.clone().expect("plan loaded")
    }

    /// Runs a mini-batch of pre-quantized i8 images.
    ///
    /// On the fast path this executes each layer once for the whole batch —
    /// the images' im2col columns sit side by side in one GEMM — with
    /// intermediate surfaces held in the scratch arena instead of DRAM. The
    /// result is bit-identical to running [`Accelerator::run_inference_i8`]
    /// per image (GEMM output columns are independent, and lane-delta
    /// corrects every column of the mini-batch at once). Under
    /// [`ExecMode::Exact`] or a transient window the batch transparently
    /// runs image by image.
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::NoPlan`] without a loaded plan, or any engine
    /// error.
    pub fn run_batch_i8(
        &mut self,
        images: &Tensor<i8>,
    ) -> Result<Vec<InferenceResult>, AccelError> {
        let plan = self.plan.as_ref().ok_or(AccelError::NoPlan)?;
        let bs = images.shape();
        if bs.n > 0 && bs.with_n(1) != plan.input_shape.with_n(1) {
            return Err(AccelError::BadPlan(format!(
                "input {bs} does not match plan input {}",
                plan.input_shape
            )));
        }
        self.run_batch_i8_view(images.as_slice())
    }

    /// Runs a mini-batch of pre-quantized i8 images borrowed as dense,
    /// back-to-back CHW slices — [`Accelerator::run_batch_i8`] without the
    /// owning [`Tensor`]: device pools point this at sub-views of a
    /// campaign-lifetime quantized evaluation set, so the per-call cost is
    /// zero copies and zero quantization.
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::NoPlan`] without a loaded plan,
    /// [`AccelError::BadPlan`] if `images.len()` is not a whole number of
    /// plan input images, or any engine error.
    pub fn run_batch_i8_view(&mut self, images: &[i8]) -> Result<Vec<InferenceResult>, AccelError> {
        let plan = self.plan.clone().ok_or(AccelError::NoPlan)?;
        let image_len = plan.input_shape.with_n(1).image_len();
        if !images.len().is_multiple_of(image_len) {
            return Err(AccelError::BadPlan(format!(
                "batch of {} pixels is not a whole number of plan input images \
                 ({} pixels each)",
                images.len(),
                image_len
            )));
        }
        let b_n = images.len() / image_len;
        if b_n == 0 {
            return Ok(Vec::new());
        }
        if b_n == 1 || self.per_image_only()? {
            let mut out = Vec::with_capacity(b_n);
            for n in 0..b_n {
                out.push(self.run_inference_i8_view(&images[n * image_len..(n + 1) * image_len])?);
            }
            return Ok(out);
        }
        self.cycle = 0;
        // Seed the surface map with the (already dense NCHW) input batch.
        let input_buf = self
            .scratch
            .batch_surfaces
            .entry(plan.input_addr)
            .or_default();
        input_buf.clear();
        input_buf.extend_from_slice(images);
        let mut logits_per_image: Vec<Vec<i32>> = Vec::new();
        for (i, op) in plan.ops.iter().enumerate() {
            match op {
                PlanOp::Conv(c) => self.exec_conv_batch(i, c, b_n)?,
                PlanOp::Pool(p) => self.exec_pool_batch(p, b_n),
                PlanOp::Linear(l) => {
                    logits_per_image = self.exec_linear_batch(i, l, b_n)?;
                }
            }
        }
        if logits_per_image.len() != b_n {
            return Err(AccelError::BadPlan("plan has no linear head".into()));
        }
        // DRAM parity for the last image's logits (per-image runs leave the
        // most recent inference's logits at the output address).
        if let Some(last) = logits_per_image.last() {
            self.dram.write_i32(plan.output_addr, last)?;
        }
        Ok(logits_per_image
            .into_iter()
            .map(|logits| {
                let class = nvfi_quant::exec::argmax(&logits);
                InferenceResult {
                    logits,
                    class,
                    perf: self.perf_report(),
                }
            })
            .collect())
    }

    /// Classifies a batch of f32 images: one quantization pass over the
    /// whole batch, then [`Accelerator::classify_batch_i8`]. A thin
    /// quantize-then-delegate wrapper — quantization is elementwise, so the
    /// predictions are bit-identical to quantizing per mini-batch (or per
    /// image).
    ///
    /// # Errors
    ///
    /// Propagates the first engine error.
    pub fn classify_batch(&mut self, images: &Tensor<f32>) -> Result<Vec<u8>, AccelError> {
        let plan = self.plan.as_ref().ok_or(AccelError::NoPlan)?;
        let s = images.shape();
        if s.n > 0 && s.with_n(1) != plan.input_shape.with_n(1) {
            return Err(AccelError::BadPlan(format!(
                "input {s} does not match plan input {}",
                plan.input_shape
            )));
        }
        let scale = plan.input_scale;
        let mut qbatch = std::mem::take(&mut self.scratch.qinput);
        nvfi_quant::batch::quantize_slice_into(images.as_slice(), scale, &mut qbatch);
        let result = self.classify_batch_i8(&qbatch);
        self.scratch.qinput = qbatch;
        result
    }

    /// Classifies a batch of pre-quantized i8 images borrowed as dense,
    /// back-to-back CHW slices, running the fast path over mini-batches of
    /// [`AccelConfig::batch`] images. Each mini-batch is a borrowed sub-view
    /// — no per-call copy and no quantization, which is what lets a
    /// fault-injection campaign quantize its evaluation set exactly once.
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::BadPlan`] if `images.len()` is not a whole
    /// number of plan input images; propagates the first engine error.
    pub fn classify_batch_i8(&mut self, images: &[i8]) -> Result<Vec<u8>, AccelError> {
        let plan = self.plan.as_ref().ok_or(AccelError::NoPlan)?;
        let image_len = plan.input_shape.with_n(1).image_len();
        if !images.len().is_multiple_of(image_len) {
            return Err(AccelError::BadPlan(format!(
                "batch of {} pixels is not a whole number of plan input images \
                 ({} pixels each)",
                images.len(),
                image_len
            )));
        }
        let n = images.len() / image_len;
        let batch = self.config.batch.max(1);
        let mut out = Vec::with_capacity(n);
        let mut n0 = 0;
        while n0 < n {
            let nn = (n0 + batch).min(n);
            for r in self.run_batch_i8_view(&images[n0 * image_len..nn * image_len])? {
                out.push(r.class);
            }
            n0 = nn;
        }
        Ok(out)
    }

    /// Top-1 accuracy over a labelled set.
    ///
    /// # Errors
    ///
    /// Propagates the first engine error.
    ///
    /// # Panics
    ///
    /// Panics if `labels.len() != images.shape().n`.
    pub fn accuracy(&mut self, images: &Tensor<f32>, labels: &[u8]) -> Result<f64, AccelError> {
        assert_eq!(images.shape().n, labels.len());
        if labels.is_empty() {
            return Ok(0.0);
        }
        let preds = self.classify_batch(images)?;
        let correct = preds.iter().zip(labels).filter(|(p, y)| p == y).count();
        Ok(correct as f64 / labels.len() as f64)
    }

    // -- internal op execution ---------------------------------------------

    /// Whether the next batch must run image by image: always under
    /// [`ExecMode::Exact`] (the oracle is per-image), and under an armed
    /// transient window, whose golden-prefix restores are per image.
    fn per_image_only(&self) -> Result<bool, AccelError> {
        self.check_fast_contract()?;
        let fi = &self.csb.fi;
        Ok(self.config.mode == ExecMode::Exact || (fi.any_active() && fi.window.is_some()))
    }

    /// [`ExecMode::Fast`] accepts only permanent full-lane overrides.
    fn check_fast_contract(&self) -> Result<(), AccelError> {
        let fi = &self.csb.fi;
        let outside = fi.any_active() && (!fi.is_full_override() || fi.window.is_some());
        if self.config.mode == ExecMode::Fast && outside {
            return Err(AccelError::FastPathUnsupported);
        }
        Ok(())
    }

    /// The execution path of plan op `op_idx` under the current fault
    /// programming: [`OpPath::Exact`] under [`ExecMode::Exact`], otherwise
    /// [`OpPath::Fast`] when no selected lane observes any cycle of the op
    /// (no active fault, or a window missing its span) and
    /// [`OpPath::LaneDelta`] when one does.
    fn op_path(&self, op_idx: usize) -> Result<OpPath, AccelError> {
        let path = if self.config.mode == ExecMode::Exact {
            OpPath::Exact
        } else {
            self.check_fast_contract()?;
            if self.csb.fi.any_active() && !self.faulted_cycles(op_idx).is_empty() {
                OpPath::LaneDelta
            } else {
                OpPath::Fast
            }
        };
        path_counter(path).inc();
        Ok(path)
    }

    /// The op-local MAC cycles of plan op `op_idx` (`0` is its first cycle)
    /// during which the injectors are armed: all of them for a permanent
    /// fault, the window's overlap with the op's schedule-table span
    /// otherwise. Computed from the span table rather than the running
    /// counter, so batched and golden-suffix runs see the same range.
    fn faulted_cycles(&self, op_idx: usize) -> Range<u64> {
        let span = &self.spans[op_idx];
        match &self.csb.fi.window {
            None => 0..span.end - span.start,
            Some(w) => {
                let (lo, hi) = (w.start.max(span.start), w.end.min(span.end));
                if lo < hi {
                    lo - span.start..hi - span.start
                } else {
                    0..0
                }
            }
        }
    }

    /// Atomic-op (MAC-array cycle) count of plan op `op_idx`, read from the
    /// cached schedule table — the *same* numbers the exact engine retires
    /// one by one, so fast-path bulk bumps and exact per-product counting
    /// can never drift apart.
    fn op_mac_cycles(&self, op_idx: usize) -> u64 {
        let s = &self.spans[op_idx];
        s.end - s.start
    }

    fn exec_conv(&mut self, op_idx: usize, op: &ConvOp) -> Result<(), AccelError> {
        let path = self.op_path(op_idx)?;
        let op_cycles = self.op_mac_cycles(op_idx);
        let faulted = self.faulted_cycles(op_idx);
        self.refresh_weights(op_idx)?;
        let mut timer = PhaseTimer::start();
        let g = op.geom;
        let in_shape = g.input.with_n(1);
        let in_bytes = surface::surface_bytes(g.input.c, g.input.h, g.input.w) as u64;
        self.dram
            .read_i8_into(op.input_addr, in_bytes, &mut self.scratch.dma)?;
        self.scratch.input.resize(in_shape.image_len(), 0);
        surface::unpack_surface_into(&self.scratch.dma, in_shape, &mut self.scratch.input);
        // Residual surface, if fused.
        let out_shape = Shape4::new(1, g.k, g.oh, g.ow);
        let residual = match op.fuse_add_addr {
            Some(addr) => {
                let bytes = surface::surface_bytes(g.k, g.oh, g.ow) as u64;
                self.dram
                    .read_i8_into(addr, bytes, &mut self.scratch.res_raw)?;
                self.scratch.res.resize(out_shape.image_len(), 0);
                surface::unpack_surface_into(
                    &self.scratch.res_raw,
                    out_shape,
                    &mut self.scratch.res,
                );
                true
            }
            None => false,
        };
        timer.lap(Phase::Surface);
        // Accumulate.
        let this = &mut *self;
        let fi = &this.csb.fi;
        let gated = this.config.idle_lanes == IdleLanePolicy::Gated;
        let weights =
            &this.arena.entries[this.arena.by_op[op_idx].expect("conv has weights")].weights;
        let scratch = &mut this.scratch;
        scratch.acc.resize(g.k * g.oh * g.ow, 0);
        if path == OpPath::Exact {
            scratch.acc.fill(0);
            conv_exact_into(
                fi,
                gated,
                &mut this.cycle,
                &scratch.input,
                weights,
                &g,
                &mut scratch.acc,
            );
            timer.lap(Phase::Exact);
        } else {
            im2col_gemm(
                &scratch.input,
                weights.as_slice(),
                &g,
                &mut scratch.cols,
                &mut scratch.acc,
                &mut timer,
            );
            this.cycle += op_cycles;
            if path == OpPath::LaneDelta {
                lane_delta_into(
                    fi,
                    gated,
                    faulted,
                    weights.as_slice(),
                    &scratch.cols,
                    &g,
                    &mut scratch.acc,
                    1,
                );
                timer.lap(Phase::LaneDelta);
            }
        }
        // SDP: bias, requant, optional residual add, relu, saturate.
        scratch.out.resize(out_shape.image_len(), 0);
        sdp_into(
            op,
            &g,
            &scratch.acc,
            g.oh * g.ow,
            0,
            residual.then_some(&scratch.res[..]),
            &mut scratch.out,
        );
        timer.lap(Phase::Sdp);
        scratch
            .packed
            .resize(surface::surface_bytes(g.k, g.oh, g.ow), 0);
        surface::pack_surface_into(&scratch.out, out_shape, &mut scratch.packed);
        let packed = std::mem::take(&mut this.scratch.packed);
        this.dram.write_i8(op.output_addr, &packed)?;
        this.scratch.packed = packed;
        timer.lap(Phase::Surface);
        Ok(())
    }

    /// Batched convolution: surfaces come from and go to the scratch
    /// surface map; one GEMM, and one lane-delta pass under a fault, cover
    /// the whole mini-batch.
    fn exec_conv_batch(
        &mut self,
        op_idx: usize,
        op: &ConvOp,
        b_n: usize,
    ) -> Result<(), AccelError> {
        let op_cycles = self.op_mac_cycles(op_idx);
        let faulted = self.faulted_cycles(op_idx);
        self.refresh_weights(op_idx)?;
        let mut timer = PhaseTimer::start();
        let g = op.geom;
        let in_len = g.input.image_len();
        let out_shape = Shape4::new(1, g.k, g.oh, g.ow);
        let out_len = out_shape.image_len();
        let n_cols = g.oh * g.ow;
        let wide_n = b_n * n_cols;
        let crs = g.input.c * g.r * g.s;

        let this = &mut *self;
        let fi = &this.csb.fi;
        let gated = this.config.idle_lanes == IdleLanePolicy::Gated;
        let weights =
            &this.arena.entries[this.arena.by_op[op_idx].expect("conv has weights")].weights;
        let scratch = &mut this.scratch;
        let input = scratch
            .batch_surfaces
            .remove(&op.input_addr)
            .expect("batched conv input surface computed");
        assert_eq!(input.len(), b_n * in_len, "batched input length mismatch");
        // im2col the whole batch side by side, then one GEMM.
        scratch.cols.resize(crs * wide_n, 0);
        for b in 0..b_n {
            im2col::im2col_into_offset(
                &input[b * in_len..(b + 1) * in_len],
                &g,
                &mut scratch.cols,
                wide_n,
                b * n_cols,
            );
        }
        timer.lap(Phase::Im2col);
        scratch.acc.resize(g.k * wide_n, 0);
        scratch.acc.fill(0);
        gemm::gemm_i8_i32_into(
            weights.as_slice(),
            &scratch.cols,
            &mut scratch.acc,
            g.k,
            crs,
            wide_n,
        );
        timer.lap(Phase::Gemm);
        this.cycle += op_cycles * b_n as u64;
        if fi.any_active() {
            lane_delta_into(
                fi,
                gated,
                faulted,
                weights.as_slice(),
                &scratch.cols,
                &g,
                &mut scratch.acc,
                b_n,
            );
            timer.lap(Phase::LaneDelta);
        }
        // SDP per image into the batched output surface. The output buffer
        // is owned (pulled out of the map), so the residual can stay a
        // borrow of its map entry.
        let mut out = scratch
            .batch_surfaces
            .remove(&op.output_addr)
            .unwrap_or_default();
        out.resize(b_n * out_len, 0);
        {
            let residual = op.fuse_add_addr.map(|addr| {
                scratch
                    .batch_surfaces
                    .get(&addr)
                    .expect("batched residual surface computed")
            });
            for b in 0..b_n {
                sdp_into(
                    op,
                    &g,
                    &scratch.acc,
                    wide_n,
                    b * n_cols,
                    residual.map(|r| &r[b * out_len..(b + 1) * out_len]),
                    &mut out[b * out_len..(b + 1) * out_len],
                );
            }
        }
        timer.lap(Phase::Sdp);
        // Re-insert the input first: if the allocator aliased the output
        // onto the input region, DRAM semantics say the write wins.
        scratch.batch_surfaces.insert(op.input_addr, input);
        scratch.batch_surfaces.insert(op.output_addr, out);
        Ok(())
    }

    fn exec_pool(&mut self, op: &PoolOp) -> Result<(), AccelError> {
        let s = op.in_shape;
        let bytes = surface::surface_bytes(s.c, s.h, s.w) as u64;
        self.dram
            .read_i8_into(op.input_addr, bytes, &mut self.scratch.dma)?;
        self.scratch.input.resize(s.image_len(), 0);
        surface::unpack_surface_into(&self.scratch.dma, s.with_n(1), &mut self.scratch.input);
        let o = op.out_shape();
        self.scratch.out.resize(o.image_len(), 0);
        pool_into(op, &self.scratch.input, &mut self.scratch.out);
        self.scratch
            .packed
            .resize(surface::surface_bytes(o.c, o.h, o.w), 0);
        surface::pack_surface_into(&self.scratch.out, o, &mut self.scratch.packed);
        let packed = std::mem::take(&mut self.scratch.packed);
        self.dram.write_i8(op.output_addr, &packed)?;
        self.scratch.packed = packed;
        Ok(())
    }

    fn exec_pool_batch(&mut self, op: &PoolOp, b_n: usize) {
        let s = op.in_shape;
        let in_len = s.image_len();
        let o = op.out_shape();
        let out_len = o.image_len();
        let input = self
            .scratch
            .batch_surfaces
            .remove(&op.input_addr)
            .expect("batched pool input surface computed");
        let mut out = self
            .scratch
            .batch_surfaces
            .remove(&op.output_addr)
            .unwrap_or_default();
        out.resize(b_n * out_len, 0);
        for b in 0..b_n {
            pool_into(
                op,
                &input[b * in_len..(b + 1) * in_len],
                &mut out[b * out_len..(b + 1) * out_len],
            );
        }
        self.scratch.batch_surfaces.insert(op.input_addr, input);
        self.scratch.batch_surfaces.insert(op.output_addr, out);
    }

    fn exec_linear(&mut self, op_idx: usize, op: &LinearOp) -> Result<(), AccelError> {
        let path = self.op_path(op_idx)?;
        let op_cycles = self.op_mac_cycles(op_idx);
        let faulted = self.faulted_cycles(op_idx);
        self.refresh_weights(op_idx)?;
        let mut timer = PhaseTimer::start();
        let in_shape = Shape4::new(1, op.in_f, 1, 1);
        let bytes = surface::surface_bytes(op.in_f, 1, 1) as u64;
        self.dram
            .read_i8_into(op.input_addr, bytes, &mut self.scratch.dma)?;
        self.scratch.input.resize(in_shape.image_len(), 0);
        surface::unpack_surface_into(&self.scratch.dma, in_shape, &mut self.scratch.input);
        timer.lap(Phase::Surface);
        // The head runs on the same MAC array as a 1x1 convolution over a
        // 1x1 spatial extent — faults apply here too.
        let g = ConvGeom::new(in_shape, op.out_f, 1, 1, 1, 0);
        let this = &mut *self;
        let fi = &this.csb.fi;
        let gated = this.config.idle_lanes == IdleLanePolicy::Gated;
        let weights =
            &this.arena.entries[this.arena.by_op[op_idx].expect("linear has weights")].weights;
        let scratch = &mut this.scratch;
        scratch.acc.resize(op.out_f, 0);
        if path == OpPath::Exact {
            scratch.acc.fill(0);
            conv_exact_into(
                fi,
                gated,
                &mut this.cycle,
                &scratch.input,
                weights,
                &g,
                &mut scratch.acc,
            );
            timer.lap(Phase::Exact);
        } else {
            im2col_gemm(
                &scratch.input,
                weights.as_slice(),
                &g,
                &mut scratch.cols,
                &mut scratch.acc,
                &mut timer,
            );
            this.cycle += op_cycles;
            if path == OpPath::LaneDelta {
                lane_delta_into(
                    fi,
                    gated,
                    faulted,
                    weights.as_slice(),
                    &scratch.cols,
                    &g,
                    &mut scratch.acc,
                    1,
                );
                timer.lap(Phase::LaneDelta);
            }
        }
        scratch.logits.clear();
        scratch
            .logits
            .extend((0..op.out_f).map(|o| scratch.acc[o].wrapping_add(op.bias[o])));
        timer.lap(Phase::Sdp);
        let logits = std::mem::take(&mut this.scratch.logits);
        this.dram.write_i32(op.output_addr, &logits)?;
        this.scratch.logits = logits;
        timer.lap(Phase::Surface);
        Ok(())
    }

    fn exec_linear_batch(
        &mut self,
        op_idx: usize,
        op: &LinearOp,
        b_n: usize,
    ) -> Result<Vec<Vec<i32>>, AccelError> {
        let op_cycles = self.op_mac_cycles(op_idx);
        let faulted = self.faulted_cycles(op_idx);
        self.refresh_weights(op_idx)?;
        let mut timer = PhaseTimer::start();
        let in_shape = Shape4::new(1, op.in_f, 1, 1);
        let g = ConvGeom::new(in_shape, op.out_f, 1, 1, 1, 0);
        let this = &mut *self;
        let fi = &this.csb.fi;
        let gated = this.config.idle_lanes == IdleLanePolicy::Gated;
        let weights =
            &this.arena.entries[this.arena.by_op[op_idx].expect("linear has weights")].weights;
        let scratch = &mut this.scratch;
        let input = scratch
            .batch_surfaces
            .remove(&op.input_addr)
            .expect("batched linear input surface computed");
        assert_eq!(
            input.len(),
            b_n * op.in_f,
            "batched linear input length mismatch"
        );
        // B operand: (in_f x b_n), i.e. the batch-major input transposed.
        scratch.cols.resize(op.in_f * b_n, 0);
        for b in 0..b_n {
            for c in 0..op.in_f {
                scratch.cols[c * b_n + b] = input[b * op.in_f + c];
            }
        }
        timer.lap(Phase::Im2col);
        scratch.acc.resize(op.out_f * b_n, 0);
        scratch.acc.fill(0);
        gemm::gemm_i8_i32_into(
            weights.as_slice(),
            &scratch.cols,
            &mut scratch.acc,
            op.out_f,
            op.in_f,
            b_n,
        );
        timer.lap(Phase::Gemm);
        this.cycle += op_cycles * b_n as u64;
        if fi.any_active() {
            lane_delta_into(
                fi,
                gated,
                faulted,
                weights.as_slice(),
                &scratch.cols,
                &g,
                &mut scratch.acc,
                b_n,
            );
            timer.lap(Phase::LaneDelta);
        }
        let logits = (0..b_n)
            .map(|b| {
                (0..op.out_f)
                    .map(|o| scratch.acc[o * b_n + b].wrapping_add(op.bias[o]))
                    .collect()
            })
            .collect();
        timer.lap(Phase::Sdp);
        scratch.batch_surfaces.insert(op.input_addr, input);
        Ok(logits)
    }
}

/// Whether two half-open cycle ranges overlap (an empty range — e.g. a
/// pool op's span — never does, even when it sits strictly inside the
/// other range).
fn span_intersects(a: &Range<u64>, b: &Range<u64>) -> bool {
    !a.is_empty() && !b.is_empty() && a.start < b.end && b.start < a.end
}

/// Ground-truth convolution: every product through its injector mux.
/// Schedule (defines the cycle numbering for transient windows):
/// kernel-group -> output row -> output col -> channel-block -> tap.
/// `acc` is the dense `K x OH x OW` accumulator (pre-zeroed).
fn conv_exact_into(
    fi: &FaultInjectorBank,
    gated: bool,
    cycle: &mut u64,
    input: &[i8],
    weights: &Tensor<i8>,
    g: &ConvGeom,
    acc: &mut [i32],
) {
    let (kg_n, cb_n) = (g.k.div_ceil(8), g.input.c.div_ceil(8));
    let (h, w) = (g.input.h, g.input.w);
    for kg in 0..kg_n {
        for oy in 0..g.oh {
            for ox in 0..g.ow {
                for cb in 0..cb_n {
                    for r in 0..g.r {
                        for s in 0..g.s {
                            *cycle += 1;
                            let iy = (oy * g.stride + r) as isize - g.pad as isize;
                            let ix = (ox * g.stride + s) as isize - g.pad as isize;
                            let in_bounds =
                                iy >= 0 && ix >= 0 && iy < h as isize && ix < w as isize;
                            for m in 0..8usize {
                                let k = kg * 8 + m;
                                if k >= g.k {
                                    continue; // kernel-tail MAC output discarded
                                }
                                let mut psum = 0i32;
                                for j in 0..8usize {
                                    let c = cb * 8 + j;
                                    let idle = c >= g.input.c;
                                    if idle && gated {
                                        continue;
                                    }
                                    let a = if idle || !in_bounds {
                                        0i8
                                    } else {
                                        input[(c * h + iy as usize) * w + ix as usize]
                                    };
                                    let wv = if idle { 0i8 } else { weights.at(k, c, r, s) };
                                    let p = fi.apply(m * 8 + j, I18::from_product(a, wv), *cycle);
                                    psum = psum.wrapping_add(p.value());
                                }
                                let slot = &mut acc[(k * g.oh + oy) * g.ow + ox];
                                *slot = slot.wrapping_add(psum);
                            }
                        }
                    }
                }
            }
        }
    }
}

/// The injector's `fsel`/`fdata` mux and XOR as a branch-free map on one
/// product: what [`FaultInjectorBank::apply`] makes of a selected lane's
/// product inside the window, in plain i32 arithmetic so the lane-delta
/// loops vectorize.
#[derive(Copy, Clone, Debug)]
struct LaneMux {
    /// Wires passed through (`!fsel`).
    keep: u32,
    /// Wires forced to one (`fdata & fsel`).
    set: u32,
    /// Wires inverted after the mux.
    xor: u32,
}

impl LaneMux {
    fn of(fi: &FaultInjectorBank) -> Self {
        let fsel = fi.fsel & I18::MASK;
        LaneMux {
            keep: !fsel & I18::MASK,
            set: fi.fdata & fsel,
            xor: fi.xor & I18::MASK,
        }
    }

    /// `f(p) − p`: the change the injector makes to product `p`.
    #[inline(always)]
    fn delta(self, p: i32) -> i32 {
        let bits = ((p as u32 & self.keep) | self.set) ^ self.xor;
        // Sign-extend the 18-bit lane (bit 17) into the i32.
        (((bits << 14) as i32) >> 14) - p
    }
}

/// Lane-delta (see the module docs): adds `f(p) − p` over the selected
/// lanes' products inside the op-local cycle range `faulted` to the clean
/// accumulators of one op.
///
/// `cols` is the op's `C*R*S x n` im2col matrix and `acc` its `K x n`
/// accumulator, with `n = images * OH * OW` and image `b`'s columns at
/// `b * OH * OW`. `weights` is the dense `K x C*R*S` weight matrix.
#[allow(clippy::too_many_arguments)]
fn lane_delta_into(
    fi: &FaultInjectorBank,
    gated: bool,
    faulted: Range<u64>,
    weights: &[i8],
    cols: &[i8],
    g: &ConvGeom,
    acc: &mut [i32],
    images: usize,
) {
    let (c_in, rs, pix) = (g.input.c, g.r * g.s, g.oh * g.ow);
    let (crs, n, cb_n) = (c_in * rs, images * pix, c_in.div_ceil(8));
    let op_cycles = (g.k.div_ceil(8) * pix * cb_n * rs) as u64;
    let mux = LaneMux::of(fi);
    // Zero-fed idle channels multiply zeros; gated ones make no product.
    let f0 = if gated { 0 } else { mux.delta(0) };
    if faulted == (0..op_cycles) {
        for lane in fi.selected_lanes() {
            let (m, j) = (usize::from(lane.mac), usize::from(lane.mult));
            let real_blocks = if j < c_in { (c_in - j).div_ceil(8) } else { 0 };
            let idle = f0.wrapping_mul(((cb_n - real_blocks) * rs) as i32);
            for k in (m..g.k).step_by(8) {
                let arow = &mut acc[k * n..(k + 1) * n];
                if idle != 0 {
                    for a in arow.iter_mut() {
                        *a = a.wrapping_add(idle);
                    }
                }
                for c in (j..c_in).step_by(8) {
                    for row in c * rs..(c + 1) * rs {
                        let w = i32::from(weights[k * crs + row]);
                        for (a, &x) in arow.iter_mut().zip(&cols[row * n..(row + 1) * n]) {
                            *a = a.wrapping_add(mux.delta(w * i32::from(x)));
                        }
                    }
                }
            }
        }
        return;
    }
    // Windowed: walk the range's cycles `(kg, pixel, cb, tap)` in order.
    let first = faulted.start as usize;
    let (mut tap, mut cb) = (first % rs, first / rs % cb_n);
    let (mut px, mut kg) = (first / rs / cb_n % pix, first / rs / cb_n / pix);
    for _ in faulted {
        for lane in fi.selected_lanes() {
            let k = kg * 8 + usize::from(lane.mac);
            let c = cb * 8 + usize::from(lane.mult);
            if k >= g.k || (c >= c_in && gated) {
                continue;
            }
            let row = c * rs + tap;
            for b in 0..images {
                let col = b * pix + px;
                let d = if c < c_in {
                    mux.delta(i32::from(weights[k * crs + row]) * i32::from(cols[row * n + col]))
                } else {
                    f0
                };
                acc[k * n + col] = acc[k * n + col].wrapping_add(d);
            }
        }
        tap += 1;
        if tap == rs {
            tap = 0;
            cb += 1;
            if cb == cb_n {
                cb = 0;
                px += 1;
                if px == pix {
                    px = 0;
                    kg += 1;
                }
            }
        }
    }
}

/// The clean accumulation of one image: im2col into `cols` (resized as
/// needed), then the GEMM into `acc` (overwritten), timed as two phases.
fn im2col_gemm(
    input: &[i8],
    weights: &[i8],
    g: &ConvGeom,
    cols: &mut Vec<i8>,
    acc: &mut [i32],
    timer: &mut PhaseTimer,
) {
    let (crs, n_cols) = (g.input.c * g.r * g.s, g.oh * g.ow);
    cols.resize(crs * n_cols, 0);
    im2col::im2col_into(input, g, cols);
    timer.lap(Phase::Im2col);
    acc.fill(0);
    gemm::gemm_i8_i32_into(weights, cols, acc, g.k, crs, n_cols);
    timer.lap(Phase::Gemm);
}

/// SDP post-processing of one image: bias, per-channel requantization,
/// optional rescaled residual add, ReLU, saturation. Reads accumulator
/// element `(k, oy, ox)` at `k * row_stride + col_off + oy * OW + ox` and
/// writes the dense `K x OH x OW` output. The bias, both requantizers and
/// the ReLU flag are hoisted out of the pixel loop, which is then
/// branch-free and vectorizes.
fn sdp_into(
    op: &ConvOp,
    g: &ConvGeom,
    acc: &[i32],
    row_stride: usize,
    col_off: usize,
    residual: Option<&[i8]>,
    out: &mut [i8],
) {
    let n_pix = g.oh * g.ow;
    let relu = op.relu;
    for k in 0..g.k {
        let (rq, bias) = (op.requant_for(k), op.bias[k]);
        let arow = &acc[k * row_stride + col_off..k * row_stride + col_off + n_pix];
        let orow = &mut out[k * n_pix..(k + 1) * n_pix];
        match residual {
            Some(res) => {
                let add_rq = op.add_requant.expect("add requant");
                let rrow = &res[k * n_pix..(k + 1) * n_pix];
                for ((o, &a), &rv) in orow.iter_mut().zip(arow).zip(rrow) {
                    *o = sdp_postprocess(a.wrapping_add(bias), rq, Some((rv, add_rq)), relu);
                }
            }
            None => {
                for (o, &a) in orow.iter_mut().zip(arow) {
                    *o = sdp_postprocess(a.wrapping_add(bias), rq, None, relu);
                }
            }
        }
    }
}

/// PDP pooling of one dense CHW image into a dense CHW output, bit-exact
/// with [`pool::maxpool2d`] / [`nvfi_quant::exec::pdp_global_avg`].
fn pool_into(op: &PoolOp, input: &[i8], out: &mut [i8]) {
    let s = op.in_shape;
    match op.kind {
        PoolKind::Max => {
            let (k, stride) = (op.k, op.stride);
            assert!(
                k > 0 && stride > 0,
                "pooling window and stride must be positive"
            );
            assert!(
                s.h >= k
                    && s.w >= k
                    && (s.h - k).is_multiple_of(stride)
                    && (s.w - k).is_multiple_of(stride),
                "pool {k}/{stride} does not tile {s}"
            );
            let oh = (s.h - k) / stride + 1;
            let ow = (s.w - k) / stride + 1;
            for c in 0..s.c {
                let plane = &input[c * s.h * s.w..(c + 1) * s.h * s.w];
                let oplane = &mut out[c * oh * ow..(c + 1) * oh * ow];
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut best = plane[oy * stride * s.w + ox * stride];
                        for r in 0..k {
                            let row = &plane[(oy * stride + r) * s.w + ox * stride..][..k];
                            for &v in row {
                                if v > best {
                                    best = v;
                                }
                            }
                        }
                        oplane[oy * ow + ox] = best;
                    }
                }
            }
        }
        PoolKind::GlobalAvg => {
            let area = (s.h * s.w) as u32;
            for c in 0..s.c {
                let plane = &input[c * s.h * s.w..(c + 1) * s.h * s.w];
                let mut sum = 0i32;
                for &v in plane {
                    sum = sum.wrapping_add(v as i32);
                }
                out[c] = sat::to_i8(i64::from(pool::rounded_div(sum, area)));
            }
        }
    }
}
