//! Execution plans and their register command-stream encoding.

use std::fmt;

use nvfi_hwnum::Requant;
use nvfi_tensor::{ConvGeom, Shape4};

use crate::regmap;
use crate::surface;

/// One register write on the CSB/AXI4-Lite bus.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct RegWrite {
    /// Register address.
    pub addr: u32,
    /// Value written.
    pub value: u32,
}

/// A convolution lowered onto the MAC array (covers 3x3/1x1 convs and the
/// fused residual-add + ReLU SDP pass).
#[derive(Clone, Debug, PartialEq)]
pub struct ConvOp {
    /// Geometry (input shape with `n == 1`).
    pub geom: ConvGeom,
    /// Input feature-surface address.
    pub input_addr: u64,
    /// Output feature-surface address.
    pub output_addr: u64,
    /// Packed weight region address.
    pub weight_addr: u64,
    /// i32 bias per output channel, applied in the accumulator domain.
    pub bias: Vec<i32>,
    /// Requantizer(s): one per output channel, or a single shared one.
    pub requant: Vec<Requant>,
    /// Requantizer for the fused residual input.
    pub add_requant: Option<Requant>,
    /// Address of the residual feature surface, if fused.
    pub fuse_add_addr: Option<u64>,
    /// ReLU after bias/add.
    pub relu: bool,
}

impl ConvOp {
    /// The requantizer for output channel `k`.
    #[inline]
    #[must_use]
    pub fn requant_for(&self, k: usize) -> Requant {
        if self.requant.len() == 1 {
            self.requant[0]
        } else {
            self.requant[k]
        }
    }
}

/// Pooling flavour executed on the PDP.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum PoolKind {
    /// Square-window max pooling.
    Max,
    /// Global average pooling (integer, round-half-away).
    GlobalAvg,
}

/// A pooling op.
#[derive(Clone, Debug, PartialEq)]
pub struct PoolOp {
    /// Pooling flavour.
    pub kind: PoolKind,
    /// Window (ignored for [`PoolKind::GlobalAvg`]).
    pub k: usize,
    /// Stride (ignored for [`PoolKind::GlobalAvg`]).
    pub stride: usize,
    /// Input shape with `n == 1`.
    pub in_shape: Shape4,
    /// Input surface address.
    pub input_addr: u64,
    /// Output surface address.
    pub output_addr: u64,
}

impl PoolOp {
    /// Output shape of the pool.
    #[must_use]
    pub fn out_shape(&self) -> Shape4 {
        match self.kind {
            PoolKind::Max => Shape4::new(
                1,
                self.in_shape.c,
                (self.in_shape.h - self.k) / self.stride + 1,
                (self.in_shape.w - self.k) / self.stride + 1,
            ),
            PoolKind::GlobalAvg => Shape4::new(1, self.in_shape.c, 1, 1),
        }
    }
}

/// The fully connected head, executed on the MAC array as a 1x1 convolution
/// over a 1x1 spatial extent; logits are written as i32 words.
#[derive(Clone, Debug, PartialEq)]
pub struct LinearOp {
    /// Input features.
    pub in_f: usize,
    /// Output features (classes).
    pub out_f: usize,
    /// Input surface address (a `(1, in_f, 1, 1)` surface).
    pub input_addr: u64,
    /// Output address: `out_f` little-endian i32 words.
    pub output_addr: u64,
    /// Packed weight region address (`(out_f, in_f, 1, 1)` blocked layout).
    pub weight_addr: u64,
    /// i32 bias per output.
    pub bias: Vec<i32>,
}

/// One lowered operation.
#[derive(Clone, Debug, PartialEq)]
pub enum PlanOp {
    /// MAC-array convolution (+SDP post-processing).
    Conv(ConvOp),
    /// PDP pooling.
    Pool(PoolOp),
    /// MAC-array fully connected head.
    Linear(LinearOp),
}

/// A compiled network: op list plus the DRAM image of constant data.
#[derive(Clone, Debug, PartialEq)]
pub struct ExecutionPlan {
    /// Input shape with `n == 1`.
    pub input_shape: Shape4,
    /// Scale of quantized input activations (for host-side quantization).
    pub input_scale: f32,
    /// Address the input surface must be written to.
    pub input_addr: u64,
    /// Address logits appear at after execution.
    pub output_addr: u64,
    /// Number of classes (i32 logits at `output_addr`).
    pub num_classes: usize,
    /// Ops in execution order.
    pub ops: Vec<PlanOp>,
    /// Total DRAM bytes the plan needs.
    pub dram_size: u64,
    /// Constant regions (packed weights) to preload: `(addr, bytes)`.
    pub weight_image: Vec<(u64, Vec<i8>)>,
    /// MAC count of one inference (for performance modelling).
    pub macs_per_inference: u64,
}

impl ExecutionPlan {
    /// Number of convolution ops (including the linear head).
    #[must_use]
    pub fn mac_ops(&self) -> usize {
        self.ops
            .iter()
            .filter(|o| matches!(o, PlanOp::Conv(_) | PlanOp::Linear(_)))
            .count()
    }

    /// MAC-array atomic ops (= functional MAC cycles) one op retires.
    /// Pool ops run on the PDP and retire none.
    #[must_use]
    pub fn op_mac_cycles(op: &PlanOp) -> u64 {
        match op {
            PlanOp::Conv(c) => {
                let g = &c.geom;
                (g.oh * g.ow * g.k.div_ceil(8) * g.input.c.div_ceil(8) * g.r * g.s) as u64
            }
            PlanOp::Linear(l) => (l.out_f.div_ceil(8) * l.in_f.div_ceil(8)) as u64,
            PlanOp::Pool(_) => 0,
        }
    }

    /// The per-inference MAC-cycle span `[start, end)` of every op, in the
    /// engine's *retired-counter* domain: the counter is pre-incremented, so
    /// the first atomic op of an inference retires at counter value 1 and op
    /// `i` occupies `[prefix_i + 1, prefix_i + n_i + 1)` where `prefix_i` is
    /// the cumulative atomic-op count of ops `0..i`. Pool ops get an empty
    /// span at their boundary. A transient fault window `w` (see
    /// `Accelerator::set_fault_window`) can only be observed by ops whose
    /// span intersects `w` — the schedule table behind op-scoped exact
    /// execution.
    #[must_use]
    pub fn mac_cycle_spans(&self) -> Vec<std::ops::Range<u64>> {
        let mut spans = Vec::with_capacity(self.ops.len());
        let mut prefix = 0u64;
        for op in &self.ops {
            let n = Self::op_mac_cycles(op);
            spans.push(prefix + 1..prefix + n + 1);
            prefix += n;
        }
        spans
    }

    /// Total MAC cycles one inference retires (the retired counter runs
    /// `1..=total`). The upper bound a transient fault window must start
    /// below to have any effect.
    #[must_use]
    pub fn total_mac_cycles(&self) -> u64 {
        self.ops.iter().map(Self::op_mac_cycles).sum()
    }

    /// The live-in surface set at op boundary `b`: every `(addr, bytes)`
    /// DRAM surface that some op `j >= b` reads before any op in `b..j`
    /// writes it. Restoring exactly these surfaces (plus the MAC-cycle
    /// prefix count) reproduces the machine state a fresh run would reach at
    /// the boundary — what a golden-prefix activation cache checkpoints.
    /// When one address is read at several sizes, the largest wins.
    ///
    /// # Panics
    ///
    /// Panics if `b > self.ops.len()`.
    #[must_use]
    pub fn live_in_surfaces(&self, b: usize) -> Vec<(u64, u64)> {
        assert!(b <= self.ops.len(), "boundary {b} outside the plan");
        let mut written: Vec<u64> = Vec::new();
        let mut live: Vec<(u64, u64)> = Vec::new();
        let read = |live: &mut Vec<(u64, u64)>, written: &[u64], addr: u64, bytes: u64| {
            if written.contains(&addr) {
                return;
            }
            match live.iter_mut().find(|(a, _)| *a == addr) {
                Some((_, sz)) => *sz = (*sz).max(bytes),
                None => live.push((addr, bytes)),
            }
        };
        for op in &self.ops[b..] {
            match op {
                PlanOp::Conv(c) => {
                    let g = &c.geom;
                    read(
                        &mut live,
                        &written,
                        c.input_addr,
                        surface::surface_bytes(g.input.c, g.input.h, g.input.w) as u64,
                    );
                    if let Some(addr) = c.fuse_add_addr {
                        read(
                            &mut live,
                            &written,
                            addr,
                            surface::surface_bytes(g.k, g.oh, g.ow) as u64,
                        );
                    }
                    written.push(c.output_addr);
                }
                PlanOp::Pool(p) => {
                    let s = p.in_shape;
                    read(
                        &mut live,
                        &written,
                        p.input_addr,
                        surface::surface_bytes(s.c, s.h, s.w) as u64,
                    );
                    written.push(p.output_addr);
                }
                PlanOp::Linear(l) => {
                    read(
                        &mut live,
                        &written,
                        l.input_addr,
                        surface::surface_bytes(l.in_f, 1, 1) as u64,
                    );
                    written.push(l.output_addr);
                }
            }
        }
        live
    }

    /// Human-readable plan listing.
    #[must_use]
    pub fn describe(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "execution plan: {} ops, dram {} KiB, {:.2} MMAC/inference",
            self.ops.len(),
            self.dram_size.div_ceil(1024),
            self.macs_per_inference as f64 / 1e6
        );
        for (i, op) in self.ops.iter().enumerate() {
            match op {
                PlanOp::Conv(c) => {
                    let _ = writeln!(
                        s,
                        "  [{i:>2}] {}  in@{:#x} w@{:#x} out@{:#x}{}{}",
                        c.geom,
                        c.input_addr,
                        c.weight_addr,
                        c.output_addr,
                        if c.fuse_add_addr.is_some() {
                            " +residual"
                        } else {
                            ""
                        },
                        if c.relu { " relu" } else { "" },
                    );
                }
                PlanOp::Pool(p) => {
                    let _ = writeln!(
                        s,
                        "  [{i:>2}] {:?}pool {}x{} s{} {} in@{:#x} out@{:#x}",
                        p.kind, p.k, p.k, p.stride, p.in_shape, p.input_addr, p.output_addr
                    );
                }
                PlanOp::Linear(l) => {
                    let _ = writeln!(
                        s,
                        "  [{i:>2}] linear {}->{} in@{:#x} w@{:#x} out@{:#x}",
                        l.in_f, l.out_f, l.input_addr, l.weight_addr, l.output_addr
                    );
                }
            }
        }
        s
    }
}

impl fmt::Display for ExecutionPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.describe())
    }
}

// ---------------------------------------------------------------------------
// Command-stream encoding
// ---------------------------------------------------------------------------

/// Error decoding a register command stream.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// Stream ended mid-descriptor.
    Truncated,
    /// Unknown op tag.
    BadTag(u32),
    /// A field failed validation.
    Invalid(&'static str),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "command stream truncated"),
            DecodeError::BadTag(t) => write!(f, "unknown op tag {t}"),
            DecodeError::Invalid(what) => write!(f, "invalid command stream field: {what}"),
        }
    }
}

impl std::error::Error for DecodeError {}

const TAG_CONV: u32 = 0xC0;
const TAG_POOL_MAX: u32 = 0xC1;
const TAG_POOL_GAVG: u32 = 0xC2;
const TAG_LINEAR: u32 = 0xC3;

/// Serializes the plan into 32-bit descriptor words (weights excluded —
/// they are preloaded into DRAM like a real driver would DMA them).
#[must_use]
pub fn encode_words(plan: &ExecutionPlan) -> Vec<u32> {
    let mut w = Vec::new();
    let put64 = |w: &mut Vec<u32>, v: u64| {
        w.push(v as u32);
        w.push((v >> 32) as u32);
    };
    w.push(plan.input_shape.c as u32);
    w.push(plan.input_shape.h as u32);
    w.push(plan.input_shape.w as u32);
    w.push(plan.input_scale.to_bits());
    put64(&mut w, plan.input_addr);
    put64(&mut w, plan.output_addr);
    w.push(plan.num_classes as u32);
    put64(&mut w, plan.dram_size);
    put64(&mut w, plan.macs_per_inference);
    w.push(plan.ops.len() as u32);
    for op in &plan.ops {
        match op {
            PlanOp::Conv(c) => {
                w.push(TAG_CONV);
                for v in [
                    c.geom.input.c,
                    c.geom.input.h,
                    c.geom.input.w,
                    c.geom.k,
                    c.geom.r,
                    c.geom.s,
                    c.geom.stride,
                    c.geom.pad,
                ] {
                    w.push(v as u32);
                }
                put64(&mut w, c.input_addr);
                put64(&mut w, c.output_addr);
                put64(&mut w, c.weight_addr);
                w.push(u32::from(c.relu));
                match (c.fuse_add_addr, c.add_requant) {
                    (Some(a), Some(rq)) => {
                        w.push(1);
                        put64(&mut w, a);
                        w.push(rq.multiplier() as u32);
                        w.push(u32::from(rq.shift()));
                    }
                    _ => w.push(0),
                }
                w.push(c.bias.len() as u32);
                for &b in &c.bias {
                    w.push(b as u32);
                }
                w.push(c.requant.len() as u32);
                for r in &c.requant {
                    w.push(r.multiplier() as u32);
                    w.push(u32::from(r.shift()));
                }
            }
            PlanOp::Pool(p) => {
                w.push(if p.kind == PoolKind::Max {
                    TAG_POOL_MAX
                } else {
                    TAG_POOL_GAVG
                });
                for v in [p.k, p.stride, p.in_shape.c, p.in_shape.h, p.in_shape.w] {
                    w.push(v as u32);
                }
                put64(&mut w, p.input_addr);
                put64(&mut w, p.output_addr);
            }
            PlanOp::Linear(l) => {
                w.push(TAG_LINEAR);
                w.push(l.in_f as u32);
                w.push(l.out_f as u32);
                put64(&mut w, l.input_addr);
                put64(&mut w, l.output_addr);
                put64(&mut w, l.weight_addr);
                w.push(l.bias.len() as u32);
                for &b in &l.bias {
                    w.push(b as u32);
                }
            }
        }
    }
    w
}

/// Decodes the descriptor words back into a plan (inverse of
/// [`encode_words`]; `weight_image` is left empty).
///
/// # Errors
///
/// Returns [`DecodeError`] on truncated or malformed streams.
pub fn decode_words(words: &[u32]) -> Result<ExecutionPlan, DecodeError> {
    let mut it = words.iter().copied();
    let mut next = || it.next().ok_or(DecodeError::Truncated);
    let mut next64 = {
        // Separate closure not possible with borrow; inline below.
        || -> Result<u64, DecodeError> { unreachable!() }
    };
    let _ = &mut next64;

    macro_rules! n {
        () => {
            next()?
        };
    }
    macro_rules! n64 {
        () => {{
            let lo = next()? as u64;
            let hi = next()? as u64;
            lo | (hi << 32)
        }};
    }

    let c = n!() as usize;
    let h = n!() as usize;
    let w = n!() as usize;
    let input_scale = f32::from_bits(n!());
    if !(input_scale.is_finite() && input_scale > 0.0) {
        return Err(DecodeError::Invalid("input scale"));
    }
    let input_shape = Shape4::new(1, c, h, w);
    let input_addr = n64!();
    let output_addr = n64!();
    let num_classes = n!() as usize;
    let dram_size = n64!();
    let macs_per_inference = n64!();
    let n_ops = n!() as usize;
    if n_ops > 100_000 {
        return Err(DecodeError::Invalid("op count"));
    }
    let mut ops = Vec::with_capacity(n_ops);
    for _ in 0..n_ops {
        let tag = n!();
        let op = match tag {
            TAG_CONV => {
                let ic = n!() as usize;
                let ih = n!() as usize;
                let iw = n!() as usize;
                let k = n!() as usize;
                let r = n!() as usize;
                let s = n!() as usize;
                let stride = n!() as usize;
                let pad = n!() as usize;
                if stride == 0 || k == 0 || r == 0 || s == 0 || ic == 0 {
                    return Err(DecodeError::Invalid("conv geometry"));
                }
                if ih + 2 * pad < r || iw + 2 * pad < s {
                    return Err(DecodeError::Invalid("conv kernel does not fit input"));
                }
                let geom = ConvGeom::new(Shape4::new(1, ic, ih, iw), k, r, s, stride, pad);
                let input_addr = n64!();
                let output_addr = n64!();
                let weight_addr = n64!();
                let relu = n!() != 0;
                let (fuse_add_addr, add_requant) = if n!() != 0 {
                    let a = n64!();
                    (Some(a), Some(decode_requant(n!(), n!())?))
                } else {
                    (None, None)
                };
                let n_bias = n!() as usize;
                if n_bias != k {
                    return Err(DecodeError::Invalid("bias length"));
                }
                let bias: Vec<i32> = (0..n_bias)
                    .map(|_| next().map(|v| v as i32))
                    .collect::<Result<_, _>>()?;
                let n_rq = n!() as usize;
                if n_rq != 1 && n_rq != k {
                    return Err(DecodeError::Invalid("requant length"));
                }
                let mut requant = Vec::with_capacity(n_rq);
                for _ in 0..n_rq {
                    requant.push(decode_requant(n!(), n!())?);
                }
                PlanOp::Conv(ConvOp {
                    geom,
                    input_addr,
                    output_addr,
                    weight_addr,
                    bias,
                    requant,
                    add_requant,
                    fuse_add_addr,
                    relu,
                })
            }
            TAG_POOL_MAX | TAG_POOL_GAVG => {
                let k = n!() as usize;
                let stride = n!() as usize;
                let c = n!() as usize;
                let h = n!() as usize;
                let w = n!() as usize;
                let input_addr = n64!();
                let output_addr = n64!();
                PlanOp::Pool(PoolOp {
                    kind: if tag == TAG_POOL_MAX {
                        PoolKind::Max
                    } else {
                        PoolKind::GlobalAvg
                    },
                    k,
                    stride,
                    in_shape: Shape4::new(1, c, h, w),
                    input_addr,
                    output_addr,
                })
            }
            TAG_LINEAR => {
                let in_f = n!() as usize;
                let out_f = n!() as usize;
                let input_addr = n64!();
                let output_addr = n64!();
                let weight_addr = n64!();
                let n_bias = n!() as usize;
                if n_bias != out_f {
                    return Err(DecodeError::Invalid("linear bias length"));
                }
                let bias: Vec<i32> = (0..n_bias)
                    .map(|_| next().map(|v| v as i32))
                    .collect::<Result<_, _>>()?;
                PlanOp::Linear(LinearOp {
                    in_f,
                    out_f,
                    input_addr,
                    output_addr,
                    weight_addr,
                    bias,
                })
            }
            t => return Err(DecodeError::BadTag(t)),
        };
        ops.push(op);
    }
    Ok(ExecutionPlan {
        input_shape,
        input_scale,
        input_addr,
        output_addr,
        num_classes,
        ops,
        dram_size,
        weight_image: Vec::new(),
        macs_per_inference,
    })
}

/// Decodes a `(multiplier, shift)` word pair, range-checking both raw words
/// before narrowing them: a multiplier word `>= 2^31` would be negative as
/// `i32`, and a shift word of 300 must not alias to 44 as `u8`.
fn decode_requant(multiplier: u32, shift: u32) -> Result<Requant, DecodeError> {
    match (i32::try_from(multiplier), u8::try_from(shift)) {
        (Ok(m), Ok(sh)) if sh <= Requant::MAX_SHIFT => Ok(Requant::from_parts(m, sh)),
        _ => Err(DecodeError::Invalid("requant parts")),
    }
}

/// The plan as CSB register writes: a FIFO reset followed by one write per
/// descriptor word — how a driver streams the plan into the device.
#[must_use]
pub fn encode_reg_stream(plan: &ExecutionPlan) -> Vec<RegWrite> {
    let mut writes = vec![RegWrite {
        addr: regmap::REG_CMD_RESET,
        value: 0,
    }];
    writes.extend(encode_words(plan).into_iter().map(|value| RegWrite {
        addr: regmap::REG_CMD_DATA,
        value,
    }));
    writes
}

/// Decodes a register stream produced by [`encode_reg_stream`].
///
/// # Errors
///
/// Returns [`DecodeError`] if the stream is malformed or contains writes to
/// other registers.
pub fn decode_reg_stream(writes: &[RegWrite]) -> Result<ExecutionPlan, DecodeError> {
    let mut words = Vec::with_capacity(writes.len());
    for w in writes {
        match w.addr {
            regmap::REG_CMD_RESET => words.clear(),
            regmap::REG_CMD_DATA => words.push(w.value),
            _ => return Err(DecodeError::Invalid("write outside command window")),
        }
    }
    decode_words(&words)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_plan() -> ExecutionPlan {
        let geom = ConvGeom::new(Shape4::new(1, 3, 8, 8), 5, 3, 3, 1, 1);
        ExecutionPlan {
            input_shape: Shape4::new(1, 3, 8, 8),
            input_scale: 0.0123,
            input_addr: 0x100,
            output_addr: 0x2000,
            num_classes: 10,
            ops: vec![
                PlanOp::Conv(ConvOp {
                    geom,
                    input_addr: 0x100,
                    output_addr: 0x400,
                    weight_addr: 0x1000,
                    bias: vec![1, -2, 3, -4, 5],
                    requant: vec![Requant::from_scale(0.5).unwrap(); 5],
                    add_requant: Some(Requant::from_scale(0.25).unwrap()),
                    fuse_add_addr: Some(0x100),
                    relu: true,
                }),
                PlanOp::Pool(PoolOp {
                    kind: PoolKind::GlobalAvg,
                    k: 0,
                    stride: 0,
                    in_shape: Shape4::new(1, 5, 8, 8),
                    input_addr: 0x400,
                    output_addr: 0x800,
                }),
                PlanOp::Linear(LinearOp {
                    in_f: 5,
                    out_f: 10,
                    input_addr: 0x800,
                    output_addr: 0x2000,
                    weight_addr: 0x1800,
                    bias: vec![0; 10],
                }),
            ],
            dram_size: 0x4000,
            weight_image: Vec::new(),
            macs_per_inference: 12345,
        }
    }

    #[test]
    fn words_roundtrip() {
        let plan = sample_plan();
        let words = encode_words(&plan);
        let back = decode_words(&words).unwrap();
        assert_eq!(back, plan);
    }

    #[test]
    fn reg_stream_roundtrip() {
        let plan = sample_plan();
        let stream = encode_reg_stream(&plan);
        assert_eq!(stream[0].addr, regmap::REG_CMD_RESET);
        let back = decode_reg_stream(&stream).unwrap();
        assert_eq!(back, plan);
    }

    #[test]
    fn truncation_detected() {
        let words = encode_words(&sample_plan());
        for cut in [0, 1, 5, words.len() / 2, words.len() - 1] {
            assert!(decode_words(&words[..cut]).is_err(), "prefix {cut} decoded");
        }
    }

    #[test]
    fn bad_tag_detected() {
        let mut words = encode_words(&sample_plan());
        // op count is right before first tag; find first tag position by
        // decoding header length: 3 + 1 + 2 + 2 + 1 + 2 + 2 + 1 = 14 words.
        words[14] = 0xDEAD;
        assert!(matches!(
            decode_words(&words),
            Err(DecodeError::BadTag(0xDEAD))
        ));
    }

    #[test]
    fn requant_words_checked_before_narrowing() {
        assert_eq!(decode_requant(5, 62), Ok(Requant::from_parts(5, 62)));
        // 300 would alias to shift 44 as a `u8`.
        assert!(decode_requant(5, 300).is_err());
        assert!(decode_requant(5, 63).is_err());
        assert!(decode_requant(0x8000_0000, 0).is_err());
    }

    #[test]
    fn kernel_larger_than_input_is_rejected() {
        let mut words = encode_words(&sample_plan());
        // The first conv's r field: tag at 14, then ic, ih, iw, k, r.
        assert_eq!(words[19], 3);
        words[19] = 11; // 8 + 2 * pad(1) < 11
        assert_eq!(
            decode_words(&words),
            Err(DecodeError::Invalid("conv kernel does not fit input"))
        );
    }

    #[test]
    fn mac_cycle_spans_tile_the_inference() {
        let plan = sample_plan();
        let spans = plan.mac_cycle_spans();
        assert_eq!(spans.len(), plan.ops.len());
        // Conv: 8x8 out, ceil(5/8)=1 kernel group, ceil(3/8)=1 channel
        // block, 3x3 taps = 576 atomic ops; retired counter is 1-based.
        assert_eq!(spans[0], 1..577);
        // Pool retires no MAC cycles: empty span at its boundary.
        assert_eq!(spans[1], 577..577);
        // Linear: ceil(10/8) * ceil(5/8) = 2 atomic ops.
        assert_eq!(spans[2], 577..579);
        assert_eq!(plan.total_mac_cycles(), 578);
        // Spans are contiguous and ordered.
        for w in spans.windows(2) {
            assert_eq!(w[0].end, w[1].start);
        }
    }

    #[test]
    fn live_in_surfaces_track_reads_before_writes() {
        let plan = sample_plan();
        // Boundary 0: the conv reads its input and the fused residual (same
        // address here), nothing written yet.
        let at0 = plan.live_in_surfaces(0);
        assert_eq!(at0.len(), 1, "input and residual share 0x100");
        assert_eq!(at0[0].0, 0x100);
        // Boundary 1: the pool reads 0x400, which op 0 has already written
        // by then — but from the boundary's perspective nothing in [1..)
        // writes it first, so it is live-in.
        let at1 = plan.live_in_surfaces(1);
        assert_eq!(at1, vec![(0x400, at1[0].1)]);
        // Boundary 2: only the linear input.
        let at2 = plan.live_in_surfaces(2);
        assert_eq!(at2.len(), 1);
        assert_eq!(at2[0].0, 0x800);
        // Boundary past the last op: nothing to restore.
        assert!(plan.live_in_surfaces(3).is_empty());
    }

    #[test]
    fn describe_mentions_all_ops() {
        let plan = sample_plan();
        let text = plan.describe();
        assert!(text.contains("conv"));
        assert!(text.contains("pool"));
        assert!(text.contains("linear"));
        assert!(text.contains("+residual"));
    }
}
