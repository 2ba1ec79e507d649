//! The performance (cycle/latency) model.
//!
//! The FPGA numbers of the paper's Table I come from a real 187.5 MHz
//! bitstream; here they come from an analytical cycle model grounded in the
//! same microarchitecture:
//!
//! * the MAC array retires **one atomic op per cycle**
//!   (`OH*OW * ceil(K/8) * ceil(C/8) * R * S` cycles per convolution);
//! * DMA moves 8 bytes per cycle on a 64-bit AXI port, overlapped with
//!   compute (an op costs `max(mac_cycles, dma_cycles)`);
//! * each op pays a fixed setup overhead (register programming + pipeline
//!   fill/drain).
//!
//! The fault injectors are purely combinational muxes in the multiplier
//! output path and add **zero** cycles — matching the paper's observation
//! that the FI variants run at the same 4.59 ms.

use nvfi_compiler::plan::{ExecutionPlan, PlanOp};
use nvfi_compiler::surface;

/// The paper's accelerator clock: 187.5 MHz.
pub const CLOCK_HZ_DEFAULT: f64 = 187.5e6;

/// Fixed per-op setup overhead in cycles (register writes + pipeline fill).
pub const OP_SETUP_CYCLES: u64 = 256;

/// Bytes moved per DMA cycle (64-bit AXI data port).
pub const DMA_BYTES_PER_CYCLE: u64 = 8;

/// Lanes the PDP processes per cycle.
pub const PDP_LANES_PER_CYCLE: u64 = 8;

/// Default host-side inference mini-batch (see [`AccelConfig::batch`]).
pub const BATCH_DEFAULT: usize = 8;

/// Accelerator configuration.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct AccelConfig {
    /// Functional execution mode.
    pub mode: crate::engine::ExecMode,
    /// Idle-lane policy for partial channel blocks.
    pub idle_lanes: crate::engine::IdleLanePolicy,
    /// Core clock in Hz.
    pub clock_hz: f64,
    /// Emulated DRAM capacity in bytes.
    pub dram_capacity: u64,
    /// Host-side mini-batch of [`crate::Accelerator::classify_batch_i8`]: how
    /// many images share one launch, and so one im2col + GEMM pass on the
    /// fast path. Purely a host-emulation throughput knob — results are bit-identical for every value; the
    /// modelled FPGA latency is per-image regardless.
    pub batch: usize,
}

impl Default for AccelConfig {
    fn default() -> Self {
        AccelConfig {
            mode: crate::engine::ExecMode::Auto,
            idle_lanes: crate::engine::IdleLanePolicy::ZeroFed,
            clock_hz: CLOCK_HZ_DEFAULT,
            dram_capacity: nvfi_compiler::lower::DEFAULT_DRAM_CAPACITY,
            batch: BATCH_DEFAULT,
        }
    }
}

/// Cycle breakdown of one inference.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PerfReport {
    /// Cycles per op in plan order.
    pub op_cycles: Vec<u64>,
    /// Total cycles.
    pub total_cycles: u64,
    /// MAC (compute-bound) cycles only.
    pub mac_cycles: u64,
    /// DMA bytes moved.
    pub dma_bytes: u64,
    /// Clock used to convert to time.
    pub clock_hz: f64,
}

impl PerfReport {
    /// Latency of one inference in milliseconds.
    #[must_use]
    pub fn latency_ms(&self) -> f64 {
        self.total_cycles as f64 / self.clock_hz * 1e3
    }

    /// Inference throughput in inferences/second.
    #[must_use]
    pub fn inferences_per_second(&self) -> f64 {
        if self.total_cycles == 0 {
            return 0.0;
        }
        self.clock_hz / self.total_cycles as f64
    }
}

/// Cycles one plan op takes.
#[must_use]
pub fn op_cycles(op: &PlanOp) -> (u64, u64) {
    // Returns (cycles, dma_bytes).
    match op {
        PlanOp::Conv(c) => {
            let g = &c.geom;
            let kg = g.k.div_ceil(8) as u64;
            let cb = g.input.c.div_ceil(8) as u64;
            let mac = (g.oh * g.ow) as u64 * kg * cb * (g.r * g.s) as u64;
            let in_bytes = surface::surface_bytes(g.input.c, g.input.h, g.input.w) as u64;
            let w_bytes = surface::weight_bytes(g.k, g.input.c, g.r, g.s) as u64;
            let out_bytes = surface::surface_bytes(g.k, g.oh, g.ow) as u64;
            let res_bytes = if c.fuse_add_addr.is_some() {
                out_bytes
            } else {
                0
            };
            let dma = in_bytes + w_bytes + out_bytes + res_bytes;
            (mac.max(dma / DMA_BYTES_PER_CYCLE) + OP_SETUP_CYCLES, dma)
        }
        PlanOp::Pool(p) => {
            let s = p.in_shape;
            let in_bytes = surface::surface_bytes(s.c, s.h, s.w) as u64;
            let o = p.out_shape();
            let out_bytes = surface::surface_bytes(o.c, o.h, o.w) as u64;
            let work = (s.c.div_ceil(8) * s.h * s.w) as u64 * 8 / PDP_LANES_PER_CYCLE;
            let dma = in_bytes + out_bytes;
            (work.max(dma / DMA_BYTES_PER_CYCLE) + OP_SETUP_CYCLES, dma)
        }
        PlanOp::Linear(l) => {
            let kg = l.out_f.div_ceil(8) as u64;
            let cb = l.in_f.div_ceil(8) as u64;
            let mac = kg * cb;
            let dma = surface::weight_bytes(l.out_f, l.in_f, 1, 1) as u64
                + surface::surface_bytes(l.in_f, 1, 1) as u64
                + l.out_f as u64 * 4;
            (mac.max(dma / DMA_BYTES_PER_CYCLE) + OP_SETUP_CYCLES, dma)
        }
    }
}

/// Builds the full report for a plan at a given clock.
#[must_use]
pub fn plan_report(plan: &ExecutionPlan, clock_hz: f64) -> PerfReport {
    let mut report = PerfReport {
        clock_hz,
        ..Default::default()
    };
    for op in &plan.ops {
        let (cycles, dma) = op_cycles(op);
        report.op_cycles.push(cycles);
        report.total_cycles += cycles;
        report.dma_bytes += dma;
        if let PlanOp::Conv(c) = op {
            let g = &c.geom;
            report.mac_cycles +=
                (g.oh * g.ow * g.k.div_ceil(8) * g.input.c.div_ceil(8) * g.r * g.s) as u64;
        }
        if let PlanOp::Pool(p) = op {
            // PDP work is accounted in op cycles only.
            let _ = p;
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvfi_compiler::plan::{ConvOp, PoolKind, PoolOp};
    use nvfi_hwnum::Requant;
    use nvfi_tensor::{ConvGeom, Shape4};

    fn conv_op(c: usize, h: usize, k: usize, r: usize) -> PlanOp {
        let geom = ConvGeom::new(Shape4::new(1, c, h, h), k, r, r, 1, r / 2);
        PlanOp::Conv(ConvOp {
            geom,
            input_addr: 0,
            output_addr: 0,
            weight_addr: 0,
            bias: vec![0; k],
            requant: vec![Requant::IDENTITY],
            add_requant: None,
            fuse_add_addr: None,
            relu: false,
        })
    }

    #[test]
    fn conv_cycles_scale_with_work() {
        let (small, _) = op_cycles(&conv_op(8, 8, 8, 3));
        let (big, _) = op_cycles(&conv_op(16, 8, 8, 3));
        assert!(big > small, "{big} vs {small}");
        // Doubling channels doubles channel blocks.
        assert_eq!(big - OP_SETUP_CYCLES, 2 * (small - OP_SETUP_CYCLES));
    }

    #[test]
    fn atomic_op_math() {
        // 8x8 input, 8 channels, 8 kernels, 3x3: 64 pixels * 1 * 1 * 9 = 576.
        let (cycles, _) = op_cycles(&conv_op(8, 8, 8, 3));
        assert_eq!(cycles, 576 + OP_SETUP_CYCLES);
    }

    #[test]
    fn pool_counts_dma() {
        let p = PlanOp::Pool(PoolOp {
            kind: PoolKind::GlobalAvg,
            k: 0,
            stride: 0,
            in_shape: Shape4::new(1, 16, 4, 4),
            input_addr: 0,
            output_addr: 0,
        });
        let (cycles, dma) = op_cycles(&p);
        assert!(cycles > OP_SETUP_CYCLES);
        assert_eq!(dma, (2 * 4 * 4 * 8 + 2 * 8) as u64);
    }

    #[test]
    fn report_latency_uses_clock() {
        let plan = ExecutionPlan {
            input_shape: Shape4::new(1, 8, 8, 8),
            input_scale: 0.1,
            input_addr: 0,
            output_addr: 0,
            num_classes: 0,
            ops: vec![conv_op(8, 8, 8, 3)],
            dram_size: 0,
            weight_image: vec![],
            macs_per_inference: 0,
        };
        let r = plan_report(&plan, 1e6); // 1 MHz: 1 cycle = 1 us
        assert!((r.latency_ms() - r.total_cycles as f64 / 1e3).abs() < 1e-9);
        assert!(r.inferences_per_second() > 0.0);
    }
}
