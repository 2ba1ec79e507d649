//! NCHW tensor containers and the convolution kernels shared by the float
//! trainer, the int8 CPU reference executor and the accelerator model.
//!
//! Everything in this workspace that touches image data flows through this
//! crate, so layout and arithmetic conventions are defined once:
//!
//! * tensors are dense **NCHW** ([`Shape4`], [`Tensor`]);
//! * matrices are dense row-major ([`Mat`]);
//! * convolution is implemented both as a naive reference
//!   ([`conv::conv2d_f32_naive`], [`conv::conv2d_i8_naive`]) and as
//!   im2col + GEMM ([`im2col`], [`gemm`]) — the two are property-tested to be
//!   identical;
//! * int8 convolution accumulates into `i32` with **wrapping** addition,
//!   matching the hardware accumulator (relevant when injected faults push
//!   sums far beyond normal dynamic range). The int8 GEMM forms two
//!   products per 16-bit lane before widening them into `i32`; that is
//!   exact for every input, so its results equal the naive loop's bit for
//!   bit (see [`gemm`]).
//!
//! # Examples
//!
//! ```
//! use nvfi_tensor::{Shape4, Tensor};
//!
//! let mut t = Tensor::<f32>::zeros(Shape4::new(1, 3, 32, 32));
//! t.set(0, 2, 31, 31, 1.5);
//! assert_eq!(t.at(0, 2, 31, 31), 1.5);
//! assert_eq!(t.shape().len(), 3 * 32 * 32);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod conv;
pub mod gemm;
pub mod im2col;
mod mat;
pub mod pool;
mod shape;
mod tensor;

pub use mat::{Mat, MatRef};
pub use shape::{ConvGeom, Shape4};
pub use tensor::Tensor;
