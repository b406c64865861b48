//! # fftx-fft
//!
//! From-scratch FFT engine for the FFTXlib-on-KNL reproduction: complex
//! arithmetic, a mixed-radix Cooley–Tukey kernel with closed-form
//! 2/3/4/5/7 butterflies and a generic O(r²) loop for the primes 11 to 37,
//! Bluestein for arbitrary lengths, the batched strided entry points
//! FFTXlib's `fft_scalar` module exposes (`cft_1z`, `cft_2xy`), a dense
//! 3-D reference transform, and the paper's operation-count model feeding
//! the KNL simulator. [`Fft`] is the one public plan type.
//!
//! Conventions (matching Quantum ESPRESSO):
//! * `Direction::Forward` = negative exponent = r-space → G-space, and the
//!   batched/3-D wrappers scale it by `1/N`;
//! * `Direction::Inverse` = positive exponent = G-space → r-space,
//!   unnormalised.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod batch;
pub(crate) mod bluestein;
pub mod cache;
pub mod complex;
pub mod dft;
pub mod fft1d;
pub mod fft3d;
pub(crate) mod kernel;
pub mod opcount;
pub mod planner;

pub use batch::{cft_1z, cft_2xy, cft_2xy_buf, cft_2xy_sticks};
pub use cache::cached_plan;
pub use complex::{c64, max_dist, Complex64};
pub use dft::{naive_dft, naive_dft_3d, Direction};
pub use fft1d::{scale_in_place, Fft};
pub use fft3d::Fft3;
pub use planner::{good_fft_order, is_good_size};
