//! # fftx-pw
//!
//! Plane-wave DFT data machinery for the FFTXlib-on-KNL reproduction: the
//! cubic cell and reciprocal units, the G-vector cutoff sphere, the dense
//! FFT grid with QE's good-order rule, sticks (occupied z-columns) and their
//! load-balanced distribution, the two-layer task-group layout of the paper,
//! synthetic band/potential generators, and the serial reference pipeline
//! the distributed kernel is verified against.

#![warn(missing_docs)]

pub mod cell;
pub mod grid;
pub mod gvec;
pub mod layout;
pub mod pencil;
pub mod potential;
pub mod reference;
pub mod sticks;
pub mod wave;

pub use cell::{Cell, DUAL};
pub use grid::FftGrid;
pub use gvec::{GSphere, GVector};
pub use layout::{factorise_rt, GroupIndexMaps, TaskGroupLayout};
pub use pencil::ProcessGrid;
pub use potential::{apply_potential, apply_potential_slab, generate_potential};
pub use reference::{apply_vloc, apply_vloc_band, coeffs_to_grid, grid_to_coeffs};
pub use sticks::{Stick, StickDist, StickSet};
pub use wave::{assemble_shares, band_norm2, extract_share, generate_band, generate_bands};
