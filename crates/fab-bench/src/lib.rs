//! # fab-bench
//!
//! Paper-table regeneration for the FAB reproduction: the [`tables`] module regenerates every
//! table and figure of the paper's evaluation section from the accelerator model, the CKKS
//! parameter sets and the published baseline constants. Measurement lives in the stand-alone
//! `benchmark/` package (the ladder), not here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod tables;

pub use tables::{render_all, render_experiment, Experiment};
