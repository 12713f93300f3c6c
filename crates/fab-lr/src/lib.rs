//! # fab-lr
//!
//! The paper's target application: training a logistic-regression model over encrypted data
//! (HELR, Han et al.), used for Table 8 of the evaluation.
//!
//! The crate provides:
//!
//! * a synthetic stand-in for the MNIST 3-vs-8 subset with the same shape (11,982 samples ×
//!   196 features) — see `DESIGN.md` for the substitution rationale,
//! * a plaintext trainer (Nesterov-accelerated gradient descent with a polynomial sigmoid),
//!   which is both the accuracy reference and the source of the iteration structure,
//! * an encrypted trainer running on the `fab-ckks` evaluator at reduced parameters, and
//! * the HELR iteration workload for the `fab-core` accelerator model (FAB-1 / FAB-2 rows of
//!   Table 8).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
mod data;
mod encrypted;
mod plaintext;
mod trace;

#[cfg(test)]
#[path = "../../fab-ckks/tests/support/recording_keys.rs"]
mod recording_keys;

pub use checkpoint::TrainingCheckpoint;
pub use data::{synthetic_mnist_like, Dataset};
pub use encrypted::{
    planned_iteration_trace, CheckpointPolicy, EncryptedLogisticRegression, EncryptedTrainingReport,
};
pub use plaintext::{polynomial_sigmoid, LogisticRegressionTrainer, TrainingConfig};
pub use trace::{helr_iteration_workload, lr_training_time_s, HelrWorkloadBreakdown};
