//! # fab
//!
//! Top-level facade of the FAB reproduction ("FAB: An FPGA-based Accelerator for
//! Bootstrappable Fully Homomorphic Encryption", HPCA 2023): re-exports the arithmetic
//! substrate, the RNS layer, the CKKS scheme with bootstrapping, the accelerator model and the
//! logistic-regression application under one roof, so examples and downstream users only need
//! a single dependency.
//!
//! ## The trace-recording loop
//!
//! The workspace is organised around one seam: every homomorphic execution can *record* the
//! operations it performs (as [`trace::OpTrace`]), and the accelerator model *costs* exactly
//! those recorded operations — so the modelled FPGA numbers can never silently drift away
//! from what the scheme really executes.
//!
//! 1. Build an instrumented evaluator ([`ckks::Evaluator::with_sink`]), bootstrapper
//!    ([`ckks::Bootstrapper::with_sink`]) or encrypted trainer
//!    ([`logistic_regression::EncryptedLogisticRegression::with_sink`]) with a
//!    [`trace::RecordingSink`] (or a cheap always-on [`trace::CountingSink`]).
//! 2. Run the real encrypted computation; the sink observes one [`trace::HeOp`] per semantic
//!    operation, phase-marked with the labels of [`trace::phase`].
//! 3. Feed the recorded trace to [`accelerator::OpCostModel::cost_trace`] (or
//!    [`accelerator::OpCostModel::phase_costs`]) to get modelled FPGA cycles, NTT counts, HBM
//!    traffic and wall-clock time at any parameter set.
//!
//! ## Bootstrapping: one rotation schedule, planned then executed
//!
//! Bootstrapping (ModRaise → CoeffToSlot → EvalMod → SlotToCoeff) is organised around a
//! *plan → execute* flow. Every CoeffToSlot/SlotToCoeff stage carries a [`ckks::BsgsPlan`]:
//! the baby-step/giant-step regrouping of its diagonal offsets that FAB schedules on the
//! FPGA — the distinct baby rotations run as **one hoisted batch** sharing a single
//! key-switch Decomp→ModUp ([`ckks::Evaluator::rotate_hoisted_batch`]), each giant group pays
//! one full rotation, and the total drops from one key switch per diagonal to ~`2·√d`. The
//! *same plan object* then drives three views that the workspace tests pin together op for
//! op:
//!
//! * the **real execution** ([`ckks::Bootstrapper::bootstrap`]) on ciphertexts,
//! * the **planned trace** ([`ckks::Bootstrapper::predicted_trace`]) on `(level, scale)`
//!   shadows, and
//! * the **accelerator workload** ([`accelerator::workload::bootstrap_trace`]), which prices
//!   each stage from the structural offset sets without touching a polynomial.
//!
//! Sparsely-packed ciphertexts (messages in the first `s` slots, as `fab-lr` packs them) get
//! a real sparse-slot entry point: `BootstrapParams::sparse_for_scheme` inserts a SubSum
//! projection onto the packing subring, factors the tiled sub-FFT over `s` slots and packs the
//! real and imaginary halves into one slot vector so EvalMod runs once; the encrypted
//! trainer's end-of-iteration refresh
//! ([`logistic_regression::EncryptedLogisticRegression::train_with_refresh`]) is recorded end
//! to end instead of being hand-approximated.
//!
//! Every software-faithful analytic trace has a *recorded counterpart test* asserting exact
//! per-phase agreement — see [`ckks::Bootstrapper::predicted_trace`] and
//! [`logistic_regression::planned_iteration_trace`]. The planned HELR iteration packs a whole
//! mini-batch into one ciphertext; its test also checks a decrypted iteration in every slot
//! against the per-sample cleartext update and pins the plan's rotation and multiply counts
//! (`2·log2 f + log2 C` and 2 per chunk of `C` samples with `f` slots each). The Table 8
//! model ([`logistic_regression::lr_training_time_s`]) prices one planned iteration and
//! refresh at the HELR task's shape: the per-chunk phases are FAB-2's data-parallel part,
//! the batch sum, update, mask and bootstrap its serial part.
//!
//! ## The numeric substrate: flat layout, lazy reduction, limb parallelism
//!
//! The software pipeline runs on a substrate engineered for throughput (PR 3–4):
//!
//! * **Flat limb-major polynomials** — [`rns::RnsPolynomial`] stores all limbs in one
//!   contiguous allocation (limb `i` at `data[i·N .. (i+1)·N]`), so kernels stream
//!   cache-line-contiguous rows and a polynomial is a single allocation.
//! * **Lazy-reduction NTT** — [`math::NttTable::forward`]/[`math::NttTable::inverse`] keep
//!   butterflies in the extended `[0, 2q)`/`[0, 4q)` domains with one correction pass at the
//!   end and the `N⁻¹` scaling fused into the last inverse stage; the unit tests pin the
//!   forward transform to direct evaluation of its definition and the inverse to the round
//!   trip.
//! * **Limb parallelism** — per-limb work (NTTs, basis-conversion targets, key-switch digit
//!   products) fans out over the dependency-free `fab-par` worker pool, gated by
//!   `FAB_THREADS` (default 1, so every run is deterministic; results are bitwise identical
//!   at any worker count).
//! * **Scratch-arena evaluator** — steady-state [`ckks::Evaluator`] operations
//!   (`multiply`, `key_switch`, `rotate_hoisted_batch`) lease all temporaries from a shared
//!   buffer pool and reuse cached per-level ModUp/ModDown plans, so the hot path stops
//!   allocating.
//! * **Transform-minimal lazy key switching** — the KSKIP inner product sums the raw
//!   128-bit products of all β digits into per-coefficient u128 accumulators and reduces
//!   *once* per coefficient ([`rns::kskip`]); ModUp + the forward NTTs run as one batched
//!   digit-parallel stage; hoisted rotation batches permute the once-transformed digits in
//!   evaluation domain ([`math::EvalAutomorphismMap`]) instead of re-transforming them; and
//!   `multiply_rescale` divides by `P·q_ℓ` in one fused ModDown+rescale conversion. NTT
//!   counts and bytes moved per operation are *verified*, not assumed: [`ckks::accounting`]
//!   holds one closed form per operation, a [`rns::metering::Tally`] of both, and
//!   `tests/{op,ntt,bytes}_accounting.rs` pin the metered tally to it. The
//!   bitwise baseline is a textbook per-digit key switch over schoolbook products that
//!   lives with the tests (`crates/fab-ckks/tests/support/`), not a second path here.
//!
//! The measured trajectory lives in the `BENCH_pr*.json` records at the repo root: up to
//! `BENCH_pr10.json` frozen history of bench bins since deleted, from PR 11 on the ladder
//! benchmark's one schema (`benchmark/`, `BENCHMARK.json`).
//!
//! ```
//! use fab::prelude::*;
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), fab::ckks::CkksError> {
//! let ctx = CkksContext::new_arc(CkksParams::testing())?;
//! let mut rng = rand_chacha::ChaCha20Rng::seed_from_u64(1);
//! let sk = SecretKey::generate(&ctx, &mut rng);
//! let keygen = KeyGenerator::new(ctx.clone(), sk.clone());
//! let encoder = Encoder::new(ctx.clone());
//! let encryptor = Encryptor::new(ctx.clone(), keygen.public_key(&mut rng));
//! let rlk = keygen.relinearization_key(&mut rng);
//!
//! // Record a real encrypted computation...
//! let sink = RecordingSink::shared("session");
//! let evaluator = Evaluator::with_sink(ctx.clone(), sink.clone());
//! let scale = ctx.params().default_scale();
//! let x = encryptor.encrypt(&encoder.encode_real(&[1.0, 2.0], scale, 3)?, &mut rng)?;
//! let product = evaluator.multiply_rescale(&x, &x, &rlk)?;
//!
//! // ...and ask the accelerator model what it costs on FAB at the paper's parameters.
//! let trace = sink.take();
//! assert_eq!(trace.counts().multiply, 1);
//! let model = OpCostModel::new(FabConfig::alveo_u280(), CkksParams::fab_paper());
//! assert!(model.cost_trace(&trace).time_ms(&FabConfig::alveo_u280()) > 0.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// The RNS-CKKS scheme with hybrid key switching, bootstrapping, and the execute/plan seam.
pub use fab_ckks as ckks;
/// The FAB accelerator model (cost model, memory model, resources, design space, baselines).
pub use fab_core as accelerator;
/// Encrypted logistic regression (the paper's target application).
pub use fab_lr as logistic_regression;
/// Arithmetic substrate: modular arithmetic, NTT, special FFT, automorphisms.
pub use fab_math as math;
/// Residue-number-system substrate: bases, polynomials, basis conversion, ModUp/ModDown.
pub use fab_rns as rns;
/// Multi-tenant serving front-end with a trace-driven evaluation-key cache.
pub use fab_serve as serve;
/// Shared op vocabulary ([`trace::HeOp`], [`trace::OpTrace`]) and trace sinks.
pub use fab_trace as trace;

pub mod tables;

/// Commonly used types, re-exported for convenience.
pub mod prelude {
    pub use fab_ckks::{
        Bootstrapper, Ciphertext, CkksContext, CkksParams, Decryptor, Encoder, Encryptor,
        EvalBackend, Evaluator, ExecBackend, GaloisKeys, KeyGenerator, Plaintext, PlanBackend,
        PlanCiphertext, PublicKey, RelinearizationKey, SecretKey,
    };
    pub use fab_core::{
        FabConfig, KeySwitchDatapath, MultiFpgaSystem, OpCost, OpCostModel, ResourceEstimator,
        TraceCost,
    };
    pub use fab_lr::{
        synthetic_mnist_like, EncryptedLogisticRegression, LogisticRegressionTrainer,
    };
    pub use fab_math::Complex64;
    pub use fab_serve::{
        EvalKeyCache, FabServer, Program, Request, ServeOp, ServerConfig, TenantId,
    };
    pub use fab_trace::{
        CountingSink, HeOp, NoopSink, OpCounts, OpTrace, RecordingSink, TraceSink,
    };
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_are_wired() {
        let params = crate::ckks::CkksParams::fab_paper();
        assert_eq!(params.degree(), 1 << 16);
        let config = crate::accelerator::FabConfig::alveo_u280();
        assert_eq!(config.functional_units, 256);
        let data = crate::logistic_regression::synthetic_mnist_like(10, 4, 1);
        assert_eq!(data.len(), 10);
        assert!(crate::math::is_prime(65537));
        let sink = crate::trace::RecordingSink::new("wired");
        crate::trace::TraceSink::record(&sink, crate::trace::HeOp::Add { level: 1 });
        assert_eq!(sink.snapshot().len(), 1);
    }
}
