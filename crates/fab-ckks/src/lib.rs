//! # fab-ckks
//!
//! A from-scratch RNS-CKKS implementation (encoding, encryption, the full evaluator, hybrid
//! key switching, and bootstrapping) serving two roles in the FAB reproduction:
//!
//! 1. the **CPU software baseline** that the paper compares the accelerator against, and
//! 2. the **correctness oracle** for the algorithms whose hardware cost the accelerator model
//!    in `fab-core` estimates.
//!
//! The scheme follows the paper's description (Section 2): RNS limbs of `log q` bits,
//! NTT-based polynomial arithmetic, hybrid (Han–Ki) key switching with `dnum` digits and an
//! extension modulus `P`, and bootstrapping composed of ModRaise, CoeffToSlot, EvalMod
//! (a Chebyshev cosine on a range shrunk by `2^r`, then `r` double-angle steps, evaluated
//! with exact scales) and SlotToCoeff.
//!
//! The homomorphic linear transforms follow a *plan → execute* flow: a [`BsgsPlan`] regroups
//! a transform's diagonals into baby-step/giant-step rotation sets ([`linear_transform`]),
//! the baby steps execute as one hoisted batch sharing a single key-switch decomposition
//! ([`Evaluator::rotate_hoisted_batch`]), and the identical control flow runs on real
//! ciphertexts or on `(level, scale)` shadows through the [`backend`] seam — so a recorded
//! bootstrap and its planned trace agree op for op, and the `fab-core` accelerator workload is
//! the planned trace of a plan-only bootstrapper ([`Bootstrapper::plan_only`]). Sparsely-packed ciphertexts, whose slot vector repeats every
//! `s` slots, bootstrap through a dedicated entry point
//! ([`bootstrap::BootstrapParams::sparse_for_scheme`]) that projects onto the packing subring
//! with SubSum, factors the tiled sub-FFT over the `s` slots, and evaluates EvalMod once on
//! the real and imaginary halves packed into one slot vector.
//!
//! The hot key-switch datapath is **transform-minimal** (PR 4): the β digits are raised and
//! forward-transformed as one batched digit-parallel stage, the KSKIP inner product sums the
//! raw 128-bit products of all digits and reduces once per coefficient
//! (`fab_rns::kskip`), hoisted rotation batches permute the once-transformed digits in
//! evaluation domain instead of re-transforming them, and `multiply_rescale` divides by
//! `P·q_ℓ` in one **fused ModDown+rescale** conversion
//! ([`CkksContext::mod_down_rescale_plan`]).
//!
//! On top of that, the evaluation pipeline is **domain-aware** (PR 5): every polynomial
//! carries a `fab_rns::Domain` tag, and the evaluator exploits it end-to-end. `multiply`
//! keeps its tensor products in evaluation form — `d2` enters the key switch through the
//! **dual-form seam** ([`Evaluator::key_switch`] accepts either domain; an evaluation
//! operand's rows are reused verbatim as the digits' own raised rows), and `P·d0`/`P·d1`
//! are absorbed into the KSKIP accumulators before the accumulator inverse, so no tensor
//! product round-trips through coefficient form. Ciphertexts can be kept **eval-resident**
//! ([`Evaluator::to_evaluation_form`]): `multiply_plain`/`add`/`sub` chains are then
//! transform-free per step, and BSGS applies run against the plan's **NTT-cached** diagonal
//! plaintexts with one inverse pair per giant group
//! ([`Evaluator::multiply_plain_ntt`]) — zero plaintext forwards after the one-time
//! per-level warm-up, reused across applies and bootstrap iterations.
//!
//! **Real constants are per-limb scalars**, never plaintext polynomials:
//! [`Evaluator::multiply_const`], [`Evaluator::accumulate_const`] and
//! [`Evaluator::add_scalar`] work in whatever domain the ciphertext is in and perform no
//! transform. The scale-management composites [`EvalBackend::multiply_scalar`],
//! [`EvalBackend::match_scale`] and [`EvalBackend::align_exact`] (written once on the backend
//! seam, for executor and planner alike) and the Chebyshev leaf
//! ([`ChebyshevSeries::evaluate_with`]: a seed product, then one in-place multiply-accumulate
//! pass per live term at the exact scale ratio, coefficient-resident up to its rescale) are
//! built on them. Only a constant with a non-zero imaginary part is still
//! encoded ([`Encoder::encode_constant`]).
//!
//! The [`accounting`] module carries one closed-form cost per hot operation — its NTT
//! transforms and bytes moved as one `fab_rns::metering::Tally` — asserted against the
//! metered tally by the workspace's `tests/{op,ntt,bytes}_accounting.rs`. Each
//! operation has exactly one executing implementation here; what it computes is pinned
//! bitwise by from-the-definition oracles that live with the tests (`tests/support/`:
//! schoolbook negacyclic product, textbook per-digit key switch and multiplication, the
//! long-way Chebyshev evaluation).
//!
//! ```
//! use fab_ckks::{CkksContext, CkksParams, Decryptor, Encoder, Encryptor, Evaluator,
//!                KeyGenerator, SecretKey};
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), fab_ckks::CkksError> {
//! let ctx = CkksContext::new_arc(CkksParams::testing())?;
//! let mut rng = rand_chacha::ChaCha20Rng::seed_from_u64(7);
//! let sk = SecretKey::generate(&ctx, &mut rng);
//! let keygen = KeyGenerator::new(ctx.clone(), sk.clone());
//! let encoder = Encoder::new(ctx.clone());
//! let encryptor = Encryptor::new(ctx.clone(), keygen.public_key(&mut rng));
//! let decryptor = Decryptor::new(ctx.clone(), sk);
//! let evaluator = Evaluator::new(ctx.clone());
//! let rlk = keygen.relinearization_key(&mut rng);
//!
//! let scale = ctx.params().default_scale();
//! let x = encryptor.encrypt(&encoder.encode_real(&[1.5, 2.0], scale, 3)?, &mut rng)?;
//! let y = encryptor.encrypt(&encoder.encode_real(&[4.0, -1.0], scale, 3)?, &mut rng)?;
//! let product = evaluator.multiply_rescale(&x, &y, &rlk)?;
//! let decoded = encoder.decode_real(&decryptor.decrypt(&product)?);
//! assert!((decoded[0] - 6.0).abs() < 1e-2);
//! assert!((decoded[1] + 2.0).abs() < 1e-2);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod accounting;
pub mod backend;
pub mod bootstrap;
mod chebyshev;
mod ciphertext;
mod context;
mod encoding;
mod encryption;
mod error;
mod evaluator;
mod keys;
pub mod linear_transform;
mod params;
pub mod sampling;
pub mod wire;

// The recording provider of the demanded == planned gates is one file shared with the
// `fab-lr` and `fab-serve` tests, so it names this crate from outside.
#[cfg(test)]
extern crate self as fab_ckks;
#[cfg(test)]
#[path = "../tests/support/recording_keys.rs"]
mod recording_keys;

pub use backend::{EvalBackend, ExecBackend, PlanBackend, PlanCiphertext};
pub use bootstrap::{BootstrapParams, Bootstrapper};
pub use chebyshev::ChebyshevSeries;
pub use ciphertext::{ciphertext_snapshot_bytes, Ciphertext, Plaintext};
pub use context::CkksContext;
pub use encoding::Encoder;
pub use encryption::{Decryptor, Encryptor};
pub use error::CkksError;
pub use evaluator::Evaluator;
pub use keys::{
    key_set_bytes, switching_key_serialized_bytes, GaloisKeys, KeyGenerator, KeyProvider, KeyRef,
    PublicKey, RelinearizationKey, ResidentKeyProvider, SecretKey, SwitchingKey,
};
pub use linear_transform::{BsgsGroup, BsgsPlan, LinearTransform};
pub use params::{CkksParams, CkksParamsBuilder};

/// Result alias used throughout the CKKS crate.
pub type Result<T> = std::result::Result<T, CkksError>;
