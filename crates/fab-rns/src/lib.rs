//! # fab-rns
//!
//! Residue Number System (RNS) substrate for the FAB reproduction.
//!
//! CKKS ciphertext coefficients live modulo a large composite `Q = q_1 · q_2 · … · q_ℓ`
//! (Section 2.1.1 of the paper). Representing each coefficient by its residues modulo the
//! word-sized limbs `q_i` lets every operation run on machine words — and lets the FAB
//! functional units run on 54-bit limbs. This crate provides:
//!
//! * [`RnsBasis`] — an ordered set of NTT-enabled limb moduli,
//! * [`RnsPolynomial`] — a limb-major polynomial in **one flat contiguous allocation**
//!   (limb `i` at `data[i·N .. (i+1)·N]`) with an explicit per-polynomial [`Domain`] tag
//!   (coefficient vs evaluation), maintained by the transform entry points and checked by
//!   the kernels — domain bugs fail loudly, and domain-resident callers skip transforms
//!   whose input already matches,
//! * [`BasisConverter`] — the approximate RNS basis conversion of Equation (1), operating on
//!   the flat layout with construction-time Shoup constants and lazy `[0, 2q)` accumulation,
//! * [`ops`] — the ModUp / ModDown / Rescale / Decomp kernels used by hybrid key switching,
//!   with precomputed [`ops::ModUpPlan`] / [`ops::ModDownPlan`] objects and a reusable
//!   [`ops::ConvertScratch`] so steady-state key switching allocates nothing,
//! * [`kskip`] (the `fab-math` row kernel, re-exported here) — the **u128 lazy key-switch
//!   inner product**: products of all β digits are summed coefficient-major into
//!   per-coefficient `u128` sums that never leave registers and reduced *once* per
//!   coefficient (into the canonical `[0, q)`, which the inverse NTT consumes), with an
//!   overflow-safe periodic fold derived from the limb bit-width
//!   ([`fab_math::Modulus::u128_mac_capacity`]),
//! * [`metering`] — the thread-local meter of NTT transforms and bytes moved (one
//!   [`metering::Tally`]), so tests can assert `recorded == closed-form formula` per
//!   operation instead of trusting timings.
//!
//! Per-limb work (NTTs, conversion targets, elementwise arithmetic) fans out over the
//! `fab-par` worker pool; the default worker count is 1 (serial), so results are bitwise
//! deterministic unless a caller opts into `FAB_THREADS > 1` — and remain bitwise identical
//! even then, because limbs partition into disjoint jobs.
//!
//! ```
//! use fab_rns::{RnsBasis, RnsPolynomial, Representation};
//!
//! # fn main() -> Result<(), fab_rns::RnsError> {
//! let basis = RnsBasis::generate(1 << 6, 30, 3)?;
//! let poly = RnsPolynomial::zero(1 << 6, basis.len(), Representation::Coefficient);
//! assert_eq!(poly.limb_count(), 3);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod basis;
mod convert;
mod error;
pub mod metering;
pub mod ops;
mod poly;

pub use basis::RnsBasis;
pub use convert::{crt_recombine_u128, BasisConverter};
pub use error::RnsError;
pub use fab_math::kskip;
pub use poly::{Domain, Representation, RnsPolynomial};

/// Result alias used throughout the RNS crate.
pub type Result<T> = std::result::Result<T, RnsError>;
