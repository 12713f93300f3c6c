//! # fab-math
//!
//! Arithmetic substrate for the FAB reproduction: word-sized modular arithmetic for
//! NTT-friendly primes, NTT/iNTT over negacyclic rings, the complex "special" FFT used by
//! CKKS encoding, and Galois/automorphism index maps.
//!
//! All higher-level crates (`fab-rns`, `fab-ckks`, `fab-core`) build on these kernels. They
//! compute with `u64`/`u128` words and Shoup or Barrett reduction on the host; they do not
//! emulate the paper's functional unit (Section 4.1: 54-bit operands split into 18- and
//! 27-bit DSP words, the shift-add reduction of Algorithm 1). That unit is described once, by
//! its latencies and DSP count in `fab-core`'s `FabConfig`.
//!
//! ## Lazy-reduction invariants
//!
//! The hot paths work in an extended residue domain instead of reducing canonically after
//! every operation:
//!
//! * [`Modulus::mul_shoup_lazy`] accepts **any** `u64` left operand and returns a residue in
//!   `[0, 2q)`; [`Modulus::add_lazy`] closes `[0, 2q)` under addition.
//! * [`NttTable::forward`] keeps butterfly operands in `[0, 4q)` and corrects once at the
//!   end; [`NttTable::inverse`] works in `[0, 2q)` and fuses the `N⁻¹` scaling into its last
//!   stage. The forward transform is pinned bit-for-bit to direct evaluation of its
//!   definition, the inverse to the round trip on top of it (the `ntt` unit tests).
//! * `q < 2^62` ([`MAX_MODULUS_BITS`]) guarantees `4q` fits in a `u64`, which is what makes
//!   the whole scheme branch-free.
//! * Every such loop has a scalar arm, compiled on every target, and eight-lane vector arms
//!   (`simd.rs`): AVX-512F+DQ when the CPU reports both features at run time, and AVX-512 IFMA
//!   (the 52-bit multiplier) for limbs below `2^50` when it also reports `avx512ifma` — nothing
//!   else selects them. A vector arm computes the *same* lazy representative lane for lane and
//!   is pinned to the scalar arm bit for bit ([`row_kernel_arm`] names the arms in use).
//!   `simd.rs` is the only module of the workspace allowed `unsafe` (this crate denies it
//!   elsewhere, every other crate forbids it): bounds-asserting loads / stores, detection-gated calls.
//!
//! ```
//! use fab_math::{Modulus, NttTable};
//!
//! # fn main() -> Result<(), fab_math::MathError> {
//! let q = fab_math::generate_ntt_prime(54, 1 << 12, 0)?;
//! let modulus = Modulus::new(q)?;
//! let table = NttTable::new(1 << 12, modulus.clone())?;
//! let mut poly = vec![1u64; 1 << 12];
//! table.forward(&mut poly);
//! table.inverse(&mut poly);
//! assert!(poly.iter().all(|&c| c == 1));
//! # Ok(())
//! # }
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod automorph;
mod complex;
mod error;
mod fft;
pub mod kskip;
mod modulus;
mod ntt;
mod prime;
mod rows;
#[allow(unsafe_code)]
mod simd;

pub use automorph::{
    apply_automorphism, bit_reverse_indices, bit_reverse_permute, fab_rotation_index,
    galois_element_for_conjugation, galois_element_for_rotation, AutomorphismMap,
    EvalAutomorphismMap,
};
pub use complex::Complex64;
pub use error::MathError;
pub use fft::SpecialFft;
pub use modulus::{Modulus, MAX_MODULUS_BITS};
pub use ntt::NttTable;
pub use prime::{generate_ntt_prime, generate_ntt_primes, is_prime};

/// Which arms of the row kernels and NTT sweeps this CPU takes: `"avx512ifma+dq"` (the 52-bit
/// multiplier for limbs below `2^50`, the AVX-512F+DQ arm for wider ones), `"avx512f+dq"` (the
/// eight-lane DQ arm for every limb) or `"scalar"`. Decided by run-time feature detection
/// alone; the limb picks between the two vector arms.
pub fn row_kernel_arm() -> &'static str {
    if simd::ifma_detected() {
        "avx512ifma+dq"
    } else if simd::detected() {
        "avx512f+dq"
    } else {
        "scalar"
    }
}

/// Result alias used throughout the math crate.
pub type Result<T> = std::result::Result<T, MathError>;
