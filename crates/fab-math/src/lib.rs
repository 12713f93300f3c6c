//! # fab-math
//!
//! Arithmetic substrate for the FAB reproduction: word-sized modular arithmetic for
//! NTT-friendly primes, the paper's hardware-friendly shift-add modular reduction
//! (Algorithm 1), multi-word (DSP-style) arithmetic, NTT/iNTT over negacyclic rings,
//! the complex "special" FFT used by CKKS encoding, and Galois/automorphism index maps.
//!
//! All higher-level crates (`fab-rns`, `fab-ckks`, `fab-core`) build on these kernels.
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
//! * Every such loop has two arms: the scalar one, compiled on every target, and an eight-lane
//!   AVX-512F+DQ one (`simd.rs`) taken when the CPU reports both features at run time — nothing
//!   else selects it. The vector arm computes the *same* lazy representative lane for lane and
//!   is pinned to the scalar arm bit for bit ([`row_kernel_arm`] names the arm in use).
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
mod modulus;
mod multiword;
mod ntt;
mod prime;
mod reduction;
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
pub use multiword::{MultiWord54, WORD18_BITS, WORD27_BITS};
pub use ntt::NttTable;
pub use prime::{generate_ntt_prime, generate_ntt_primes, is_prime};
pub use reduction::{ShiftAddReducer, DEFAULT_SHIFTS};

/// Which arm of the row kernels and NTT sweeps this CPU takes: `"avx512f+dq"` (the eight-lane
/// vector arm) or `"scalar"`. Decided by run-time feature detection alone.
pub fn row_kernel_arm() -> &'static str {
    if simd::detected() {
        "avx512f+dq"
    } else {
        "scalar"
    }
}

/// Result alias used throughout the math crate.
pub type Result<T> = std::result::Result<T, MathError>;
