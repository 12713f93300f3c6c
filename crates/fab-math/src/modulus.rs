//! Word-sized modular arithmetic for NTT-friendly primes.
//!
//! FAB operates on 54-bit prime limbs (Section 2.2 of the paper). This module provides
//! the software-reference arithmetic: Barrett-style reduction via 128-bit intermediates,
//! Shoup multiplication for fixed operands (twiddle factors), exponentiation and inverses.

use crate::{MathError, Result};

/// Maximum supported modulus bit-width. Products of two operands must fit in `u128`.
pub const MAX_MODULUS_BITS: u32 = 62;

/// A word-sized odd modulus together with precomputed constants for fast reduction.
///
/// The modulus does not need to be prime for the plain arithmetic operations, but
/// [`Modulus::inv`] and [`Modulus::pow`]-based inverses assume primality (Fermat inversion)
/// and the NTT requires `q ≡ 1 (mod 2N)`.
///
/// Besides the canonical `[0, q)` operations, the modulus exposes *lazy* primitives
/// ([`Modulus::mul_shoup_lazy`], [`Modulus::add_lazy`]) whose results live in the extended
/// domain `[0, 2q)`; the lazy-reduction NTT keeps whole butterfly networks in that domain and
/// corrects once at the end ([`Modulus::reduce_2q`] / [`Modulus::reduce_4q`]).
///
/// ```
/// use fab_math::Modulus;
///
/// # fn main() -> Result<(), fab_math::MathError> {
/// let q = Modulus::new(0x3F_FFFF_FFFF_FFC1)?; // not necessarily prime, just a demo value
/// let a = q.reduce_u128(1 << 90);
/// assert!(a < q.value());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Modulus {
    value: u64,
    /// `2q`, precomputed for the lazy `[0, 2q)` domain (fits: q < 2^62).
    twice_value: u64,
    bits: u32,
    /// floor(2^128 / q), stored as (high 64 bits, low 64 bits) — classic Barrett constant.
    /// The high half is exactly floor(2^64 / q), which single-word reduction reuses.
    barrett_hi: u64,
    barrett_lo: u64,
}

impl Modulus {
    /// Creates a new modulus with precomputed Barrett constants.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::InvalidModulus`] if `value < 2` or `value` needs more than
    /// [`MAX_MODULUS_BITS`] bits.
    pub fn new(value: u64) -> Result<Self> {
        if value < 2 {
            return Err(MathError::InvalidModulus {
                modulus: value,
                reason: "modulus must be at least 2",
            });
        }
        let bits = 64 - value.leading_zeros();
        if bits > MAX_MODULUS_BITS {
            return Err(MathError::InvalidModulus {
                modulus: value,
                reason: "modulus must fit in 62 bits",
            });
        }
        // floor(2^128 / q) = floor((2^128 - 1) / q), plus one iff q divides 2^128 exactly
        // (equivalently, iff (2^128 - 1) mod q == q - 1 — only possible for powers of two).
        let q = value as u128;
        let floor_div = if (u128::MAX % q) == q - 1 {
            (u128::MAX / q) + 1
        } else {
            u128::MAX / q
        };
        Ok(Self {
            value,
            twice_value: value << 1,
            bits,
            barrett_hi: (floor_div >> 64) as u64,
            barrett_lo: floor_div as u64,
        })
    }

    /// Returns the raw modulus value `q`.
    #[inline]
    pub fn value(&self) -> u64 {
        self.value
    }

    /// Returns the bit-width of the modulus.
    #[inline]
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Returns `2q`, the upper bound of the lazy residue domain.
    #[inline]
    pub fn two_q(&self) -> u64 {
        self.twice_value
    }

    /// Reduces an arbitrary `u64` into `[0, q)` via single-word Barrett reduction (no
    /// hardware division): the quotient estimate `floor(a · floor(2^64/q) / 2^64)` is off by
    /// at most 2, corrected with conditional subtractions.
    #[inline]
    pub fn reduce(&self, a: u64) -> u64 {
        // barrett_hi == floor(2^64 / q) exactly (high half of floor(2^128 / q)).
        let quotient = ((a as u128 * self.barrett_hi as u128) >> 64) as u64;
        let mut r = a.wrapping_sub(quotient.wrapping_mul(self.value));
        while r >= self.value {
            r -= self.value;
        }
        r
    }

    /// How many products `x · k` with `x < 4q` (a doubly-lazy NTT output) and `k < q` (a
    /// canonical key residue) can be summed into a `u128` accumulator before it may overflow.
    ///
    /// This is the overflow-fold bound of the lazy key-switch inner product: with `β` digits
    /// and `β >` this capacity, the accumulator must be folded (reduced mod `q`) periodically.
    /// Because the modulus is capped at [`MAX_MODULUS_BITS`] = 62 bits, the capacity is always
    /// at least 4, so a fold frees enough headroom to keep making progress.
    #[inline]
    pub fn u128_mac_capacity(&self) -> usize {
        let term = (4 * self.value as u128 - 1).saturating_mul(self.value as u128 - 1);
        usize::try_from(u128::MAX / term.max(1)).unwrap_or(usize::MAX)
    }

    /// Reduces an arbitrary `u128` into `[0, q)` using the precomputed Barrett constant.
    #[inline]
    pub fn reduce_u128(&self, a: u128) -> u64 {
        // Barrett: estimate quotient via the top 128 bits of a * floor(2^128/q) >> 128,
        // computed with 64x64 partial products.
        let q = self.value as u128;
        let a_lo = a as u64 as u128;
        let a_hi = (a >> 64) as u64 as u128;
        let m_lo = self.barrett_lo as u128;
        let m_hi = self.barrett_hi as u128;
        let lo_lo = a_lo * m_lo;
        let lo_hi = a_lo * m_hi;
        let hi_lo = a_hi * m_lo;
        let hi_hi = a_hi * m_hi;
        let mid = (lo_lo >> 64) + (lo_hi & 0xFFFF_FFFF_FFFF_FFFF) + (hi_lo & 0xFFFF_FFFF_FFFF_FFFF);
        let quotient = hi_hi + (lo_hi >> 64) + (hi_lo >> 64) + (mid >> 64);
        let mut r = a.wrapping_sub(quotient.wrapping_mul(q));
        // Barrett estimate can be off by at most 2.
        while r >= q {
            r -= q;
        }
        r as u64
    }

    /// Modular addition of two residues in `[0, q)`.
    ///
    /// # Panics
    ///
    /// Debug-asserts that both operands are already reduced.
    #[inline]
    pub fn add(&self, a: u64, b: u64) -> u64 {
        debug_assert!(a < self.value && b < self.value);
        let s = a + b;
        if s >= self.value {
            s - self.value
        } else {
            s
        }
    }

    /// Modular subtraction of two residues in `[0, q)`.
    #[inline]
    pub fn sub(&self, a: u64, b: u64) -> u64 {
        debug_assert!(a < self.value && b < self.value);
        if a >= b {
            a - b
        } else {
            a + self.value - b
        }
    }

    /// Modular negation of a residue in `[0, q)`.
    #[inline]
    pub fn neg(&self, a: u64) -> u64 {
        debug_assert!(a < self.value);
        if a == 0 {
            0
        } else {
            self.value - a
        }
    }

    /// Modular multiplication of two residues in `[0, q)`.
    #[inline]
    pub fn mul(&self, a: u64, b: u64) -> u64 {
        debug_assert!(a < self.value && b < self.value);
        self.reduce_u128(a as u128 * b as u128)
    }

    /// Fused multiply-add: `a*b + c mod q`.
    #[inline]
    pub fn mul_add(&self, a: u64, b: u64, c: u64) -> u64 {
        debug_assert!(a < self.value && b < self.value && c < self.value);
        self.reduce_u128(a as u128 * b as u128 + c as u128)
    }

    /// Precomputes the Shoup constant `floor(b · 2^64 / q)` for a fixed multiplicand `b`.
    #[inline]
    pub fn shoup_precompute(&self, b: u64) -> u64 {
        debug_assert!(b < self.value);
        (((b as u128) << 64) / self.value as u128) as u64
    }

    /// Shoup modular multiplication `a · b mod q`, where `b_shoup` was produced by
    /// [`Modulus::shoup_precompute`] for `b`. This mirrors the fixed-operand multiplication
    /// used for twiddle factors in the FAB NTT datapath.
    #[inline]
    pub fn mul_shoup(&self, a: u64, b: u64, b_shoup: u64) -> u64 {
        let r = self.mul_shoup_lazy(a, b, b_shoup);
        if r >= self.value {
            r - self.value
        } else {
            r
        }
    }

    /// Lazy Shoup multiplication: same as [`Modulus::mul_shoup`] but the final conditional
    /// subtraction is skipped, so the result lives in `[0, 2q)`. The left operand `a` may be
    /// **any** `u64` (in particular a lazy residue in `[0, 4q)`): the Shoup quotient estimate
    /// `floor(a·b_shoup/2^64)` differs from the true quotient by less than `1 + a/2^64 < 2`
    /// whenever `b < q`, so the remainder stays below `2q` unconditionally.
    ///
    /// This is the butterfly workhorse of the lazy-reduction NTT: one multiply-high, two
    /// multiply-lows, zero branches.
    #[inline]
    pub fn mul_shoup_lazy(&self, a: u64, b: u64, b_shoup: u64) -> u64 {
        let q_hat = ((a as u128 * b_shoup as u128) >> 64) as u64;
        (a.wrapping_mul(b)).wrapping_sub(q_hat.wrapping_mul(self.value))
    }

    /// Lazy addition over the `[0, 2q)` domain: both operands and the result are lazy
    /// residues below `2q` (a single conditional subtraction of `2q`, never of `q`).
    #[inline]
    pub fn add_lazy(&self, a: u64, b: u64) -> u64 {
        debug_assert!(a < self.twice_value && b < self.twice_value);
        let s = a + b;
        if s >= self.twice_value {
            s - self.twice_value
        } else {
            s
        }
    }

    /// Corrects a lazy residue in `[0, 2q)` into the canonical `[0, q)`.
    #[inline]
    pub fn reduce_2q(&self, a: u64) -> u64 {
        debug_assert!(a < self.twice_value);
        if a >= self.value {
            a - self.value
        } else {
            a
        }
    }

    /// Corrects a doubly-lazy residue in `[0, 4q)` into the canonical `[0, q)` (the forward
    /// lazy NTT leaves coefficients in this domain).
    #[inline]
    pub fn reduce_4q(&self, a: u64) -> u64 {
        debug_assert!((a as u128) < 2 * self.twice_value as u128);
        let a = if a >= self.twice_value {
            a - self.twice_value
        } else {
            a
        };
        if a >= self.value {
            a - self.value
        } else {
            a
        }
    }

    /// Modular exponentiation `base^exp mod q` by square-and-multiply.
    pub fn pow(&self, base: u64, mut exp: u64) -> u64 {
        let mut base = self.reduce(base);
        let mut acc = 1u64;
        while exp > 0 {
            if exp & 1 == 1 {
                acc = self.mul(acc, base);
            }
            base = self.mul(base, base);
            exp >>= 1;
        }
        acc
    }

    /// Modular inverse via the extended Euclidean algorithm.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::NotInvertible`] if `gcd(a, q) != 1`.
    pub fn inv(&self, a: u64) -> Result<u64> {
        let a = self.reduce(a);
        if a == 0 {
            return Err(MathError::NotInvertible {
                value: a,
                modulus: self.value,
            });
        }
        let (mut t, mut new_t): (i128, i128) = (0, 1);
        let (mut r, mut new_r): (i128, i128) = (self.value as i128, a as i128);
        while new_r != 0 {
            let quotient = r / new_r;
            let tmp_t = t - quotient * new_t;
            t = new_t;
            new_t = tmp_t;
            let tmp_r = r - quotient * new_r;
            r = new_r;
            new_r = tmp_r;
        }
        if r > 1 {
            return Err(MathError::NotInvertible {
                value: a,
                modulus: self.value,
            });
        }
        if t < 0 {
            t += self.value as i128;
        }
        Ok(t as u64)
    }

    /// Maps a signed integer into the canonical residue `[0, q)`.
    #[inline]
    pub fn reduce_i64(&self, a: i64) -> u64 {
        let q = self.value as i128;
        let mut r = (a as i128) % q;
        if r < 0 {
            r += q;
        }
        r as u64
    }

    /// Interprets a residue in `[0, q)` as a signed value in `(-q/2, q/2]`.
    #[inline]
    pub fn to_signed(&self, a: u64) -> i64 {
        debug_assert!(a < self.value);
        if a > self.value / 2 {
            a as i64 - self.value as i64
        } else {
            a as i64
        }
    }
}

impl std::fmt::Display for Modulus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Modulus({})", self.value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const Q54: u64 = 0x3FFF_FFFF_FFD8_0001; // a 54-bit NTT-friendly prime (2^54 - 2^19*5... placeholder)

    fn modulus() -> Modulus {
        // Use a known 54-bit prime: 18014398509404161 = 2^54 - 78 * 2^13 + ... Just pick a prime.
        // 18014398509481951 is within 54 bits; use a verified prime below instead.
        Modulus::new(crate::generate_ntt_prime(54, 1 << 12, 0).unwrap()).unwrap()
    }

    #[test]
    fn new_rejects_bad_moduli() {
        assert!(Modulus::new(0).is_err());
        assert!(Modulus::new(1).is_err());
        assert!(Modulus::new(1 << 63).is_err());
        assert!(Modulus::new(Q54).is_ok());
    }

    #[test]
    fn add_sub_neg_roundtrip() {
        let q = modulus();
        let a = 123_456_789_u64;
        let b = q.value() - 5;
        let s = q.add(a, b);
        assert_eq!(q.sub(s, b), a);
        assert_eq!(q.add(a, q.neg(a)), 0);
    }

    #[test]
    fn mul_matches_u128_reference() {
        let q = modulus();
        let a = q.value() - 1;
        let b = q.value() - 2;
        let expected = ((a as u128 * b as u128) % q.value() as u128) as u64;
        assert_eq!(q.mul(a, b), expected);
    }

    #[test]
    fn pow_and_inv_agree() {
        let q = modulus();
        let a = 987_654_321_u64 % q.value();
        let inv = q.inv(a).unwrap();
        assert_eq!(q.mul(a, inv), 1);
        // Fermat: a^(q-2) is also the inverse when q is prime.
        assert_eq!(q.pow(a, q.value() - 2), inv);
    }

    #[test]
    fn inv_of_zero_fails() {
        let q = modulus();
        assert!(q.inv(0).is_err());
    }

    #[test]
    fn shoup_matches_plain_mul() {
        let q = modulus();
        let b = 0x1234_5678_9ABC % q.value();
        let b_shoup = q.shoup_precompute(b);
        for a in [0u64, 1, 2, q.value() - 1, q.value() / 2, 42] {
            assert_eq!(q.mul_shoup(a, b, b_shoup), q.mul(a, b));
        }
    }

    #[test]
    fn signed_mapping_roundtrip() {
        let q = modulus();
        for v in [-5i64, -1, 0, 1, 5, 1 << 40, -(1 << 40)] {
            let r = q.reduce_i64(v);
            assert_eq!(q.to_signed(r), v);
        }
    }

    #[test]
    fn lazy_domain_bounds_and_correction() {
        let q = modulus();
        assert_eq!(q.two_q(), 2 * q.value());
        let b = 0x1234_5678_9ABC % q.value();
        let b_shoup = q.shoup_precompute(b);
        // Lazy operands anywhere in [0, 4q) must stay below 2q and agree with eager mod q.
        for a in [
            0u64,
            1,
            q.value() - 1,
            q.value(),
            2 * q.value() - 1,
            4 * q.value() - 1,
        ] {
            let lazy = q.mul_shoup_lazy(a, b, b_shoup);
            assert!(lazy < q.two_q(), "lazy result {lazy} out of [0, 2q)");
            assert_eq!(q.reduce_2q(lazy), q.mul(q.reduce(a), b));
        }
        for a in [0u64, q.value() - 1, q.value(), 2 * q.value() - 1] {
            for c in [0u64, q.value(), 2 * q.value() - 1] {
                let s = q.add_lazy(a, c);
                assert!(s < q.two_q());
                assert_eq!(q.reduce_2q(s), q.add(q.reduce(a), q.reduce(c)));
            }
        }
        for a in [0u64, q.value(), 2 * q.value(), 4 * q.value() - 1] {
            assert_eq!(q.reduce_4q(a), q.reduce(a));
        }
    }

    #[test]
    fn mac_capacity_bounds_accumulated_products() {
        let q = modulus();
        let cap = q.u128_mac_capacity();
        assert!(cap >= 4, "capacity {cap} below the guaranteed minimum");
        // cap products of the maximal operands must fit, cap + 1 may not.
        let term = (4 * q.value() as u128 - 1) * (q.value() as u128 - 1);
        assert!(term.checked_mul(cap as u128).is_some());
        // A 62-bit modulus (the cap) still leaves capacity >= 4.
        let wide = Modulus::new((1u64 << 62) - 57).unwrap();
        assert!(wide.u128_mac_capacity() >= 4);
    }

    proptest! {
        #[test]
        fn prop_reduce_u128_matches_modulo(a in any::<u128>()) {
            let q = modulus();
            prop_assert_eq!(q.reduce_u128(a) as u128, a % q.value() as u128);
        }

        #[test]
        fn prop_reduce_u64_matches_modulo(a in any::<u64>()) {
            let q = modulus();
            prop_assert_eq!(q.reduce(a), a % q.value());
        }

        #[test]
        fn prop_mul_shoup_lazy_congruent(a in any::<u64>(), b in any::<u64>()) {
            let q = modulus();
            let b = b % q.value();
            let b_shoup = q.shoup_precompute(b);
            let lazy = q.mul_shoup_lazy(a, b, b_shoup);
            prop_assert!(lazy < q.two_q());
            prop_assert_eq!(q.reduce_2q(lazy), q.mul(q.reduce(a), b));
        }

        #[test]
        fn prop_mul_matches_modulo(a in any::<u64>(), b in any::<u64>()) {
            let q = modulus();
            let a = a % q.value();
            let b = b % q.value();
            prop_assert_eq!(q.mul(a, b) as u128, (a as u128 * b as u128) % q.value() as u128);
        }

        #[test]
        fn prop_add_sub_inverse(a in any::<u64>(), b in any::<u64>()) {
            let q = modulus();
            let a = a % q.value();
            let b = b % q.value();
            prop_assert_eq!(q.sub(q.add(a, b), b), a);
        }

        #[test]
        fn prop_shoup_matches_mul(a in any::<u64>(), b in any::<u64>()) {
            let q = modulus();
            let a = a % q.value();
            let b = b % q.value();
            let b_shoup = q.shoup_precompute(b);
            prop_assert_eq!(q.mul_shoup(a, b, b_shoup), q.mul(a, b));
        }

        #[test]
        fn prop_mul_add_matches(a in any::<u64>(), b in any::<u64>(), c in any::<u64>()) {
            let q = modulus();
            let (a, b, c) = (a % q.value(), b % q.value(), c % q.value());
            let expected = ((a as u128 * b as u128 + c as u128) % q.value() as u128) as u64;
            prop_assert_eq!(q.mul_add(a, b, c), expected);
        }
    }
}
