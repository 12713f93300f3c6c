//! NTT-friendly prime generation.
//!
//! CKKS limbs in FAB are 54-bit primes `q ≡ 1 (mod 2N)` so that the negacyclic NTT over
//! `Z_q[x]/(x^N + 1)` exists. This module provides a deterministic Miller–Rabin test for
//! 64-bit integers and a search routine that scans downward from `2^bits`.

use crate::{MathError, Result};

/// Deterministic Miller–Rabin primality test for 64-bit integers.
///
/// Uses the witness set `{2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37}`, which is known to be
/// deterministic for all `n < 3.3 · 10^24` and therefore for every `u64`.
///
/// ```
/// assert!(fab_math::is_prime(17));
/// assert!(!fab_math::is_prime(18));
/// ```
pub fn is_prime(n: u64) -> bool {
    if n < 2 {
        return false;
    }
    for p in [2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37] {
        if n == p {
            return true;
        }
        if n.is_multiple_of(p) {
            return false;
        }
    }
    let mut d = n - 1;
    let mut r = 0u32;
    while d.is_multiple_of(2) {
        d /= 2;
        r += 1;
    }
    'witness: for a in [2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37] {
        let mut x = pow_mod_u64(a, d, n);
        if x == 1 || x == n - 1 {
            continue;
        }
        for _ in 0..r - 1 {
            x = mul_mod_u64(x, x, n);
            if x == n - 1 {
                continue 'witness;
            }
        }
        return false;
    }
    true
}

#[inline]
fn mul_mod_u64(a: u64, b: u64, m: u64) -> u64 {
    ((a as u128 * b as u128) % m as u128) as u64
}

fn pow_mod_u64(mut base: u64, mut exp: u64, m: u64) -> u64 {
    base %= m;
    let mut acc = 1u64;
    while exp > 0 {
        if exp & 1 == 1 {
            acc = mul_mod_u64(acc, base, m);
        }
        base = mul_mod_u64(base, base, m);
        exp >>= 1;
    }
    acc
}

/// Generates the `index`-th NTT-friendly prime of the given bit-width for ring degree `degree`.
///
/// The primes satisfy `q ≡ 1 (mod 2·degree)` and are enumerated in decreasing order starting
/// just below `2^bits`, so `(bits, degree, 0)`, `(bits, degree, 1)`, … yield distinct primes.
///
/// # Errors
///
/// Returns [`MathError::InvalidDegree`] if `degree` is not a power of two, and
/// [`MathError::PrimeNotFound`] if the search space below `2^bits` is exhausted.
pub fn generate_ntt_prime(bits: u32, degree: usize, index: usize) -> Result<u64> {
    let primes = generate_ntt_primes(bits, degree, index + 1)?;
    Ok(primes[index])
}

/// Generates `count` distinct NTT-friendly primes of the given bit-width for ring degree `degree`.
///
/// # Errors
///
/// Returns [`MathError::InvalidDegree`] if `degree` is not a power of two or zero, and
/// [`MathError::PrimeNotFound`] if fewer than `count` primes exist below `2^bits` with the
/// required congruence.
///
/// ```
/// let primes = fab_math::generate_ntt_primes(40, 1 << 12, 3).unwrap();
/// assert_eq!(primes.len(), 3);
/// for q in primes {
///     assert!(fab_math::is_prime(q));
///     assert_eq!(q % (2 * (1 << 12)), 1);
/// }
/// ```
pub fn generate_ntt_primes(bits: u32, degree: usize, count: usize) -> Result<Vec<u64>> {
    if degree == 0 || !degree.is_power_of_two() {
        return Err(MathError::InvalidDegree {
            degree,
            reason: "degree must be a nonzero power of two",
        });
    }
    if !(10..=62).contains(&bits) {
        return Err(MathError::InvalidModulus {
            modulus: bits as u64,
            reason: "prime bit-width must be between 10 and 62",
        });
    }
    let two_n = 2 * degree as u64;
    let upper = 1u64 << bits;
    // Largest candidate ≡ 1 (mod 2N) strictly below 2^bits.
    let mut candidate = upper - ((upper - 1) % two_n);
    if candidate >= upper {
        candidate = candidate.saturating_sub(two_n);
    }
    let lower = 1u64 << (bits - 1);
    let mut out = Vec::with_capacity(count);
    while candidate > lower && candidate > two_n {
        if is_prime(candidate) {
            out.push(candidate);
            if out.len() == count {
                return Ok(out);
            }
        }
        candidate -= two_n;
    }
    Err(MathError::PrimeNotFound { bits, degree })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn small_primes_classified_correctly() {
        let primes = [2u64, 3, 5, 7, 11, 13, 97, 65537, 998244353];
        let composites = [0u64, 1, 4, 6, 9, 15, 91, 561, 65535, 998244351];
        for p in primes {
            assert!(is_prime(p), "{p} should be prime");
        }
        for c in composites {
            assert!(!is_prime(c), "{c} should be composite");
        }
    }

    #[test]
    fn carmichael_numbers_rejected() {
        for c in [561u64, 1105, 1729, 2465, 2821, 6601, 8911, 10585, 15841] {
            assert!(!is_prime(c), "{c} is a Carmichael number, not prime");
        }
    }

    #[test]
    fn generated_primes_satisfy_congruence() {
        for (bits, log_n) in [(54u32, 16usize), (54, 12), (40, 13), (30, 10), (60, 15)] {
            let n = 1usize << log_n;
            let q = generate_ntt_prime(bits, n, 0).unwrap();
            assert!(is_prime(q));
            assert_eq!(q % (2 * n as u64), 1);
            assert_eq!(64 - q.leading_zeros(), bits);
        }
    }

    #[test]
    fn generated_primes_are_distinct_and_decreasing() {
        let primes = generate_ntt_primes(50, 1 << 14, 8).unwrap();
        assert_eq!(primes.len(), 8);
        for w in primes.windows(2) {
            assert!(w[0] > w[1]);
        }
    }

    #[test]
    fn invalid_degree_rejected() {
        assert!(generate_ntt_primes(54, 0, 1).is_err());
        assert!(generate_ntt_primes(54, 3, 1).is_err());
        assert!(generate_ntt_primes(5, 1 << 12, 1).is_err());
    }

    #[test]
    fn fab_paper_limb_width_has_enough_primes() {
        // The paper needs 32 distinct 54-bit limbs (24 original + 8 extension) at N = 2^16.
        let primes = generate_ntt_primes(54, 1 << 16, 32).unwrap();
        assert_eq!(primes.len(), 32);
    }

    proptest! {
        #[test]
        fn prop_is_prime_matches_trial_division(n in 2u64..200_000) {
            let trial = (2..=((n as f64).sqrt() as u64 + 1)).all(|d| d >= n || n % d != 0) && n >= 2;
            prop_assert_eq!(is_prime(n), trial);
        }
    }
}
