//! The u128 lazy key-switch inner product (KSKIP) row kernel.
//!
//! The hybrid key switch accumulates `Σ_j ext_j · ksk_j` over the `β` decomposition digits.
//! Instead of one Barrett reduction per digit per coefficient, the kernel sums the raw
//! 64×64→128-bit products of **all** digits into two `u128` sums per coefficient (one per key
//! component) and reduces **once** per coefficient at the end — into the lazy `[0, 2q)` domain
//! ([`fab_math::Modulus::reduce_u128_lazy`]), which the `[0, 2q)` inverse NTT consumes
//! directly.
//!
//! ## Lazy-invariant and overflow-fold bound
//!
//! Operands may be *doubly-lazy* forward-NTT outputs `x < 4q` multiplied by canonical key
//! residues `k < q`, so each term is below `(4q−1)(q−1) < 2^(2B+2)` for a `B`-bit limb. A
//! `u128` sum therefore holds at least `⌊2^128 / 4q²⌋ ≥ 4` terms (the modulus is capped at 62
//! bits) — [`fab_math::Modulus::u128_mac_capacity`]. When the digit count exceeds that
//! capacity the sums are folded back to canonical residues (each counting as one term) and
//! keep accumulating; since every coefficient sees the same fixed digit order and fold
//! schedule, results are bitwise independent of the worker count.
//!
//! ## Loop order
//!
//! Coefficient-major: a key switch fans out one job per *raised limb*, and within a row
//! [`accumulate_digits`] walks the coefficients in blocks of [`BLOCK`], running every digit
//! over a block while its `2·BLOCK` sums stay in registers — two widening multiplies and two
//! 128-bit adds per term, folds included, and no accumulator row in memory: each digit row
//! is read once and the two `u64` output rows are written once.

use fab_math::Modulus;

/// One digit's row operands for [`accumulate_digits`].
#[derive(Debug, Clone, Copy)]
pub struct DigitRows<'a> {
    /// The raised digit row (lazy, `< 4q`).
    pub x: &'a [u64],
    /// The key's `b` component row (canonical).
    pub key_b: &'a [u64],
    /// The key's `a` component row (canonical).
    pub key_a: &'a [u64],
}

/// Coefficients whose sums are carried across the digit loop together.
const BLOCK: usize = 8;

/// The full per-row KSKIP: `out_b[c] = Σ_j x_j[π(c)]·key_b_j[c]` and likewise `out_a`, as lazy
/// `[0, 2q)` residues, where `π` is an optional evaluation-domain automorphism gather
/// (`perm[c]` = source slot) applied on the fly — hoisted rotation batches permute here
/// instead of materialising rotated digits. Each `x` is read **once** for both key components.
///
/// The digits of a coefficient are summed under the overflow-fold schedule (`fold_every` =
/// [`fab_math::Modulus::u128_mac_capacity`], or a smaller value in tests): before a term that
/// would be the `fold_every + 1`-th, both sums are reduced to canonical residues and count as
/// one term. This *is* the loop the evaluator ships — tests drive the same function at forced
/// tiny fold intervals, so the fold path cannot drift untested. Feed the outputs straight
/// into the `[0, 2q)`-domain inverse NTT, whose final pass canonicalises them.
///
/// # Panics
///
/// Panics if `fold_every < 2` (the capacity of any supported modulus is at least 4), if row
/// lengths disagree, or if a permutation index is out of range.
pub fn accumulate_digits(
    modulus: &Modulus,
    fold_every: usize,
    digits: &[DigitRows<'_>],
    perm: Option<&[usize]>,
    out_b: &mut [u64],
    out_a: &mut [u64],
) {
    assert!(
        fold_every >= 2,
        "fold interval must leave accumulation room"
    );
    let n = out_b.len();
    assert!(
        out_a.len() == n
            && digits
                .iter()
                .all(|d| d.x.len() == n && d.key_b.len() == n && d.key_a.len() == n),
        "KSKIP row length mismatch"
    );
    assert!(
        perm.is_none_or(|p| p.len() == n),
        "permutation length mismatch"
    );
    for (block, (out_b, out_a)) in out_b
        .chunks_mut(BLOCK)
        .zip(out_a.chunks_mut(BLOCK))
        .enumerate()
    {
        let at = block * BLOCK;
        let span = at..at + out_b.len();
        let mut sum_b = [0u128; BLOCK];
        let mut sum_a = [0u128; BLOCK];
        let mut x = [0u64; BLOCK];
        let mut terms = 0usize;
        for digit in digits {
            if terms + 1 > fold_every {
                for sum in sum_b.iter_mut().chain(&mut sum_a) {
                    *sum = modulus.reduce_u128(*sum) as u128;
                }
                // The folded residues are canonical (< q ≤ one term's bound): count them as one.
                terms = 1;
            }
            match perm {
                None => x[..span.len()].copy_from_slice(&digit.x[span.clone()]),
                Some(perm) => {
                    for (x, &source) in x.iter_mut().zip(&perm[span.clone()]) {
                        *x = digit.x[source];
                    }
                }
            }
            let keys = digit.key_b[span.clone()]
                .iter()
                .zip(&digit.key_a[span.clone()]);
            for (((sum_b, sum_a), &x), (&key_b, &key_a)) in
                sum_b.iter_mut().zip(&mut sum_a).zip(&x).zip(keys)
            {
                *sum_b += x as u128 * key_b as u128;
                *sum_a += x as u128 * key_a as u128;
            }
            terms += 1;
        }
        for (out, &sum) in out_b.iter_mut().zip(&sum_b) {
            *out = modulus.reduce_u128_lazy(sum);
        }
        for (out, &sum) in out_a.iter_mut().zip(&sum_a) {
            *out = modulus.reduce_u128_lazy(sum);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    fn modulus() -> Modulus {
        Modulus::new(fab_math::generate_ntt_prime(50, 1 << 4, 0).unwrap()).unwrap()
    }

    fn rows(n: usize, bound: u64, seed: u64) -> Vec<u64> {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        (0..n).map(|_| rng.gen_range(0..bound)).collect()
    }

    /// The eager per-digit reference: reduce after every product.
    fn eager_pair(
        m: &Modulus,
        digits: &[(Vec<u64>, Vec<u64>, Vec<u64>)],
        n: usize,
    ) -> (Vec<u64>, Vec<u64>) {
        let mut b = vec![0u64; n];
        let mut a = vec![0u64; n];
        for (x, kb, ka) in digits {
            for c in 0..n {
                let xr = m.reduce(x[c]);
                b[c] = m.add(b[c], m.reduce_u128(xr as u128 * kb[c] as u128));
                a[c] = m.add(a[c], m.reduce_u128(xr as u128 * ka[c] as u128));
            }
        }
        (b, a)
    }

    /// The lazy pipeline at an explicit fold interval — drives the *shipped*
    /// [`accumulate_digits`] loop (the very function the evaluator's KSKIP jobs call), then
    /// canonicalises the lazy outputs for comparison.
    fn lazy_pair(
        m: &Modulus,
        digits: &[(Vec<u64>, Vec<u64>, Vec<u64>)],
        n: usize,
        fold_every: usize,
    ) -> (Vec<u64>, Vec<u64>) {
        let mut b = vec![0u64; n];
        let mut a = vec![0u64; n];
        let rows: Vec<_> = digits
            .iter()
            .map(|(x, kb, ka)| DigitRows {
                x,
                key_b: kb,
                key_a: ka,
            })
            .collect();
        accumulate_digits(m, fold_every, &rows, None, &mut b, &mut a);
        for c in 0..n {
            assert!(
                b[c] < m.two_q() && a[c] < m.two_q(),
                "output not lazy-bounded"
            );
            b[c] = m.reduce_2q(b[c]);
            a[c] = m.reduce_2q(a[c]);
        }
        (b, a)
    }

    fn random_digits(
        m: &Modulus,
        beta: usize,
        n: usize,
        seed: u64,
    ) -> Vec<(Vec<u64>, Vec<u64>, Vec<u64>)> {
        (0..beta)
            .map(|j| {
                let s = seed + 10 * j as u64;
                (
                    // x operands are doubly-lazy: anywhere in [0, 4q).
                    rows(n, 4 * m.value() - 1, s),
                    rows(n, m.value(), s + 1),
                    rows(n, m.value(), s + 2),
                )
            })
            .collect()
    }

    #[test]
    fn lazy_matches_eager_without_folding() {
        let m = modulus();
        let digits = random_digits(&m, 3, 64, 42);
        assert_eq!(
            lazy_pair(&m, &digits, 64, m.u128_mac_capacity()),
            eager_pair(&m, &digits, 64)
        );
    }

    #[test]
    fn forced_tiny_fold_interval_is_lossless() {
        // A fold interval of 2 forces a fold between almost every digit; the result must
        // still match the eager reference bit for bit.
        let m = modulus();
        for beta in [1usize, 2, 5, 9] {
            let digits = random_digits(&m, beta, 32, 1000 + beta as u64);
            assert_eq!(
                lazy_pair(&m, &digits, 32, 2),
                eager_pair(&m, &digits, 32),
                "beta = {beta}"
            );
        }
    }

    #[test]
    fn capacity_boundary_at_the_widest_modulus_is_reachable_and_lossless() {
        // At the 62-bit modulus cap the capacity is genuinely small (≈4), so "β > capacity"
        // is a real configuration: accumulate exactly `capacity` maximal-magnitude terms
        // (the checked oracle proves the raw sum approaches but does not wrap u128), then
        // run 3·capacity digits through the shipped fold schedule and pin it to the eager
        // reference. The modulus need not be prime for the MAC/reduction arithmetic.
        let m = Modulus::new((1u64 << 62) - 57).unwrap();
        let cap = m.u128_mac_capacity();
        assert!(
            (4..16).contains(&cap),
            "62-bit capacity should be small, got {cap}"
        );
        let n = 4usize;
        let x_max = 4 * m.value() - 2;
        let k_max = m.value() - 1;
        // Checked oracle: `cap` maximal terms fit in u128 (one more may not).
        let mut oracle = 0u128;
        for _ in 0..cap {
            oracle = oracle
                .checked_add(x_max as u128 * k_max as u128)
                .expect("capacity terms must fit in u128");
        }
        let digits: Vec<_> = (0..3 * cap)
            .map(|j| {
                (
                    rows(n, x_max, 90 + j as u64),
                    rows(n, m.value(), 91 + j as u64),
                    rows(n, m.value(), 92 + j as u64),
                )
            })
            .collect();
        // Maximal-magnitude digits at exactly the capacity (no fold triggers)…
        let maximal: Vec<_> = (0..cap)
            .map(|_| (vec![x_max; n], vec![k_max; n], vec![k_max; n]))
            .collect();
        assert_eq!(lazy_pair(&m, &maximal, n, cap), eager_pair(&m, &maximal, n));
        // …and 3·capacity random digits through the real fold schedule.
        assert_eq!(lazy_pair(&m, &digits, n, cap), eager_pair(&m, &digits, n));
    }

    #[test]
    fn permutation_gathers_sources() {
        let m = modulus();
        // Not a multiple of the block: the gather's tail block is exercised too.
        let n = 13usize;
        let x = rows(n, 4 * m.value() - 1, 7);
        let kb = rows(n, m.value(), 8);
        let ka = rows(n, m.value(), 9);
        // Reverse permutation.
        let perm: Vec<usize> = (0..n).rev().collect();
        let digit = DigitRows {
            x: &x,
            key_b: &kb,
            key_a: &ka,
        };
        let mut out_b = vec![u64::MAX; n];
        let mut out_a = vec![u64::MAX; n];
        let capacity = m.u128_mac_capacity();
        accumulate_digits(&m, capacity, &[digit], Some(&perm), &mut out_b, &mut out_a);
        for c in 0..n {
            // One term, never folded: the output is the lazy reduction of that one product.
            let source = x[n - 1 - c] as u128;
            assert_eq!(out_b[c], m.reduce_u128_lazy(source * kb[c] as u128));
            assert_eq!(out_a[c], m.reduce_u128_lazy(source * ka[c] as u128));
        }
    }
}
