//! The u128 lazy key-switch inner product (KSKIP) row kernel.
//!
//! The hybrid key switch accumulates `Σ_j ext_j · ksk_j` over the `β` decomposition digits.
//! Instead of one Barrett reduction per digit per coefficient, the kernel sums the raw
//! 64×64→128-bit products of **all** digits into two `u128` sums per coefficient (one per key
//! component) and reduces **once** per coefficient at the end, into the canonical `[0, q)`
//! ([`crate::Modulus::reduce_u128`]). The inverse NTT takes it as is, and because its final
//! pass canonicalises every row anyway, the representative the row hands over is invisible
//! downstream.
//!
//! ## Lazy-invariant and overflow-fold bound
//!
//! Operands may be *doubly-lazy* forward-NTT outputs `x < 4q` multiplied by canonical key
//! residues `k < q`, so each term is below `(4q−1)(q−1) < 2^(2B+2)` for a `B`-bit limb. A
//! `u128` sum therefore holds at least `⌊2^128 / 4q²⌋ ≥ 4` terms (the modulus is capped at 62
//! bits) — [`crate::Modulus::u128_mac_capacity`]. When the digit count exceeds that
//! capacity the sums are folded back to canonical residues (each counting as one term) and
//! keep accumulating; since every coefficient sees the same fixed digit order and fold
//! schedule, results are bitwise independent of the worker count.
//!
//! ## Loop order
//!
//! Coefficient-major: a key switch fans out one job per *raised limb*, and within a row
//! [`accumulate_digits`] walks the coefficients in blocks of eight, running every digit over a
//! block while its sums stay in registers — each digit row is read once and the two `u64`
//! output rows are written once; no accumulator row exists in memory. Two arms walk it:
//!
//! * the scalar loop (every CPU and limb, and every row a fold is due in): two widening
//!   multiplies and two 128-bit adds per term, folds included;
//! * the IFMA arm (a limb below `2^50` on a CPU with `avx512ifma`, no fold due): eight
//!   coefficients per vector, each product's low and high 52-bit halves summed separately
//!   (`vpmadd52luq` / `vpmadd52huq`, four per digit) — exact, since `x < 4q < 2^52` and at
//!   most 4096 halves fit a lane — then `hi·2^52 + lo`, the very `u128` sum of the scalar loop,
//!   is reduced to `[0, q)` in the same registers, so both arms return the same word. A hoisted
//!   rotation's permuted row gathers each digit's eight sources with one hardware gather,
//!   after one compare has checked the eight `perm` entries. The scalar loop finishes the
//!   `len mod 8` tail.

use crate::{simd, Modulus};

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

/// The full per-row KSKIP: `out_b[c] = Σ_j x_j[π(c)]·key_b_j[c]` and likewise `out_a`, as
/// canonical `[0, q)` residues, where `π` is an optional evaluation-domain automorphism gather
/// (`perm[c]` = source slot) applied on the fly — hoisted rotation batches permute here
/// instead of materialising rotated digits. Each `x` is read **once** for both key components.
///
/// The digits of a coefficient are summed under the overflow-fold schedule (`fold_every` =
/// [`crate::Modulus::u128_mac_capacity`], or a smaller value in tests): before a term that
/// would be the `fold_every + 1`-th, both sums are reduced to canonical residues and count as
/// one term. This *is* the loop the evaluator ships — tests drive the same function at forced
/// tiny fold intervals, so the fold path cannot drift untested. A row in which a fold would be
/// due never takes the IFMA arm. Both arms end in a canonical reduction, so they agree word for
/// word; the outputs feed the `[0, 2q)`-domain inverse NTT directly.
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
    let done = if digits.len() <= fold_every {
        simd::kskip_row(modulus, digits, perm, out_b, out_a)
    } else {
        0
    };
    accumulate_scalar(modulus, fold_every, digits, perm, out_b, out_a, done);
}

/// The scalar loop of [`accumulate_digits`] over coefficients `from..` (`from` a multiple of
/// the block): what every CPU and limb can run, and the oracle of the IFMA arm.
fn accumulate_scalar(
    modulus: &Modulus,
    fold_every: usize,
    digits: &[DigitRows<'_>],
    perm: Option<&[usize]>,
    out_b: &mut [u64],
    out_a: &mut [u64],
    from: usize,
) {
    for (block, (out_b, out_a)) in out_b[from..]
        .chunks_mut(BLOCK)
        .zip(out_a[from..].chunks_mut(BLOCK))
        .enumerate()
    {
        let at = from + block * BLOCK;
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
            *out = modulus.reduce_u128(sum);
        }
        for (out, &sum) in out_a.iter_mut().zip(&sum_a) {
            *out = modulus.reduce_u128(sum);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    fn modulus() -> Modulus {
        Modulus::new(crate::generate_ntt_prime(50, 1 << 4, 0).unwrap()).unwrap()
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
    /// [`accumulate_digits`] loop (the very function the evaluator's KSKIP jobs call) and
    /// checks that its outputs are canonical.
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
        assert!(
            b.iter().chain(&a).all(|&v| v < m.value()),
            "output not canonical"
        );
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

    /// The IFMA arm of the KSKIP row against the scalar loop, plain and permuted, for 1 – 5
    /// digits, on every width of the row gates (both sides of `2^50`) and lengths around the
    /// eight-lane boundary: it must cover every whole vector of a limb below `2^50` when the
    /// CPU has IFMA (nothing elsewhere), equal the loop there and leave the rest untouched;
    /// the shipped function must equal the loop everywhere. Digit rows are doubly lazy.
    #[test]
    fn vector_kskip_rows_equal_scalar_rows() {
        use crate::rows::tests::{moduli, report_ifma, row, LENGTHS};
        let mut covered = 0usize;
        for (t, m) in moduli().iter().enumerate() {
            for len in LENGTHS {
                // A gather that visits every slot: c ↦ 5c + 3 mod len is a bijection for
                // len coprime to 5; other lengths reverse.
                let perm: Vec<usize> = if len % 5 == 0 {
                    (0..len).rev().collect()
                } else {
                    (0..len).map(|c| (5 * c + 3) % len).collect()
                };
                for beta in 1..=5usize {
                    let seed = (100 * t + 10 * beta + len) as u64;
                    let digits: Vec<_> = (0..beta as u64)
                        .map(|j| {
                            let s = seed + 1000 * j;
                            (
                                row(m, 4, len, s),
                                row(m, 1, len, s + 1),
                                row(m, 1, len, s + 2),
                            )
                        })
                        .collect();
                    let rows: Vec<_> = digits
                        .iter()
                        .map(|(x, key_b, key_a)| DigitRows { x, key_b, key_a })
                        .collect();
                    for perm in [None, Some(&perm[..])] {
                        let fold = m.u128_mac_capacity();
                        let initial = row(m, 1, len, seed ^ 0xA5A5);
                        let run = |kernel: &dyn Fn(&mut [u64], &mut [u64]) -> usize| {
                            let (mut b, mut a) = (initial.clone(), initial.clone());
                            let done = kernel(&mut b, &mut a);
                            (done, b, a)
                        };
                        let (_, scalar_b, scalar_a) = run(&|b, a| {
                            accumulate_scalar(m, fold, &rows, perm, b, a, 0);
                            len
                        });
                        let (done, vector_b, vector_a) =
                            run(&|b, a| simd::kskip_row(m, &rows, perm, b, a));
                        let expected = if simd::Arm::Ifma.runs(m.value()) {
                            len - len % 8
                        } else {
                            0
                        };
                        let what = format!("{} bits, len {len}, β {beta}, {perm:?}", m.bits());
                        assert_eq!(done, expected, "IFMA arm coverage, {what}");
                        assert_eq!(
                            vector_b[..done],
                            scalar_b[..done],
                            "b: IFMA ≠ scalar, {what}"
                        );
                        assert_eq!(
                            vector_a[..done],
                            scalar_a[..done],
                            "a: IFMA ≠ scalar, {what}"
                        );
                        assert_eq!(
                            vector_b[done..],
                            initial[done..],
                            "b: wrote past its prefix"
                        );
                        assert_eq!(
                            vector_a[done..],
                            initial[done..],
                            "a: wrote past its prefix"
                        );
                        let (_, shipped_b, shipped_a) = run(&|b, a| {
                            accumulate_digits(m, fold, &rows, perm, b, a);
                            len
                        });
                        assert_eq!(
                            (shipped_b, shipped_a),
                            (scalar_b, scalar_a),
                            "shipped, {what}"
                        );
                        covered += done;
                    }
                }
            }
        }
        println!("kskip accumulate_digits: scalar arm ran (no DQ arm)");
        report_ifma("kskip accumulate_digits", covered);
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
            // One term, never folded: the output is the canonical reduction of that one product.
            let source = x[n - 1 - c] as u128;
            assert_eq!(out_b[c], m.reduce_u128(source * kb[c] as u128));
            assert_eq!(out_a[c], m.reduce_u128(source * ka[c] as u128));
        }
    }

    /// A one-digit row of 16 coefficients whose permutation sends coefficient 3 to slot 16,
    /// one past the row, inside the first whole vector.
    fn out_of_range_gather() -> (Modulus, Vec<u64>, Vec<usize>) {
        let m = modulus();
        let row = rows(16, m.value(), 5);
        let mut perm: Vec<usize> = (0..16).rev().collect();
        perm[3] = 16;
        (m, row, perm)
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn scalar_arm_panics_on_an_out_of_range_permutation_index() {
        let (m, row, perm) = out_of_range_gather();
        let digit = DigitRows {
            x: &row,
            key_b: &row,
            key_a: &row,
        };
        let (mut b, mut a) = (vec![0; 16], vec![0; 16]);
        println!("kskip out-of-range gather: scalar arm ran");
        accumulate_scalar(&m, 4, &[digit], Some(&perm), &mut b, &mut a, 0);
    }

    #[test]
    #[should_panic(expected = "permutation index out of range")]
    fn ifma_arm_panics_on_an_out_of_range_permutation_index() {
        let (m, row, perm) = out_of_range_gather();
        let digit = DigitRows {
            x: &row,
            key_b: &row,
            key_a: &row,
        };
        let (mut b, mut a) = (vec![0; 16], vec![0; 16]);
        if simd::Arm::Ifma.runs(m.value()) {
            println!("kskip out-of-range gather: IFMA arm ran");
            simd::kskip_row(&m, &[digit], Some(&perm), &mut b, &mut a);
        } else {
            println!("kskip out-of-range gather: IFMA arm SKIPPED (no AVX-512 IFMA on this CPU)");
            panic!("permutation index out of range (IFMA arm SKIPPED)");
        }
    }

    /// The most digits the IFMA arm takes, every product maximal, at the widest limb below
    /// `2^50`: `4096` terms of `(4q − 1)(q − 1)`, whose high halves sum to just below `2^64`.
    /// The IFMA arm must cover the row and equal the scalar loop.
    #[test]
    fn vector_kskip_row_of_4096_maximal_digits_equals_the_scalar_row() {
        let m = Modulus::new(simd::IFMA_LIMB_BOUND - 57).unwrap();
        let n = 16usize;
        let x = vec![4 * m.value() - 1; n];
        let key = vec![m.value() - 1; n];
        let digits = vec![
            DigitRows {
                x: &x,
                key_b: &key,
                key_a: &key,
            };
            4096
        ];
        let fold = m.u128_mac_capacity();
        assert!(fold >= digits.len());
        let (mut scalar_b, mut scalar_a) = (vec![0; n], vec![0; n]);
        accumulate_scalar(&m, fold, &digits, None, &mut scalar_b, &mut scalar_a, 0);
        let expected = ((4 * m.value() - 1) as u128 * (m.value() - 1) as u128 * 4096
            % m.value() as u128) as u64;
        assert_eq!(scalar_b, vec![expected; n]);
        let (mut vector_b, mut vector_a) = (vec![u64::MAX; n], vec![u64::MAX; n]);
        let done = simd::kskip_row(&m, &digits, None, &mut vector_b, &mut vector_a);
        if simd::Arm::Ifma.runs(m.value()) {
            assert_eq!(done, n, "the IFMA arm must cover the 4096-digit row");
            assert_eq!((vector_b, vector_a), (scalar_b, scalar_a));
            println!("kskip 4096 maximal digits: IFMA arm ran and matched the scalar loop");
        } else {
            assert_eq!(done, 0);
            println!("kskip 4096 maximal digits: IFMA arm SKIPPED (no AVX-512 IFMA on this CPU)");
        }
    }
}
