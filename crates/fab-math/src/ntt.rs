//! Negacyclic Number Theoretic Transform over `Z_q[x]/(x^N + 1)`.
//!
//! FAB uses a unified Cooley–Tukey datapath for both NTT and inverse NTT (Section 4.5), with
//! 256 radix-2 butterfly units processing 512 coefficients per cycle. This module is the
//! software-reference transform: Harvey-style butterflies with Shoup-precomputed twiddles,
//! merged ψ powers (so no separate pre/post-multiplication is needed for the negacyclic wrap),
//! and tables stored in bit-reversed order.
//!
//! ## Lazy reduction
//!
//! The hot [`NttTable::forward`] / [`NttTable::inverse`] paths use *lazy reduction*: butterfly
//! operands live in the extended domain `[0, 2q)` (forward outputs drift up to `[0, 4q)`), no
//! butterfly performs a full canonical reduction, and a single correction pass at the end maps
//! every coefficient back into `[0, q)`. The inverse transform additionally fuses the `N⁻¹`
//! scaling into its last butterfly stage, so the separate scaling sweep of the textbook
//! algorithm disappears. The unit tests pin the forward transform to the definition —
//! direct evaluation `X[i] = Σ_j x_j·ψ^{(2·brv(i)+1)·j}`, no butterflies — and the inverse to
//! the round trip on top of it.

use crate::simd::{self, Arm, Twiddles};
use crate::{MathError, Modulus, Result};

/// Precomputed NTT tables for one `(N, q)` pair.
///
/// ```
/// use fab_math::{Modulus, NttTable};
///
/// # fn main() -> Result<(), fab_math::MathError> {
/// let n = 1 << 10;
/// let q = fab_math::generate_ntt_prime(50, n, 0)?;
/// let table = NttTable::new(n, Modulus::new(q)?)?;
/// let mut a = vec![0u64; n];
/// a[1] = 1; // x
/// let mut b = a.clone();
/// table.forward(&mut a);
/// table.forward(&mut b);
/// let mut prod: Vec<u64> = a.iter().zip(&b).map(|(&x, &y)| table.modulus().mul(x, y)).collect();
/// table.inverse(&mut prod);
/// // x * x = x^2
/// assert_eq!(prod[2], 1);
/// assert!(prod.iter().enumerate().all(|(i, &c)| i == 2 || c == 0));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct NttTable {
    degree: usize,
    modulus: Modulus,
    /// ψ^brv(i) for the forward transform (ψ a primitive 2N-th root of unity). Every Shoup
    /// companion below is in the table's form ([`twiddle_shoup`]): 52-bit for a limb below
    /// `2^50`.
    psi_rev: Vec<u64>,
    psi_rev_shoup: Vec<u64>,
    /// ψ^{-brv(i)} for the inverse transform.
    psi_inv_rev: Vec<u64>,
    psi_inv_rev_shoup: Vec<u64>,
    /// N^{-1} mod q.
    degree_inv: u64,
    degree_inv_shoup: u64,
    /// `ψ^{-brv(1)} · N^{-1} mod q`: the last inverse stage's single twiddle with the `N⁻¹`
    /// scaling fused in, so the inverse transform needs no separate scaling pass.
    psi_inv_last_fused: u64,
    psi_inv_last_fused_shoup: u64,
}

impl NttTable {
    /// Builds NTT tables for ring degree `degree` (a power of two) and modulus `q ≡ 1 (mod 2N)`.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::InvalidDegree`] if `degree` is not a power of two ≥ 2, and
    /// [`MathError::NoPrimitiveRoot`] if the modulus does not support a 2N-th root of unity.
    pub fn new(degree: usize, modulus: Modulus) -> Result<Self> {
        if degree < 2 || !degree.is_power_of_two() {
            return Err(MathError::InvalidDegree {
                degree,
                reason: "NTT degree must be a power of two at least 2",
            });
        }
        let q = modulus.value();
        let two_n = 2 * degree as u64;
        if !(q - 1).is_multiple_of(two_n) {
            return Err(MathError::NoPrimitiveRoot {
                modulus: q,
                order: two_n,
            });
        }
        let psi = find_primitive_root(&modulus, two_n)?;
        let psi_inv = modulus.inv(psi)?;
        let log_n = degree.trailing_zeros();

        let mut psi_rev = vec![0u64; degree];
        let mut psi_inv_rev = vec![0u64; degree];
        let mut power = 1u64;
        let mut power_inv = 1u64;
        for i in 0..degree {
            let rev = (i as u64).reverse_bits() >> (64 - log_n);
            psi_rev[rev as usize] = power;
            psi_inv_rev[rev as usize] = power_inv;
            power = modulus.mul(power, psi);
            power_inv = modulus.mul(power_inv, psi_inv);
        }
        let psi_rev_shoup = psi_rev
            .iter()
            .map(|&w| twiddle_shoup(&modulus, w))
            .collect();
        let psi_inv_rev_shoup = psi_inv_rev
            .iter()
            .map(|&w| twiddle_shoup(&modulus, w))
            .collect();
        let degree_inv = modulus.inv(degree as u64)?;
        let degree_inv_shoup = twiddle_shoup(&modulus, degree_inv);
        let psi_inv_last_fused = modulus.mul(psi_inv_rev[1], degree_inv);
        let psi_inv_last_fused_shoup = twiddle_shoup(&modulus, psi_inv_last_fused);
        Ok(Self {
            degree,
            modulus,
            psi_rev,
            psi_rev_shoup,
            psi_inv_rev,
            psi_inv_rev_shoup,
            degree_inv,
            degree_inv_shoup,
            psi_inv_last_fused,
            psi_inv_last_fused_shoup,
        })
    }

    /// Ring degree `N`.
    #[inline]
    pub fn degree(&self) -> usize {
        self.degree
    }

    /// The limb modulus.
    #[inline]
    pub fn modulus(&self) -> &Modulus {
        &self.modulus
    }

    /// In-place forward negacyclic NTT (coefficient → evaluation representation).
    ///
    /// Lazy-reduction Harvey butterflies: operands stay in `[0, 4q)` across the whole
    /// butterfly network (each butterfly only conditionally subtracts `2q` from its upper
    /// input) and a single correction pass at the end restores the canonical `[0, q)` range.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != N`.
    pub fn forward(&self, values: &mut [u64]) {
        self.forward_lazy(values);
        self.modulus.reduce_4q_row(values);
    }

    /// Forward negacyclic NTT **without the final canonicalisation pass**: inputs may be lazy
    /// residues in `[0, 4q)` and outputs stay in `[0, 4q)`, congruent to the canonical
    /// [`NttTable::forward`] output limb-for-limb.
    ///
    /// This is the transform-minimal key-switch entry point: the ModUp conversion hands over
    /// `[0, 2q)` rows directly (skipping its own correction pass), and the u128 KSKIP inner
    /// product consumes the `[0, 4q)` evaluations as-is — its single end-of-accumulation
    /// Barrett reduction absorbs the laziness, so the two correction sweeps between ModUp and
    /// KSKIP disappear entirely.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != N`.
    pub fn forward_lazy(&self, values: &mut [u64]) {
        assert_eq!(values.len(), self.degree, "input length must equal N");
        let q = self.modulus.value();
        if !simd::ntt_forward_lazy(Arm::select(q), values, &self.forward_twiddles(), q) {
            self.forward_lazy_scalar(values);
        }
    }

    fn forward_twiddles(&self) -> Twiddles<'_> {
        Twiddles {
            w: &self.psi_rev,
            w_shoup: &self.psi_rev_shoup,
        }
    }

    /// The scalar butterfly network of [`NttTable::forward_lazy`].
    fn forward_lazy_scalar(&self, values: &mut [u64]) {
        let q = &self.modulus;
        let two_q = q.two_q();
        let n = self.degree;
        let mut t = n;
        let mut m = 1usize;
        while m < n {
            t >>= 1;
            for (i, block) in values.chunks_exact_mut(2 * t).enumerate() {
                let s = self.psi_rev[m + i];
                let s_shoup = self.psi_rev_shoup[m + i];
                let (lo, hi) = block.split_at_mut(t);
                for (x, y) in lo.iter_mut().zip(hi.iter_mut()) {
                    // Invariant: *x, *y ∈ [0, 4q). Reduce x into [0, 2q), keep the twiddle
                    // product lazy in [0, 2q); the outputs land back in [0, 4q).
                    let mut u = *x;
                    if u >= two_q {
                        u -= two_q;
                    }
                    let v = q.mul_shoup_lazy(*y, s, s_shoup);
                    *x = u + v;
                    *y = u + two_q - v;
                }
            }
            m <<= 1;
        }
    }

    /// In-place inverse negacyclic NTT (evaluation → coefficient representation).
    ///
    /// Lazy-reduction Gentleman–Sande butterflies over the `[0, 2q)` domain, with the `N⁻¹`
    /// scaling fused into the final stage's twiddles (no separate scaling sweep) and one
    /// correction pass at the end.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != N`.
    pub fn inverse(&self, values: &mut [u64]) {
        assert_eq!(values.len(), self.degree, "input length must equal N");
        let (tw, last) = self.inverse_twiddles();
        let q = self.modulus.value();
        if !simd::ntt_inverse_lazy(Arm::select(q), values, &tw, last, q) {
            self.inverse_lazy_scalar(values);
        }
        self.modulus.reduce_2q_row(values);
    }

    /// The inverse stage twiddles and the last stage's two fused multipliers
    /// `[N⁻¹, shoup, ψ⁻¹·N⁻¹, shoup]`.
    fn inverse_twiddles(&self) -> (Twiddles<'_>, [u64; 4]) {
        (
            Twiddles {
                w: &self.psi_inv_rev,
                w_shoup: &self.psi_inv_rev_shoup,
            },
            [
                self.degree_inv,
                self.degree_inv_shoup,
                self.psi_inv_last_fused,
                self.psi_inv_last_fused_shoup,
            ],
        )
    }

    /// The scalar butterfly network of [`NttTable::inverse`]; outputs stay in `[0, 2q)`.
    fn inverse_lazy_scalar(&self, values: &mut [u64]) {
        let q = &self.modulus;
        let two_q = q.two_q();
        let n = self.degree;
        let mut t = 1usize;
        let mut m = n;
        while m > 2 {
            let h = m >> 1;
            for (i, block) in values.chunks_exact_mut(2 * t).enumerate() {
                let s = self.psi_inv_rev[h + i];
                let s_shoup = self.psi_inv_rev_shoup[h + i];
                let (lo, hi) = block.split_at_mut(t);
                for (x, y) in lo.iter_mut().zip(hi.iter_mut()) {
                    // Invariant: *x, *y ∈ [0, 2q).
                    let u = *x;
                    let v = *y;
                    *x = q.add_lazy(u, v);
                    *y = q.mul_shoup_lazy(u + two_q - v, s, s_shoup);
                }
            }
            t <<= 1;
            m = h;
        }
        // Last stage (m == 2): one butterfly group spanning the whole array, with N⁻¹ fused
        // into both output twiddles.
        debug_assert_eq!(t, n / 2);
        let (lo, hi) = values.split_at_mut(t);
        for (x, y) in lo.iter_mut().zip(hi.iter_mut()) {
            let u = *x;
            let v = *y;
            *x = q.mul_shoup_lazy(q.add_lazy(u, v), self.degree_inv, self.degree_inv_shoup);
            *y = q.mul_shoup_lazy(
                u + two_q - v,
                self.psi_inv_last_fused,
                self.psi_inv_last_fused_shoup,
            );
        }
    }

    /// Negacyclic polynomial multiplication via NTT: `a * b mod (x^N + 1, q)`.
    ///
    /// Exposed mostly for testing and for the CPU baseline; the evaluator performs the same
    /// steps with explicit representation management.
    pub fn negacyclic_multiply(&self, a: &[u64], b: &[u64]) -> Vec<u64> {
        let mut fa = a.to_vec();
        let mut fb = b.to_vec();
        self.forward(&mut fa);
        self.forward(&mut fb);
        for (x, y) in fa.iter_mut().zip(fb.iter()) {
            *x = self.modulus.mul(*x, *y);
        }
        self.inverse(&mut fa);
        fa
    }
}

/// The Shoup companion a table stores for twiddle `w`: [`Modulus::shoup_precompute`], with its
/// low 12 bits cleared for a limb below `2^50` — `⌊w·2^52/q⌋·2^12`, the form whose quotient the
/// 52-bit multiplier takes in one product (see [`crate::simd`]). Every butterfly operand of
/// such a limb is below `4q < 2^52`, so the quotient undershoots by at most 1 and the lazy
/// product stays below `2q` on every arm.
fn twiddle_shoup(modulus: &Modulus, w: u64) -> u64 {
    let shoup = modulus.shoup_precompute(w);
    if modulus.value() < simd::IFMA_LIMB_BOUND {
        shoup & !0xFFF
    } else {
        shoup
    }
}

/// Finds a primitive root of unity of exact order `order` modulo `q` (order must divide `q-1`).
fn find_primitive_root(modulus: &Modulus, order: u64) -> Result<u64> {
    let q = modulus.value();
    debug_assert_eq!((q - 1) % order, 0);
    let cofactor = (q - 1) / order;
    // Deterministic scan over small candidates; for prime q a generator-derived element of
    // exact order is found quickly.
    for candidate in 2u64..(1 << 20) {
        let root = modulus.pow(candidate % q, cofactor);
        if root == 0 || root == 1 {
            continue;
        }
        // Exact order check: root^(order/2) must be -1 (order is a power of two here).
        if modulus.pow(root, order / 2) == q - 1 {
            return Ok(root);
        }
    }
    Err(MathError::NoPrimitiveRoot { modulus: q, order })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rows::tests::row as lazy_row;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    fn table(log_n: usize, bits: u32) -> NttTable {
        let n = 1 << log_n;
        let q = crate::generate_ntt_prime(bits, n, 0).unwrap();
        NttTable::new(n, Modulus::new(q).unwrap()).unwrap()
    }

    fn random_poly(n: usize, q: u64, seed: u64) -> Vec<u64> {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        (0..n).map(|_| rng.gen_range(0..q)).collect()
    }

    /// The forward transform from its definition, `X[i] = Σ_j x_j·ψ^{(2·brv(i)+1)·j} mod q`,
    /// at each of `indices`: Horner's rule in `u128` — no butterflies, no lazy domains, no
    /// Shoup or Barrett constants. ψ is the table's own root (`psi_rev[brv(1)]`), checked
    /// first to be a primitive `2N`-th root of unity (`ψ^N ≡ −1`).
    fn direct_forward(t: &NttTable, x: &[u64], indices: &[usize]) -> Vec<u64> {
        let n = t.degree();
        let q = t.modulus().value() as u128;
        let mul = |a: u64, b: u64| (a as u128 * b as u128 % q) as u64;
        let pow = |base: u64, exponent: usize| {
            let (mut acc, mut square, mut e) = (1u64, base, exponent);
            while e > 0 {
                if e & 1 == 1 {
                    acc = mul(acc, square);
                }
                square = mul(square, square);
                e >>= 1;
            }
            acc
        };
        let psi = t.psi_rev[n / 2];
        assert_eq!(
            pow(psi, n) as u128,
            q - 1,
            "ψ is not a primitive 2N-th root"
        );
        let log_n = n.trailing_zeros();
        indices
            .iter()
            .map(|&i| {
                let point = pow(psi, 2 * (i.reverse_bits() >> (usize::BITS - log_n)) + 1);
                x.iter().rev().fold(0u64, |acc, &xj| {
                    ((acc as u128 * point as u128 + xj as u128) % q) as u64
                })
            })
            .collect()
    }

    /// Every index while `N²` is affordable in the debug profile, 64 sampled ones above that.
    fn checked_indices(n: usize, seed: u64) -> Vec<usize> {
        if n <= 1 << 12 {
            return (0..n).collect();
        }
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        (0..64)
            .map(|_| rng.gen_range(0..n as u64) as usize)
            .collect()
    }

    /// The two arms of the butterfly networks, by name — no global switch.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Arm {
        Scalar,
        Vector,
    }

    /// `forward` on the named arm. `false`: the vector arm declined (no AVX-512F+DQ on this
    /// CPU, or `N < 16`) and `values` is untouched.
    fn forward_on(t: &NttTable, arm: Arm, values: &mut [u64]) -> bool {
        let ran = match arm {
            Arm::Scalar => {
                t.forward_lazy_scalar(values);
                true
            }
            Arm::Vector => {
                let q = t.modulus.value();
                simd::ntt_forward_lazy(simd::Arm::select(q), values, &t.forward_twiddles(), q)
            }
        };
        if ran {
            crate::rows::scalar::reduce_4q_row(&t.modulus, values);
        }
        ran
    }

    /// `inverse` on the named arm; see [`forward_on`].
    fn inverse_on(t: &NttTable, arm: Arm, values: &mut [u64]) -> bool {
        let ran = match arm {
            Arm::Scalar => {
                t.inverse_lazy_scalar(values);
                true
            }
            Arm::Vector => {
                let (tw, last) = t.inverse_twiddles();
                let q = t.modulus.value();
                simd::ntt_inverse_lazy(simd::Arm::select(q), values, &tw, last, q)
            }
        };
        if ran {
            crate::rows::scalar::reduce_2q_row(&t.modulus, values);
        }
        ran
    }

    /// Says in words which arms a gate exercised (a host without AVX-512 must read as
    /// "skipped", never as a silent pass).
    fn report(gate: &str, n: usize, vector_ran: bool) {
        let vector = if vector_ran {
            format!("vector arm ({}) ran", crate::row_kernel_arm())
        } else if n < 16 {
            "vector arm declined (N < 16 is scalar by design)".to_string()
        } else {
            "vector arm SKIPPED (no AVX-512F+DQ on this CPU)".to_string()
        };
        println!("{gate}, N = {n}: scalar arm ran; {vector}");
    }

    /// Pins `forward` to the definition on the checked indices, and `inverse` to the round
    /// trip on top of it (direct evaluation is a bijection, so undoing it is the inverse) —
    /// on **both** arms, and on the dispatching public entry points.
    fn assert_matches_definition(t: &NttTable, poly: &[u64], seed: u64) {
        let n = t.degree();
        let indices = checked_indices(n, seed);
        let expected = direct_forward(t, poly, &indices);
        let mut vector_ran = false;
        for arm in [Arm::Scalar, Arm::Vector] {
            let mut values = poly.to_vec();
            if !forward_on(t, arm, &mut values) {
                assert_eq!(values, poly, "a declining arm must not touch the row");
                assert!(n < 16 || !simd::detected(), "vector arm declined N = {n}");
                continue;
            }
            vector_ran |= arm == Arm::Vector;
            for (&i, &e) in indices.iter().zip(&expected) {
                assert_eq!(
                    values[i], e,
                    "{arm:?} forward ≠ direct evaluation at {i}, N = {n}"
                );
            }
            assert!(inverse_on(t, arm, &mut values));
            assert_eq!(
                values, poly,
                "{arm:?} inverse did not undo forward at N = {n}"
            );
        }
        let mut values = poly.to_vec();
        t.forward(&mut values);
        for (&i, &e) in indices.iter().zip(&expected) {
            assert_eq!(values[i], e, "forward ≠ direct evaluation at {i}, N = {n}");
        }
        t.inverse(&mut values);
        assert_eq!(values, poly, "inverse did not undo forward at N = {n}");
        report("direct evaluation", n, vector_ran);
    }

    /// Schoolbook negacyclic multiplication used as the correctness oracle.
    fn schoolbook_negacyclic(a: &[u64], b: &[u64], modulus: &Modulus) -> Vec<u64> {
        let n = a.len();
        let mut out = vec![0u64; n];
        for (i, &ai) in a.iter().enumerate() {
            if ai == 0 {
                continue;
            }
            for (j, &bj) in b.iter().enumerate() {
                let prod = modulus.mul(ai, bj);
                let k = i + j;
                if k < n {
                    out[k] = modulus.add(out[k], prod);
                } else {
                    out[k - n] = modulus.sub(out[k - n], prod);
                }
            }
        }
        out
    }

    #[test]
    fn forward_inverse_roundtrip() {
        for log_n in [3usize, 6, 10, 12] {
            let t = table(log_n, 50);
            let q = t.modulus().value();
            let original = random_poly(1 << log_n, q, log_n as u64);
            let mut values = original.clone();
            t.forward(&mut values);
            t.inverse(&mut values);
            assert_eq!(values, original, "roundtrip failed for log_n = {log_n}");
        }
    }

    #[test]
    fn multiplication_matches_schoolbook() {
        let t = table(6, 50);
        let q = t.modulus().value();
        let a = random_poly(64, q, 1);
        let b = random_poly(64, q, 2);
        let expected = schoolbook_negacyclic(&a, &b, t.modulus());
        assert_eq!(t.negacyclic_multiply(&a, &b), expected);
    }

    #[test]
    fn negacyclic_wraparound_sign() {
        // x^(N-1) * x = x^N = -1 in the negacyclic ring.
        let t = table(5, 40);
        let n = t.degree();
        let q = t.modulus().value();
        let mut a = vec![0u64; n];
        a[n - 1] = 1;
        let mut b = vec![0u64; n];
        b[1] = 1;
        let prod = t.negacyclic_multiply(&a, &b);
        assert_eq!(prod[0], q - 1);
        assert!(prod[1..].iter().all(|&c| c == 0));
    }

    #[test]
    fn constant_polynomial_is_fixed_point_of_pointwise_identity() {
        let t = table(8, 45);
        let n = t.degree();
        let mut ones = vec![0u64; n];
        ones[0] = 1;
        let mut transformed = ones.clone();
        t.forward(&mut transformed);
        // NTT of the constant 1 is the all-ones vector (evaluations of 1 everywhere).
        assert!(transformed.iter().all(|&v| v == 1));
    }

    #[test]
    fn linearity_of_transform() {
        let t = table(9, 48);
        let q = t.modulus();
        let a = random_poly(t.degree(), q.value(), 7);
        let b = random_poly(t.degree(), q.value(), 8);
        let sum: Vec<u64> = a.iter().zip(&b).map(|(&x, &y)| q.add(x, y)).collect();
        let mut fa = a.clone();
        let mut fb = b.clone();
        let mut fsum = sum.clone();
        t.forward(&mut fa);
        t.forward(&mut fb);
        t.forward(&mut fsum);
        for i in 0..t.degree() {
            assert_eq!(fsum[i], q.add(fa[i], fb[i]));
        }
    }

    #[test]
    fn rejects_bad_degree_and_modulus() {
        let q = crate::generate_ntt_prime(40, 1 << 10, 0).unwrap();
        assert!(NttTable::new(3, Modulus::new(q).unwrap()).is_err());
        // A prime that is 1 mod 2*2^10 may not be 1 mod 2*2^16.
        let small = crate::generate_ntt_prime(40, 1 << 4, 0).unwrap();
        if !(small - 1).is_multiple_of(1 << 17) {
            assert!(NttTable::new(1 << 16, Modulus::new(small).unwrap()).is_err());
        }
    }

    #[test]
    fn fab_paper_degree_roundtrip() {
        // N = 2^16, log q = 54: the paper's parameter set (kept small in iteration count).
        let t = table(16, 54);
        let q = t.modulus().value();
        assert_matches_definition(&t, &random_poly(1 << 16, q, 99), 99);
    }

    #[test]
    fn lazy_matches_eager_reference_across_degrees() {
        for log_n in 3usize..=12 {
            let t = table(log_n, 50);
            let q = t.modulus().value();
            let seed = 1000 + log_n as u64;
            assert_matches_definition(&t, &random_poly(1 << log_n, q, seed), seed);
        }
    }

    #[test]
    fn forward_lazy_is_congruent_for_lazy_inputs() {
        // forward_lazy accepts inputs anywhere in [0, 4q) and its outputs, corrected, must
        // match the transform of the canonical input — taken from the definition.
        let t = table(8, 50);
        let q = t.modulus();
        let canonical = random_poly(t.degree(), q.value(), 77);
        let reference = direct_forward(&t, &canonical, &checked_indices(t.degree(), 77));
        for shift in [0u64, 1, 2, 3] {
            // Shift each coefficient by a multiple of q (staying below 4q).
            let mut lazy: Vec<u64> = canonical
                .iter()
                .enumerate()
                .map(|(i, &c)| c + q.value() * ((shift + i as u64) % 4).min(3))
                .collect();
            for v in lazy.iter_mut() {
                if *v >= 4 * q.value() {
                    *v -= q.value();
                }
            }
            t.forward_lazy(&mut lazy);
            for (i, &v) in lazy.iter().enumerate() {
                assert!(
                    (v as u128) < 4 * q.value() as u128,
                    "output {v} out of [0,4q)"
                );
                assert_eq!(q.reduce_4q(v), reference[i], "slot {i} shift {shift}");
            }
        }
    }

    #[test]
    fn fused_scaling_handles_minimum_degree() {
        // N = 2 exercises the inverse path where the fused last stage is the *only* stage.
        let t = table(1, 40);
        let q = t.modulus().value();
        for seed in 0..8 {
            assert_matches_definition(&t, &random_poly(2, q, seed), seed);
        }
    }

    /// The vector butterfly networks against the scalar ones, **before** canonicalisation:
    /// the same lazy representative in every position, not merely a congruent one.
    fn assert_vector_networks_equal_scalar(log_n: usize, bits: u32, seed: u64) -> bool {
        let t = table(log_n, bits);
        let (n, q) = (t.degree(), t.modulus().value());
        let input = lazy_row(t.modulus(), 4, n, seed);
        let (mut by_scalar, mut by_vector) = (input.clone(), input.clone());
        t.forward_lazy_scalar(&mut by_scalar);
        if !simd::ntt_forward_lazy(
            simd::Arm::select(q),
            &mut by_vector,
            &t.forward_twiddles(),
            q,
        ) {
            assert_eq!(by_vector, input);
            return false;
        }
        assert_eq!(by_vector, by_scalar, "forward, N = 2^{log_n}, {bits} bits");
        let input = lazy_row(t.modulus(), 2, n, seed + 1);
        let (mut by_scalar, mut by_vector) = (input.clone(), input);
        t.inverse_lazy_scalar(&mut by_scalar);
        let (tw, last) = t.inverse_twiddles();
        assert!(simd::ntt_inverse_lazy(
            simd::Arm::select(q),
            &mut by_vector,
            &tw,
            last,
            q
        ));
        assert_eq!(by_vector, by_scalar, "inverse, N = 2^{log_n}, {bits} bits");
        true
    }

    #[test]
    fn vector_networks_equal_scalar_networks_bit_for_bit() {
        // 62 bits is the cap: 4q is within a factor 1.0001 of 2^64, so `u + 2q − v` and the
        // lazy sums run at the wrap.
        for bits in [30u32, 45, 54, 62] {
            for log_n in 4usize..=16 {
                let ran = assert_vector_networks_equal_scalar(log_n, bits, 7 * log_n as u64);
                assert_eq!(ran, simd::detected(), "N = 2^{log_n}");
                if log_n == 16 {
                    let gate = format!("lazy networks, {bits} bits, N = 16 … 2^16");
                    report(&gate, 1 << 16, ran);
                    let q = table(log_n, bits).modulus().value();
                    let ifma = if simd::Arm::select(q) == Some(simd::Arm::Ifma) {
                        "IFMA arm ran (it is the arm selected for this limb)"
                    } else if q >= simd::IFMA_LIMB_BOUND {
                        "IFMA arm SKIPPED (a limb of 2^50 or more takes the DQ arm)"
                    } else {
                        "IFMA arm SKIPPED (no AVX-512 IFMA on this CPU)"
                    };
                    println!("{gate}: {ifma}");
                }
            }
        }
    }

    /// The smallest NTT-friendly prime above `bound` for degree `n`.
    fn ntt_prime_above(bound: u64, n: usize) -> u64 {
        let step = 2 * n as u64;
        (1..)
            .map(|i| bound + i * step + 1 - bound % step)
            .find(|&q| crate::is_prime(q))
            .unwrap()
    }

    /// Each vector arm by name against the scalar networks, before canonicalisation, on limbs
    /// on either side of the IFMA bound `2^50` and the widths of the gate above: an arm must run
    /// exactly where the CPU and the limb allow it and then equal the scalar network.
    #[test]
    fn vector_networks_of_each_arm_equal_scalar_networks() {
        let mut ifma_ran = false;
        for log_n in 4usize..=16 {
            let n = 1 << log_n;
            let below = crate::generate_ntt_prime(50, n, 0).unwrap();
            let moduli = [30u32, 45, 54, 62]
                .map(|bits| crate::generate_ntt_prime(bits, n, 0).unwrap())
                .into_iter()
                .chain([below, ntt_prime_above(simd::IFMA_LIMB_BOUND, n)]);
            for q in moduli {
                let t = NttTable::new(n, Modulus::new(q).unwrap()).unwrap();
                let forward_input = lazy_row(t.modulus(), 4, n, q ^ log_n as u64);
                let inverse_input = lazy_row(t.modulus(), 2, n, q ^ 99);
                let mut forward_scalar = forward_input.clone();
                t.forward_lazy_scalar(&mut forward_scalar);
                let mut inverse_scalar = inverse_input.clone();
                t.inverse_lazy_scalar(&mut inverse_scalar);
                for arm in [simd::Arm::Dq, simd::Arm::Ifma] {
                    let bits = 64 - q.leading_zeros();
                    let mut values = forward_input.clone();
                    let ran =
                        simd::ntt_forward_lazy(Some(arm), &mut values, &t.forward_twiddles(), q);
                    assert_eq!(ran, arm.runs(q), "{arm:?} forward, N = {n}, {bits} bits");
                    let expected = if ran { &forward_scalar } else { &forward_input };
                    assert_eq!(&values, expected, "{arm:?} forward, N = {n}, {bits} bits");
                    let mut values = inverse_input.clone();
                    let (tw, last) = t.inverse_twiddles();
                    let ran = simd::ntt_inverse_lazy(Some(arm), &mut values, &tw, last, q);
                    assert_eq!(ran, arm.runs(q), "{arm:?} inverse, N = {n}, {bits} bits");
                    let expected = if ran { &inverse_scalar } else { &inverse_input };
                    assert_eq!(&values, expected, "{arm:?} inverse, N = {n}, {bits} bits");
                    ifma_ran |= ran && arm == simd::Arm::Ifma;
                }
                assert_eq!(
                    simd::Arm::Ifma.runs(q),
                    q < simd::IFMA_LIMB_BOUND && simd::ifma_detected()
                );
            }
        }
        if ifma_ran {
            println!("lazy networks by arm, N = 16 … 2^16: IFMA arm ran on the limbs below 2^50");
        } else {
            println!("lazy networks by arm, N = 16 … 2^16: IFMA arm SKIPPED (no AVX-512 IFMA)");
        }
        assert_eq!(ifma_ran, simd::ifma_detected());
    }

    /// The 52-bit twiddle tables at the edge of their bound, on the scalar network and on each
    /// vector arm by name: the widest NTT limb below `2^50` and a 30-bit one at `N = 2^10`,
    /// forward inputs at `4q − 1` (all of them, then the domain's edges and random words) and
    /// inverse inputs in `[q, 2q)` (its domain is `[0, 2q)`). Forward outputs stay below `4q`
    /// and equal the definition; inverse outputs are canonical; and the product of two such
    /// forwards, inverted, equals the schoolbook negacyclic product.
    #[test]
    fn vector_ntt_with_52_bit_twiddles_keeps_its_bounds_at_the_edge() {
        let n = 1 << 10;
        let mut ifma_ran = false;
        for q in [
            crate::generate_ntt_prime(50, n, 0).unwrap(),
            crate::generate_ntt_prime(30, n, 0).unwrap(),
        ] {
            let t = NttTable::new(n, Modulus::new(q).unwrap()).unwrap();
            let m = t.modulus();
            assert!(
                [&t.psi_rev_shoup, &t.psi_inv_rev_shoup]
                    .iter()
                    .all(|table| table.iter().all(|&s| s & 0xFFF == 0)),
                "a limb below 2^50 stores 52-bit Shoup constants"
            );
            let forward = |arm: Option<simd::Arm>, values: &mut [u64]| match arm {
                None => {
                    t.forward_lazy_scalar(values);
                    true
                }
                Some(arm) => simd::ntt_forward_lazy(Some(arm), values, &t.forward_twiddles(), q),
            };
            let inverse = |arm: Option<simd::Arm>, values: &mut [u64]| {
                let ran = match arm {
                    None => {
                        t.inverse_lazy_scalar(values);
                        true
                    }
                    Some(arm) => {
                        let (tw, last) = t.inverse_twiddles();
                        simd::ntt_inverse_lazy(Some(arm), values, &tw, last, q)
                    }
                };
                crate::rows::scalar::reduce_2q_row(m, values);
                ran
            };
            let edge = vec![4 * q - 1; n];
            let mixed = lazy_row(m, 4, n, q);
            let all: Vec<usize> = (0..n).collect();
            for arm in [None, Some(simd::Arm::Dq), Some(simd::Arm::Ifma)] {
                if arm.is_some_and(|arm| !arm.runs(q)) {
                    continue;
                }
                ifma_ran |= arm == Some(simd::Arm::Ifma);
                let mut transforms = Vec::new();
                for input in [&edge, &mixed] {
                    let mut values = input.clone();
                    assert!(forward(arm, &mut values));
                    assert!(values.iter().all(|&v| v < 4 * q), "{arm:?}: forward ≥ 4q");
                    let canonical: Vec<u64> = input.iter().map(|&v| m.reduce(v)).collect();
                    let reduced: Vec<u64> = values.iter().map(|&v| m.reduce_4q(v)).collect();
                    assert_eq!(reduced, direct_forward(&t, &canonical, &all), "{arm:?}");
                    transforms.push((canonical, reduced));
                }
                let ((a, fa), (b, fb)) = (&transforms[0], &transforms[1]);
                // The pointwise product, handed over at its lazy representative in [q, 2q).
                let mut product: Vec<u64> =
                    fa.iter().zip(fb).map(|(&x, &y)| m.mul(x, y) + q).collect();
                assert!(inverse(arm, &mut product));
                assert!(
                    product.iter().all(|&v| v < q),
                    "{arm:?}: inverse not canonical"
                );
                assert_eq!(product, schoolbook_negacyclic(a, b, m), "{arm:?}");
                let mut top = vec![2 * q - 1; n];
                assert!(inverse(arm, &mut top));
                assert!(top.iter().all(|&v| v < q), "{arm:?}: inverse not canonical");
                assert_eq!(direct_forward(&t, &top, &all), vec![q - 1; n], "{arm:?}");
            }
        }
        if ifma_ran {
            println!("52-bit twiddles at the edge, N = 2^10: IFMA arm ran and met the bounds");
        } else {
            assert!(!simd::ifma_detected());
            println!("52-bit twiddles at the edge, N = 2^10: IFMA arm SKIPPED (no AVX-512 IFMA)");
        }
    }

    #[test]
    fn degrees_below_sixteen_stay_scalar() {
        for log_n in 1usize..=3 {
            let t = table(log_n, 40);
            let q = t.modulus().value();
            let poly = random_poly(1 << log_n, q, 5);
            let mut values = poly.clone();
            assert!(!simd::ntt_forward_lazy(
                simd::Arm::select(q),
                &mut values,
                &t.forward_twiddles(),
                q
            ));
            let (tw, last) = t.inverse_twiddles();
            assert!(!simd::ntt_inverse_lazy(
                simd::Arm::select(q),
                &mut values,
                &tw,
                last,
                q
            ));
            assert_eq!(values, poly);
            assert_matches_definition(&t, &poly, 5);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]
        #[test]
        fn prop_lazy_matches_eager_bit_for_bit(seed in any::<u64>(), log_n in 3usize..13) {
            let t = table(log_n, 45);
            let q = t.modulus().value();
            assert_matches_definition(&t, &random_poly(1 << log_n, q, seed), seed);
        }

        #[test]
        fn prop_vector_networks_equal_scalar(seed in any::<u64>(), log_n in 4usize..14) {
            assert_vector_networks_equal_scalar(log_n, 54, seed);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn prop_roundtrip_random_polys(seed in any::<u64>()) {
            let t = table(7, 45);
            let q = t.modulus().value();
            let original = random_poly(t.degree(), q, seed);
            let mut values = original.clone();
            t.forward(&mut values);
            t.inverse(&mut values);
            prop_assert_eq!(values, original);
        }

        #[test]
        fn prop_convolution_theorem(seed in any::<u64>()) {
            let t = table(5, 40);
            let q = t.modulus().value();
            let a = random_poly(t.degree(), q, seed);
            let b = random_poly(t.degree(), q, seed.wrapping_add(1));
            let expected = schoolbook_negacyclic(&a, &b, t.modulus());
            prop_assert_eq!(t.negacyclic_multiply(&a, &b), expected);
        }
    }
}
