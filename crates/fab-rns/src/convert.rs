//! Approximate RNS basis conversion (Equation 1 of the paper).
//!
//! Given residues of `x` with respect to a source basis `B = {q_1, …, q_k}`, the conversion
//! produces `x + u·Q (mod p_j)` for every target limb `p_j`, where `0 ≤ u < k` is the small
//! overshoot inherent to the approximate (non-exact) CRT recombination. The smart-scheduling
//! optimisation in the paper (Section 4.6) halves the multiplication count by hoisting the
//! `x_i · (Q/q_i)^{-1} mod q_i` products so they are shared across all target limbs — this
//! implementation follows the same two-phase structure.
//!
//! The converter operates on the flat limb-major layout of [`crate::RnsPolynomial`]: phase 1
//! writes the hoisted products into one contiguous `k·N` scratch row block, and phase 2
//! accumulates each target limb coefficient-major with *lazy* `[0, 2p_j)` arithmetic (per
//! term one Shoup product and one conditional subtraction of `2p_j`, the running sum in a
//! register, a single canonical correction at the end). All Shoup constants are precomputed
//! at construction; the row loops themselves are `fab_math`'s row kernels.

use fab_math::Modulus;

use crate::{Result, RnsBasis, RnsError};

/// Precomputed constants for converting from one RNS basis to another.
///
/// ```
/// use fab_rns::{BasisConverter, RnsBasis};
///
/// # fn main() -> Result<(), fab_rns::RnsError> {
/// let source = RnsBasis::generate(1 << 4, 30, 2)?;
/// let target = RnsBasis::generate(1 << 4, 31, 2)?;
/// let conv = BasisConverter::new(&source, &target)?;
/// assert_eq!(conv.source_len(), 2);
/// assert_eq!(conv.target_len(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct BasisConverter {
    source_moduli: Vec<Modulus>,
    target_moduli: Vec<Modulus>,
    /// `(Q/q_i)^{-1} mod q_i` — the hoisted per-source-limb factors (+ Shoup constants).
    q_hat_inv_mod_q: Vec<u64>,
    q_hat_inv_mod_q_shoup: Vec<u64>,
    /// `q_hat_mod_p[j][i] = (Q/q_i) mod p_j` (+ Shoup constants).
    q_hat_mod_p: Vec<Vec<u64>>,
    q_hat_mod_p_shoup: Vec<Vec<u64>>,
}

impl BasisConverter {
    /// Precomputes conversion constants from `source` to `target`.
    ///
    /// # Errors
    ///
    /// Returns [`RnsError::Mismatch`] if the bases share a limb modulus (the CRT factors would
    /// not be invertible) or if either basis is empty.
    pub fn new(source: &RnsBasis, target: &RnsBasis) -> Result<Self> {
        Self::from_moduli(source.moduli(), target.moduli())
    }

    /// Precomputes conversion constants from explicit source/target moduli. Unlike
    /// [`BasisConverter::new`] this needs no NTT tables, so key-switch plans can be built for
    /// arbitrary limb subsets without paying table construction.
    ///
    /// # Errors
    ///
    /// Same as [`BasisConverter::new`].
    pub fn from_moduli(source: &[Modulus], target: &[Modulus]) -> Result<Self> {
        if source.is_empty() || target.is_empty() {
            return Err(RnsError::Mismatch {
                reason: "basis conversion requires non-empty source and target bases".into(),
            });
        }
        for s in source {
            if target.iter().any(|t| t.value() == s.value()) {
                return Err(RnsError::Mismatch {
                    reason: format!(
                        "modulus {} appears in both source and target bases",
                        s.value()
                    ),
                });
            }
        }
        let source_moduli = source.to_vec();
        let target_moduli = target.to_vec();
        let k = source_moduli.len();

        // (Q/q_i) mod q_i and its inverse.
        let mut q_hat_inv_mod_q = Vec::with_capacity(k);
        let mut q_hat_inv_mod_q_shoup = Vec::with_capacity(k);
        for i in 0..k {
            let qi = &source_moduli[i];
            let mut prod = 1u64;
            for (j, qj) in source_moduli.iter().enumerate() {
                if j != i {
                    prod = qi.mul(prod, qi.reduce(qj.value()));
                }
            }
            let inv = qi.inv(prod)?;
            q_hat_inv_mod_q.push(inv);
            q_hat_inv_mod_q_shoup.push(qi.shoup_precompute(inv));
        }

        // (Q/q_i) mod p_j.
        let mut q_hat_mod_p = Vec::with_capacity(target_moduli.len());
        let mut q_hat_mod_p_shoup = Vec::with_capacity(target_moduli.len());
        for pj in &target_moduli {
            let mut row = Vec::with_capacity(k);
            let mut row_shoup = Vec::with_capacity(k);
            for i in 0..k {
                let mut prod = 1u64;
                for (j, qj) in source_moduli.iter().enumerate() {
                    if j != i {
                        prod = pj.mul(prod, pj.reduce(qj.value()));
                    }
                }
                row_shoup.push(pj.shoup_precompute(prod));
                row.push(prod);
            }
            q_hat_mod_p.push(row);
            q_hat_mod_p_shoup.push(row_shoup);
        }

        Ok(Self {
            source_moduli,
            target_moduli,
            q_hat_inv_mod_q,
            q_hat_inv_mod_q_shoup,
            q_hat_mod_p,
            q_hat_mod_p_shoup,
        })
    }

    /// Number of source limbs.
    pub fn source_len(&self) -> usize {
        self.source_moduli.len()
    }

    /// Number of target limbs.
    pub fn target_len(&self) -> usize {
        self.target_moduli.len()
    }

    /// Phase 1 of the conversion over flat limb-major data: writes the hoisted products
    /// `y_i = x_i · (Q/q_i)^{-1} mod q_i` into `out` (resized to `source_len()·degree`,
    /// reusing its allocation — this is the per-call scratch buffer).
    ///
    /// Exposed separately because the paper's smart operation scheduling reuses these products
    /// across every extension limb ("reduces the number of modular multiplications by a factor
    /// of two", Section 4.6).
    ///
    /// # Panics
    ///
    /// Panics if `source_flat.len() != source_len() · degree`.
    pub fn hoisted_products_into(&self, source_flat: &[u64], degree: usize, out: &mut Vec<u64>) {
        assert_eq!(source_flat.len(), self.source_moduli.len() * degree);
        out.clear();
        out.resize(source_flat.len(), 0);
        fab_par::par_chunks_mut(out, degree, |i, row| {
            let qi = &self.source_moduli[i];
            let factor = self.q_hat_inv_mod_q[i];
            let factor_shoup = self.q_hat_inv_mod_q_shoup[i];
            let src = &source_flat[i * degree..(i + 1) * degree];
            qi.mul_shoup_row(src, factor, factor_shoup, row);
        });
    }

    /// Phase 1 for a single source row: `out[c] = src[c] · (Q/q_i)^{-1} mod q_i` for source
    /// limb `source_index`. The row-level entry point for job-list fan-out (the batched
    /// key-switch pipeline hands each `(digit, source row)` pair to one worker job).
    ///
    /// # Panics
    ///
    /// Panics if `source_index` is out of range or the row lengths disagree.
    pub fn hoisted_product_row(&self, source_index: usize, src: &[u64], out: &mut [u64]) {
        assert!(source_index < self.source_moduli.len());
        assert_eq!(src.len(), out.len());
        let qi = &self.source_moduli[source_index];
        let factor = self.q_hat_inv_mod_q[source_index];
        let factor_shoup = self.q_hat_inv_mod_q_shoup[source_index];
        qi.mul_shoup_row(src, factor, factor_shoup, out);
    }

    /// Phase 2: accumulates the hoisted products into one target limb row, overwriting `out`.
    ///
    /// The accumulation is lazy ([`BasisConverter::accumulate_target_limb_lazy_into`]); the
    /// canonical correction is one pass over the row at the end.
    ///
    /// # Panics
    ///
    /// Panics if `target_index` is out of range or the buffer shapes disagree.
    pub fn accumulate_target_limb_into(
        &self,
        hoisted_flat: &[u64],
        degree: usize,
        target_index: usize,
        out: &mut [u64],
    ) {
        self.accumulate_target_limb_lazy_into(hoisted_flat, degree, target_index, out);
        self.target_moduli[target_index].reduce_2q_row(out);
    }

    /// Phase 2 **without the final canonical correction**: the output row stays in the lazy
    /// `[0, 2p_j)` domain. Used when the row feeds straight into the lazy forward NTT
    /// ([`fab_math::NttTable::forward_lazy`] accepts inputs below `4q`), eliminating one full
    /// correction sweep per converted limb of the key-switch ModUp.
    ///
    /// Coefficient-major: each hoisted row is read once and `out` is written once, never
    /// read — it may hold arbitrary recycled data.
    ///
    /// # Panics
    ///
    /// Same as [`BasisConverter::accumulate_target_limb_into`].
    pub fn accumulate_target_limb_lazy_into(
        &self,
        hoisted_flat: &[u64],
        degree: usize,
        target_index: usize,
        out: &mut [u64],
    ) {
        assert_eq!(hoisted_flat.len(), self.source_moduli.len() * degree);
        assert_eq!(out.len(), degree);
        self.target_moduli[target_index].convert_accumulate_row(
            &self.source_moduli,
            hoisted_flat,
            &self.q_hat_mod_p[target_index],
            &self.q_hat_mod_p_shoup[target_index],
            out,
        );
    }

    /// Full approximate conversion of flat limb-major source data to every target limb
    /// (returned as a flat `target_len()·degree` buffer), fanned out over the worker pool.
    ///
    /// The result represents `x + u·Q` reduced modulo each target limb, with `0 ≤ u <` number
    /// of source limbs.
    ///
    /// # Panics
    ///
    /// Panics if `source_flat.len() != source_len() · degree`.
    pub fn convert_flat(&self, source_flat: &[u64], degree: usize) -> Vec<u64> {
        let mut hoisted = Vec::new();
        self.hoisted_products_into(source_flat, degree, &mut hoisted);
        let mut out = vec![0u64; self.target_moduli.len() * degree];
        fab_par::par_chunks_mut(&mut out, degree, |j, row| {
            self.accumulate_target_limb_into(&hoisted, degree, j, row);
        });
        out
    }

    /// Row-per-limb convenience wrapper over [`BasisConverter::convert_flat`].
    ///
    /// # Panics
    ///
    /// Panics if the source limb count differs from the precomputation or rows have uneven
    /// lengths.
    pub fn convert(&self, source_limbs: &[Vec<u64>]) -> Vec<Vec<u64>> {
        assert_eq!(source_limbs.len(), self.source_moduli.len());
        let degree = source_limbs[0].len();
        let mut flat = Vec::with_capacity(degree * source_limbs.len());
        for limb in source_limbs {
            assert_eq!(limb.len(), degree);
            flat.extend_from_slice(limb);
        }
        let out = self.convert_flat(&flat, degree);
        out.chunks_exact(degree).map(|row| row.to_vec()).collect()
    }
}

/// Exact CRT recombination of a single RNS residue vector into a `u128`, valid only when the
/// basis product fits in 128 bits. Used as a testing oracle for the approximate conversion.
///
/// # Panics
///
/// Panics if `residues.len()` differs from the basis size or the product overflows 128 bits.
pub fn crt_recombine_u128(residues: &[u64], basis: &RnsBasis) -> u128 {
    assert_eq!(residues.len(), basis.len());
    let mut product: u128 = 1;
    for q in basis.values() {
        product = product
            .checked_mul(q as u128)
            .expect("basis product must fit in u128 for exact recombination");
    }
    let mut acc: u128 = 0;
    for (i, qi) in basis.moduli().iter().enumerate() {
        let q_hat = product / qi.value() as u128; // Q / q_i
        let q_hat_mod_qi = (q_hat % qi.value() as u128) as u64;
        let q_hat_inv = qi.inv(q_hat_mod_qi).expect("limbs must be coprime");
        let yi = qi.mul(residues[i], q_hat_inv) as u128;
        // acc += y_i * (Q / q_i) mod Q, computed with 128-bit mulmod via schoolbook splitting.
        let term = mul_mod_u128(yi, q_hat, product);
        acc = (acc + term) % product;
    }
    acc
}

/// `a * b mod m` for 128-bit operands via double-and-add (used only by the testing oracle).
fn mul_mod_u128(mut a: u128, mut b: u128, m: u128) -> u128 {
    a %= m;
    b %= m;
    let mut result = 0u128;
    while b > 0 {
        if b & 1 == 1 {
            result = add_mod_u128(result, a, m);
        }
        a = add_mod_u128(a, a, m);
        b >>= 1;
    }
    result
}

fn add_mod_u128(a: u128, b: u128, m: u128) -> u128 {
    // a, b < m ≤ 2^127 ⇒ no overflow when m < 2^127; handle the general case via wrapping check.
    let (sum, overflow) = a.overflowing_add(b);
    if overflow || sum >= m {
        sum.wrapping_sub(m)
    } else {
        sum
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn bases() -> (RnsBasis, RnsBasis) {
        let source = RnsBasis::generate(1 << 4, 30, 3).unwrap();
        let target = RnsBasis::generate(1 << 4, 32, 2).unwrap();
        (source, target)
    }

    /// Builds the RNS residue limbs of a single integer value replicated at coefficient 0.
    fn encode_value(value: u128, basis: &RnsBasis, degree: usize) -> Vec<Vec<u64>> {
        basis
            .moduli()
            .iter()
            .map(|m| {
                let mut limb = vec![0u64; degree];
                limb[0] = (value % m.value() as u128) as u64;
                limb
            })
            .collect()
    }

    #[test]
    fn conversion_error_is_bounded_multiple_of_source_product() {
        let (source, target) = bases();
        let conv = BasisConverter::new(&source, &target).unwrap();
        let q_product: u128 = source.values().iter().map(|&q| q as u128).product();
        for value in [
            0u128,
            1,
            12345,
            q_product - 1,
            q_product / 2,
            q_product / 3 * 2,
        ] {
            let limbs = encode_value(value, &source, 16);
            let out = conv.convert(&limbs);
            for (j, pj) in target.moduli().iter().enumerate() {
                let got = out[j][0] as u128;
                // got ≡ value + u*Q (mod p_j) for some 0 ≤ u < source_len.
                let mut matched = false;
                for u in 0..=source.len() as u128 {
                    let expected = (value + u * q_product) % pj.value() as u128;
                    if expected == got {
                        matched = true;
                        break;
                    }
                }
                assert!(
                    matched,
                    "value {value}: no valid overshoot for target limb {j}"
                );
            }
        }
    }

    #[test]
    fn overshoot_is_consistent_across_target_limbs() {
        // The approximate conversion produces x + u·Q with a single integer u (0 ≤ u < k) that
        // is the same for every target limb — it is determined by the source residues alone.
        let (source, target) = bases();
        let conv = BasisConverter::new(&source, &target).unwrap();
        let q_product: u128 = source.values().iter().map(|&q| q as u128).product();
        for value in [0u128, 1, 1000, 65537, q_product - 1, q_product / 3] {
            let limbs = encode_value(value, &source, 16);
            let out = conv.convert(&limbs);
            // Determine u from the first target limb.
            let p0 = target.modulus(0);
            let mut overshoot = None;
            for u in 0..=source.len() as u128 {
                if ((value + u * q_product) % p0.value() as u128) == out[0][0] as u128 {
                    overshoot = Some(u);
                    break;
                }
            }
            let u = overshoot.expect("an overshoot in range must exist");
            // Every other target limb must agree with the same u.
            for (j, pj) in target.moduli().iter().enumerate() {
                assert_eq!(
                    out[j][0] as u128,
                    (value + u * q_product) % pj.value() as u128,
                    "value {value}: limb {j} disagrees on overshoot"
                );
            }
        }
    }

    #[test]
    fn flat_phases_match_full_conversion() {
        let (source, target) = bases();
        let conv = BasisConverter::new(&source, &target).unwrap();
        let degree = 16;
        let limbs = encode_value(987654321, &source, degree);
        let flat: Vec<u64> = limbs.iter().flatten().copied().collect();
        let mut hoisted = Vec::new();
        conv.hoisted_products_into(&flat, degree, &mut hoisted);
        let full = conv.convert_flat(&flat, degree);
        for j in 0..conv.target_len() {
            let mut row = vec![0u64; degree];
            conv.accumulate_target_limb_into(&hoisted, degree, j, &mut row);
            assert_eq!(&row[..], &full[j * degree..(j + 1) * degree]);
        }
        // The row-per-limb wrapper agrees with the flat path.
        let rows = conv.convert(&limbs);
        for (j, row) in rows.iter().enumerate() {
            assert_eq!(&row[..], &full[j * degree..(j + 1) * degree]);
        }
    }

    #[test]
    fn row_level_phases_match_batch_phases() {
        let (source, target) = bases();
        let conv = BasisConverter::new(&source, &target).unwrap();
        let degree = 16;
        let limbs = encode_value(123_456_789, &source, degree);
        let flat: Vec<u64> = limbs.iter().flatten().copied().collect();
        // Row-level phase 1 matches the batch phase 1.
        let mut hoisted = Vec::new();
        conv.hoisted_products_into(&flat, degree, &mut hoisted);
        for i in 0..conv.source_len() {
            let mut row = vec![0u64; degree];
            conv.hoisted_product_row(i, &limbs[i], &mut row);
            assert_eq!(&row[..], &hoisted[i * degree..(i + 1) * degree]);
        }
        // Lazy phase 2 stays below 2q and canonicalises to the corrected phase 2.
        for j in 0..conv.target_len() {
            let pj = target.modulus(j);
            let mut lazy = vec![0u64; degree];
            conv.accumulate_target_limb_lazy_into(&hoisted, degree, j, &mut lazy);
            assert!(lazy.iter().all(|&v| v < pj.two_q()));
            let mut canonical = vec![0u64; degree];
            conv.accumulate_target_limb_into(&hoisted, degree, j, &mut canonical);
            let corrected: Vec<u64> = lazy.iter().map(|&v| pj.reduce_2q(v)).collect();
            assert_eq!(corrected, canonical);
        }
    }

    #[test]
    fn from_moduli_matches_basis_construction() {
        let (source, target) = bases();
        let a = BasisConverter::new(&source, &target).unwrap();
        let b = BasisConverter::from_moduli(source.moduli(), target.moduli()).unwrap();
        let limbs = encode_value(4242, &source, 8);
        assert_eq!(a.convert(&limbs), b.convert(&limbs));
    }

    #[test]
    fn rejects_overlapping_bases() {
        let basis = RnsBasis::generate(1 << 4, 30, 3).unwrap();
        let overlapping = basis.prefix(2).unwrap();
        assert!(BasisConverter::new(&basis, &overlapping).is_err());
    }

    #[test]
    fn crt_recombine_roundtrip() {
        let basis = RnsBasis::generate(1 << 4, 30, 3).unwrap();
        let q_product: u128 = basis.values().iter().map(|&q| q as u128).product();
        for value in [0u128, 1, 999_999_937, q_product - 1, q_product / 7] {
            let residues: Vec<u64> = basis
                .moduli()
                .iter()
                .map(|m| (value % m.value() as u128) as u64)
                .collect();
            assert_eq!(crt_recombine_u128(&residues, &basis), value);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn prop_conversion_overshoot_bounded(value in any::<u64>()) {
            let (source, target) = bases();
            let conv = BasisConverter::new(&source, &target).unwrap();
            let q_product: u128 = source.values().iter().map(|&q| q as u128).product();
            let value = value as u128 % q_product;
            let limbs = encode_value(value, &source, 4);
            let out = conv.convert(&limbs);
            for (j, pj) in target.moduli().iter().enumerate() {
                let got = out[j][0] as u128;
                let mut matched = false;
                for u in 0..=source.len() as u128 {
                    if ((value + u * q_product) % pj.value() as u128) == got {
                        matched = true;
                        break;
                    }
                }
                prop_assert!(matched);
            }
        }

        #[test]
        fn prop_crt_recombination_is_exact(value in any::<u64>()) {
            let basis = RnsBasis::generate(1 << 4, 25, 2).unwrap();
            let q_product: u128 = basis.values().iter().map(|&q| q as u128).product();
            let value = value as u128 % q_product;
            let residues: Vec<u64> = basis
                .moduli()
                .iter()
                .map(|m| (value % m.value() as u128) as u64)
                .collect();
            prop_assert_eq!(crt_recombine_u128(&residues, &basis), value);
        }
    }
}
