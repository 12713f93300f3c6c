//! RNS kernels used by hybrid key switching and rescaling: Decomp, ModUp, ModDown, Rescale.
//!
//! These are the four sub-operations of the KeySwitch datapath in Figure 5 of the paper
//! (Decomp → ModUp → KSKIP → ModDown); KSKIP itself is an inner product over limbs and lives in
//! the CKKS evaluator. All kernels here operate on coefficient-representation polynomials,
//! mirroring the paper's datapath where basis conversion happens between the iNTT and NTT
//! stages.
//!
//! Steady-state callers use the precomputed [`ModUpPlan`] / [`ModDownPlan`] objects (one per
//! `(level, digit)` pair, cacheable because they hold only scalar constants — no NTT tables)
//! together with a [`ConvertScratch`]: each `apply_into` reuses the scratch's hoisted-product
//! buffer and the output polynomial's allocation, so a key switch allocates nothing after
//! warm-up. The free functions [`mod_up`] / [`mod_down`] / [`rescale`] build a throwaway plan
//! per call and remain as the convenient (and test-facing) entry points.

use fab_math::Modulus;

use crate::{BasisConverter, Representation, Result, RnsBasis, RnsError, RnsPolynomial};

/// Reusable scratch buffers for the basis-conversion kernels (the hoisted phase-1 products).
///
/// One instance per evaluator/arena; contents are overwritten by every use.
#[derive(Debug, Default, Clone)]
pub struct ConvertScratch {
    /// Flat `source_limbs · N` buffer holding `y_i = x_i · (Q/q_i)^{-1} mod q_i`.
    pub hoisted: Vec<u64>,
}

/// Splits the limbs of a polynomial into `dnum` digits of (up to) `alpha` consecutive limbs
/// (the `Decomp` sub-operation). The final digit may be shorter when `alpha` does not divide
/// the limb count.
///
/// # Errors
///
/// Returns [`RnsError::Mismatch`] if `alpha` is zero.
pub fn decompose(poly: &RnsPolynomial, alpha: usize) -> Result<Vec<RnsPolynomial>> {
    if alpha == 0 {
        return Err(RnsError::Mismatch {
            reason: "digit size alpha must be positive".into(),
        });
    }
    let mut digits = Vec::new();
    let mut start = 0usize;
    while start < poly.limb_count() {
        let end = (start + alpha).min(poly.limb_count());
        digits.push(poly.slice_limbs(start..end)?);
        start = end;
    }
    Ok(digits)
}

/// A precomputed `ModUp` kernel: extends a digit (residues over `digit_len` consecutive limbs
/// of `Q` starting at `digit_offset`) to the full basis `Q_ℓ ∪ P`.
///
/// Digit limbs are copied verbatim into their output positions; every other limb is produced
/// by approximate basis conversion from the digit. The output limb order is
/// `[q_0, …, q_{ℓ-1}, p_0, …, p_{k-1}]`.
#[derive(Debug, Clone)]
pub struct ModUpPlan {
    /// `None` when the digit already covers the whole output (no conversion needed).
    converter: Option<BasisConverter>,
    degree: usize,
    q_len: usize,
    p_len: usize,
    digit_offset: usize,
    digit_len: usize,
    /// For each output limb: `Some(j)` = converter target index `j`, `None` = digit copy.
    target_index: Vec<Option<usize>>,
    /// Inverse map: output limb position of each converter target, in target order.
    target_rows: Vec<usize>,
}

impl ModUpPlan {
    /// Precomputes the ModUp constants for the digit `[digit_offset .. digit_offset +
    /// digit_len)` of `q_basis`, extended to `q_basis ∪ p_basis`.
    ///
    /// # Errors
    ///
    /// Returns [`RnsError::LimbOutOfRange`] if the digit exceeds the basis, and propagates
    /// converter-construction errors.
    pub fn new(
        q_basis: &RnsBasis,
        p_basis: &RnsBasis,
        digit_offset: usize,
        digit_len: usize,
    ) -> Result<Self> {
        let q_len = q_basis.len();
        let p_len = p_basis.len();
        if digit_offset + digit_len > q_len || digit_len == 0 {
            return Err(RnsError::LimbOutOfRange {
                requested: digit_offset + digit_len,
                available: q_len,
            });
        }
        let digit_range = digit_offset..digit_offset + digit_len;
        let source: Vec<Modulus> = q_basis.moduli()[digit_range.clone()].to_vec();
        let mut other: Vec<Modulus> = Vec::with_capacity(q_len + p_len - digit_len);
        let mut target_index = Vec::with_capacity(q_len + p_len);
        for (i, m) in q_basis.moduli().iter().enumerate() {
            if digit_range.contains(&i) {
                target_index.push(None);
            } else {
                target_index.push(Some(other.len()));
                other.push(m.clone());
            }
        }
        for m in p_basis.moduli() {
            target_index.push(Some(other.len()));
            other.push(m.clone());
        }
        let converter = if other.is_empty() {
            None
        } else {
            Some(BasisConverter::from_moduli(&source, &other)?)
        };
        let target_rows = target_index
            .iter()
            .enumerate()
            .filter_map(|(row, t)| t.map(|_| row))
            .collect();
        Ok(Self {
            converter,
            degree: q_basis.degree(),
            q_len,
            p_len,
            digit_offset,
            digit_len,
            target_index,
            target_rows,
        })
    }

    /// Number of limbs the extended output holds (`|Q_ℓ| + |P|`).
    pub fn output_limbs(&self) -> usize {
        self.q_len + self.p_len
    }

    /// The conversion constants (absent when the digit already covers the whole output).
    /// Together with [`ModUpPlan::conversion_rows`] this drives the row-level job-list fan-out
    /// of the batched key-switch pipeline.
    pub fn converter(&self) -> Option<&BasisConverter> {
        self.converter.as_ref()
    }

    /// The output limb positions produced by conversion (everything except the digit's own
    /// copied limbs), in converter-target order: `conversion_rows()[t]` is the output row of
    /// converter target `t`.
    pub fn conversion_rows(&self) -> &[usize] {
        &self.target_rows
    }

    /// Applies the kernel, writing the extended polynomial into `out` (reshaped in place,
    /// reusing its allocation) and the hoisted products into `scratch`.
    ///
    /// # Errors
    ///
    /// Returns [`RnsError::WrongRepresentation`] unless the digit is in coefficient form and
    /// [`RnsError::Mismatch`] if the digit shape disagrees with the plan.
    pub fn apply_into(
        &self,
        digit: &RnsPolynomial,
        scratch: &mut ConvertScratch,
        out: &mut RnsPolynomial,
    ) -> Result<()> {
        if digit.representation() != Representation::Coefficient {
            return Err(RnsError::WrongRepresentation {
                expected: "coefficient",
            });
        }
        if digit.limb_count() != self.digit_len || digit.degree() != self.degree {
            return Err(RnsError::Mismatch {
                reason: format!(
                    "digit of {} limbs / degree {} does not match plan ({} limbs / degree {})",
                    digit.limb_count(),
                    digit.degree(),
                    self.digit_len,
                    self.degree
                ),
            });
        }
        let degree = self.degree;
        // Every output row is either copied from the digit or fully written by the
        // conversion accumulate, so the zeroing reset is skipped.
        out.reshape_unspecified(degree, self.output_limbs(), Representation::Coefficient);
        // Bytes charged on the calling thread (copied digit rows are free; the conversion
        // rows and the hoisted products are the traffic).
        if self.converter.is_some() {
            crate::metering::add_bytes(crate::metering::bytes::mod_up(
                degree,
                self.digit_len,
                self.output_limbs(),
            ));
        }
        if let Some(converter) = &self.converter {
            converter.hoisted_products_into(digit.data(), degree, &mut scratch.hoisted);
        }
        let hoisted = &scratch.hoisted;
        fab_par::par_chunks_mut(out.data_mut(), degree, |i, row| {
            match self.target_index[i] {
                None => row.copy_from_slice(digit.limb(i - self.digit_offset)),
                Some(j) => self
                    .converter
                    .as_ref()
                    .expect("conversion targets imply a converter")
                    .accumulate_target_limb_into(hoisted, degree, j, row),
            }
        });
        Ok(())
    }

    /// Allocating convenience wrapper over [`ModUpPlan::apply_into`].
    ///
    /// # Errors
    ///
    /// Same as [`ModUpPlan::apply_into`].
    pub fn apply(&self, digit: &RnsPolynomial) -> Result<RnsPolynomial> {
        let mut scratch = ConvertScratch::default();
        let mut out = RnsPolynomial::zero(self.degree, 1, Representation::Coefficient);
        self.apply_into(digit, &mut scratch, &mut out)?;
        Ok(out)
    }
}

/// A precomputed `ModDown` kernel: divides a polynomial over `Q_ℓ ∪ P` by `P` (with rounding
/// error at most the number of special limbs), producing a polynomial over `Q_ℓ`.
#[derive(Debug, Clone)]
pub struct ModDownPlan {
    converter: BasisConverter,
    degree: usize,
    q_len: usize,
    p_len: usize,
    /// `P^{-1} mod q_i` (+ Shoup constants), one per Q limb.
    p_inv: Vec<u64>,
    p_inv_shoup: Vec<u64>,
    q_moduli: Vec<Modulus>,
}

impl ModDownPlan {
    /// Precomputes the ModDown constants for `q_basis ∪ p_basis`.
    ///
    /// # Errors
    ///
    /// Propagates converter-construction and inversion errors.
    pub fn new(q_basis: &RnsBasis, p_basis: &RnsBasis) -> Result<Self> {
        let converter = BasisConverter::from_moduli(p_basis.moduli(), q_basis.moduli())?;
        let mut p_inv = Vec::with_capacity(q_basis.len());
        let mut p_inv_shoup = Vec::with_capacity(q_basis.len());
        for qi in q_basis.moduli() {
            let mut p_mod_qi = 1u64;
            for p in p_basis.values() {
                p_mod_qi = qi.mul(p_mod_qi, qi.reduce(p));
            }
            let inv = qi.inv(p_mod_qi)?;
            p_inv.push(inv);
            p_inv_shoup.push(qi.shoup_precompute(inv));
        }
        Ok(Self {
            converter,
            degree: q_basis.degree(),
            q_len: q_basis.len(),
            p_len: p_basis.len(),
            p_inv,
            p_inv_shoup,
            q_moduli: q_basis.moduli().to_vec(),
        })
    }

    /// Number of limbs the output holds (`|Q_ℓ|`), so callers can lease it at its final shape.
    pub fn output_limbs(&self) -> usize {
        self.q_len
    }

    /// Applies the kernel, writing the `Q_ℓ` polynomial into `out` (reshaped in place). The
    /// input limb order must be `[q_0, …, q_{ℓ-1}, p_0, …, p_{k-1}]` in coefficient form.
    ///
    /// # Errors
    ///
    /// Returns [`RnsError::WrongRepresentation`] for evaluation-form input and
    /// [`RnsError::Mismatch`] if the limb count is not `|Q_ℓ| + |P|`.
    pub fn apply_into(
        &self,
        poly: &RnsPolynomial,
        scratch: &mut ConvertScratch,
        out: &mut RnsPolynomial,
    ) -> Result<()> {
        if poly.representation() != Representation::Coefficient {
            return Err(RnsError::WrongRepresentation {
                expected: "coefficient",
            });
        }
        if poly.limb_count() != self.q_len + self.p_len || poly.degree() != self.degree {
            return Err(RnsError::Mismatch {
                reason: format!(
                    "mod_down expects {} limbs (|Q|+|P|) of degree {}, got {} of degree {}",
                    self.q_len + self.p_len,
                    self.degree,
                    poly.limb_count(),
                    poly.degree()
                ),
            });
        }
        let degree = self.degree;
        crate::metering::add_bytes(crate::metering::bytes::mod_down(
            degree, self.q_len, self.p_len,
        ));
        // Hoist the P-part products once, shared across every Q limb.
        let p_part = &poly.data()[self.q_len * degree..];
        self.converter
            .hoisted_products_into(p_part, degree, &mut scratch.hoisted);
        let hoisted = &scratch.hoisted;
        // Every output row is fully written (accumulate, then the P^-1 combine).
        out.reshape_unspecified(degree, self.q_len, Representation::Coefficient);
        fab_par::par_chunks_mut(out.data_mut(), degree, |i, row| {
            // row := approximate conversion of the P-part into q_i …
            self.converter
                .accumulate_target_limb_into(hoisted, degree, i, row);
            // … then (x - row) · P^{-1} mod q_i.
            self.q_moduli[i].sub_mul_shoup_row(
                row,
                poly.limb(i),
                self.p_inv[i],
                self.p_inv_shoup[i],
            );
        });
        Ok(())
    }

    /// Allocating convenience wrapper over [`ModDownPlan::apply_into`].
    ///
    /// # Errors
    ///
    /// Same as [`ModDownPlan::apply_into`].
    pub fn apply(&self, poly: &RnsPolynomial) -> Result<RnsPolynomial> {
        let mut scratch = ConvertScratch::default();
        let mut out = RnsPolynomial::zero(self.degree, 1, Representation::Coefficient);
        self.apply_into(poly, &mut scratch, &mut out)?;
        Ok(out)
    }
}

/// `ModUp`: extends a digit (residues over `alpha` consecutive limbs of `Q`) to the full basis
/// `Q_ℓ ∪ P`. Limbs belonging to the digit are copied verbatim; all other limbs are produced by
/// approximate basis conversion from the digit.
///
/// `digit_offset` is the index inside `q_basis` of the digit's first limb. The output limb order
/// is `[q_0, …, q_{ℓ-1}, p_0, …, p_{k-1}]`. Steady-state callers should cache a [`ModUpPlan`]
/// instead of paying the constant precomputation per call.
///
/// # Errors
///
/// Returns [`RnsError::WrongRepresentation`] unless the digit is in coefficient form, and
/// propagates converter-construction errors.
pub fn mod_up(
    digit: &RnsPolynomial,
    digit_basis: &RnsBasis,
    q_basis: &RnsBasis,
    p_basis: &RnsBasis,
    digit_offset: usize,
) -> Result<RnsPolynomial> {
    if digit.limb_count() != digit_basis.len() {
        return Err(RnsError::Mismatch {
            reason: format!(
                "digit has {} limbs but digit basis has {}",
                digit.limb_count(),
                digit_basis.len()
            ),
        });
    }
    let plan = ModUpPlan::new(q_basis, p_basis, digit_offset, digit_basis.len())?;
    plan.apply(digit)
}

/// `ModDown`: divides a polynomial over `Q_ℓ ∪ P` by `P` (with rounding error at most the
/// number of special limbs), producing a polynomial over `Q_ℓ`.
///
/// The input limb order must be `[q_0, …, q_{ℓ-1}, p_0, …, p_{k-1}]` and the polynomial must be
/// in coefficient representation. Steady-state callers should cache a [`ModDownPlan`].
///
/// # Errors
///
/// Returns [`RnsError::WrongRepresentation`] for evaluation-form input and
/// [`RnsError::Mismatch`] if the limb count is not `|Q_ℓ| + |P|`.
pub fn mod_down(
    poly: &RnsPolynomial,
    q_basis: &RnsBasis,
    p_basis: &RnsBasis,
) -> Result<RnsPolynomial> {
    let plan = ModDownPlan::new(q_basis, p_basis)?;
    plan.apply(poly)
}

/// `Rescale`: divides a polynomial over `Q_ℓ` by its last limb `q_ℓ` (rounding), producing a
/// polynomial over `Q_{ℓ-1}`. This is the level-consuming step after every CKKS multiplication.
///
/// Uses the centred representative of the last limb so the rounding error is at most 1/2 in
/// absolute value per coefficient. The per-output-limb work fans out over the worker pool.
///
/// # Errors
///
/// Returns [`RnsError::WrongRepresentation`] for evaluation-form input and
/// [`RnsError::Mismatch`] if the polynomial has fewer than two limbs.
pub fn rescale(poly: &RnsPolynomial, q_basis: &RnsBasis) -> Result<RnsPolynomial> {
    if poly.representation() != Representation::Coefficient {
        return Err(RnsError::WrongRepresentation {
            expected: "coefficient",
        });
    }
    let l = poly.limb_count();
    if l < 2 {
        return Err(RnsError::Mismatch {
            reason: "rescale requires at least two limbs".into(),
        });
    }
    if q_basis.len() < l {
        return Err(RnsError::LimbOutOfRange {
            requested: l,
            available: q_basis.len(),
        });
    }
    let degree = poly.degree();
    let q_last = q_basis.modulus(l - 1);
    let last_limb = poly.limb(l - 1);

    // Per-output-limb constants, hoisted out of the coefficient loops.
    let mut inv = Vec::with_capacity(l - 1);
    let mut inv_shoup = Vec::with_capacity(l - 1);
    for i in 0..l - 1 {
        let qi = q_basis.modulus(i);
        let q_last_inv = qi.inv(qi.reduce(q_last.value()))?;
        inv.push(q_last_inv);
        inv_shoup.push(qi.shoup_precompute(q_last_inv));
    }

    let mut out = RnsPolynomial::zero(degree, l - 1, Representation::Coefficient);
    crate::metering::add_bytes(crate::metering::bytes::rescale(degree, l));
    fab_par::par_chunks_mut(out.data_mut(), degree, |i, row| {
        // The last-limb residue is centred, keeping the rounding error ≤ 1/2.
        q_basis
            .modulus(i)
            .rescale_row(q_last, poly.limb(i), last_limb, inv[i], inv_shoup[i], row);
    });
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crt_recombine_u128;

    fn small_setup() -> (RnsBasis, RnsBasis) {
        // Q basis of 4 limbs, P basis of 2 limbs, over a tiny ring.
        let q = RnsBasis::generate(1 << 4, 28, 4).unwrap();
        let p = RnsBasis::generate(1 << 4, 29, 2).unwrap();
        (q, p)
    }

    fn signed_constant_poly(value: i64, degree: usize, basis: &RnsBasis) -> RnsPolynomial {
        let mut coeffs = vec![0i64; degree];
        coeffs[0] = value;
        RnsPolynomial::from_signed_coeffs(&coeffs, basis, Representation::Coefficient)
    }

    #[test]
    fn decompose_groups_limbs() {
        let (q, _) = small_setup();
        let poly = RnsPolynomial::zero(16, 4, Representation::Coefficient);
        let digits = decompose(&poly, 2).unwrap();
        assert_eq!(digits.len(), 2);
        assert!(digits.iter().all(|d| d.limb_count() == 2));
        let digits3 = decompose(&poly, 3).unwrap();
        assert_eq!(digits3.len(), 2);
        assert_eq!(digits3[0].limb_count(), 3);
        assert_eq!(digits3[1].limb_count(), 1);
        assert!(decompose(&poly, 0).is_err());
        let _ = q;
    }

    #[test]
    fn mod_up_copies_digit_limbs_and_overshoot_is_multiple_of_digit_product() {
        let (q, p) = small_setup();
        let alpha = 2;
        let digit_offset = 0;
        let digit_basis = q.slice(0..alpha).unwrap();
        let value = 424242i64;
        let digit = signed_constant_poly(value, 16, &digit_basis);
        let extended = mod_up(&digit, &digit_basis, &q, &p, digit_offset).unwrap();
        assert_eq!(extended.limb_count(), q.len() + p.len());
        // Digit limbs copied verbatim.
        for i in 0..alpha {
            assert_eq!(extended.limb(i), digit.limb(i));
        }
        // Every other limb carries value + u·Q_digit for a single overshoot 0 ≤ u < alpha.
        let digit_product: u128 = digit_basis.values().iter().map(|&x| x as u128).product();
        let full = q.concat(&p).unwrap();
        let mut overshoot = None;
        let probe = full.modulus(alpha); // first non-digit limb
        for u in 0..=alpha as u128 {
            let expected = ((value as u128 + u * digit_product) % probe.value() as u128) as u64;
            if expected == extended.limb(alpha)[0] {
                overshoot = Some(u);
                break;
            }
        }
        let u = overshoot.expect("overshoot must be bounded by the digit size");
        for i in alpha..full.len() {
            let m = full.modulus(i);
            let expected = ((value as u128 + u * digit_product) % m.value() as u128) as u64;
            assert_eq!(extended.limb(i)[0], expected, "limb {i}");
        }
    }

    #[test]
    fn mod_up_plan_reuse_matches_free_function() {
        let (q, p) = small_setup();
        let alpha = 2;
        let digit_basis = q.slice(0..alpha).unwrap();
        let plan = ModUpPlan::new(&q, &p, 0, alpha).unwrap();
        let mut scratch = ConvertScratch::default();
        let mut out = RnsPolynomial::zero(16, 1, Representation::Coefficient);
        for value in [1i64, -77, 424242, 5_000_000] {
            let digit = signed_constant_poly(value, 16, &digit_basis);
            let reference = mod_up(&digit, &digit_basis, &q, &p, 0).unwrap();
            plan.apply_into(&digit, &mut scratch, &mut out).unwrap();
            assert_eq!(out, reference, "value {value}");
        }
        // Wrong-shape digits are rejected.
        let wrong = RnsPolynomial::zero(16, 3, Representation::Coefficient);
        assert!(plan.apply_into(&wrong, &mut scratch, &mut out).is_err());
    }

    #[test]
    fn mod_down_plan_reuse_matches_free_function() {
        let (q, p) = small_setup();
        let full = q.concat(&p).unwrap();
        let plan = ModDownPlan::new(&q, &p).unwrap();
        let mut scratch = ConvertScratch::default();
        let mut out = RnsPolynomial::zero(16, 1, Representation::Coefficient);
        for value in [0i64, 123_456, -9_876_543] {
            let poly = signed_constant_poly(value, 16, &full);
            let reference = mod_down(&poly, &q, &p).unwrap();
            plan.apply_into(&poly, &mut scratch, &mut out).unwrap();
            assert_eq!(out, reference, "value {value}");
        }
    }

    #[test]
    fn mod_up_then_mod_down_recovers_value_modulo_digit_product() {
        let (q, p) = small_setup();
        let alpha = 2;
        let digit_basis = q.slice(0..alpha).unwrap();
        let value = 5_000_000i64;
        let digit = signed_constant_poly(value, 16, &digit_basis);
        let extended = mod_up(&digit, &digit_basis, &q, &p, 0).unwrap();
        // Multiply by P then divide by P: ModDown should undo the scaling, returning the
        // ModUp result (value + u·Q_digit) up to the small flooring error of ModDown.
        let p_product: u128 = p.values().iter().map(|&x| x as u128).product();
        let full_basis = q.concat(&p).unwrap();
        let scalars: Vec<u64> = full_basis
            .moduli()
            .iter()
            .map(|m| (p_product % m.value() as u128) as u64)
            .collect();
        let scaled = extended.mul_scalar_per_limb(&scalars, &full_basis);
        let reduced = mod_down(&scaled, &q, &p).unwrap();
        // Recombine the first coefficient over Q; it must equal value + u·Q_digit ± small error.
        let residues: Vec<u64> = (0..q.len()).map(|i| reduced.limb(i)[0]).collect();
        let got = crt_recombine_u128(&residues, &q) as i128;
        let digit_product: i128 = digit_basis.values().iter().map(|&x| x as i128).product();
        let mut matched = false;
        for u in 0..=alpha as i128 {
            let expected = value as i128 + u * digit_product;
            if (got - expected).abs() <= p.len() as i128 + 1 {
                matched = true;
                break;
            }
        }
        assert!(
            matched,
            "mod_down result {got} not within error of value + u*Q_digit"
        );
    }

    #[test]
    fn rescale_divides_by_last_limb() {
        let (q, _) = small_setup();
        // Value = k * q_last + small remainder: rescale should return ≈ k.
        let q_last = q.modulus(3).value();
        let k = 12_345i64;
        let value = k as i128 * q_last as i128 + 7;
        // Build the RNS representation of `value` over all 4 limbs.
        let limbs: Vec<Vec<u64>> = q
            .moduli()
            .iter()
            .map(|m| {
                let mut limb = vec![0u64; 16];
                let mut r = value % m.value() as i128;
                if r < 0 {
                    r += m.value() as i128;
                }
                limb[0] = r as u64;
                limb
            })
            .collect();
        let poly = RnsPolynomial::from_limbs(limbs, Representation::Coefficient);
        let rescaled = rescale(&poly, &q).unwrap();
        assert_eq!(rescaled.limb_count(), 3);
        for i in 0..3 {
            let got = q.modulus(i).to_signed(rescaled.limb(i)[0]);
            assert!((got - k).abs() <= 1, "limb {i}: got {got}, expected ~{k}");
        }
    }

    #[test]
    fn rescale_requires_two_limbs_and_coefficient_form() {
        let (q, _) = small_setup();
        let single = RnsPolynomial::zero(16, 1, Representation::Coefficient);
        assert!(rescale(&single, &q).is_err());
        let mut poly = RnsPolynomial::zero(16, 2, Representation::Coefficient);
        poly.to_evaluation(&q);
        assert!(rescale(&poly, &q).is_err());
    }

    #[test]
    fn mod_down_shape_checks() {
        let (q, p) = small_setup();
        let wrong = RnsPolynomial::zero(16, 3, Representation::Coefficient);
        assert!(mod_down(&wrong, &q, &p).is_err());
        let mut eval = RnsPolynomial::zero(16, q.len() + p.len(), Representation::Coefficient);
        eval.to_evaluation(&q.concat(&p).unwrap());
        assert!(mod_down(&eval, &q, &p).is_err());
    }

    #[test]
    fn mod_up_digit_in_middle_of_basis() {
        let (q, p) = small_setup();
        let alpha = 2;
        let digit_offset = 2;
        let digit_basis = q.slice(2..4).unwrap();
        let value = 99_999i64;
        let digit = signed_constant_poly(value, 16, &digit_basis);
        let extended = mod_up(&digit, &digit_basis, &q, &p, digit_offset).unwrap();
        assert_eq!(extended.limb_count(), q.len() + p.len());
        // Digit limbs are copied into positions 2 and 3.
        for i in 0..alpha {
            assert_eq!(extended.limb(digit_offset + i), digit.limb(i));
        }
        // All limbs agree on a single representative value + u·Q_digit.
        let digit_product: u128 = digit_basis.values().iter().map(|&x| x as u128).product();
        let full = q.concat(&p).unwrap();
        let probe = full.modulus(0);
        let mut overshoot = None;
        for u in 0..=alpha as u128 {
            let expected = ((value as u128 + u * digit_product) % probe.value() as u128) as u64;
            if expected == extended.limb(0)[0] {
                overshoot = Some(u);
                break;
            }
        }
        let u = overshoot.expect("bounded overshoot");
        for (i, m) in full.moduli().iter().enumerate() {
            let expected = ((value as u128 + u * digit_product) % m.value() as u128) as u64;
            assert_eq!(extended.limb(i)[0], expected, "q limb {i}");
        }
    }
}
