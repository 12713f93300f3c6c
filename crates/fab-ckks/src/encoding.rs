//! CKKS encoding and decoding via the canonical embedding (special FFT).

use std::sync::Arc;

use fab_math::Complex64;
use fab_rns::{Representation, RnsBasis, RnsPolynomial};

use crate::{CkksContext, CkksError, Plaintext, Result};

/// Largest coefficient magnitude the encoder accepts (must stay well inside an `i64` and below
/// the first limb for decodability).
const MAX_COEFF_MAGNITUDE: f64 = 4.611_686_018_427_388e18; // 2^62

fn check_scale(scale: f64) -> Result<()> {
    if scale <= 0.0 || !scale.is_finite() {
        return Err(CkksError::InvalidInput {
            reason: format!("scale {scale} must be positive and finite"),
        });
    }
    Ok(())
}

/// The checks [`Encoder::encode`] makes before its transform: at most `slots` values and a
/// positive finite scale. Only the range of the transformed coefficients is checked later.
pub(crate) fn check_slot_values(count: usize, slots: usize, scale: f64) -> Result<()> {
    if count > slots {
        return Err(CkksError::InvalidInput {
            reason: format!("{count} values exceed the {slots} available slots"),
        });
    }
    check_scale(scale)
}

/// `round(value · scale)` of one real constant, under the checks of every constant encoding:
/// a positive finite scale and a result inside the 62-bit range.
pub(crate) fn scaled_constant(value: f64, scale: f64) -> Result<i64> {
    check_scale(scale)?;
    let scaled = (value * scale).round();
    if scaled.abs() > MAX_COEFF_MAGNITUDE {
        return Err(CkksError::InvalidInput {
            reason: "scaled constant exceeds the supported 62-bit range".into(),
        });
    }
    Ok(scaled as i64)
}

/// The per-limb residues over `basis` of the real constant `value` encoded at `scale`: what
/// [`Encoder::encode_constant`] puts in coefficient 0, without the polynomial around it. Same
/// validation, same errors.
pub(crate) fn constant_residues(value: f64, scale: f64, basis: &RnsBasis) -> Result<Vec<u64>> {
    let scaled = scaled_constant(value, scale)?;
    Ok(basis
        .moduli()
        .iter()
        .map(|m| m.reduce_i64(scaled))
        .collect())
}

/// Encoder/decoder between complex slot vectors and scaled integer polynomials.
///
/// ```
/// use fab_ckks::{CkksContext, CkksParams, Encoder};
///
/// # fn main() -> Result<(), fab_ckks::CkksError> {
/// let ctx = CkksContext::new_arc(CkksParams::testing())?;
/// let encoder = Encoder::new(ctx.clone());
/// let values = vec![1.0, -2.5, 3.25];
/// let pt = encoder.encode_real(&values, ctx.params().default_scale(), 2)?;
/// let decoded = encoder.decode_real(&pt);
/// for (a, b) in decoded.iter().zip(&values) {
///     assert!((a - b).abs() < 1e-6);
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Encoder {
    ctx: Arc<CkksContext>,
}

impl Encoder {
    /// Creates an encoder for the given context.
    pub fn new(ctx: Arc<CkksContext>) -> Self {
        Self { ctx }
    }

    /// The context this encoder is bound to.
    pub fn context(&self) -> &Arc<CkksContext> {
        &self.ctx
    }

    /// Encodes up to `N/2` complex values into a plaintext at the given scale and level.
    /// Shorter inputs are zero-padded.
    ///
    /// # Errors
    ///
    /// Returns [`CkksError::InvalidInput`] if more than `N/2` values are supplied or the scaled
    /// coefficients overflow the supported range.
    pub fn encode(&self, values: &[Complex64], scale: f64, level: usize) -> Result<Plaintext> {
        let slots = self.ctx.slot_count();
        check_slot_values(values.len(), slots, scale)?;
        let mut padded = vec![Complex64::zero(); slots];
        padded[..values.len()].copy_from_slice(values);
        self.ctx.fft().inverse(&mut padded);

        let degree = self.ctx.degree();
        let mut coeffs = vec![0i64; degree];
        for (i, w) in padded.iter().enumerate() {
            let re = (w.re * scale).round();
            let im = (w.im * scale).round();
            if re.abs() > MAX_COEFF_MAGNITUDE || im.abs() > MAX_COEFF_MAGNITUDE {
                return Err(CkksError::InvalidInput {
                    reason: "scaled coefficient exceeds the supported 62-bit range".into(),
                });
            }
            coeffs[i] = re as i64;
            coeffs[i + slots] = im as i64;
        }
        let basis = self.ctx.basis_at_level(level)?;
        let poly = RnsPolynomial::from_signed_coeffs(&coeffs, &basis, Representation::Coefficient);
        Ok(Plaintext::from_parts(poly, scale, level))
    }

    /// Encodes real values (imaginary parts zero).
    ///
    /// # Errors
    ///
    /// Same as [`Self::encode`].
    pub fn encode_real(&self, values: &[f64], scale: f64, level: usize) -> Result<Plaintext> {
        let complex: Vec<Complex64> = values.iter().map(|&v| Complex64::new(v, 0.0)).collect();
        self.encode(&complex, scale, level)
    }

    /// Encodes the same complex constant into every slot. This avoids the FFT entirely: a
    /// constant `a + b·i` corresponds to the polynomial `a + b·X^{N/2}` (because `X^{N/2}`
    /// evaluates to `i` in every slot).
    ///
    /// # Errors
    ///
    /// Returns [`CkksError::InvalidInput`] on coefficient overflow or a non-positive scale.
    pub fn encode_constant(&self, value: Complex64, scale: f64, level: usize) -> Result<Plaintext> {
        let re = scaled_constant(value.re, scale)?;
        let im = scaled_constant(value.im, scale)?;
        let degree = self.ctx.degree();
        let mut coeffs = vec![0i64; degree];
        coeffs[0] = re;
        coeffs[degree / 2] = im;
        let basis = self.ctx.basis_at_level(level)?;
        let poly = RnsPolynomial::from_signed_coeffs(&coeffs, &basis, Representation::Coefficient);
        Ok(Plaintext::from_parts(poly, scale, level))
    }

    /// Decodes a plaintext into `N/2` complex slot values.
    ///
    /// Decoding reads the centred representative of the *first* limb, which is exact whenever
    /// the scaled message (plus noise) stays below `q_0 / 2` — the standard CKKS correctness
    /// regime. Decode after rescaling products back to the base scale.
    pub fn decode(&self, plaintext: &Plaintext) -> Vec<Complex64> {
        let slots = self.ctx.slot_count();
        let q0 = self.ctx.q_basis().modulus(0);
        let limb = plaintext.poly().limb(0);
        let mut w = vec![Complex64::zero(); slots];
        for i in 0..slots {
            let re = q0.to_signed(limb[i]) as f64 / plaintext.scale;
            let im = q0.to_signed(limb[i + slots]) as f64 / plaintext.scale;
            w[i] = Complex64::new(re, im);
        }
        self.ctx.fft().forward(&mut w);
        w
    }

    /// Decodes and returns only the real parts of the slots.
    pub fn decode_real(&self, plaintext: &Plaintext) -> Vec<f64> {
        self.decode(plaintext).iter().map(|z| z.re).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CkksParams;

    fn encoder() -> Encoder {
        Encoder::new(CkksContext::new_arc(CkksParams::testing()).unwrap())
    }

    #[test]
    fn encode_decode_roundtrip_complex() {
        let enc = encoder();
        let scale = enc.context().params().default_scale();
        let values: Vec<Complex64> = (0..100)
            .map(|i| Complex64::new((i as f64 * 0.37).sin() * 3.0, (i as f64 * 0.11).cos()))
            .collect();
        let pt = enc.encode(&values, scale, 3).unwrap();
        let decoded = enc.decode(&pt);
        for (d, v) in decoded.iter().zip(&values) {
            assert!((*d - *v).norm() < 1e-6, "decode error too large");
        }
        // Padded slots decode to ~zero.
        for d in &decoded[values.len()..] {
            assert!(d.norm() < 1e-6);
        }
    }

    #[test]
    fn encode_decode_roundtrip_real() {
        let enc = encoder();
        let scale = enc.context().params().default_scale();
        let values: Vec<f64> = (0..enc.context().slot_count())
            .map(|i| ((i % 17) as f64 - 8.0) * 0.25)
            .collect();
        let pt = enc.encode_real(&values, scale, 0).unwrap();
        let decoded = enc.decode_real(&pt);
        for (d, v) in decoded.iter().zip(&values) {
            assert!((d - v).abs() < 1e-6);
        }
    }

    #[test]
    fn constant_encoding_matches_full_encoding() {
        let enc = encoder();
        let scale = enc.context().params().default_scale();
        let c = Complex64::new(2.5, -1.25);
        let constant = enc.encode_constant(c, scale, 2).unwrap();
        let full = enc
            .encode(&vec![c; enc.context().slot_count()], scale, 2)
            .unwrap();
        let dec_c = enc.decode(&constant);
        let dec_f = enc.decode(&full);
        for (a, b) in dec_c.iter().zip(&dec_f) {
            assert!((*a - *b).norm() < 1e-6);
        }
    }

    #[test]
    fn encoding_is_additively_homomorphic() {
        let enc = encoder();
        let scale = enc.context().params().default_scale();
        let a: Vec<Complex64> = (0..64)
            .map(|i| Complex64::new(i as f64, -(i as f64)))
            .collect();
        let b: Vec<Complex64> = (0..64)
            .map(|i| Complex64::new(1.0, i as f64 * 0.5))
            .collect();
        let pa = enc.encode(&a, scale, 1).unwrap();
        let pb = enc.encode(&b, scale, 1).unwrap();
        let basis = enc.context().basis_at_level(1).unwrap();
        let sum_poly = pa.poly().add(pb.poly(), &basis).unwrap();
        let sum_pt = Plaintext::from_parts(sum_poly, scale, 1);
        let decoded = enc.decode(&sum_pt);
        for (i, d) in decoded.iter().take(64).enumerate() {
            assert!((*d - (a[i] + b[i])).norm() < 1e-5);
        }
    }

    #[test]
    fn rejects_oversized_inputs_and_bad_scales() {
        let enc = encoder();
        let scale = enc.context().params().default_scale();
        let too_many = vec![Complex64::one(); enc.context().slot_count() + 1];
        assert!(enc.encode(&too_many, scale, 0).is_err());
        assert!(enc.encode(&[Complex64::one()], -1.0, 0).is_err());
        assert!(enc.encode(&[Complex64::one()], f64::INFINITY, 0).is_err());
        // Coefficient overflow: enormous value at enormous scale.
        assert!(enc
            .encode(&[Complex64::new(1e20, 0.0)], 2f64.powi(50), 0)
            .is_err());
    }

    #[test]
    fn precision_improves_with_scale() {
        let enc = encoder();
        let values: Vec<f64> = (0..256).map(|i| (i as f64 * 0.013).sin()).collect();
        let mut errors = Vec::new();
        for bits in [20, 30, 40] {
            let scale = 2f64.powi(bits);
            let pt = enc.encode_real(&values, scale, 0).unwrap();
            let decoded = enc.decode_real(&pt);
            let max_err = decoded
                .iter()
                .zip(&values)
                .map(|(d, v)| (d - v).abs())
                .fold(0.0f64, f64::max);
            errors.push(max_err);
        }
        assert!(errors[0] > errors[1] && errors[1] > errors[2]);
    }
}
