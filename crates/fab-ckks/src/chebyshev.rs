//! Chebyshev polynomial approximation and its homomorphic evaluation (baby-step/giant-step).
//!
//! Bootstrapping approximates the modular-reduction step by a scaled sine, evaluated as a
//! Chebyshev series (Section 2.1.3 of the paper, following Bossuat et al. for non-sparse
//! keys). The same machinery evaluates the sigmoid used by encrypted logistic regression.

use fab_math::Complex64;

use crate::backend::EvalBackend;
use crate::evaluator::scales_match;
use crate::{CkksError, Result};

/// A Chebyshev series `Σ c_k T_k(t)` on a domain `[a, b]` (mapped affinely onto `[-1, 1]`).
///
/// ```
/// use fab_ckks::ChebyshevSeries;
///
/// let series = ChebyshevSeries::fit(|x| x * x, 8, -1.0, 1.0);
/// assert!((series.evaluate(0.5) - 0.25).abs() < 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct ChebyshevSeries {
    coeffs: Vec<f64>,
    domain: (f64, f64),
}

impl ChebyshevSeries {
    /// Fits a degree-`degree` Chebyshev interpolant of `f` on `[a, b]` using Chebyshev nodes.
    ///
    /// # Panics
    ///
    /// Panics if `a >= b`.
    pub fn fit(f: impl Fn(f64) -> f64, degree: usize, a: f64, b: f64) -> Self {
        assert!(a < b, "domain must be non-degenerate");
        let n = degree + 1;
        // Sample f at the Chebyshev nodes of the domain.
        let samples: Vec<f64> = (0..n)
            .map(|j| {
                let theta = std::f64::consts::PI * (j as f64 + 0.5) / n as f64;
                let t = theta.cos();
                let x = 0.5 * (b - a) * t + 0.5 * (a + b);
                f(x)
            })
            .collect();
        // Discrete cosine transform to obtain the interpolation coefficients.
        let mut coeffs = Vec::with_capacity(n);
        for k in 0..n {
            let mut acc = 0.0;
            for (j, &s) in samples.iter().enumerate() {
                let theta = std::f64::consts::PI * (j as f64 + 0.5) / n as f64;
                acc += s * (k as f64 * theta).cos();
            }
            let factor = if k == 0 { 1.0 } else { 2.0 };
            coeffs.push(factor * acc / n as f64);
        }
        Self {
            coeffs,
            domain: (a, b),
        }
    }

    /// The Chebyshev coefficients `c_0 … c_d`.
    pub fn coefficients(&self) -> &[f64] {
        &self.coeffs
    }

    /// The approximation domain `[a, b]`.
    pub fn domain(&self) -> (f64, f64) {
        self.domain
    }

    /// Degree of the series.
    pub fn degree(&self) -> usize {
        self.coeffs.len() - 1
    }

    /// Evaluates the series at a point (Clenshaw recurrence). Points outside the domain are
    /// evaluated by extrapolation.
    pub fn evaluate(&self, x: f64) -> f64 {
        let (a, b) = self.domain;
        let t = (2.0 * x - a - b) / (b - a);
        let mut b1 = 0.0f64;
        let mut b2 = 0.0f64;
        for &c in self.coeffs.iter().skip(1).rev() {
            let tmp = 2.0 * t * b1 - b2 + c;
            b2 = b1;
            b1 = tmp;
        }
        self.coeffs[0] + t * b1 - b2
    }

    /// Maximum absolute error of the approximation against `f` on a uniform grid of the domain.
    pub fn max_error(&self, f: impl Fn(f64) -> f64, grid: usize) -> f64 {
        let (a, b) = self.domain;
        (0..=grid)
            .map(|i| {
                let x = a + (b - a) * i as f64 / grid as f64;
                (self.evaluate(x) - f(x)).abs()
            })
            .fold(0.0, f64::max)
    }

    /// Homomorphically evaluates the series on a ciphertext whose *logical slot values* lie in
    /// the series' domain, using the baby-step/giant-step algorithm over the Chebyshev basis
    /// — backend-generic: the single control flow behind both the real execution
    /// ([`crate::ExecBackend`]) and the analytic plan ([`crate::PlanBackend`]).
    ///
    /// The multiplicative depth is `O(log degree)` plus a few levels of scale management.
    ///
    /// # Errors
    ///
    /// Returns [`CkksError::LevelExhausted`] if the ciphertext does not carry enough levels.
    pub fn evaluate_with<B: EvalBackend>(&self, backend: &B, ct: &B::Ct) -> Result<B::Ct> {
        let (a, b) = self.domain;
        // Map the input onto [-1, 1] if the domain is not already the canonical interval.
        let ct_t = if (a + 1.0).abs() < 1e-12 && (b - 1.0).abs() < 1e-12 {
            ct.clone()
        } else {
            // t = (2x - (a+b)) / (b - a): one scalar multiplication + one scalar addition.
            let scaled = backend.multiply_scalar(ct, Complex64::new(2.0 / (b - a), 0.0))?;
            backend.add_scalar(&scaled, Complex64::new(-(a + b) / (b - a), 0.0))?
        };

        let degree = self.degree();
        if degree == 0 {
            // Constant series: multiply by zero and add the constant.
            let zeroed = backend.multiply_scalar(&ct_t, Complex64::zero())?;
            return backend.add_scalar(&zeroed, Complex64::new(self.coeffs[0], 0.0));
        }

        // Baby-step count m: smallest power of two with m^2 >= degree + 1 (classic BSGS split).
        let mut m = 1usize;
        while m * m < degree + 1 {
            m *= 2;
        }
        // Giant steps: T_m, T_{2m}, ... up to the largest index <= degree.
        let mut giant_indices = Vec::new();
        let mut g = m;
        while g <= degree {
            giant_indices.push(g);
            g *= 2;
        }

        // Compute the Chebyshev basis ciphertexts.
        let mut basis: Vec<Option<B::Ct>> = vec![None; degree + 1];
        basis[1] = Some(ct_t.clone());
        // Baby steps T_2 .. T_m (T_m doubles as the first giant step when it exists).
        for j in 2..=m.min(degree) {
            let half = j / 2;
            let other = j - half;
            let t = self.chebyshev_product(backend, &basis, half, other)?;
            basis[j] = Some(t);
        }
        for (gi, &idx) in giant_indices.iter().enumerate() {
            if gi == 0 {
                continue; // T_m already computed above (if degree >= m).
            }
            let prev = giant_indices[gi - 1];
            let t = self.chebyshev_product(backend, &basis, prev, prev)?;
            basis[idx] = Some(t);
        }

        self.evaluate_recursive(backend, &self.coeffs, &basis, m)
    }

    /// `T_{i+j} = 2·T_i·T_j − T_{|i−j|}` on ciphertexts (with `T_0 = 1`).
    fn chebyshev_product<B: EvalBackend>(
        &self,
        backend: &B,
        basis: &[Option<B::Ct>],
        i: usize,
        j: usize,
    ) -> Result<B::Ct> {
        let ti = basis[i].as_ref().ok_or(CkksError::InvalidInput {
            reason: format!("chebyshev basis T_{i} missing"),
        })?;
        let tj = basis[j].as_ref().ok_or(CkksError::InvalidInput {
            reason: format!("chebyshev basis T_{j} missing"),
        })?;
        let level = backend.level(ti).min(backend.level(tj));
        let ti = backend.mod_drop_to_level(ti, level)?;
        let tj = backend.mod_drop_to_level(tj, level)?;
        let product = backend.multiply_rescale(&ti, &tj)?;
        let doubled = backend.add(&product, &product)?;
        let diff = i.abs_diff(j);
        if diff == 0 {
            // 2 T_i T_i - T_0 = 2 T_i^2 - 1.
            backend.add_scalar(&doubled, Complex64::new(-1.0, 0.0))
        } else {
            let t_diff = basis[diff].as_ref().ok_or(CkksError::InvalidInput {
                reason: format!("chebyshev basis T_{diff} missing"),
            })?;
            let (x, y) = backend.align_for_addition(&doubled, t_diff)?;
            backend.sub(&x, &y)
        }
    }

    /// Recursive BSGS evaluation: split `p = q·T_g + r` at the largest giant step `g`.
    fn evaluate_recursive<B: EvalBackend>(
        &self,
        backend: &B,
        coeffs: &[f64],
        basis: &[Option<B::Ct>],
        m: usize,
    ) -> Result<B::Ct> {
        let degree = coeffs.len() - 1;
        if degree < m {
            return self.evaluate_leaf(backend, coeffs, basis);
        }
        // Largest power-of-two multiple of m that is <= degree.
        let mut g = m;
        while g * 2 <= degree {
            g *= 2;
        }
        // Split the Chebyshev coefficients: p = q·T_g + r with
        //   q[0] = c[g], q[j] = 2·c[g+j]  (j >= 1)
        //   r[i] = c[i] (i < g), then r[g - j] -= c[g+j] for j >= 1.
        let mut q = vec![0.0f64; degree - g + 1];
        q[0] = coeffs[g];
        for j in 1..=degree - g {
            q[j] = 2.0 * coeffs[g + j];
        }
        let mut r = coeffs[..g].to_vec();
        for j in 1..=degree - g {
            if g >= j {
                r[g - j] -= coeffs[g + j];
            }
        }
        let q_eval = self.evaluate_recursive(backend, &q, basis, m)?;
        let r_eval = self.evaluate_recursive(backend, &r, basis, m)?;
        let t_g = basis[g].as_ref().ok_or(CkksError::InvalidInput {
            reason: format!("chebyshev basis T_{g} missing"),
        })?;
        let level = backend.level(&q_eval).min(backend.level(t_g));
        let q_dropped = backend.mod_drop_to_level(&q_eval, level)?;
        let t_dropped = backend.mod_drop_to_level(t_g, level)?;
        let product = backend.multiply_rescale(&q_dropped, &t_dropped)?;
        let (x, y) = backend.align_for_addition(&product, &r_eval)?;
        backend.add(&x, &y)
    }

    /// Leaf evaluation `Σ_{j<m} c_j·T_j`: constant multiplications only.
    ///
    /// The coefficients are per-limb scalars at the rescaling prime, so the whole sum is
    /// transform-free: the first live term seeds the accumulator
    /// ([`EvalBackend::multiply_const`]) and every further term is one in-place
    /// multiply-accumulate pass over the basis ciphertext where it already sits
    /// ([`EvalBackend::accumulate_const`]), coefficient-resident so the trailing rescale
    /// needs no inverse. A term whose scaled coefficient rounds to zero (the even terms of an
    /// odd function are ~1e-17, not `0.0`) contributes no bit and is skipped once the
    /// accumulator exists; the seed always goes in, which fixes the leaf's level and scale.
    fn evaluate_leaf<B: EvalBackend>(
        &self,
        backend: &B,
        coeffs: &[f64],
        basis: &[Option<B::Ct>],
    ) -> Result<B::Ct> {
        // Find the working level: the minimum level among the basis terms we need.
        let mut level = usize::MAX;
        for (j, c) in coeffs.iter().enumerate().skip(1) {
            if c.abs() > 0.0 {
                if let Some(t) = basis[j].as_ref() {
                    level = level.min(backend.level(t));
                }
            }
        }
        if level == usize::MAX {
            // No ciphertext term: encode the constant on top of T_1 scaled by zero.
            let t1 = basis[1].as_ref().expect("T_1 always present");
            let zeroed = backend.multiply_scalar(t1, Complex64::zero())?;
            return backend.add_scalar(&zeroed, Complex64::new(coeffs[0], 0.0));
        }
        if level == 0 {
            return Err(CkksError::LevelExhausted {
                operation: "chebyshev leaf evaluation",
            });
        }
        let prime = backend.ctx().rescale_prime(level) as f64;
        let mut acc: Option<B::Ct> = None;
        for (j, &c) in coeffs.iter().enumerate().skip(1) {
            if c.abs() == 0.0 || (acc.is_some() && (c * prime).round() == 0.0) {
                continue;
            }
            let t = basis[j].as_ref().ok_or(CkksError::InvalidInput {
                reason: format!("chebyshev basis T_{j} missing"),
            })?;
            if let Some(sum) = acc.as_mut() {
                if backend.level(sum) == level
                    && scales_match(backend.scale(sum), backend.scale(t) * prime)
                {
                    backend.accumulate_const(sum, t, c, prime)?;
                    continue;
                }
            }
            // The seed, or a term whose scale drifted from the running sum's: scale
            // management may spend a level, so it goes through the general route.
            let t = backend.mod_drop_to_level(t, level)?;
            let term = backend.multiply_const(&t, Complex64::new(c, 0.0), prime)?;
            acc = Some(match acc {
                None => term,
                Some(prev) => {
                    let (x, y) = backend.align_for_addition(&prev, &term)?;
                    backend.add(&x, &y)?
                }
            });
        }
        let summed = acc.expect("at least one nonzero term");
        let rescaled = backend.rescale(&summed)?;
        backend.add_scalar(&rescaled, Complex64::new(coeffs[0], 0.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        CkksContext, CkksParams, Decryptor, Encoder, Encryptor, Evaluator, ExecBackend, GaloisKeys,
        KeyGenerator, SecretKey,
    };
    use rand::SeedableRng;
    use rand_chacha::ChaCha20Rng;

    #[test]
    fn fit_recovers_polynomials_exactly() {
        let series = ChebyshevSeries::fit(|x| 3.0 * x * x * x - x + 0.5, 5, -1.0, 1.0);
        for i in 0..50 {
            let x = -1.0 + 2.0 * i as f64 / 49.0;
            let expected = 3.0 * x * x * x - x + 0.5;
            assert!((series.evaluate(x) - expected).abs() < 1e-9);
        }
    }

    #[test]
    fn fit_approximates_transcendental_functions() {
        let series = ChebyshevSeries::fit(f64::exp, 15, -1.0, 1.0);
        assert!(series.max_error(f64::exp, 200) < 1e-10);
        let sine = ChebyshevSeries::fit(|x| (2.0 * std::f64::consts::PI * x).sin(), 31, -3.0, 3.0);
        assert!(
            sine.max_error(|x| (2.0 * std::f64::consts::PI * x).sin(), 500) < 1e-5,
            "error {}",
            sine.max_error(|x| (2.0 * std::f64::consts::PI * x).sin(), 500)
        );
    }

    #[test]
    fn sigmoid_fit_on_wide_domain() {
        let sigmoid = |x: f64| 1.0 / (1.0 + (-x).exp());
        let series = ChebyshevSeries::fit(sigmoid, 31, -8.0, 8.0);
        assert!(series.max_error(sigmoid, 400) < 1e-3);
        assert_eq!(series.degree(), 31);
        assert_eq!(series.domain(), (-8.0, 8.0));
    }

    #[test]
    fn odd_functions_have_negligible_even_coefficients() {
        let series = ChebyshevSeries::fit(f64::sin, 21, -1.0, 1.0);
        for (k, c) in series.coefficients().iter().enumerate() {
            if k % 2 == 0 {
                assert!(c.abs() < 1e-12, "even coefficient {k} = {c}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "non-degenerate")]
    fn degenerate_domain_panics() {
        let _ = ChebyshevSeries::fit(|x| x, 3, 1.0, 1.0);
    }

    #[test]
    fn homomorphic_evaluation_matches_plain_evaluation() {
        let ctx = CkksContext::new_arc(CkksParams::testing()).unwrap();
        let mut rng = ChaCha20Rng::seed_from_u64(21);
        let sk = SecretKey::generate(&ctx, &mut rng);
        let keygen = KeyGenerator::new(ctx.clone(), sk.clone());
        let pk = keygen.public_key(&mut rng);
        let rlk = keygen.relinearization_key(&mut rng);
        let encoder = Encoder::new(ctx.clone());
        let encryptor = Encryptor::new(ctx.clone(), pk);
        let decryptor = Decryptor::new(ctx.clone(), sk);
        let evaluator = Evaluator::new(ctx.clone());

        // Degree-7 approximation of sigmoid on [-1, 1]; the testing parameters only carry a
        // handful of levels, so keep the BSGS depth small.
        let sigmoid = |x: f64| 1.0 / (1.0 + (-x).exp());
        let series = ChebyshevSeries::fit(sigmoid, 7, -1.0, 1.0);

        let values: Vec<f64> = (0..16).map(|i| -0.9 + 0.117 * i as f64).collect();
        let scale = ctx.params().default_scale();
        let pt = encoder
            .encode_real(&values, scale, ctx.params().max_level)
            .unwrap();
        let ct = encryptor.encrypt(&pt, &mut rng).unwrap();

        let keys = (&rlk, &GaloisKeys::default());
        let result = series
            .evaluate_with(&ExecBackend::new(&evaluator, &keys), &ct)
            .unwrap();
        let decoded = encoder.decode_real(&decryptor.decrypt(&result).unwrap());
        for (i, &x) in values.iter().enumerate() {
            let expected = series.evaluate(x);
            assert!(
                (decoded[i] - expected).abs() < 2e-2,
                "slot {i}: {} vs {expected}",
                decoded[i]
            );
        }
    }
}
