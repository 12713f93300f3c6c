//! Test-support oracles: the Chebyshev evaluation the long way round ([`Oracle`]) and the
//! coefficient-domain key-switched automorphism ([`galois_oracle`]).
//!
//! [`Oracle`] runs the same baby-step/giant-step schedule
//! and the same exact-scale rules as `ChebyshevSeries::evaluate_with`, but every constant goes
//! the long way round — encoded as an `N`-coefficient plaintext and multiplied through
//! `multiply_plain`, each leaf term materialised on its own (its coefficient at the ratio of
//! the sum's scale to its own) and folded in with `add`, and no term skipped however small its
//! coefficient. Operands at different levels are matched from the definition: the higher one
//! dropped to one level above the other, multiplied by `1` at `round(target·q / scale)`,
//! rescaled and declared at the target; only operands at one level go through the backend's
//! `align_for_addition` (on a key-less `ExecBackend`). It shares no constant arithmetic with
//! the production leaf (`multiply_const`, `accumulate_const`, the zero-skip) or with
//! `align_exact`, which is the point: production must reproduce it bit for bit.

// Each test crate that includes this module uses one of its two oracles.
#![allow(dead_code)]

use std::cmp::Ordering;

use fab_ckks::{
    ChebyshevSeries, Ciphertext, EvalBackend, Evaluator, ExecBackend, GaloisKeys,
    RelinearizationKey, SwitchingKey,
};
use fab_math::Complex64;

/// The evaluator and relinearisation key every oracle step needs.
pub struct Oracle<'a> {
    pub evaluator: &'a Evaluator,
    pub rlk: &'a RelinearizationKey,
}

impl Oracle<'_> {
    /// `ct · value` through an encoded constant plaintext at `pt_scale` (no rescale).
    fn times_plain(&self, ct: &Ciphertext, value: f64, pt_scale: f64) -> Ciphertext {
        let pt = self
            .evaluator
            .encoder()
            .encode_constant(Complex64::new(value, 0.0), pt_scale, ct.level())
            .unwrap();
        self.evaluator.multiply_plain(ct, &pt).unwrap()
    }

    /// `ct · value` at the level's rescaling prime, then rescaled (scale-preserving).
    fn times_scalar(&self, ct: &Ciphertext, value: f64) -> Ciphertext {
        let prime = self.evaluator.context().rescale_prime(ct.level()) as f64;
        let product = self.times_plain(ct, value, prime);
        self.evaluator.rescale(&product).unwrap()
    }

    /// `ct + value` through an encoded constant plaintext at the ciphertext's scale.
    fn plus_plain(&self, ct: &Ciphertext, value: f64) -> Ciphertext {
        let pt = self
            .evaluator
            .encoder()
            .encode_constant(Complex64::new(value, 0.0), ct.scale(), ct.level())
            .unwrap();
        self.evaluator.add_plain(ct, &pt).unwrap()
    }

    /// `high` at `low`'s level and scale: dropped to one level above it, times `1` at
    /// `round(target·q / scale)`, rescaled, declared at the target (only dropped when the
    /// scales are already equal).
    fn matched(&self, high: &Ciphertext, low: &Ciphertext) -> Ciphertext {
        let e = self.evaluator;
        if high.scale() == low.scale() {
            return e.mod_drop_to_level(high, low.level()).unwrap();
        }
        let high = e.mod_drop_to_level(high, low.level() + 1).unwrap();
        let prime = e.context().rescale_prime(high.level()) as f64;
        let one = self.times_plain(&high, 1.0, (low.scale() * prime / high.scale()).round());
        let mut out = e.rescale(&one).unwrap();
        out.scale = low.scale();
        out
    }

    /// `x ∘ y` after bringing both to a common level and the same scale.
    fn aligned(&self, x: &Ciphertext, y: &Ciphertext, subtract: bool) -> Ciphertext {
        let e = self.evaluator;
        let no_keys = GaloisKeys::default();
        let (x, y) = match x.level().cmp(&y.level()) {
            Ordering::Greater => (self.matched(x, y), y.clone()),
            Ordering::Less => (x.clone(), self.matched(y, x)),
            Ordering::Equal => ExecBackend::new(e, &no_keys)
                .align_for_addition(x, y)
                .unwrap(),
        };
        if subtract {
            e.sub(&x, &y)
        } else {
            e.add(&x, &y)
        }
        .unwrap()
    }

    /// `T_{i+j} = 2·T_i·T_j − T_{|i−j|}`.
    fn product(&self, basis: &[Option<Ciphertext>], i: usize, j: usize) -> Ciphertext {
        let e = self.evaluator;
        let (ti, tj) = (basis[i].as_ref().unwrap(), basis[j].as_ref().unwrap());
        let p = e.multiply_rescale(ti, tj, self.rlk).unwrap();
        let doubled = e.add(&p, &p).unwrap();
        match i.abs_diff(j) {
            0 => self.plus_plain(&doubled, -1.0),
            d => self.aligned(&doubled, basis[d].as_ref().unwrap(), true),
        }
    }

    /// `Σ_{j≥1} c_j·T_j`, one plaintext product per term, then the rescale and `c_0`.
    fn leaf(&self, coeffs: &[f64], basis: &[Option<Ciphertext>]) -> Ciphertext {
        let e = self.evaluator;
        let live = |j: &usize| coeffs[*j].abs() > 0.0;
        let Some(level) = (1..coeffs.len())
            .filter(live)
            .map(|j| basis[j].as_ref().unwrap().level())
            .min()
        else {
            let zeroed = self.times_scalar(basis[1].as_ref().unwrap(), 0.0);
            return self.plus_plain(&zeroed, coeffs[0]);
        };
        let prime = e.context().rescale_prime(level) as f64;
        let mut acc: Option<Ciphertext> = None;
        for j in (1..coeffs.len()).filter(live) {
            let t = e
                .mod_drop_to_level(basis[j].as_ref().unwrap(), level)
                .unwrap();
            let pt_scale = acc.as_ref().map_or(prime, |sum| sum.scale() / t.scale());
            let term = self.times_plain(&t, coeffs[j], pt_scale);
            acc = Some(match acc {
                None => term,
                Some(sum) => self.aligned(&sum, &term, false),
            });
        }
        self.plus_plain(&e.rescale(&acc.unwrap()).unwrap(), coeffs[0])
    }

    /// `p = q·T_g + r` at the largest giant step `g ≤ deg p`, down to the leaves.
    fn split(&self, coeffs: &[f64], basis: &[Option<Ciphertext>], m: usize) -> Ciphertext {
        let degree = coeffs.len() - 1;
        if degree < m {
            return self.leaf(coeffs, basis);
        }
        let mut g = m;
        while g * 2 <= degree {
            g *= 2;
        }
        let mut q = vec![coeffs[g]];
        q.extend(coeffs[g + 1..].iter().map(|c| 2.0 * c));
        let mut r = coeffs[..g].to_vec();
        for j in 1..=degree - g {
            r[g - j] -= coeffs[g + j];
        }
        let (q, r) = (self.split(&q, basis, m), self.split(&r, basis, m));
        let product = self
            .evaluator
            .multiply_rescale(&q, basis[g].as_ref().unwrap(), self.rlk)
            .unwrap();
        self.aligned(&product, &r, false)
    }

    /// The whole series on `ct` (degree ≥ 1).
    pub fn evaluate(&self, series: &ChebyshevSeries, ct: &Ciphertext) -> Ciphertext {
        let (a, b) = series.domain();
        let t1 = if (a, b) == (-1.0, 1.0) {
            ct.clone()
        } else {
            self.plus_plain(&self.times_scalar(ct, 2.0 / (b - a)), -(a + b) / (b - a))
        };
        let degree = series.degree();
        let mut m = 1;
        while m * m < degree + 1 {
            m *= 2;
        }
        let mut basis = vec![None; degree + 1];
        basis[1] = Some(t1);
        for j in 2..=m.min(degree) {
            basis[j] = Some(self.product(&basis, j / 2, j - j / 2));
        }
        let mut g = m;
        while 2 * g <= degree {
            basis[2 * g] = Some(self.product(&basis, g, g));
            g *= 2;
        }
        self.split(series.coefficients(), &basis, m)
    }
}

/// The textbook key-switched automorphism `x → x^element` of a coefficient-form `ct`: both
/// parts automorphed in coefficient form, `σ(c1)` switched back to the secret by
/// [`Evaluator::key_switch`] (held bit for bit to a schoolbook key switch in
/// `key_switch_lazy.rs`), and `k0` added to `σ(c0)`. Beyond that key switch it shares nothing
/// with the evaluator's Galois loop: no evaluation-domain permutation, and its ModUp lifts
/// `σ(c1)` rather than permuting a lift of `c1`, so its output decrypts to the same slots with
/// a different key-switch noise, never bit for bit.
pub fn galois_oracle(
    evaluator: &Evaluator,
    ct: &Ciphertext,
    element: u64,
    key: &SwitchingKey,
) -> Ciphertext {
    let basis = evaluator.context().basis_at_level(ct.level()).unwrap();
    let mut c0 = ct.c0().automorphism(element, &basis).unwrap();
    let c1 = ct.c1().automorphism(element, &basis).unwrap();
    let (k0, k1) = evaluator.key_switch(&c1, key, ct.level()).unwrap();
    c0.add_assign(&k0, &basis).unwrap();
    Ciphertext::from_parts(c0, k1, ct.scale(), ct.level())
}
