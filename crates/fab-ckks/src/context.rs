//! The CKKS context: limb moduli, NTT tables, and the encoding FFT for one parameter set.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use fab_math::{generate_ntt_primes, AutomorphismMap, EvalAutomorphismMap, Modulus, SpecialFft};
use fab_rns::ops::{ModDownPlan, ModUpPlan};
use fab_rns::RnsBasis;

use crate::{CkksError, CkksParams, Result};

/// `(P mod q_i, Shoup(P mod q_i))` per Q limb of one level.
pub type PModQConstants = Vec<(u64, u64)>;

/// Lazily-built, shared kernel precomputations: ModUp/ModDown conversion constants per
/// `(level, digit)` and automorphism index maps per Galois element. These are pure scalar
/// tables (no polynomial data), so caching them per context is cheap and lets the evaluator's
/// steady-state key switches skip all constant (re)computation.
#[derive(Debug, Default)]
struct KernelCache {
    /// Keyed by `(level, digit_offset, digit_len)`.
    mod_up: Mutex<HashMap<(usize, usize, usize), Arc<ModUpPlan>>>,
    /// Keyed by level.
    mod_down: Mutex<HashMap<usize, Arc<ModDownPlan>>>,
    /// Fused ModDown+rescale plans, keyed by the level *before* the rescale.
    mod_down_rescale: Mutex<HashMap<usize, Arc<ModDownPlan>>>,
    /// `(P mod q_i, Shoup constant)` per Q limb, keyed by level.
    p_mod_q: Mutex<HashMap<usize, Arc<PModQConstants>>>,
    /// Keyed by Galois element.
    automorphism: Mutex<HashMap<u64, Arc<AutomorphismMap>>>,
    /// Evaluation-domain automorphism permutations, keyed by Galois element.
    eval_automorphism: Mutex<HashMap<u64, Arc<EvalAutomorphismMap>>>,
}

/// Shared precomputed state for one CKKS parameter set: the limb moduli of `Q` and `P`, their
/// NTT tables, the special FFT used by the encoder, and a cache of key-switch kernel plans.
///
/// Contexts are created once and shared (e.g. behind an [`Arc`]) by encoders, key generators,
/// encryptors and evaluators.
///
/// ```
/// use fab_ckks::{CkksContext, CkksParams};
///
/// # fn main() -> Result<(), fab_ckks::CkksError> {
/// let ctx = CkksContext::new(CkksParams::testing())?;
/// assert_eq!(ctx.q_basis().len(), CkksParams::testing().total_q_limbs());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct CkksContext {
    params: CkksParams,
    q_basis: RnsBasis,
    p_basis: RnsBasis,
    full_basis: RnsBasis,
    fft: Arc<SpecialFft>,
    kernel_cache: KernelCache,
}

impl Clone for CkksContext {
    fn clone(&self) -> Self {
        Self {
            params: self.params.clone(),
            q_basis: self.q_basis.clone(),
            p_basis: self.p_basis.clone(),
            full_basis: self.full_basis.clone(),
            fft: Arc::clone(&self.fft),
            // Kernel plans are lazily derived state; a clone starts with an empty cache.
            kernel_cache: KernelCache::default(),
        }
    }
}

impl CkksContext {
    /// Builds the context: generates the limb primes, NTT tables and encoder FFT.
    ///
    /// # Errors
    ///
    /// Returns [`CkksError::InvalidParameters`] if the parameters are inconsistent, or
    /// propagates prime-generation / table-construction errors.
    pub fn new(params: CkksParams) -> Result<Self> {
        params.validate()?;
        let degree = params.degree();
        let scaling_limbs = params.total_q_limbs() - 1;
        let special_limbs = params.special_limbs();

        // Generate limb primes. The special (extension) primes use the first-prime width so
        // that `P` always exceeds the largest key-switching digit product — the constraint the
        // paper states in Section 2.1.5 ("P must be larger than the largest product of the
        // limbs in a single digit of Q"). When widths coincide (as in the paper's uniform
        // 54-bit set), every prime is drawn from a single decreasing stream so limbs stay
        // distinct.
        let (first_prime, scaling_primes, special_primes) = if params.first_prime_bits
            == params.scale_bits
        {
            let all =
                generate_ntt_primes(params.scale_bits, degree, 1 + scaling_limbs + special_limbs)?;
            (
                all[0],
                all[1..1 + scaling_limbs].to_vec(),
                all[1 + scaling_limbs..].to_vec(),
            )
        } else {
            let wide = generate_ntt_primes(params.first_prime_bits, degree, 1 + special_limbs)?;
            let scaling = generate_ntt_primes(params.scale_bits, degree, scaling_limbs)?;
            (wide[0], scaling, wide[1..].to_vec())
        };

        let mut q_moduli = Vec::with_capacity(params.total_q_limbs());
        q_moduli.push(Modulus::new(first_prime)?);
        for p in scaling_primes {
            q_moduli.push(Modulus::new(p)?);
        }
        let p_moduli = special_primes
            .into_iter()
            .map(Modulus::new)
            .collect::<std::result::Result<Vec<_>, _>>()?;

        let q_basis = RnsBasis::new(degree, q_moduli)?;
        let p_basis = RnsBasis::new(degree, p_moduli)?;
        let full_basis = q_basis.concat(&p_basis)?;
        let fft = Arc::new(SpecialFft::new(degree)?);

        Ok(Self {
            params,
            q_basis,
            p_basis,
            full_basis,
            fft,
            kernel_cache: KernelCache::default(),
        })
    }

    /// Convenience constructor returning the context behind an [`Arc`].
    ///
    /// # Errors
    ///
    /// Same as [`CkksContext::new`].
    pub fn new_arc(params: CkksParams) -> Result<Arc<Self>> {
        Ok(Arc::new(Self::new(params)?))
    }

    /// The parameter set this context was built for.
    pub fn params(&self) -> &CkksParams {
        &self.params
    }

    /// Ring degree `N`.
    pub fn degree(&self) -> usize {
        self.params.degree()
    }

    /// Slot count `N/2`.
    pub fn slot_count(&self) -> usize {
        self.params.slot_count()
    }

    /// The modulus chain of `Q` (limbs `q_0 … q_L`).
    pub fn q_basis(&self) -> &RnsBasis {
        &self.q_basis
    }

    /// The special-prime basis `P`.
    pub fn p_basis(&self) -> &RnsBasis {
        &self.p_basis
    }

    /// The full raised basis `Q ∪ P` (limb order `[q_0 … q_L, p_0 … p_{α-1}]`).
    pub fn full_basis(&self) -> &RnsBasis {
        &self.full_basis
    }

    /// The sub-basis of `Q` for a ciphertext at `level` (limbs `q_0 … q_level`).
    ///
    /// # Errors
    ///
    /// Returns [`CkksError::LevelMismatch`]-style parameter errors if the level exceeds `L`.
    pub fn basis_at_level(&self, level: usize) -> Result<RnsBasis> {
        if level > self.params.max_level {
            return Err(CkksError::InvalidParameters {
                reason: format!(
                    "level {level} exceeds maximum level {}",
                    self.params.max_level
                ),
            });
        }
        Ok(self.q_basis.prefix(level + 1)?)
    }

    /// The basis `Q_level ∪ P` used during key switching at `level`.
    ///
    /// # Errors
    ///
    /// Same as [`Self::basis_at_level`].
    pub fn raised_basis_at_level(&self, level: usize) -> Result<RnsBasis> {
        let q = self.basis_at_level(level)?;
        Ok(q.concat(&self.p_basis)?)
    }

    /// The special FFT used by the encoder and the bootstrapping matrices.
    pub fn fft(&self) -> &SpecialFft {
        &self.fft
    }

    /// The scaling prime consumed when rescaling from `level` (i.e. `q_level`).
    ///
    /// # Panics
    ///
    /// Panics if `level` is zero or exceeds the maximum level.
    pub fn rescale_prime(&self, level: usize) -> u64 {
        assert!(level >= 1 && level <= self.params.max_level);
        self.q_basis.modulus(level).value()
    }

    /// The cached ModUp plan for the digit `[digit_offset .. digit_offset + digit_len)` at
    /// `level` (built on first use, shared afterwards).
    ///
    /// # Errors
    ///
    /// Propagates level and plan-construction errors.
    pub fn mod_up_plan(
        &self,
        level: usize,
        digit_offset: usize,
        digit_len: usize,
    ) -> Result<Arc<ModUpPlan>> {
        cached(
            &self.kernel_cache.mod_up,
            (level, digit_offset, digit_len),
            || {
                let q_basis = self.basis_at_level(level)?;
                Ok(ModUpPlan::new(
                    &q_basis,
                    &self.p_basis,
                    digit_offset,
                    digit_len,
                )?)
            },
        )
    }

    /// The cached ModDown plan for `Q_level ∪ P → Q_level` (built on first use).
    ///
    /// # Errors
    ///
    /// Propagates level and plan-construction errors.
    pub fn mod_down_plan(&self, level: usize) -> Result<Arc<ModDownPlan>> {
        cached(&self.kernel_cache.mod_down, level, || {
            let q_basis = self.basis_at_level(level)?;
            Ok(ModDownPlan::new(&q_basis, &self.p_basis)?)
        })
    }

    /// The cached **fused ModDown+rescale** plan for a multiply-then-rescale at `level`:
    /// one basis conversion from `{q_level} ∪ P` onto `Q_{level-1}`, dividing by `P·q_level`
    /// in a single pass instead of a ModDown (divide by `P`) followed by a rescale (divide by
    /// `q_level`). Mathematically this *is* a [`ModDownPlan`] over the regrouped bases — the
    /// accumulator's limb order `[q_0 … q_level, p_0 … p_{k-1}]` already matches the plan's
    /// expected `[targets…, source…]` layout, so no data movement is needed.
    ///
    /// The fused division drops the exact centring of the two-step rescale, so the per
    /// coefficient rounding error grows from ~`k` to ~`k+2` absolute units — negligible
    /// against the scale `Δ`, and the reason `multiply_rescale` can skip one conversion and
    /// one combine pass per component.
    ///
    /// # Errors
    ///
    /// Returns a parameter error at level 0 (no level to consume) and propagates
    /// plan-construction errors.
    pub fn mod_down_rescale_plan(&self, level: usize) -> Result<Arc<ModDownPlan>> {
        if level == 0 {
            return Err(CkksError::InvalidParameters {
                reason: "fused ModDown+rescale needs a level to consume".into(),
            });
        }
        cached(&self.kernel_cache.mod_down_rescale, level, || {
            let targets = self.basis_at_level(level - 1)?;
            let source = self
                .q_basis
                .slice(level..level + 1)?
                .concat(&self.p_basis)?;
            Ok(ModDownPlan::new(&targets, &source)?)
        })
    }

    /// The cached per-limb constants `(P mod q_i, Shoup(P mod q_i))` for `i ∈ [0, level]` —
    /// the scalars the fused `multiply_rescale` uses to absorb `P·d` into the key-switch
    /// accumulator before the one-shot division by `P·q_level`.
    ///
    /// # Errors
    ///
    /// Propagates level errors.
    pub fn p_mod_q_constants(&self, level: usize) -> Result<Arc<PModQConstants>> {
        cached(&self.kernel_cache.p_mod_q, level, || {
            let basis = self.basis_at_level(level)?;
            Ok(basis
                .moduli()
                .iter()
                .map(|qi| {
                    let mut acc = 1u64;
                    for p in self.p_basis.values() {
                        acc = qi.mul(acc, qi.reduce(p));
                    }
                    (acc, qi.shoup_precompute(acc))
                })
                .collect())
        })
    }

    /// The cached coefficient-permutation map for the Galois automorphism `x → x^element`
    /// (built on first use; bootstrapping touches only ~60 distinct elements).
    ///
    /// # Errors
    ///
    /// Propagates invalid-element errors.
    pub fn automorphism_map(&self, element: u64) -> Result<Arc<AutomorphismMap>> {
        cached(&self.kernel_cache.automorphism, element, || {
            Ok(AutomorphismMap::new(self.degree(), element)?)
        })
    }

    /// The cached **evaluation-domain** permutation for the Galois automorphism
    /// `x → x^element` (see [`EvalAutomorphismMap`]): every key-switched rotation and
    /// conjugation permutes the once-transformed raised digits with this map instead of
    /// re-running the forward NTT per automorphism.
    ///
    /// # Errors
    ///
    /// Propagates invalid-element errors.
    pub fn eval_automorphism_map(&self, element: u64) -> Result<Arc<EvalAutomorphismMap>> {
        cached(&self.kernel_cache.eval_automorphism, element, || {
            Ok(EvalAutomorphismMap::new(self.degree(), element)?)
        })
    }
}

/// Get-or-build under a single lock: a racing miss builds once, and the three kernel caches
/// share one code path. Builders are CPU-only constant precomputation (they take no other
/// locks), so holding the cache lock during construction cannot deadlock.
fn cached<K: std::hash::Hash + Eq, V>(
    cache: &Mutex<HashMap<K, Arc<V>>>,
    key: K,
    build: impl FnOnce() -> Result<V>,
) -> Result<Arc<V>> {
    let mut guard = cache.lock().expect("kernel cache poisoned");
    if let Some(value) = guard.get(&key) {
        return Ok(Arc::clone(value));
    }
    let value = Arc::new(build()?);
    guard.insert(key, Arc::clone(&value));
    Ok(value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_limb_counts_match_params() {
        let params = CkksParams::testing();
        let ctx = CkksContext::new(params.clone()).unwrap();
        assert_eq!(ctx.q_basis().len(), params.total_q_limbs());
        assert_eq!(ctx.p_basis().len(), params.special_limbs());
        assert_eq!(ctx.full_basis().len(), params.total_raised_limbs());
        assert_eq!(ctx.degree(), params.degree());
    }

    #[test]
    fn all_limbs_are_distinct() {
        let ctx = CkksContext::new(CkksParams::testing()).unwrap();
        let mut values = ctx.full_basis().values();
        values.sort_unstable();
        let before = values.len();
        values.dedup();
        assert_eq!(
            values.len(),
            before,
            "limb moduli must be pairwise distinct"
        );
    }

    #[test]
    fn first_prime_is_wider_than_scaling_primes() {
        let params = CkksParams::testing();
        let ctx = CkksContext::new(params.clone()).unwrap();
        assert_eq!(ctx.q_basis().modulus(0).bits(), params.first_prime_bits);
        for i in 1..ctx.q_basis().len() {
            assert_eq!(ctx.q_basis().modulus(i).bits(), params.scale_bits);
        }
    }

    #[test]
    fn basis_at_level_prefixes_the_chain() {
        let ctx = CkksContext::new(CkksParams::testing()).unwrap();
        let b3 = ctx.basis_at_level(3).unwrap();
        assert_eq!(b3.len(), 4);
        assert_eq!(b3.values(), ctx.q_basis().values()[..4].to_vec());
        assert!(ctx.basis_at_level(100).is_err());
        let raised = ctx.raised_basis_at_level(2).unwrap();
        assert_eq!(raised.len(), 3 + ctx.p_basis().len());
    }

    #[test]
    fn uniform_limb_width_generation_keeps_limbs_distinct() {
        // When first_prime_bits == scale_bits (as in the paper set) all limbs come from one
        // stream; check with a small same-width configuration.
        let params = CkksParams::builder()
            .log_n(10)
            .scale_bits(40)
            .first_prime_bits(40)
            .max_level(4)
            .dnum(2)
            .build()
            .unwrap();
        let ctx = CkksContext::new(params).unwrap();
        let mut values = ctx.full_basis().values();
        values.sort_unstable();
        let before = values.len();
        values.dedup();
        assert_eq!(values.len(), before);
    }

    #[test]
    fn rescale_prime_indexing() {
        let ctx = CkksContext::new(CkksParams::testing()).unwrap();
        assert_eq!(ctx.rescale_prime(3), ctx.q_basis().modulus(3).value());
    }
}
