//! Galois automorphisms of the ring `Z_q[x]/(x^N + 1)` and index maps for the FAB
//! automorph unit.
//!
//! `Rotate(k)` in CKKS is implemented as the automorphism `x → x^{5^k}` followed by a key
//! switch, and `Conjugate` uses `x → x^{2N-1}`. The FAB automorph unit (Section 4.1) reads a
//! polynomial from on-chip memory and writes it to the register file in permuted order using
//! the closed-form index map of Equation (4); because only ~60 distinct rotation indices occur
//! in bootstrapping, the powers of 5 are precomputed.

use crate::{MathError, Modulus, Result};

/// Returns the Galois element `5^steps mod 2N` implementing a rotation by `steps` slots.
///
/// Negative rotations are expressed by passing `steps` modulo `N/2` (the slot count).
///
/// ```
/// let g = fab_math::galois_element_for_rotation(1 << 4, 1);
/// assert_eq!(g, 5);
/// ```
pub fn galois_element_for_rotation(degree: usize, steps: usize) -> u64 {
    let m = 2 * degree as u64;
    let mut g = 1u64;
    let steps = steps % (degree / 2).max(1);
    for _ in 0..steps {
        g = (g * 5) % m;
    }
    g
}

/// Returns the Galois element `2N − 1` implementing complex conjugation of the slots.
pub fn galois_element_for_conjugation(degree: usize) -> u64 {
    2 * degree as u64 - 1
}

/// The paper's closed-form rotated-slot index (Equation 4):
/// `new_index_k(i) = (5^k − 1)/2 + 5·i (mod N)`.
///
/// The division by two is exact because `5^k − 1` is even, and the reduction modulo `N` is a
/// bitwise AND because `N` is a power of two — exactly the simplifications the FAB automorph
/// unit exploits.
pub fn fab_rotation_index(degree: usize, k: usize, i: usize) -> usize {
    let m = 2 * degree;
    let mut five_pow_k = 1usize;
    for _ in 0..k {
        five_pow_k = (five_pow_k * 5) % m;
    }
    let offset = (five_pow_k - 1) / 2;
    (offset + 5 * i) & (degree - 1)
}

/// A precomputed coefficient-domain permutation (with signs) for a Galois automorphism
/// `x → x^{element}` on the negacyclic ring of the given degree.
#[derive(Debug, Clone)]
pub struct AutomorphismMap {
    degree: usize,
    element: u64,
    /// `target[i]` = destination index of source coefficient `i`.
    target: Vec<usize>,
    /// `negate[i]` = whether the coefficient picks up a minus sign.
    negate: Vec<bool>,
}

impl AutomorphismMap {
    /// Builds the permutation for `x → x^{element}`.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::InvalidGaloisElement`] if the element is even or not in `[1, 2N)`,
    /// or [`MathError::InvalidDegree`] if the degree is not a power of two.
    pub fn new(degree: usize, element: u64) -> Result<Self> {
        if degree < 2 || !degree.is_power_of_two() {
            return Err(MathError::InvalidDegree {
                degree,
                reason: "automorphism degree must be a power of two",
            });
        }
        let m = 2 * degree as u64;
        if element.is_multiple_of(2) || element == 0 || element >= m {
            return Err(MathError::InvalidGaloisElement { element, degree });
        }
        let mut target = vec![0usize; degree];
        let mut negate = vec![false; degree];
        for (i, (t, s)) in target.iter_mut().zip(negate.iter_mut()).enumerate() {
            let raw = (i as u64 * element) % m;
            if raw < degree as u64 {
                *t = raw as usize;
                *s = false;
            } else {
                *t = (raw - degree as u64) as usize;
                *s = true;
            }
        }
        Ok(Self {
            degree,
            element,
            target,
            negate,
        })
    }

    /// The ring degree this map was built for.
    pub fn degree(&self) -> usize {
        self.degree
    }

    /// The Galois element `k` of `x → x^k`.
    pub fn element(&self) -> u64 {
        self.element
    }

    /// Applies the automorphism to a coefficient-representation polynomial.
    ///
    /// # Panics
    ///
    /// Panics if `coeffs.len() != degree`.
    pub fn apply(&self, coeffs: &[u64], modulus: &Modulus) -> Vec<u64> {
        let mut out = vec![0u64; self.degree];
        self.apply_into(coeffs, modulus, &mut out);
        out
    }

    /// Applies the automorphism writing into a caller-provided output row (every index of
    /// `out` is overwritten). Lets flat-layout polynomial kernels permute limb rows without
    /// allocating.
    ///
    /// # Panics
    ///
    /// Panics if `coeffs.len() != degree` or `out.len() != degree`.
    pub fn apply_into(&self, coeffs: &[u64], modulus: &Modulus, out: &mut [u64]) {
        assert_eq!(coeffs.len(), self.degree);
        assert_eq!(out.len(), self.degree);
        for (i, &c) in coeffs.iter().enumerate() {
            let t = self.target[i];
            out[t] = if self.negate[i] { modulus.neg(c) } else { c };
        }
    }
}

/// A precomputed **evaluation-domain** permutation for a Galois automorphism
/// `x → x^{element}` on the negacyclic ring.
///
/// The lazy NTT ([`crate::NttTable::forward`]) stores the evaluation at `ψ^{2·brv(i)+1}` in
/// output slot `i` (ψ a primitive 2N-th root, `brv` the log-N bit reversal). Because Galois
/// elements are odd units modulo `2N`, `σ_t` maps the evaluation point set to itself:
/// `σ_t(a)(ψ^e) = a(ψ^{e·t})`, so in evaluation representation the automorphism is a **pure
/// permutation with no sign fix-ups** — `out[i] = in[source[i]]` where `source[i]` is the
/// slot holding the exponent `(2·brv(i)+1)·t mod 2N`.
///
/// This is what lets a batch of key-switched automorphisms share one ModUp *and* one
/// forward-NTT sweep: the raised digits are transformed once, and every rotation or
/// conjugation in the batch only pays the permutation (applied on the fly inside the
/// key-switch inner product).
#[derive(Debug, Clone)]
pub struct EvalAutomorphismMap {
    degree: usize,
    element: u64,
    /// `source[i]` = evaluation slot of the input feeding output slot `i`.
    source: Vec<usize>,
}

impl EvalAutomorphismMap {
    /// Builds the evaluation-domain permutation for `x → x^{element}`.
    ///
    /// # Errors
    ///
    /// Same as [`AutomorphismMap::new`].
    pub fn new(degree: usize, element: u64) -> Result<Self> {
        if degree < 2 || !degree.is_power_of_two() {
            return Err(MathError::InvalidDegree {
                degree,
                reason: "automorphism degree must be a power of two",
            });
        }
        let m = 2 * degree as u64;
        if element.is_multiple_of(2) || element == 0 || element >= m {
            return Err(MathError::InvalidGaloisElement { element, degree });
        }
        let log_n = degree.trailing_zeros();
        let brv = |i: u64| (i.reverse_bits() >> (64 - log_n)) as usize;
        let mut source = vec![0usize; degree];
        for (i, slot) in source.iter_mut().enumerate() {
            let exponent = 2 * brv(i as u64) as u64 + 1;
            // Odd × odd mod 2N stays odd, so the halving below is exact.
            let mapped = (exponent * element) % m;
            *slot = brv((mapped - 1) / 2);
        }
        Ok(Self {
            degree,
            element,
            source,
        })
    }

    /// The ring degree this map was built for.
    pub fn degree(&self) -> usize {
        self.degree
    }

    /// The Galois element `k` of `x → x^k`.
    pub fn element(&self) -> u64 {
        self.element
    }

    /// `source[i]` = input evaluation slot feeding output slot `i` (for fused gathers).
    pub fn source(&self) -> &[usize] {
        &self.source
    }

    /// Applies the permutation to one evaluation-form row (`out[i] = input[source[i]]`).
    /// Values are moved untouched, so lazy residues stay valid.
    ///
    /// # Panics
    ///
    /// Panics if either slice length differs from the degree.
    pub fn apply_into(&self, input: &[u64], out: &mut [u64]) {
        assert_eq!(input.len(), self.degree);
        assert_eq!(out.len(), self.degree);
        for (o, &s) in out.iter_mut().zip(self.source.iter()) {
            *o = input[s];
        }
    }
}

/// Applies the automorphism `x → x^{element}` to a coefficient-domain polynomial without
/// precomputing a map. Convenience wrapper over [`AutomorphismMap`].
///
/// # Errors
///
/// Propagates the construction errors of [`AutomorphismMap::new`].
pub fn apply_automorphism(coeffs: &[u64], element: u64, modulus: &Modulus) -> Result<Vec<u64>> {
    let map = AutomorphismMap::new(coeffs.len(), element)?;
    Ok(map.apply(coeffs, modulus))
}

/// Returns the bit-reversal permutation of `0..n` (n a power of two).
pub fn bit_reverse_indices(n: usize) -> Vec<usize> {
    assert!(n.is_power_of_two());
    let log_n = n.trailing_zeros();
    (0..n)
        .map(|i| ((i as u64).reverse_bits() >> (64 - log_n)) as usize)
        .collect()
}

/// Permutes a slice in place by bit-reversed index.
pub fn bit_reverse_permute<T>(values: &mut [T]) {
    let n = values.len();
    assert!(n.is_power_of_two());
    let log_n = n.trailing_zeros();
    for i in 0..n {
        let j = ((i as u64).reverse_bits() >> (64 - log_n)) as usize;
        if i < j {
            values.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn modulus() -> Modulus {
        Modulus::new(crate::generate_ntt_prime(40, 1 << 10, 0).unwrap()).unwrap()
    }

    #[test]
    fn galois_elements_are_odd_units() {
        let n = 1 << 8;
        for steps in 0..16 {
            let g = galois_element_for_rotation(n, steps);
            assert_eq!(g % 2, 1);
            assert!(g < 2 * n as u64);
        }
        assert_eq!(galois_element_for_conjugation(n), 2 * n as u64 - 1);
    }

    #[test]
    fn automorphism_identity_element() {
        let q = modulus();
        let n = 16;
        let coeffs: Vec<u64> = (0..n as u64).collect();
        let out = apply_automorphism(&coeffs, 1, &q).unwrap();
        assert_eq!(out, coeffs);
    }

    #[test]
    fn automorphism_composition_matches_product_of_elements() {
        let q = modulus();
        let n = 32;
        let coeffs: Vec<u64> = (1..=n as u64).collect();
        let g1 = 5u64;
        let g2 = 25u64;
        let once =
            apply_automorphism(&apply_automorphism(&coeffs, g1, &q).unwrap(), g1, &q).unwrap();
        let combined = apply_automorphism(&coeffs, g2, &q).unwrap();
        assert_eq!(once, combined);
        let _ = g2;
    }

    #[test]
    fn conjugation_is_involution() {
        let q = modulus();
        let n = 64;
        let coeffs: Vec<u64> = (0..n as u64).map(|i| i * 3 + 1).collect();
        let g = galois_element_for_conjugation(n);
        let twice =
            apply_automorphism(&apply_automorphism(&coeffs, g, &q).unwrap(), g, &q).unwrap();
        assert_eq!(twice, coeffs);
    }

    #[test]
    fn automorphism_preserves_multiplicative_structure() {
        // σ(a · b) = σ(a) · σ(b) in the negacyclic ring: check through the NTT multiplier.
        let n = 64usize;
        let q_val = crate::generate_ntt_prime(40, n, 0).unwrap();
        let q = Modulus::new(q_val).unwrap();
        let table = crate::NttTable::new(n, q.clone()).unwrap();
        let a: Vec<u64> = (0..n as u64).map(|i| (i * 7 + 3) % q_val).collect();
        let b: Vec<u64> = (0..n as u64).map(|i| (i * 13 + 1) % q_val).collect();
        let g = 5u64;
        let sigma_ab = apply_automorphism(&table.negacyclic_multiply(&a, &b), g, &q).unwrap();
        let sigma_a_sigma_b = table.negacyclic_multiply(
            &apply_automorphism(&a, g, &q).unwrap(),
            &apply_automorphism(&b, g, &q).unwrap(),
        );
        assert_eq!(sigma_ab, sigma_a_sigma_b);
    }

    #[test]
    fn rejects_invalid_elements() {
        assert!(AutomorphismMap::new(16, 2).is_err());
        assert!(AutomorphismMap::new(16, 0).is_err());
        assert!(AutomorphismMap::new(16, 32).is_err());
        assert!(AutomorphismMap::new(15, 3).is_err());
    }

    #[test]
    fn fab_rotation_index_matches_equation_4() {
        // Spot-check Equation (4) for small parameters: k = 1 → offset (5-1)/2 = 2, stride 5.
        let n = 1 << 6;
        assert_eq!(fab_rotation_index(n, 1, 0), 2);
        assert_eq!(fab_rotation_index(n, 1, 1), 7);
        assert_eq!(fab_rotation_index(n, 1, 13), (2 + 65) % n);
        // k = 0 must be the scaled identity map i → 5i mod N offset 0.
        assert_eq!(fab_rotation_index(n, 0, 3), 15);
    }

    #[test]
    fn fab_rotation_index_is_a_permutation() {
        let n = 1 << 8;
        for k in [1usize, 2, 5, 11] {
            let mut seen = vec![false; n];
            for i in 0..n {
                let idx = fab_rotation_index(n, k, i);
                assert!(!seen[idx], "index {idx} repeated for k={k}");
                seen[idx] = true;
            }
        }
    }

    #[test]
    fn evaluation_map_commutes_with_the_ntt() {
        // NTT(σ_t(a)) must equal the EvalAutomorphismMap permutation of NTT(a), bit for bit —
        // the soundness contract that lets hoisted batches permute instead of re-transform.
        let n = 64usize;
        let q_val = crate::generate_ntt_prime(40, n, 0).unwrap();
        let q = Modulus::new(q_val).unwrap();
        let table = crate::NttTable::new(n, q.clone()).unwrap();
        let a: Vec<u64> = (0..n as u64).map(|i| (i * 31 + 7) % q_val).collect();
        let mut a_eval = a.clone();
        table.forward(&mut a_eval);
        for element in [5u64, 25, 125 % (2 * n as u64), 2 * n as u64 - 1] {
            let coeff_map = AutomorphismMap::new(n, element).unwrap();
            let mut via_coeff = coeff_map.apply(&a, &q);
            table.forward(&mut via_coeff);
            let eval_map = EvalAutomorphismMap::new(n, element).unwrap();
            let mut via_eval = vec![0u64; n];
            eval_map.apply_into(&a_eval, &mut via_eval);
            assert_eq!(via_eval, via_coeff, "element {element}");
        }
    }

    #[test]
    fn evaluation_map_rejects_invalid_elements() {
        assert!(EvalAutomorphismMap::new(16, 2).is_err());
        assert!(EvalAutomorphismMap::new(16, 0).is_err());
        assert!(EvalAutomorphismMap::new(16, 32).is_err());
        assert!(EvalAutomorphismMap::new(15, 3).is_err());
        // Identity element is the identity permutation.
        let id = EvalAutomorphismMap::new(16, 1).unwrap();
        assert_eq!(id.source(), &(0..16).collect::<Vec<_>>()[..]);
    }

    #[test]
    fn bit_reverse_is_involution() {
        let mut v: Vec<u32> = (0..64).collect();
        let original = v.clone();
        bit_reverse_permute(&mut v);
        bit_reverse_permute(&mut v);
        assert_eq!(v, original);
        let idx = bit_reverse_indices(8);
        assert_eq!(idx, vec![0, 4, 2, 6, 1, 5, 3, 7]);
    }

    proptest! {
        #[test]
        fn prop_automorphism_is_permutation(element in (0u64..128).prop_map(|k| 2*k + 1)) {
            let n = 128usize;
            let map = AutomorphismMap::new(n, element % (2 * n as u64)).unwrap();
            let mut seen = vec![false; n];
            for i in 0..n {
                let t = map.target[i];
                prop_assert!(!seen[t]);
                seen[t] = true;
            }
        }

        #[test]
        fn prop_automorphism_linear(seed in any::<u64>()) {
            let q = modulus();
            let n = 64usize;
            let a: Vec<u64> = (0..n as u64).map(|i| (i.wrapping_mul(seed | 1)) % q.value()).collect();
            let b: Vec<u64> = (0..n as u64).map(|i| (i.wrapping_add(seed)) % q.value()).collect();
            let sum: Vec<u64> = a.iter().zip(&b).map(|(&x, &y)| q.add(x, y)).collect();
            let g = 5u64;
            let sa = apply_automorphism(&a, g, &q).unwrap();
            let sb = apply_automorphism(&b, g, &q).unwrap();
            let ssum = apply_automorphism(&sum, g, &q).unwrap();
            for i in 0..n {
                prop_assert_eq!(ssum[i], q.add(sa[i], sb[i]));
            }
        }
    }
}
