//! Key material: secret, public, relinearisation and Galois (rotation/conjugation) keys,
//! plus the key generator.
//!
//! Switching keys follow the hybrid (Han–Ki) structure used by the paper: a `2 × dnum` matrix
//! of polynomials over the raised modulus `P·Q` (Equation 3), where digit `j` encrypts
//! `P·s'` on the limbs of its own digit and `0` elsewhere. The paper's key-compression remark
//! (Figure 1) corresponds to regenerating the `a_j` halves from a seed; we model the size
//! accounting in `CkksParams::switching_key_bytes`.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use fab_math::{galois_element_for_conjugation, galois_element_for_rotation};
use fab_rns::{Representation, RnsPolynomial};
use rand::Rng;

use crate::sampling;
use crate::wire::{self, BlobReader, BlobSpec, BlobWriter};
use crate::{CkksContext, CkksError, CkksParams, Result};

/// Bytes of the fixed `to_bytes` header: the shared [`wire`] magic+checksum words plus
/// degree, limb count, `α` and `dnum` as `u64` LE words.
const KEY_HEADER_BYTES: usize = wire::HEADER_BYTES + 4 * 8;

/// The switching-key blob identity on the shared [`wire`] codec: ASCII `FABKEY` in the top
/// 48 bits (the exact value only has to be improbable in noise). Version 2 has version 1's
/// layout with [`wire::checksum`] in the checksum word where version 1 had a byte-serial hash.
const KEY_SPEC: BlobSpec = BlobSpec {
    magic: 0x4641_424B_4559_0000,
    version: 2,
    kind: "switching key",
};

fn corrupt_key(e: wire::WireError) -> CkksError {
    CkksError::CorruptKey { reason: e.reason }
}

/// The secret key: a ternary polynomial `s`, stored both as signed coefficients and in
/// evaluation form over the full raised basis `Q ∪ P`.
#[derive(Debug, Clone)]
pub struct SecretKey {
    coeffs: Vec<i64>,
    full_eval: RnsPolynomial,
}

impl SecretKey {
    /// Samples a fresh secret key. Uses a sparse ternary secret if the parameters request a
    /// fixed Hamming weight, otherwise a uniform (non-sparse) ternary secret.
    pub fn generate<R: Rng + ?Sized>(ctx: &CkksContext, rng: &mut R) -> Self {
        let degree = ctx.degree();
        let coeffs = match ctx.params().secret_hamming_weight {
            Some(h) => sampling::sample_sparse_ternary_coeffs(rng, degree, h),
            None => sampling::sample_ternary_coeffs(rng, degree),
        };
        Self::from_coeffs(ctx, coeffs)
    }

    /// Builds a secret key from explicit ternary coefficients (used by tests).
    ///
    /// # Panics
    ///
    /// Panics if the coefficient vector length differs from the ring degree.
    pub fn from_coeffs(ctx: &CkksContext, coeffs: Vec<i64>) -> Self {
        assert_eq!(coeffs.len(), ctx.degree());
        let mut full = sampling::lift_signed(&coeffs, ctx.full_basis());
        full.to_evaluation(ctx.full_basis());
        Self {
            coeffs,
            full_eval: full,
        }
    }

    /// The signed ternary coefficients of `s`.
    pub fn coeffs(&self) -> &[i64] {
        &self.coeffs
    }

    /// The Hamming weight of the secret.
    pub fn hamming_weight(&self) -> usize {
        self.coeffs.iter().filter(|&&c| c != 0).count()
    }

    /// `s` in evaluation form over the full raised basis.
    pub(crate) fn full_eval(&self) -> &RnsPolynomial {
        &self.full_eval
    }

    /// `s` in evaluation form restricted to the first `count` limbs of `Q`.
    pub(crate) fn q_eval_prefix(&self, count: usize) -> RnsPolynomial {
        self.full_eval
            .prefix(count)
            .expect("secret key holds every limb")
    }
}

/// The public encryption key `(b, a) = (−a·s + e, a)` over the full modulus `Q`.
#[derive(Debug, Clone)]
pub struct PublicKey {
    /// `b = −a·s + e`, evaluation form over `Q`.
    pub(crate) b: RnsPolynomial,
    /// `a`, evaluation form over `Q`.
    pub(crate) a: RnsPolynomial,
}

impl PublicKey {
    /// The `b = −a·s + e` component (evaluation form).
    pub fn b(&self) -> &RnsPolynomial {
        &self.b
    }

    /// The uniform `a` component (evaluation form).
    pub fn a(&self) -> &RnsPolynomial {
        &self.a
    }
}

/// A hybrid switching key: `dnum` pairs `(b_j, a_j)` of polynomials over `Q ∪ P` in evaluation
/// form (Equation 3 of the paper).
#[derive(Debug, Clone)]
pub struct SwitchingKey {
    components: Vec<(RnsPolynomial, RnsPolynomial)>,
    alpha: usize,
}

impl SwitchingKey {
    /// Number of digits (`dnum`).
    pub fn digit_count(&self) -> usize {
        self.components.len()
    }

    /// Limbs per digit (`α`).
    pub fn alpha(&self) -> usize {
        self.alpha
    }

    /// The `(b_j, a_j)` pair for digit `j`.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    pub fn component(&self, j: usize) -> (&RnsPolynomial, &RnsPolynomial) {
        let (b, a) = &self.components[j];
        (b, a)
    }

    /// Total size of this key in bytes when packed at the limb bit-width.
    pub fn packed_bytes(&self, limb_bits: u32) -> usize {
        self.components
            .iter()
            .map(|(b, a)| (b.limb_count() + a.limb_count()) * b.degree() * limb_bits as usize / 8)
            .sum()
    }

    /// Exact size of [`Self::to_bytes`]'s output for this key.
    pub fn serialized_bytes(&self) -> usize {
        let (b, _) = &self.components[0];
        KEY_HEADER_BYTES + 2 * self.components.len() * b.limb_count() * b.degree() * 8
    }

    /// Serializes the key: a 6-word header (`magic|version`, checksum, degree, limb count,
    /// `α`, `dnum`, each `u64` LE) followed by each digit's `b_j` then `a_j` flat limb-major
    /// `u64` LE words. The checksum is [`wire::checksum`] over everything after the checksum
    /// word, so the geometry words are covered too: damage confined to one aligned 8-byte
    /// word is always detected, wider damage with probability 1 − 2⁻⁶⁴ (an integrity check
    /// against bit rot and torn writes, not an authenticator). Keys are always held in
    /// evaluation form, so no representation tag is needed.
    pub fn to_bytes(&self) -> Vec<u8> {
        let (b0, _) = &self.components[0];
        debug_assert_eq!(b0.representation(), Representation::Evaluation);
        let mut out = BlobWriter::new(KEY_SPEC, self.serialized_bytes());
        out.push_word(b0.degree() as u64);
        out.push_word(b0.limb_count() as u64);
        out.push_word(self.alpha as u64);
        out.push_word(self.components.len() as u64);
        for (b, a) in &self.components {
            for poly in [b, a] {
                out.push_words(poly.data());
            }
        }
        out.finish()
    }

    /// Rebuilds a key serialized by [`Self::to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns [`CkksError::CorruptKey`] when the blob is truncated or oversized, the magic
    /// or version word is wrong, the header geometry is malformed, or the content checksum
    /// does not match (bit flips anywhere in the blob).
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        let mut reader = BlobReader::open(KEY_SPEC, bytes).map_err(corrupt_key)?;
        let degree = reader.read_word().map_err(corrupt_key)? as usize;
        let limb_count = reader.read_word().map_err(corrupt_key)? as usize;
        let alpha = reader.read_word().map_err(corrupt_key)? as usize;
        let dnum = reader.read_word().map_err(corrupt_key)? as usize;
        if degree == 0 || limb_count == 0 || alpha == 0 || dnum == 0 {
            return Err(CkksError::CorruptKey {
                reason: format!(
                    "switching key header has zero geometry: \
                     degree {degree}, limbs {limb_count}, alpha {alpha}, dnum {dnum}"
                ),
            });
        }
        let overflow = || CkksError::CorruptKey {
            reason: "switching key header geometry overflows".into(),
        };
        let poly_words = wire::checked_product(&[degree, limb_count]).ok_or_else(overflow)?;
        let payload_words = wire::checked_product(&[2, dnum, poly_words]).ok_or_else(overflow)?;
        reader
            .expect_payload_words(payload_words)
            .map_err(corrupt_key)?;
        let mut components = Vec::with_capacity(dnum);
        for _ in 0..dnum {
            let b = reader.read_words(poly_words).map_err(corrupt_key)?;
            let a = reader.read_words(poly_words).map_err(corrupt_key)?;
            components.push((
                RnsPolynomial::from_flat(degree, b, Representation::Evaluation),
                RnsPolynomial::from_flat(degree, a, Representation::Evaluation),
            ));
        }
        reader.finish().map_err(corrupt_key)?;
        Ok(Self { components, alpha })
    }
}

/// Exact serialized size ([`SwitchingKey::to_bytes`]) of one switching key under `params`:
/// `48 + 2 · dnum · (L + 1 + k) · N · 8` bytes, with `dnum = ⌈(L+1)/α⌉` digits of `(b_j, a_j)`
/// pairs over the raised basis of `L + 1 + k` limbs (the 48-byte header carries magic+version,
/// checksum and geometry). This closed form is what serving-side cache budgets are derived
/// from; `tests` pin it against actual serialized lengths.
pub fn switching_key_serialized_bytes(params: &CkksParams) -> usize {
    let dnum = params.total_q_limbs().div_ceil(params.alpha());
    KEY_HEADER_BYTES + 2 * dnum * params.total_raised_limbs() * params.degree() * 8
}

/// Exact serialized size of a tenant's full evaluation-key set: one relinearisation key plus
/// `galois_key_count` Galois keys (rotations and/or conjugation), all structurally identical
/// switching keys.
pub fn key_set_bytes(params: &CkksParams, galois_key_count: usize) -> usize {
    (1 + galois_key_count) * switching_key_serialized_bytes(params)
}

/// The relinearisation key (a switching key for `s² → s`), behind the same [`Arc`] every
/// [`GaloisKeys`] entry sits behind.
#[derive(Debug, Clone)]
pub struct RelinearizationKey {
    /// The underlying switching key.
    pub key: Arc<SwitchingKey>,
}

/// A collection of Galois keys: rotation keys indexed by Galois element plus the conjugation
/// key. Keys are held behind [`Arc`] so caches and providers can hand them out without
/// cloning tens of megabytes of polynomial material.
#[derive(Debug, Clone, Default)]
pub struct GaloisKeys {
    keys: HashMap<u64, Arc<SwitchingKey>>,
    degree: usize,
}

impl GaloisKeys {
    /// Creates an empty collection for the given ring degree.
    pub fn new(degree: usize) -> Self {
        Self {
            keys: HashMap::new(),
            degree,
        }
    }

    /// Number of keys held.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether the collection is empty.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Inserts a key for the given Galois element.
    pub fn insert(&mut self, element: u64, key: SwitchingKey) {
        self.keys.insert(element, Arc::new(key));
    }

    /// The key for an explicit Galois element, if present.
    pub fn get(&self, element: u64) -> Option<&SwitchingKey> {
        self.keys.get(&element).map(|k| k.as_ref())
    }

    /// The key for a left rotation by `steps` slots, if present.
    pub fn rotation_key(&self, steps: usize) -> Option<&SwitchingKey> {
        self.get(galois_element_for_rotation(self.degree, steps))
    }

    /// The conjugation key, if present.
    pub fn conjugation_key(&self) -> Option<&SwitchingKey> {
        self.get(galois_element_for_conjugation(self.degree))
    }

    /// The Galois elements for which keys are held.
    pub fn elements(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self.keys.keys().copied().collect();
        v.sort_unstable();
        v
    }
}

/// Names one evaluation key of a key set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum KeyRef {
    /// The relinearisation key (`s² → s`).
    Relin,
    /// The Galois key for `x → x^element` (rotations and conjugation).
    Galois(u64),
}

impl KeyRef {
    /// The error every provider answers when it holds no such key.
    pub fn missing(self) -> CkksError {
        CkksError::MissingKey {
            description: self.to_string(),
        }
    }
}

impl fmt::Display for KeyRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KeyRef::Relin => write!(f, "relinearization key"),
            KeyRef::Galois(element) => write!(f, "galois element {element}"),
        }
    }
}

/// Where an operation gets its switching key: every key switch of every pipeline asks one
/// provider for one [`KeyRef`] at the moment of use.
///
/// A provider may answer with a long-lived resident key, a cache hit, or a key freshly
/// deserialized on a cold miss; the returned [`Arc`] keeps the material alive for the
/// duration of the op even if a cache evicts it mid-flight. The sequence of keys a pipeline
/// asks for is known before it runs — [`crate::PlanBackend`] records it — which is what lets
/// a provider prefetch.
pub trait KeyProvider {
    /// The switching key `key` names.
    ///
    /// # Errors
    ///
    /// Returns [`CkksError::MissingKey`] ([`KeyRef::missing`]) when the provider holds no
    /// such key, or a transport error when it could not be fetched.
    fn key(&self, key: KeyRef) -> Result<Arc<SwitchingKey>>;
}

/// Galois keys alone: asked for the relinearisation key they answer `MissingKey`.
impl KeyProvider for GaloisKeys {
    fn key(&self, key: KeyRef) -> Result<Arc<SwitchingKey>> {
        match key {
            KeyRef::Galois(element) => self.keys.get(&element).cloned(),
            KeyRef::Relin => None,
        }
        .ok_or_else(|| key.missing())
    }
}

/// A borrowed resident key set.
impl KeyProvider for (&RelinearizationKey, &GaloisKeys) {
    fn key(&self, key: KeyRef) -> Result<Arc<SwitchingKey>> {
        match key {
            KeyRef::Relin => Ok(self.0.key.clone()),
            KeyRef::Galois(_) => self.1.key(key),
        }
    }
}

/// An owned resident key set: every key stays in memory for the provider's lifetime.
#[derive(Debug, Clone)]
pub struct ResidentKeyProvider {
    rlk: RelinearizationKey,
    galois: GaloisKeys,
}

impl ResidentKeyProvider {
    /// Wraps fully-resident key material.
    pub fn new(rlk: RelinearizationKey, galois: GaloisKeys) -> Self {
        Self { rlk, galois }
    }
}

impl KeyProvider for ResidentKeyProvider {
    fn key(&self, key: KeyRef) -> Result<Arc<SwitchingKey>> {
        (&self.rlk, &self.galois).key(key)
    }
}

/// Generates public, relinearisation and Galois keys from a secret key.
#[derive(Debug, Clone)]
pub struct KeyGenerator {
    ctx: Arc<CkksContext>,
    secret: SecretKey,
}

impl KeyGenerator {
    /// Creates a key generator bound to an existing secret key.
    pub fn new(ctx: Arc<CkksContext>, secret: SecretKey) -> Self {
        Self { ctx, secret }
    }

    /// The secret key this generator uses.
    pub fn secret_key(&self) -> &SecretKey {
        &self.secret
    }

    /// Generates the public encryption key.
    pub fn public_key<R: Rng + ?Sized>(&self, rng: &mut R) -> PublicKey {
        let q_basis = self.ctx.q_basis();
        let s_q = self.secret.q_eval_prefix(q_basis.len());
        let mut a = sampling::sample_uniform(rng, q_basis);
        a.to_evaluation(q_basis);
        let e_coeffs =
            sampling::sample_gaussian_coeffs(rng, self.ctx.degree(), self.ctx.params().error_std);
        let mut e = sampling::lift_signed(&e_coeffs, q_basis);
        e.to_evaluation(q_basis);
        // b = -a*s + e
        let b = e
            .sub(&a.mul(&s_q, q_basis).expect("evaluation form"), q_basis)
            .expect("matching shapes");
        PublicKey { b, a }
    }

    /// Generates the relinearisation key (switching `s² → s`).
    pub fn relinearization_key<R: Rng + ?Sized>(&self, rng: &mut R) -> RelinearizationKey {
        let full = self.ctx.full_basis();
        let s = self.secret.full_eval();
        let s_squared = s.mul(s, full).expect("evaluation form");
        RelinearizationKey {
            key: Arc::new(self.switching_key_for(&s_squared, rng)),
        }
    }

    /// Generates the Galois key for an explicit Galois element (`x → x^element`).
    ///
    /// # Errors
    ///
    /// Propagates invalid Galois element errors.
    pub fn galois_key<R: Rng + ?Sized>(&self, element: u64, rng: &mut R) -> Result<SwitchingKey> {
        let full = self.ctx.full_basis();
        // σ_g(s) in evaluation form: permute the signed coefficients, lift, NTT.
        let mut s_coeff = sampling::lift_signed(self.secret.coeffs(), full);
        s_coeff = s_coeff.automorphism(element, full)?;
        let mut s_g = s_coeff;
        s_g.to_evaluation(full);
        Ok(self.switching_key_for(&s_g, rng))
    }

    /// Generates rotation keys for the given slot rotation steps (and optionally conjugation).
    ///
    /// # Errors
    ///
    /// Propagates invalid Galois element errors.
    pub fn galois_keys<R: Rng + ?Sized>(
        &self,
        steps: &[usize],
        include_conjugation: bool,
        rng: &mut R,
    ) -> Result<GaloisKeys> {
        let degree = self.ctx.degree();
        let mut keys = GaloisKeys::new(degree);
        for &s in steps {
            let element = galois_element_for_rotation(degree, s);
            if keys.get(element).is_none() {
                keys.insert(element, self.galois_key(element, rng)?);
            }
        }
        if include_conjugation {
            let element = galois_element_for_conjugation(degree);
            keys.insert(element, self.galois_key(element, rng)?);
        }
        Ok(keys)
    }

    /// Core switching-key construction for an arbitrary target secret `s'` (in evaluation form
    /// over the full basis): digit `j` encrypts `P·s'` on its own limbs.
    fn switching_key_for<R: Rng + ?Sized>(
        &self,
        target_eval: &RnsPolynomial,
        rng: &mut R,
    ) -> SwitchingKey {
        let ctx = &self.ctx;
        let full = ctx.full_basis();
        let q_limbs = ctx.q_basis().len();
        let alpha = ctx.params().alpha();
        let dnum = q_limbs.div_ceil(alpha);
        let s = self.secret.full_eval();
        let degree = ctx.degree();

        // P mod q_i for every Q limb.
        let p_mod_q: Vec<u64> = ctx
            .q_basis()
            .moduli()
            .iter()
            .map(|qi| {
                let mut acc = 1u64;
                for p in ctx.p_basis().values() {
                    acc = qi.mul(acc, qi.reduce(p));
                }
                acc
            })
            .collect();

        let mut components = Vec::with_capacity(dnum);
        for j in 0..dnum {
            let digit_start = j * alpha;
            let digit_end = ((j + 1) * alpha).min(q_limbs);

            let mut a = sampling::sample_uniform(rng, full);
            a.to_evaluation(full);
            let e_coeffs = sampling::sample_gaussian_coeffs(rng, degree, ctx.params().error_std);
            let mut e = sampling::lift_signed(&e_coeffs, full);
            e.to_evaluation(full);

            // b_j = e_j - a_j*s, then add P·s' on the digit's own Q limbs.
            let mut b = e
                .sub(&a.mul(s, full).expect("evaluation form"), full)
                .expect("matching shapes");
            for (limb_idx, &p_qi) in p_mod_q.iter().enumerate().take(digit_end).skip(digit_start) {
                let qi = ctx.q_basis().modulus(limb_idx);
                let p_shoup = qi.shoup_precompute(p_qi);
                let target_limb = target_eval.limb(limb_idx);
                let b_limb = b.limb_mut(limb_idx);
                for (b_c, &t_c) in b_limb.iter_mut().zip(target_limb.iter()) {
                    let add = qi.mul_shoup(t_c, p_qi, p_shoup);
                    *b_c = qi.add(*b_c, add);
                }
            }
            components.push((b, a));
        }
        SwitchingKey { components, alpha }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CkksParams;
    use fab_rns::Representation;
    use rand::SeedableRng;
    use rand_chacha::ChaCha20Rng;

    fn setup() -> (Arc<CkksContext>, KeyGenerator, ChaCha20Rng) {
        let ctx = CkksContext::new_arc(CkksParams::testing()).unwrap();
        let mut rng = ChaCha20Rng::seed_from_u64(42);
        let sk = SecretKey::generate(&ctx, &mut rng);
        (ctx.clone(), KeyGenerator::new(ctx, sk), rng)
    }

    #[test]
    fn secret_key_respects_hamming_weight() {
        let (ctx, kg, _) = setup();
        let expected = ctx.params().secret_hamming_weight.unwrap();
        assert_eq!(kg.secret_key().hamming_weight(), expected);
        assert!(kg
            .secret_key()
            .coeffs()
            .iter()
            .all(|&c| (-1..=1).contains(&c)));
    }

    #[test]
    fn public_key_decrypts_to_small_error() {
        // b + a*s = e must be small.
        let (ctx, kg, mut rng) = setup();
        let pk = kg.public_key(&mut rng);
        let q = ctx.q_basis();
        let s = kg.secret_key().q_eval_prefix(q.len());
        let mut check = pk.b().add(&pk.a().mul(&s, q).unwrap(), q).unwrap();
        check.to_coefficient(q);
        let q0 = q.modulus(0);
        let max_err = check
            .limb(0)
            .iter()
            .map(|&c| q0.to_signed(c).abs())
            .max()
            .unwrap();
        assert!(max_err < 64, "public key error too large: {max_err}");
    }

    #[test]
    fn switching_key_shape_matches_parameters() {
        let (ctx, kg, mut rng) = setup();
        let rlk = kg.relinearization_key(&mut rng);
        let params = ctx.params();
        assert_eq!(rlk.key.digit_count(), params.dnum);
        assert_eq!(rlk.key.alpha(), params.alpha());
        for j in 0..rlk.key.digit_count() {
            let (b, a) = rlk.key.component(j);
            assert_eq!(b.limb_count(), params.total_raised_limbs());
            assert_eq!(a.limb_count(), params.total_raised_limbs());
            assert_eq!(b.representation(), Representation::Evaluation);
        }
        let expected_bytes = params.switching_key_bytes(false);
        let actual = rlk.key.packed_bytes(params.scale_bits);
        // The size accounting in the parameters assumes uniform limb width; allow the first
        // limb's extra bits to push the real size slightly above the estimate.
        let ratio = actual as f64 / expected_bytes as f64;
        assert!(ratio > 0.95 && ratio < 1.1, "key size ratio {ratio}");
    }

    #[test]
    fn galois_keys_cover_requested_rotations() {
        let (ctx, kg, mut rng) = setup();
        let keys = kg.galois_keys(&[1, 2, 4], true, &mut rng).unwrap();
        assert_eq!(keys.len(), 4);
        assert!(keys.rotation_key(1).is_some());
        assert!(keys.rotation_key(2).is_some());
        assert!(keys.rotation_key(4).is_some());
        assert!(keys.rotation_key(3).is_none());
        assert!(keys.conjugation_key().is_some());
        assert_eq!(keys.elements().len(), 4);
        let _ = ctx;
    }

    #[test]
    fn duplicate_rotation_steps_share_one_key() {
        let (_, kg, mut rng) = setup();
        let keys = kg.galois_keys(&[1, 1, 1], false, &mut rng).unwrap();
        assert_eq!(keys.len(), 1);
    }

    #[test]
    fn serialized_size_matches_the_closed_form() {
        // The cache's admission budget is derived from `key_set_bytes`, so the closed form
        // must equal the actual `to_bytes` length for every key shape — including a dnum
        // that does not divide the limb count.
        for params in [
            CkksParams::testing(),
            CkksParams {
                log_n: 5,
                max_level: 4,
                dnum: 3,
                secret_hamming_weight: Some(8),
                ..CkksParams::testing()
            },
        ] {
            let ctx = CkksContext::new_arc(params.clone()).unwrap();
            let mut rng = ChaCha20Rng::seed_from_u64(7);
            let kg = KeyGenerator::new(ctx.clone(), SecretKey::generate(&ctx, &mut rng));
            let rlk = kg.relinearization_key(&mut rng);
            let rot = kg
                .galois_key(
                    fab_math::galois_element_for_rotation(ctx.degree(), 1),
                    &mut rng,
                )
                .unwrap();
            let expected = switching_key_serialized_bytes(&params);
            assert_eq!(rlk.key.to_bytes().len(), expected);
            assert_eq!(rlk.key.serialized_bytes(), expected);
            assert_eq!(rot.to_bytes().len(), expected);
            assert_eq!(key_set_bytes(&params, 3), 4 * expected);
        }
    }

    #[test]
    fn switching_key_round_trips_bitwise() {
        let (_, kg, mut rng) = setup();
        let rlk = kg.relinearization_key(&mut rng);
        let blob = rlk.key.to_bytes();
        let back = SwitchingKey::from_bytes(&blob).unwrap();
        assert_eq!(back.digit_count(), rlk.key.digit_count());
        assert_eq!(back.alpha(), rlk.key.alpha());
        for j in 0..back.digit_count() {
            let (b0, a0) = rlk.key.component(j);
            let (b1, a1) = back.component(j);
            assert_eq!(b0.data(), b1.data());
            assert_eq!(a0.data(), a1.data());
            assert_eq!(b1.representation(), Representation::Evaluation);
        }
        // A second serialization of the rebuilt key is byte-identical.
        assert_eq!(back.to_bytes(), blob);
    }

    #[test]
    fn corrupt_key_blobs_are_rejected() {
        let (_, kg, mut rng) = setup();
        let blob = kg.relinearization_key(&mut rng).key.to_bytes();
        let corrupt = |bytes: &[u8]| match SwitchingKey::from_bytes(bytes) {
            Err(CkksError::CorruptKey { .. }) => (),
            other => panic!("expected CorruptKey, got {other:?}"),
        };
        // Truncated header, truncated payload, oversized payload.
        corrupt(&blob[..16]);
        corrupt(&blob[..blob.len() - 8]);
        let mut oversized = blob.clone();
        oversized.extend_from_slice(&[0u8; 8]);
        corrupt(&oversized);
        // Zeroed magic word.
        let mut zeroed = blob.clone();
        zeroed[0..8].copy_from_slice(&0u64.to_le_bytes());
        corrupt(&zeroed);
        // Unsupported version.
        let mut versioned = blob.clone();
        versioned[0] = versioned[0].wrapping_add(1);
        corrupt(&versioned);
        // A single flipped bit in the payload trips the checksum.
        let mut flipped = blob.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x40;
        corrupt(&flipped);
        // A flipped geometry bit is caught (by the checksum or the length check).
        let mut geometry = blob;
        geometry[17] ^= 0x01;
        corrupt(&geometry);
    }

    #[test]
    fn resident_provider_serves_every_generated_key() {
        let (ctx, kg, mut rng) = setup();
        let rlk = kg.relinearization_key(&mut rng);
        let keys = kg.galois_keys(&[1, 2], true, &mut rng).unwrap();
        let elements = keys.elements();
        let provider = ResidentKeyProvider::new(rlk, keys);
        assert!(provider.key(KeyRef::Relin).is_ok());
        for element in elements {
            assert!(provider.key(KeyRef::Galois(element)).is_ok());
        }
        let absent = fab_math::galois_element_for_rotation(ctx.degree(), 3);
        assert!(provider.key(KeyRef::Galois(absent)).is_err());
    }

    #[test]
    fn galois_keys_alone_answer_missing_key_for_relin() {
        // What a Galois-only pipeline is handed: the shared handle of every key it holds, and
        // `MissingKey` in the seam's one spelling for the relinearisation key.
        let (ctx, kg, mut rng) = setup();
        let keys = kg.galois_keys(&[1], false, &mut rng).unwrap();
        let held = KeyRef::Galois(fab_math::galois_element_for_rotation(ctx.degree(), 1));
        assert!(Arc::ptr_eq(
            &keys.key(held).unwrap(),
            &keys.key(held).unwrap()
        ));
        let absent = KeyRef::Galois(fab_math::galois_element_for_rotation(ctx.degree(), 2));
        for (key, text) in [
            (KeyRef::Relin, "relinearization key"),
            (absent, "galois element 25"),
        ] {
            assert!(
                matches!(keys.key(key), Err(CkksError::MissingKey { description }) if description == text)
            );
        }
    }

    #[test]
    fn switching_key_digit_encrypts_p_times_target_on_its_limbs() {
        // For each digit j and each of its limbs i: b_j + a_j*s - P*s' ≡ e (small) mod q_i.
        let (ctx, kg, mut rng) = setup();
        let rlk = kg.relinearization_key(&mut rng);
        let full = ctx.full_basis();
        let s = kg.secret_key().full_eval();
        let s_sq = s.mul(s, full).unwrap();
        let alpha = ctx.params().alpha();
        for j in 0..rlk.key.digit_count() {
            let (b, a) = rlk.key.component(j);
            // check = b + a*s (eval form, full basis)
            let mut check = b.add(&a.mul(s, full).unwrap(), full).unwrap();
            // subtract P*s'^ on the digit limbs
            let digit_start = j * alpha;
            let digit_end = ((j + 1) * alpha).min(ctx.q_basis().len());
            for i in digit_start..digit_end {
                let qi = ctx.q_basis().modulus(i);
                let mut p_mod = 1u64;
                for p in ctx.p_basis().values() {
                    p_mod = qi.mul(p_mod, qi.reduce(p));
                }
                let limb = check.limb_mut(i);
                for (c, &t) in limb.iter_mut().zip(s_sq.limb(i).iter()) {
                    *c = qi.sub(*c, qi.mul(p_mod, t));
                }
            }
            check.to_coefficient(full);
            // Every limb must now hold only the small error e_j.
            for i in 0..full.len() {
                let m = full.modulus(i);
                let max = check
                    .limb(i)
                    .iter()
                    .map(|&c| m.to_signed(c).abs())
                    .max()
                    .unwrap();
                assert!(max < 64, "digit {j} limb {i}: residual {max} too large");
            }
        }
    }
}
