//! Plaintext and ciphertext containers, with validated `FABCTX`/`FABPTX` snapshots.
//!
//! Snapshots exist for durability, not transport: the serving layer's request journal and
//! fab-lr's training checkpoints persist ciphertexts across a process crash and must reject
//! anything a torn write or bit rot could have left behind. Both snapshot kinds ride the
//! shared [`wire`] codec (magic/version word, word-parallel [`wire::checksum`] that always
//! catches damage confined to one aligned 8-byte word, checked-math geometry) and
//! embed the opening context's [`wire::param_fingerprint`], so a blob written under one
//! parameter set fails typed ([`CkksError::CorruptSnapshot`]) under another instead of
//! decoding into garbage polynomials.

use fab_rns::{Representation, RnsPolynomial};

use crate::wire::{self, BlobReader, BlobSpec, BlobWriter};
use crate::{CkksContext, CkksError, CkksParams, Result};

/// Ciphertext snapshot identity: ASCII `FABCTX` in the top 48 bits; version 2 is the
/// [`wire::checksum`] format.
const CT_SPEC: BlobSpec = BlobSpec {
    magic: 0x4641_4243_5458_0000,
    version: 2,
    kind: "ciphertext snapshot",
};

/// Plaintext snapshot identity: ASCII `FABPTX` in the top 48 bits; version 2 is the
/// [`wire::checksum`] format.
const PT_SPEC: BlobSpec = BlobSpec {
    magic: 0x4641_4250_5458_0000,
    version: 2,
    kind: "plaintext snapshot",
};

/// Geometry words after the generic header: fingerprint, degree, limb count, level, scale
/// bits, domain tags.
const SNAPSHOT_GEOMETRY_WORDS: usize = 6;

fn corrupt(e: wire::WireError) -> CkksError {
    CkksError::CorruptSnapshot { reason: e.reason }
}

/// Exact size of [`Ciphertext::to_bytes`]'s output for a ciphertext at `level` under
/// `params`: the 16-byte wire header, six geometry words, then `2 · (level+1) · N` payload
/// words. Journal and checkpoint size budgeting is derived from this closed form.
pub fn ciphertext_snapshot_bytes(params: &CkksParams, level: usize) -> usize {
    wire::HEADER_BYTES + SNAPSHOT_GEOMETRY_WORDS * 8 + 2 * (level + 1) * params.degree() * 8
}

/// Shared validation for both snapshot kinds: reads the six geometry words, checks them
/// against the opening context, and returns `(limb_count, degree, scale, level, domains)`.
fn read_snapshot_geometry(
    reader: &mut BlobReader<'_>,
    ctx: &CkksContext,
    components: usize,
) -> Result<(usize, usize, f64, usize, u64)> {
    let fingerprint = reader.read_word().map_err(corrupt)?;
    let expected_fp = wire::param_fingerprint(ctx.params());
    if fingerprint != expected_fp {
        return Err(CkksError::CorruptSnapshot {
            reason: format!(
                "parameter fingerprint {fingerprint:#018x} does not match the \
                 opening context's {expected_fp:#018x}"
            ),
        });
    }
    let degree = reader.read_word().map_err(corrupt)? as usize;
    let limb_count = reader.read_word().map_err(corrupt)? as usize;
    let level = reader.read_word().map_err(corrupt)? as usize;
    let scale = reader.read_f64().map_err(corrupt)?;
    let domains = reader.read_word().map_err(corrupt)?;
    if degree != ctx.degree() {
        return Err(CkksError::CorruptSnapshot {
            reason: format!("degree {degree} but context degree {}", ctx.degree()),
        });
    }
    if level > ctx.params().max_level {
        return Err(CkksError::CorruptSnapshot {
            reason: format!("level {level} exceeds max level {}", ctx.params().max_level),
        });
    }
    if limb_count != level + 1 {
        return Err(CkksError::CorruptSnapshot {
            reason: format!("limb count {limb_count} inconsistent with level {level}"),
        });
    }
    if !scale.is_finite() || scale <= 0.0 {
        return Err(CkksError::CorruptSnapshot {
            reason: format!("scale {scale:e} is not a finite positive value"),
        });
    }
    if domains >> components != 0 {
        return Err(CkksError::CorruptSnapshot {
            reason: format!("domain tag word {domains:#x} has unknown bits set"),
        });
    }
    let poly_words =
        wire::checked_product(&[degree, limb_count]).ok_or_else(|| CkksError::CorruptSnapshot {
            reason: "snapshot header geometry overflows".into(),
        })?;
    reader
        .expect_payload_words(components * poly_words)
        .map_err(corrupt)?;
    Ok((limb_count, degree, scale, level, domains))
}

fn domain_bit(poly: &RnsPolynomial) -> u64 {
    match poly.representation() {
        Representation::Coefficient => 0,
        Representation::Evaluation => 1,
    }
}

fn domain_for(bit: u64) -> Representation {
    if bit == 0 {
        Representation::Coefficient
    } else {
        Representation::Evaluation
    }
}

/// An encoded (but not encrypted) CKKS message: a scaled integer polynomial over `Q_level`.
#[derive(Debug, Clone, PartialEq)]
pub struct Plaintext {
    pub(crate) poly: RnsPolynomial,
    /// The encoding scale `Δ` this plaintext was encoded at.
    pub scale: f64,
    /// The level (index of the last limb of `Q` present).
    pub level: usize,
}

impl Plaintext {
    /// Creates a plaintext from its parts. Intended for scheme-internal use and tests.
    pub fn from_parts(poly: RnsPolynomial, scale: f64, level: usize) -> Self {
        Self { poly, scale, level }
    }

    /// The underlying RNS polynomial.
    pub fn poly(&self) -> &RnsPolynomial {
        &self.poly
    }

    /// The encoding scale.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// The level of the plaintext.
    pub fn level(&self) -> usize {
        self.level
    }

    /// Number of limbs (`level + 1`).
    pub fn limb_count(&self) -> usize {
        self.poly.limb_count()
    }

    /// Serializes a versioned `FABPTX` snapshot of this plaintext: the shared wire header,
    /// the geometry words (parameter fingerprint, degree, limb count, level, scale bits,
    /// domain tag), then the polynomial's flat limb-major `u64` LE words.
    pub fn to_bytes(&self, ctx: &CkksContext) -> Vec<u8> {
        let mut out = BlobWriter::new(
            PT_SPEC,
            wire::HEADER_BYTES + SNAPSHOT_GEOMETRY_WORDS * 8 + self.poly.data().len() * 8,
        );
        out.push_word(wire::param_fingerprint(ctx.params()));
        out.push_word(self.poly.degree() as u64);
        out.push_word(self.poly.limb_count() as u64);
        out.push_word(self.level as u64);
        out.push_f64(self.scale);
        out.push_word(domain_bit(&self.poly));
        out.push_words(self.poly.data());
        out.finish()
    }

    /// Rebuilds a plaintext serialized by [`Self::to_bytes`] under the same context.
    ///
    /// # Errors
    ///
    /// Returns [`CkksError::CorruptSnapshot`] when the blob fails wire validation (magic,
    /// version, checksum, truncation) or its geometry is inconsistent with `ctx` (parameter
    /// fingerprint, degree, level/limb mismatch, non-finite scale, unknown domain tag).
    pub fn from_bytes(bytes: &[u8], ctx: &CkksContext) -> Result<Self> {
        let mut reader = BlobReader::open(PT_SPEC, bytes).map_err(corrupt)?;
        let (limb_count, degree, scale, level, domains) =
            read_snapshot_geometry(&mut reader, ctx, 1)?;
        let data = reader.read_words(degree * limb_count).map_err(corrupt)?;
        reader.finish().map_err(corrupt)?;
        let poly = RnsPolynomial::from_flat(degree, data, domain_for(domains & 1));
        Ok(Self { poly, scale, level })
    }
}

/// A CKKS ciphertext: two ring elements `(c_0, c_1)` over `Q_level` such that
/// `c_0 + c_1·s ≈ Δ·m`.
///
/// Both polynomials are kept in coefficient representation between operations; the evaluator
/// switches to evaluation (NTT) form internally where needed, mirroring the representation
/// switches in the FAB datapath.
#[derive(Debug, Clone, PartialEq)]
pub struct Ciphertext {
    pub(crate) c0: RnsPolynomial,
    pub(crate) c1: RnsPolynomial,
    /// The current scale `Δ` of the encrypted message.
    pub scale: f64,
    /// The current level (index of the last limb of `Q` present).
    pub level: usize,
}

impl Ciphertext {
    /// Creates a ciphertext from its parts. Intended for scheme-internal use and tests.
    pub fn from_parts(c0: RnsPolynomial, c1: RnsPolynomial, scale: f64, level: usize) -> Self {
        Self {
            c0,
            c1,
            scale,
            level,
        }
    }

    /// The `c_0` component.
    pub fn c0(&self) -> &RnsPolynomial {
        &self.c0
    }

    /// The `c_1` component.
    pub fn c1(&self) -> &RnsPolynomial {
        &self.c1
    }

    /// The current scale.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// The current level.
    pub fn level(&self) -> usize {
        self.level
    }

    /// Number of limbs (`level + 1`).
    pub fn limb_count(&self) -> usize {
        self.c0.limb_count()
    }

    /// Ring degree `N`.
    pub fn degree(&self) -> usize {
        self.c0.degree()
    }

    /// Size of this ciphertext in bytes when packed at the limb bit-width `log q`.
    pub fn packed_bytes(&self, limb_bits: u32) -> usize {
        2 * self.limb_count() * self.degree() * limb_bits as usize / 8
    }

    /// Serializes a versioned `FABCTX` snapshot of this ciphertext: the shared wire header,
    /// the geometry words (parameter fingerprint, degree, limb count, level, scale bits,
    /// domain tags for `c_0`/`c_1`), then `c_0`'s and `c_1`'s flat limb-major `u64` LE
    /// words. [`ciphertext_snapshot_bytes`] gives the exact output size.
    pub fn to_bytes(&self, ctx: &CkksContext) -> Vec<u8> {
        debug_assert_eq!(self.c0.limb_count(), self.c1.limb_count());
        let mut out = BlobWriter::new(CT_SPEC, ciphertext_snapshot_bytes(ctx.params(), self.level));
        out.push_word(wire::param_fingerprint(ctx.params()));
        out.push_word(self.c0.degree() as u64);
        out.push_word(self.c0.limb_count() as u64);
        out.push_word(self.level as u64);
        out.push_f64(self.scale);
        out.push_word(domain_bit(&self.c0) | (domain_bit(&self.c1) << 1));
        out.push_words(self.c0.data());
        out.push_words(self.c1.data());
        out.finish()
    }

    /// Rebuilds a ciphertext serialized by [`Self::to_bytes`] under the same context.
    ///
    /// # Errors
    ///
    /// Returns [`CkksError::CorruptSnapshot`] when the blob fails wire validation (magic,
    /// version, checksum, truncation) or its geometry is inconsistent with `ctx` (parameter
    /// fingerprint, degree, level/limb mismatch, non-finite scale, unknown domain tags).
    pub fn from_bytes(bytes: &[u8], ctx: &CkksContext) -> Result<Self> {
        let mut reader = BlobReader::open(CT_SPEC, bytes).map_err(corrupt)?;
        let (limb_count, degree, scale, level, domains) =
            read_snapshot_geometry(&mut reader, ctx, 2)?;
        let poly_words = degree * limb_count;
        let c0 = reader.read_words(poly_words).map_err(corrupt)?;
        let c1 = reader.read_words(poly_words).map_err(corrupt)?;
        reader.finish().map_err(corrupt)?;
        Ok(Self {
            c0: RnsPolynomial::from_flat(degree, c0, domain_for(domains & 1)),
            c1: RnsPolynomial::from_flat(degree, c1, domain_for((domains >> 1) & 1)),
            scale,
            level,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fab_rns::Representation;

    #[test]
    fn accessors_report_consistent_shape() {
        let poly = RnsPolynomial::zero(64, 3, Representation::Coefficient);
        let pt = Plaintext::from_parts(poly.clone(), 2f64.powi(40), 2);
        assert_eq!(pt.limb_count(), 3);
        assert_eq!(pt.level(), 2);
        assert_eq!(pt.scale(), 2f64.powi(40));

        let ct = Ciphertext::from_parts(poly.clone(), poly, 2f64.powi(40), 2);
        assert_eq!(ct.limb_count(), 3);
        assert_eq!(ct.degree(), 64);
        assert_eq!(ct.level(), 2);
        // 2 ring elements × 3 limbs × 64 coefficients × 40 bits / 8.
        assert_eq!(ct.packed_bytes(40), 2 * 3 * 64 * 5);
    }
}
