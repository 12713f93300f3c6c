//! The shared validated-blob codec behind every serialized artifact in the workspace.
//!
//! Every blob kind — [`SwitchingKey`](crate::SwitchingKey) blobs, `FABCTX`/`FABPTX`
//! snapshots, `FABJNL` journal records, `FABLRC` training checkpoints — is a [`BlobSpec`]
//! over one audited code path: a fixed header carrying a magic/version word and a content
//! checksum, followed by geometry words validated with checked arithmetic before any
//! allocation.
//!
//! Layout shared by every blob:
//!
//! ```text
//! word 0   magic (top 48 bits) | format version (low 16 bits)
//! word 1   checksum (see `checksum`) over every byte after this word
//! word 2…  kind-specific geometry words, then the payload
//! ```
//!
//! All words are `u64` little-endian. The checksum covers the geometry words, so a bit flip
//! anywhere outside the magic word itself is detected before geometry is trusted; geometry
//! that passes the checksum is *still* validated by the caller (zero dimensions, checked-math
//! size recomputation) because a checksum authenticates accidental corruption, not intent.
//!
//! # The checksum (format version 2)
//!
//! Evaluation keys reach the compute through this codec on every cache miss, so the checksum
//! has to run at the rate memory delivers bytes. [`checksum`] reads the covered bytes as
//! little-endian `u64` words dealt round-robin onto four independent lanes; a lane absorbs a
//! word as `state = rotl((state ^ word) · odd constant)`, which for a fixed word is a
//! bijection of the state and for a fixed state a bijection of the word. The lanes, the
//! zero-padded 0–7 byte tail and the byte length are then folded with the same step and a
//! bijective finaliser. What that buys:
//!
//! * **Any change confined to one aligned 8-byte word** (so every single-bit flip, every
//!   torn or zeroed word) changes the checksum *with certainty*: the altered lane state can
//!   never re-converge, and the fold is injective in each lane.
//! * **Wider damage** (several words, truncation, extension, a zero-filled hole) goes
//!   undetected with probability about 2⁻⁶⁴.
//! * **Nothing against an adversary**: every step is invertible, so collisions can be
//!   constructed at will. The threat model is bit rot and torn writes.
//!
//! The checksum defines the format: version 1 of every blob kind kept a byte-at-a-time
//! hash in the same header slot, so all kinds moved to version 2 together and a version-1 blob is
//! refused by its version word ([`WireErrorKind::UnsupportedVersion`]) before any hashing.
//!
//! [`BlobWriter`]/[`BlobReader`] fail with [`WireError`]; callers map that onto their own
//! typed rejection ([`CkksError::CorruptKey`](crate::CkksError::CorruptKey),
//! [`CkksError::CorruptSnapshot`](crate::CkksError::CorruptSnapshot), fab-serve's
//! `CorruptJournal`) so the failure domain stays visible in the type.

use std::fmt;

use crate::CkksParams;

/// Bytes of the generic blob header: the magic/version word plus the checksum word.
pub const HEADER_BYTES: usize = 16;

/// Identity of one blob kind: its magic constant (top 48 bits set, low 16 zero), the current
/// format version (carried in the low 16 bits of word 0), and a human-readable kind name used
/// in error messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlobSpec {
    /// Format tag occupying the top 48 bits of header word 0 (low 16 bits must be zero).
    pub magic: u64,
    /// Format version carried in the low 16 bits of header word 0.
    pub version: u64,
    /// Kind name for error messages ("switching key", "ciphertext snapshot", …).
    pub kind: &'static str,
}

/// What a [`WireError`] means for the bytes it was raised on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireErrorKind {
    /// The bytes are not a valid blob of this kind: wrong magic, checksum mismatch,
    /// truncation, malformed fields. Damage, or not this kind of blob at all.
    Corrupt,
    /// The magic word matches the kind but the format version is not the one this build
    /// reads. The blob was written by another build, not damaged: a configuration error
    /// that recovery must surface rather than treat as a torn tail.
    UnsupportedVersion,
}

/// A blob-level validation failure, before the caller maps it onto its typed error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// Damage versus a well-formed blob of another format version.
    pub kind: WireErrorKind,
    /// Human-readable reason.
    pub reason: String,
}

impl WireError {
    /// A [`WireErrorKind::Corrupt`] failure.
    pub fn corrupt(reason: impl Into<String>) -> Self {
        Self {
            kind: WireErrorKind::Corrupt,
            reason: reason.into(),
        }
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.reason)
    }
}

impl std::error::Error for WireError {}

/// Independent lanes of [`checksum`]: enough that the multiply latency of one lane's
/// dependency chain is hidden behind the other lanes' steps.
const LANES: usize = 4;

/// Per-lane odd multipliers (odd, so multiplication is a bijection modulo 2⁶⁴).
const LANE_MUL: [u64; LANES] = [
    0x9E37_79B1_85EB_CA87,
    0xC2B2_AE3D_27D4_EB4F,
    0x1656_67B1_9E37_79F9,
    0x27D4_EB2F_1656_67C5,
];

/// Per-lane initial states: non-zero and distinct, so runs of zero words still move every
/// lane and lanes cannot be swapped for one another.
const LANE_SEED: [u64; LANES] = [
    0x243F_6A88_85A3_08D3,
    0x1319_8A2E_0370_7344,
    0xA409_3822_299F_31D0,
    0x082E_FA98_EC4E_6C89,
];

/// One absorb step: a bijection of `state` for a fixed `word` and of `word` for a fixed
/// `state`. The rotation carries the multiply's high bits back down, so a word's low bits
/// come to depend on every earlier word of its lane.
fn absorb(state: u64, word: u64, mul: u64) -> u64 {
    (state ^ word).wrapping_mul(mul).rotate_left(29)
}

fn le_word(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes.try_into().expect("8 bytes"))
}

/// The content checksum stored in header word 1 — see the [module docs](self) for the
/// construction and for what it does and does not guarantee. One function for every input
/// size, in safe target-independent Rust (the bytes are read as little-endian words, so the
/// value is the same on every host).
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut lanes = LANE_SEED;
    let mut blocks = bytes.chunks_exact(8 * LANES);
    for block in &mut blocks {
        for ((lane, word), mul) in lanes.iter_mut().zip(block.chunks_exact(8)).zip(LANE_MUL) {
            *lane = absorb(*lane, le_word(word), mul);
        }
    }
    // The last partial block: its whole words continue lanes 0, 1, 2 in order, and the
    // final 0–7 bytes are zero-padded into one more word (the length disambiguates the
    // padding).
    let mut words = blocks.remainder().chunks_exact(8);
    for ((lane, word), mul) in lanes.iter_mut().zip(&mut words).zip(LANE_MUL) {
        *lane = absorb(*lane, le_word(word), mul);
    }
    let mut tail = [0u8; 8];
    tail[..words.remainder().len()].copy_from_slice(words.remainder());

    let mut hash = bytes.len() as u64;
    for (lane, mul) in lanes.into_iter().zip(LANE_MUL) {
        hash = absorb(hash, lane, mul);
    }
    hash = absorb(hash, u64::from_le_bytes(tail), LANE_MUL[0]);
    // Bijective avalanche, so a difference confined to the last-folded word still reaches
    // the low bits.
    hash ^= hash >> 32;
    hash = hash.wrapping_mul(LANE_MUL[1]);
    hash ^ (hash >> 29)
}

/// A 64-bit fingerprint of every parameter that affects ciphertext geometry or semantics.
/// Snapshots and journal records embed it so a blob written under one parameter set is
/// rejected (typed, not garbage) when opened under another.
pub fn param_fingerprint(params: &CkksParams) -> u64 {
    let mut bytes = Vec::with_capacity(9 * 8);
    for word in [
        params.log_n as u64,
        params.scale_bits as u64,
        params.first_prime_bits as u64,
        params.max_level as u64,
        params.dnum as u64,
        params.fft_iter as u64,
        params.error_std.to_bits(),
        // Distinguish None from Some(0) without a separate tag word.
        params.secret_hamming_weight.map_or(0, |h| h as u64 + 1),
        params.security_bits as u64,
    ] {
        bytes.extend_from_slice(&word.to_le_bytes());
    }
    checksum(&bytes)
}

/// Checked product of geometry factors; `None` on overflow. Callers treat `None` as
/// corruption — a header whose implied size overflows `usize` cannot describe a real blob.
pub fn checked_product(factors: &[usize]) -> Option<usize> {
    factors
        .iter()
        .try_fold(1usize, |acc, &f| acc.checked_mul(f))
}

/// Serializes one blob: writes the header, accumulates geometry words and payload, and
/// patches the checksum on [`BlobWriter::finish`].
#[derive(Debug)]
pub struct BlobWriter {
    bytes: Vec<u8>,
}

impl BlobWriter {
    /// Starts a blob of the given kind. `capacity` is a byte-size hint for the allocation.
    pub fn new(spec: BlobSpec, capacity: usize) -> Self {
        debug_assert_eq!(spec.magic & 0xFFFF, 0, "magic must leave the version bits");
        debug_assert!(spec.version <= 0xFFFF, "version must fit in 16 bits");
        let mut bytes = Vec::with_capacity(capacity.max(HEADER_BYTES));
        bytes.extend_from_slice(&(spec.magic | spec.version).to_le_bytes());
        bytes.extend_from_slice(&0u64.to_le_bytes()); // checksum placeholder
        Self { bytes }
    }

    /// Appends one `u64` LE word (geometry or payload).
    pub fn push_word(&mut self, word: u64) {
        self.bytes.extend_from_slice(&word.to_le_bytes());
    }

    /// Appends an `f64` as its LE bit pattern (bit-exact round trip, no float parsing).
    pub fn push_f64(&mut self, value: f64) {
        self.push_word(value.to_bits());
    }

    /// Appends a slice of `u64` LE words in one bulk extend; on a little-endian host this
    /// compiles to a copy into the buffer [`Self::new`] reserved.
    pub fn push_words(&mut self, words: &[u64]) {
        self.bytes
            .extend(words.iter().flat_map(|word| word.to_le_bytes()));
    }

    /// Appends raw bytes verbatim (no length prefix).
    pub fn push_bytes(&mut self, bytes: &[u8]) {
        self.bytes.extend_from_slice(bytes);
    }

    /// Appends a nested blob: a `u64` LE byte-length word followed by the bytes.
    pub fn push_blob(&mut self, blob: &[u8]) {
        self.push_word(blob.len() as u64);
        self.push_bytes(blob);
    }

    /// Bytes written so far (header included).
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Whether nothing beyond the header has been written.
    pub fn is_empty(&self) -> bool {
        self.bytes.len() == HEADER_BYTES
    }

    /// Patches the checksum over everything after the checksum word and returns the blob.
    pub fn finish(mut self) -> Vec<u8> {
        let sum = checksum(&self.bytes[HEADER_BYTES..]);
        self.bytes[8..16].copy_from_slice(&sum.to_le_bytes());
        self.bytes
    }
}

/// Validates and sequentially decodes one blob written by [`BlobWriter`].
#[derive(Debug)]
pub struct BlobReader<'a> {
    spec: BlobSpec,
    bytes: &'a [u8],
    cursor: usize,
}

impl<'a> BlobReader<'a> {
    /// Opens a blob: checks the header length, magic, version and content checksum before
    /// any field is readable.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] when the blob is shorter than the header, the magic or version
    /// word is wrong, or the checksum does not match (bit flips anywhere past word 0).
    pub fn open(spec: BlobSpec, bytes: &'a [u8]) -> Result<Self, WireError> {
        let kind = spec.kind;
        if bytes.len() < HEADER_BYTES {
            return Err(WireError::corrupt(format!(
                "{kind} blob of {} bytes is shorter than the {HEADER_BYTES}-byte header",
                bytes.len()
            )));
        }
        let tag = le_word(&bytes[0..8]);
        if tag & !0xFFFF != spec.magic {
            return Err(WireError::corrupt(format!(
                "bad magic word {tag:#018x} for {kind} blob"
            )));
        }
        let version = tag & 0xFFFF;
        if version != spec.version {
            return Err(WireError {
                kind: WireErrorKind::UnsupportedVersion,
                reason: format!(
                    "unsupported {kind} format version {version} (expected {})",
                    spec.version
                ),
            });
        }
        let stored = le_word(&bytes[8..16]);
        let computed = checksum(&bytes[HEADER_BYTES..]);
        if computed != stored {
            return Err(WireError::corrupt(format!(
                "{kind} checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
            )));
        }
        Ok(Self {
            spec,
            bytes,
            cursor: HEADER_BYTES,
        })
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.cursor
    }

    /// Reads one `u64` LE word.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] when fewer than 8 bytes remain.
    pub fn read_word(&mut self) -> Result<u64, WireError> {
        self.read_bytes(8).map(le_word)
    }

    /// Reads one `f64` stored as its LE bit pattern.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] when fewer than 8 bytes remain.
    pub fn read_f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.read_word()?))
    }

    /// Reads `count` `u64` LE words.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] when fewer than `count * 8` bytes remain.
    pub fn read_words(&mut self, count: usize) -> Result<Vec<u64>, WireError> {
        let byte_len = count.checked_mul(8).ok_or_else(|| self.truncated(count))?;
        let bytes = self.read_bytes(byte_len)?;
        Ok(bytes.chunks_exact(8).map(le_word).collect())
    }

    /// Reads `count` raw bytes.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] when fewer than `count` bytes remain.
    pub fn read_bytes(&mut self, count: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < count {
            return Err(WireError::corrupt(format!(
                "truncated {} blob: wanted {count} more bytes, {} remain",
                self.spec.kind,
                self.remaining()
            )));
        }
        let slice = &self.bytes[self.cursor..self.cursor + count];
        self.cursor += count;
        Ok(slice)
    }

    /// Reads a nested blob written by [`BlobWriter::push_blob`].
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] when the length word is missing or overruns the blob.
    pub fn read_blob(&mut self) -> Result<&'a [u8], WireError> {
        let len = self.read_word()?;
        let len = usize::try_from(len).map_err(|_| {
            WireError::corrupt(format!(
                "nested blob length {len} in {} blob overflows usize",
                self.spec.kind
            ))
        })?;
        self.read_bytes(len)
    }

    /// Asserts the remaining payload is exactly `words` `u64` words — the checked-math size
    /// validation every geometry header must pass before its payload is trusted.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] when `words * 8` overflows or the remaining length differs
    /// ("truncated"/"oversized", matching the key codec's historical wording).
    pub fn expect_payload_words(&self, words: usize) -> Result<(), WireError> {
        let expected = words.checked_mul(8).ok_or_else(|| {
            WireError::corrupt(format!("{} header geometry overflows", self.spec.kind))
        })?;
        if self.remaining() != expected {
            let kind = if self.remaining() < expected {
                "truncated"
            } else {
                "oversized"
            };
            return Err(WireError::corrupt(format!(
                "{kind} {} blob: {} payload bytes, header implies {expected}",
                self.spec.kind,
                self.remaining()
            )));
        }
        Ok(())
    }

    /// Asserts every byte has been consumed (no trailing garbage).
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] when unconsumed bytes remain.
    pub fn finish(self) -> Result<(), WireError> {
        if self.remaining() != 0 {
            return Err(WireError::corrupt(format!(
                "oversized {} blob: {} trailing bytes",
                self.spec.kind,
                self.remaining()
            )));
        }
        Ok(())
    }

    fn truncated(&self, words: usize) -> WireError {
        WireError::corrupt(format!(
            "truncated {} blob: wanted {words} more words",
            self.spec.kind
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: BlobSpec = BlobSpec {
        magic: 0x5445_5354_4242_0000,
        version: 3,
        kind: "test",
    };

    fn sample() -> Vec<u8> {
        let mut w = BlobWriter::new(SPEC, 64);
        assert!(w.is_empty());
        w.push_word(7);
        w.push_f64(2.5);
        w.push_words(&[1, 2, 3]);
        w.push_blob(&[0xAA, 0xBB]);
        assert!(!w.is_empty());
        w.finish()
    }

    #[test]
    fn round_trips_every_field_kind() {
        let blob = sample();
        let mut r = BlobReader::open(SPEC, &blob).unwrap();
        assert_eq!(r.read_word().unwrap(), 7);
        assert_eq!(r.read_f64().unwrap(), 2.5);
        assert_eq!(r.read_words(3).unwrap(), vec![1, 2, 3]);
        assert_eq!(r.read_blob().unwrap(), &[0xAA, 0xBB]);
        assert_eq!(r.remaining(), 0);
        r.finish().unwrap();
    }

    #[test]
    fn header_validation_rejects_each_failure_mode() {
        let blob = sample();
        // Shorter than the header.
        assert!(BlobReader::open(SPEC, &blob[..8]).is_err());
        // Wrong magic.
        let mut bad = blob.clone();
        bad[7] ^= 0x01;
        assert!(BlobReader::open(SPEC, &bad).is_err());
        // Wrong version: the one failure that is not damage, and says so in its kind.
        let mut bad = blob.clone();
        bad[0] = bad[0].wrapping_add(1);
        let err = BlobReader::open(SPEC, &bad).unwrap_err();
        assert_eq!(err.kind, WireErrorKind::UnsupportedVersion);
        assert_eq!(
            BlobReader::open(SPEC, &blob[..8]).unwrap_err().kind,
            WireErrorKind::Corrupt
        );
        // Any payload bit flip trips the checksum.
        for i in HEADER_BYTES..blob.len() {
            let mut bad = blob.clone();
            bad[i] ^= 0x80;
            assert!(BlobReader::open(SPEC, &bad).is_err(), "byte {i}");
        }
        // A checksum-word flip mismatches too.
        let mut bad = blob.clone();
        bad[12] ^= 0x10;
        assert!(BlobReader::open(SPEC, &bad).is_err());
    }

    #[test]
    fn payload_size_and_trailing_bytes_are_enforced() {
        let mut w = BlobWriter::new(SPEC, 0);
        w.push_words(&[1, 2]);
        let blob = w.finish();
        let r = BlobReader::open(SPEC, &blob).unwrap();
        r.expect_payload_words(2).unwrap();
        assert!(r.expect_payload_words(3).is_err());
        assert!(r.expect_payload_words(1).is_err());
        assert!(r.expect_payload_words(usize::MAX).is_err(), "overflow");
        assert!(r.finish().is_err(), "unconsumed bytes");

        let mut r = BlobReader::open(SPEC, &blob).unwrap();
        assert!(r.read_words(3).is_err(), "reads past the end fail typed");
        assert!(r.read_bytes(17).is_err());
        let mut r = BlobReader::open(SPEC, &blob).unwrap();
        let _ = r.read_word();
        assert!(r.read_blob().is_err(), "length word overruns the payload");
    }

    #[test]
    fn checked_product_flags_overflow() {
        assert_eq!(checked_product(&[3, 4, 5]), Some(60));
        assert_eq!(checked_product(&[]), Some(1));
        assert_eq!(checked_product(&[usize::MAX, 2]), None);
    }

    #[test]
    fn param_fingerprint_distinguishes_parameter_sets() {
        let a = CkksParams::testing();
        let mut b = a.clone();
        b.max_level += 1;
        let mut c = a.clone();
        c.secret_hamming_weight = c.secret_hamming_weight.map(|h| h + 2);
        assert_eq!(param_fingerprint(&a), param_fingerprint(&a));
        assert_ne!(param_fingerprint(&a), param_fingerprint(&b));
        assert_ne!(param_fingerprint(&a), param_fingerprint(&c));
    }
}
