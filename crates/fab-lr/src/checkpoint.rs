//! Durable training checkpoints: the encrypted weight state of a training run, serialized
//! through the shared `fab_ckks::wire` codec and written atomically so a crash can never
//! leave a half-written checkpoint where a valid one used to be.
//!
//! The blob is `FABLRC` (version 2, the `wire::checksum` format): one word for the iteration
//! boundary the checkpoint represents, then the weight ciphertext as a length-prefixed
//! validated snapshot ([`fab_ckks::Ciphertext::to_bytes`]). The embedded snapshot carries
//! the parameter fingerprint, so a checkpoint from a different parameter set is rejected
//! typed, not resumed into garbage.
//!
//! # Atomicity and durability
//!
//! A checkpoint becomes durable one way: [`TrainingCheckpoint::save_to`], which hands the
//! blob to [`fab_store::write_atomic`] over a [`fab_store::StorageBackend`] — write a
//! temporary sibling (`<name>.tmp`), **fsync it**, rename it over `name`, **fsync the
//! directory**. The rename alone gives process-crash atomicity; the two fsyncs are what make
//! it survive power loss — without the file sync, the rename can reach disk before the data
//! and a power loss surfaces the new name pointing at torn or zero bytes, and without the
//! directory sync the rename itself can evaporate. A crash before the rename leaves the
//! previous checkpoint intact and at worst a torn `.tmp` that the loader never reads; a
//! crash after leaves the new checkpoint complete. There is no interleaving that loses both.
//!
//! Training ([`crate::CheckpointPolicy`]) writes through `save_to` and resumes through
//! [`TrainingCheckpoint::load_from`], nothing else — a real directory is a
//! [`fab_store::FileBackend`] — so the simulated-disk sweeps exercise the code that runs: `tests/checkpoint_durability.rs` kills `save_to` at
//! every syscall boundary and draws seeded power-loss surfaces, and
//! `tests/checkpoint_resume.rs` does the same to a real training run mid-checkpoint.

use std::sync::Arc;

use fab_ckks::wire::{self, BlobReader, BlobSpec, BlobWriter};
use fab_ckks::{Ciphertext, CkksContext, CkksError};
use fab_store::{write_atomic, StorageBackend, StorageError};

/// `FABLRC` in the magic word's top 48 bits; version 2 in the low 16.
const CHECKPOINT_SPEC: BlobSpec = BlobSpec {
    magic: 0x4641_424C_5243_0000,
    version: 2,
    kind: "training checkpoint",
};

fn corrupt(e: wire::WireError) -> CkksError {
    CkksError::CorruptSnapshot { reason: e.reason }
}

/// The resumable state of an encrypted training run at an iteration boundary: `iteration`
/// mini-batch iterations are complete and `weights` is the post-update (pre-refresh) weight
/// ciphertext. Everything else a resumed run needs — keys, batch order, learning rate — is
/// reproduced deterministically from the trainer's seed and the dataset.
#[derive(Debug, Clone)]
pub struct TrainingCheckpoint {
    /// Completed iterations (the next iteration to run is this one, 0-based).
    pub iteration: usize,
    /// The encrypted weight vector as of that boundary, before any inter-iteration refresh.
    pub weights: Ciphertext,
}

impl TrainingCheckpoint {
    /// Serializes the checkpoint as a validated `FABLRC` blob.
    pub fn to_bytes(&self, ctx: &CkksContext) -> Vec<u8> {
        let snapshot = self.weights.to_bytes(ctx);
        let mut writer = BlobWriter::new(CHECKPOINT_SPEC, 2 * 8 + snapshot.len());
        writer.push_word(self.iteration as u64);
        writer.push_blob(&snapshot);
        writer.finish()
    }

    /// Deserializes and validates a checkpoint blob.
    ///
    /// # Errors
    ///
    /// [`CkksError::CorruptSnapshot`] on any validation failure: bad magic/version,
    /// checksum mismatch, truncation, or an embedded weight snapshot that fails its own
    /// validation (including a parameter-fingerprint mismatch against `ctx`).
    pub fn from_bytes(bytes: &[u8], ctx: &CkksContext) -> Result<Self, CkksError> {
        let mut reader = BlobReader::open(CHECKPOINT_SPEC, bytes).map_err(corrupt)?;
        let iteration = reader.read_word().map_err(corrupt)?;
        let iteration = usize::try_from(iteration).map_err(|_| CkksError::CorruptSnapshot {
            reason: format!("iteration count {iteration} overflows this platform"),
        })?;
        let snapshot = reader.read_blob().map_err(corrupt)?;
        let weights = Ciphertext::from_bytes(snapshot, ctx)?;
        reader.finish().map_err(corrupt)?;
        Ok(Self { iteration, weights })
    }

    /// Writes the checkpoint to `name` on a storage backend atomically *and durably*:
    /// serialize, then [`write_atomic`] (temp sibling, fsync, rename, directory fsync — see
    /// the module docs).
    ///
    /// # Errors
    ///
    /// [`CkksError::Io`] on any storage failure (including a simulated crash); `name` then
    /// still holds its previous contents, or already the new ones, never torn bytes.
    pub fn save_to(
        &self,
        backend: &mut dyn StorageBackend,
        name: &str,
        ctx: &CkksContext,
    ) -> Result<(), CkksError> {
        write_atomic(backend, name, &self.to_bytes(ctx)).map_err(storage_io)
    }

    /// Reads and validates a checkpoint through a storage backend.
    ///
    /// # Errors
    ///
    /// [`CkksError::Io`] when the backend cannot produce the bytes (missing file, storage
    /// fault, simulated crash); [`CkksError::CorruptSnapshot`] when they fail validation.
    pub fn load_from(
        backend: &mut dyn StorageBackend,
        name: &str,
        ctx: &Arc<CkksContext>,
    ) -> Result<Self, CkksError> {
        let bytes = backend.read(name).map_err(storage_io)?;
        Self::from_bytes(&bytes, ctx)
    }
}

fn storage_io(e: StorageError) -> CkksError {
    let operation = match &e {
        StorageError::Io { op, .. } | StorageError::Crashed { op, .. } => op,
        StorageError::NotFound { .. } => "read",
    };
    CkksError::Io {
        operation,
        reason: e.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fab_ckks::{CkksParams, Encoder, Encryptor, KeyGenerator, SecretKey};
    use rand::SeedableRng;
    use rand_chacha::ChaCha20Rng;

    fn fixture() -> (Arc<CkksContext>, TrainingCheckpoint) {
        let params = CkksParams::builder()
            .log_n(5)
            .scale_bits(40)
            .first_prime_bits(50)
            .max_level(2)
            .dnum(1)
            .secret_hamming_weight(Some(16))
            .build()
            .unwrap();
        let ctx = CkksContext::new_arc(params).unwrap();
        let mut rng = ChaCha20Rng::seed_from_u64(0x10AD);
        let sk = SecretKey::generate(&ctx, &mut rng);
        let pk = KeyGenerator::new(ctx.clone(), sk).public_key(&mut rng);
        let values: Vec<f64> = (0..ctx.slot_count())
            .map(|i| (i as f64 * 0.3).cos())
            .collect();
        let pt = Encoder::new(ctx.clone())
            .encode_real(
                &values,
                ctx.params().default_scale(),
                ctx.params().max_level,
            )
            .unwrap();
        let weights = Encryptor::new(ctx.clone(), pk)
            .encrypt(&pt, &mut rng)
            .unwrap();
        (
            ctx,
            TrainingCheckpoint {
                iteration: 7,
                weights,
            },
        )
    }

    #[test]
    fn round_trips_bitwise() {
        let (ctx, checkpoint) = fixture();
        let bytes = checkpoint.to_bytes(&ctx);
        let restored = TrainingCheckpoint::from_bytes(&bytes, &ctx).unwrap();
        assert_eq!(restored.iteration, 7);
        assert_eq!(restored.weights.c0(), checkpoint.weights.c0());
        assert_eq!(restored.weights.c1(), checkpoint.weights.c1());
        assert_eq!(bytes, restored.to_bytes(&ctx), "re-serialization is stable");
    }

    #[test]
    fn every_single_bit_flip_is_rejected_typed() {
        let (ctx, checkpoint) = fixture();
        let bytes = checkpoint.to_bytes(&ctx);
        // Exhaustive over the header and checkpoint geometry; sampled over the big payload.
        let positions = (0..32).chain((32..bytes.len()).step_by(97));
        for byte in positions {
            for bit in [0, 7] {
                let mut mutated = bytes.clone();
                mutated[byte] ^= 1 << bit;
                match TrainingCheckpoint::from_bytes(&mutated, &ctx) {
                    Err(CkksError::CorruptSnapshot { .. }) => {}
                    other => panic!("flip at byte {byte} bit {bit}: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn truncation_and_growth_are_rejected_typed() {
        let (ctx, checkpoint) = fixture();
        let bytes = checkpoint.to_bytes(&ctx);
        for cut in [0, 1, 15, 16, 24, bytes.len() - 1] {
            assert!(matches!(
                TrainingCheckpoint::from_bytes(&bytes[..cut], &ctx),
                Err(CkksError::CorruptSnapshot { .. })
            ));
        }
        let mut grown = bytes.clone();
        grown.push(0);
        assert!(matches!(
            TrainingCheckpoint::from_bytes(&grown, &ctx),
            Err(CkksError::CorruptSnapshot { .. })
        ));
    }

    #[test]
    fn a_missing_file_is_a_typed_io_error_not_corruption() {
        let (ctx, _) = fixture();
        let mut disk = fab_store::SimDisk::new();
        let err = TrainingCheckpoint::load_from(&mut disk, "absent.ckpt", &ctx)
            .expect_err("missing backend file");
        assert!(matches!(err, CkksError::Io { .. }), "{err:?}");
    }

    #[test]
    fn backend_save_and_load_round_trip() {
        let (ctx, checkpoint) = fixture();
        let mut disk = fab_store::SimDisk::new();
        checkpoint.save_to(&mut disk, "weights.ckpt", &ctx).unwrap();
        let restored = TrainingCheckpoint::load_from(&mut disk, "weights.ckpt", &ctx).unwrap();
        assert_eq!(restored.iteration, checkpoint.iteration);
        assert_eq!(restored.weights.c0(), checkpoint.weights.c0());
        assert!(!disk.exists("weights.ckpt.tmp"), "tmp renamed away");
    }

    #[test]
    fn save_to_a_real_directory_replaces_and_load_from_round_trips() {
        let (ctx, checkpoint) = fixture();
        // Process-unique, so concurrent runs of this suite never share a directory.
        let dir =
            std::env::temp_dir().join(format!("fab-lr-checkpoint-unit-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let mut files = fab_store::FileBackend::open(&dir).unwrap();
        let err = TrainingCheckpoint::load_from(&mut files, "weights.ckpt", &ctx)
            .expect_err("no checkpoint yet");
        assert!(matches!(err, CkksError::Io { .. }), "{err:?}");
        checkpoint
            .save_to(&mut files, "weights.ckpt", &ctx)
            .unwrap();
        let mut second = checkpoint.clone();
        second.iteration = 8;
        second.save_to(&mut files, "weights.ckpt", &ctx).unwrap();
        // A fresh backend (a new process) reads what the first one made durable.
        let mut reopened = fab_store::FileBackend::open(&dir).unwrap();
        let restored = TrainingCheckpoint::load_from(&mut reopened, "weights.ckpt", &ctx).unwrap();
        assert_eq!(restored.iteration, 8);
        assert_eq!(restored.weights.c0(), checkpoint.weights.c0());
        assert!(!reopened.exists("weights.ckpt.tmp"), "tmp renamed away");
        std::fs::remove_dir_all(&dir).expect("checkpoint directory removed");
    }
}
