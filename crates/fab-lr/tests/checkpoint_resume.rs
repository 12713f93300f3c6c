//! The resumable-training gate: kill an encrypted training run at **every** iteration
//! boundary — and, on a simulated disk, *inside* a checkpoint write — resume a fresh
//! same-seed trainer from the durable checkpoint, and the resumed run's decrypted weights are
//! **bitwise identical** to the uninterrupted run's.
//!
//! Checkpoints go where training sends them in production: through
//! [`CheckpointPolicy`]'s [`StorageBackend`], over a real directory ([`FileBackend`]) for the
//! boundary kills and over a [`SimDisk`] for the kill that needs a power-loss surface.

use std::sync::{Arc, OnceLock};

use rand::SeedableRng;
use rand_chacha::ChaCha20Rng;

use fab_ckks::{CkksContext, CkksError, CkksParams, Encoder, Encryptor, KeyGenerator, SecretKey};
use fab_lr::{
    synthetic_mnist_like, CheckpointPolicy, Dataset, EncryptedLogisticRegression,
    TrainingCheckpoint,
};
use fab_store::{write_atomic, FileBackend, SimDisk, StorageBackend};
use fab_trace::noop_sink;

const FEATURES: usize = 4;
const SPARSE_SLOTS: usize = 8;
const BATCH: usize = 4;
const ITERATIONS: usize = 3;
const SEED: u64 = 11;
const NAME: &str = "weights.ckpt";

fn make_trainer() -> EncryptedLogisticRegression {
    let ctx = CkksContext::new_arc(CkksParams::bootstrap_testing()).expect("context");
    EncryptedLogisticRegression::with_bootstrapping(ctx, FEATURES, SPARSE_SLOTS, SEED, noop_sink())
        .expect("trainer")
}

fn dataset() -> Dataset {
    synthetic_mnist_like(16, FEATURES, 7)
}

fn bits(weights: &[f64]) -> Vec<u64> {
    weights.iter().map(|w| w.to_bits()).collect()
}

/// Weight bits of the uninterrupted (but checkpointing) run every kill is compared against.
/// Trained once; whichever test gets here second waits for the first.
fn reference_bits() -> &'static [u64] {
    static REFERENCE: OnceLock<Vec<u64>> = OnceLock::new();
    REFERENCE.get_or_init(|| {
        let mut disk = SimDisk::new();
        let policy = CheckpointPolicy {
            every_iterations: 1,
            backend: &mut disk,
            name: NAME,
        };
        let reference = make_trainer()
            .train_with_refresh_checkpointed(&dataset(), ITERATIONS, BATCH, 1.0, policy)
            .expect("reference run");
        assert_eq!(reference.iterations, ITERATIONS);
        bits(&reference.weights)
    })
}

#[test]
fn killing_training_at_every_iteration_boundary_resumes_bitwise_identical() {
    // Process-unique, so concurrent runs of this suite never share a directory.
    let dir = std::env::temp_dir().join(format!("fab-lr-checkpoint-resume-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let data = dataset();

    // Boundaries k = 1 .. ITERATIONS-1: a process killed right after checkpointing
    // iteration k (its in-memory state is lost, whether or not it got through the refresh)
    // is modelled by a run asked for only k iterations with a checkpoint at every boundary.
    // Each kill needs a fresh trainer (a fresh run draws the rng for its initial
    // encryption). k = 1 also resumes on a *fresh* same-seed trainer, proving the
    // cross-process case: keys regenerate deterministically from the seed alone. Every
    // resume opens the directory anew, as a restarted process would.
    for k in 1..ITERATIONS {
        let name = format!("kill-at-{k}.ckpt");
        let mut files = FileBackend::open(&dir).expect("checkpoint directory");
        let mut killed = make_trainer();
        killed
            .train_with_refresh_checkpointed(
                &data,
                k,
                BATCH,
                1.0,
                CheckpointPolicy {
                    every_iterations: 1,
                    backend: &mut files,
                    name: &name,
                },
            )
            .unwrap_or_else(|e| panic!("killed run to boundary {k}: {e}"));
        drop(files);
        let mut files = FileBackend::open(&dir).expect("checkpoint directory");
        let on_disk =
            TrainingCheckpoint::load_from(&mut files, &name, killed.context()).expect("valid");
        assert_eq!(on_disk.iteration, k);

        let mut resumer = if k == 1 { make_trainer() } else { killed };
        let mut resume_to = |iterations: usize| {
            let policy = CheckpointPolicy {
                every_iterations: 1,
                backend: &mut files,
                name: &name,
            };
            resumer.resume_with_refresh_checkpointed(&data, iterations, BATCH, 1.0, policy)
        };
        let resumed =
            resume_to(ITERATIONS).unwrap_or_else(|e| panic!("resume from boundary {k}: {e}"));
        assert_eq!(
            bits(&resumed.weights),
            reference_bits(),
            "resume from boundary {k} diverged from the uninterrupted run"
        );
        assert_eq!(resumed.iterations, ITERATIONS);

        // The resumed run kept checkpointing, so the file now sits at the final boundary
        // k = ITERATIONS: a run that finished and then "crashed". Resuming from it runs zero
        // iterations and decrypts the identical model. Reusing the trainer is safe, because
        // the resume path never touches the trainer's rng (the only draw is the initial
        // zero-weight encryption, which resume skips).
        let at_the_end = resume_to(ITERATIONS).expect("resume at the final boundary");
        assert_eq!(
            bits(&at_the_end.weights),
            reference_bits(),
            "final-boundary resume diverged"
        );

        // Asking a resumed run for fewer iterations than the checkpoint holds is a typed
        // refusal, not silent rewinding.
        let err = resume_to(k.saturating_sub(1)).expect_err("cannot rewind a checkpoint");
        assert!(matches!(err, CkksError::InvalidInput { .. }), "{err:?}");
        let final_ckpt =
            TrainingCheckpoint::load_from(&mut files, &name, resumer.context()).expect("valid");
        assert_eq!(final_ckpt.iteration, ITERATIONS);
    }

    std::fs::remove_dir_all(&dir).expect("checkpoint directory removed");
}

#[test]
fn a_training_run_killed_inside_a_checkpoint_write_resumes_from_the_previous_boundary() {
    // The kill site: the temp file of boundary 2's checkpoint is written and flushed but
    // not yet fsynced, so a power loss may drop it, tear it or keep it — and its rename has
    // not happened. Op indices are those of `write_atomic`, the writer training uses.
    let ops_per_save = {
        let mut probe = SimDisk::new();
        write_atomic(&mut probe, NAME, b"probe").expect("healthy disk");
        probe.op_count()
    };
    let before_the_fsync = ops_per_save + 3; // create, append, flush | sync, rename, sync_dir
    let data = dataset();

    let mut disk = SimDisk::new();
    disk.arm_crash(before_the_fsync);
    let mut killed = make_trainer();
    let err = killed
        .train_with_refresh_checkpointed(
            &data,
            ITERATIONS,
            BATCH,
            1.0,
            CheckpointPolicy {
                every_iterations: 1,
                backend: &mut disk,
                name: NAME,
            },
        )
        .expect_err("the disk dies inside the second checkpoint write");
    assert!(matches!(err, CkksError::Io { .. }), "{err:?}");
    assert!(disk.has_crashed());

    // Whatever the power loss did to the unsynced temp file, the checkpoint name still
    // resolves to boundary 1's checkpoint, bit for bit the same on every surface.
    let ctx = killed.context().clone();
    let mut tore_the_temp = false;
    let mut survivor: Option<(SimDisk, TrainingCheckpoint)> = None;
    for seed in 0..64u64 {
        let (mut surface, drawn) = disk.crash_surface(seed);
        tore_the_temp |= drawn.torn_units > 0;
        let previous = TrainingCheckpoint::load_from(&mut surface, NAME, &ctx)
            .unwrap_or_else(|e| panic!("seed {seed}: the previous checkpoint was lost: {e}"));
        assert_eq!(previous.iteration, 1, "seed {seed}");
        if let Some((_, first)) = &survivor {
            assert_eq!(previous.weights.c0(), first.weights.c0(), "seed {seed}");
            assert_eq!(previous.weights.c1(), first.weights.c1(), "seed {seed}");
        }
        survivor = Some((surface, previous));
    }
    assert!(tore_the_temp, "no surface tore the half-written checkpoint");

    // A fresh same-seed trainer (a new process) resumes from a surface and finishes the run.
    let (mut surface, _) = survivor.expect("sixty-four surfaces");
    let resumed = make_trainer()
        .resume_with_refresh_checkpointed(
            &data,
            ITERATIONS,
            BATCH,
            1.0,
            CheckpointPolicy {
                every_iterations: 1,
                backend: &mut surface,
                name: NAME,
            },
        )
        .expect("resume from the surviving checkpoint");
    assert_eq!(
        bits(&resumed.weights),
        reference_bits(),
        "resume after a mid-checkpoint kill diverged from the uninterrupted run"
    );
}

/// Cheap serialization-level fixture (no trainer, no bootstrap): a small context and an
/// encrypted weight vector to wrap in checkpoints.
fn small_checkpoint(iteration: usize) -> (Arc<CkksContext>, TrainingCheckpoint) {
    let params = CkksParams {
        log_n: 5,
        scale_bits: 40,
        first_prime_bits: 50,
        max_level: 2,
        dnum: 1,
        secret_hamming_weight: Some(16),
        ..CkksParams::testing()
    };
    let ctx = CkksContext::new_arc(params).expect("context");
    let mut rng = ChaCha20Rng::seed_from_u64(0xC4A5);
    let sk = SecretKey::generate(&ctx, &mut rng);
    let pk = KeyGenerator::new(ctx.clone(), sk).public_key(&mut rng);
    let values: Vec<f64> = (0..ctx.slot_count())
        .map(|i| (i as f64 * 0.19).sin())
        .collect();
    let pt = Encoder::new(ctx.clone())
        .encode_real(
            &values,
            ctx.params().default_scale(),
            ctx.params().max_level,
        )
        .expect("encode");
    let weights = Encryptor::new(ctx.clone(), pk)
        .encrypt(&pt, &mut rng)
        .expect("encrypt");
    (ctx, TrainingCheckpoint { iteration, weights })
}

#[test]
fn a_checkpoint_from_different_parameters_is_rejected_by_fingerprint() {
    let (ctx_a, checkpoint) = small_checkpoint(3);
    let bytes = checkpoint.to_bytes(&ctx_a);
    let other = CkksParams {
        log_n: 5,
        scale_bits: 39,
        first_prime_bits: 50,
        max_level: 2,
        dnum: 1,
        secret_hamming_weight: Some(16),
        ..CkksParams::testing()
    };
    let ctx_b = CkksContext::new_arc(other).expect("context");
    let err = TrainingCheckpoint::from_bytes(&bytes, &ctx_b).expect_err("fingerprint mismatch");
    assert!(matches!(err, CkksError::CorruptSnapshot { .. }), "{err:?}");
}
