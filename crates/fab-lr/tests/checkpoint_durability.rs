//! Simulated-disk crash sweep for training checkpoints: at **every** syscall boundary of
//! [`TrainingCheckpoint::save_to`] — the writer training itself checkpoints through — with
//! its atomic-rename + double-fsync discipline, and for multiple seeded power-loss surfaces
//! (torn writes, dropped page-cache units, reverted directory entries), the checkpoint name
//! must resolve to a *valid* checkpoint — the one being written or its predecessor — or be
//! cleanly absent. Never torn bytes.
//!
//! The second test drops the fsyncs and shows the simulated disk catching the resulting
//! power-loss window: an acknowledged checkpoint that loads as garbage. That window is
//! exactly what `save_to` closes.

use std::sync::Arc;

use rand::SeedableRng;
use rand_chacha::ChaCha20Rng;

use fab_ckks::{CkksContext, CkksError, CkksParams, Encoder, Encryptor, KeyGenerator, SecretKey};
use fab_lr::TrainingCheckpoint;
use fab_store::{SimDisk, StorageBackend};

const NAME: &str = "weights.ckpt";

fn fixture() -> (Arc<CkksContext>, TrainingCheckpoint, TrainingCheckpoint) {
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
    let mut rng = ChaCha20Rng::seed_from_u64(0xD15C);
    let sk = SecretKey::generate(&ctx, &mut rng);
    let pk = KeyGenerator::new(ctx.clone(), sk).public_key(&mut rng);
    let encoder = Encoder::new(ctx.clone());
    let encryptor = Encryptor::new(ctx.clone(), pk);
    let mut checkpoint = |iteration: usize, phase: f64| {
        let values: Vec<f64> = (0..ctx.slot_count())
            .map(|i| (i as f64 * phase).cos())
            .collect();
        let pt = encoder
            .encode_real(
                &values,
                ctx.params().default_scale(),
                ctx.params().max_level,
            )
            .unwrap();
        TrainingCheckpoint {
            iteration,
            weights: encryptor.encrypt(&pt, &mut rng).unwrap(),
        }
    };
    let first = checkpoint(1, 0.3);
    let second = checkpoint(2, 0.7);
    (ctx, first, second)
}

fn assert_matches_reference(
    got: &TrainingCheckpoint,
    first: &TrainingCheckpoint,
    second: &TrainingCheckpoint,
    label: &str,
) {
    let want = match got.iteration {
        1 => first,
        2 => second,
        other => panic!("{label}: recovered impossible iteration {other}"),
    };
    assert_eq!(got.weights.c0(), want.weights.c0(), "c0 diverged: {label}");
    assert_eq!(got.weights.c1(), want.weights.c1(), "c1 diverged: {label}");
}

#[test]
fn every_crash_during_save_leaves_the_old_or_the_new_checkpoint_never_a_torn_one() {
    let (ctx, first, second) = fixture();

    // Op window of one disciplined save, measured on a throwaway disk.
    let ops_per_save = {
        let mut disk = SimDisk::new();
        first.save_to(&mut disk, NAME, &ctx).unwrap();
        disk.op_count()
    };
    assert!(
        ops_per_save >= 6,
        "create + append + flush + sync + rename + sync_dir, got {ops_per_save}"
    );

    // Crash at every boundary while OVERWRITING a durable checkpoint: recovery must find
    // checkpoint 1 or checkpoint 2, bitwise-valid — the no-lost-checkpoint guarantee.
    for at in ops_per_save..2 * ops_per_save {
        let mut disk = SimDisk::new();
        first.save_to(&mut disk, NAME, &ctx).unwrap();
        disk.arm_crash(at);
        let err = second
            .save_to(&mut disk, NAME, &ctx)
            .expect_err("armed crash must fire");
        assert!(matches!(err, CkksError::Io { .. }), "{err:?}");
        for seed in [3u64, 11, 42] {
            let label = format!("overwrite crash at op {at}, seed {seed}");
            let (mut surface, _) = disk.crash_surface(seed);
            let got = TrainingCheckpoint::load_from(&mut surface, NAME, &ctx)
                .unwrap_or_else(|e| panic!("{label}: lost both checkpoints: {e}"));
            assert_matches_reference(&got, &first, &second, &label);
        }
    }

    // Crash at every boundary of the FIRST save: the name either resolves to the complete
    // checkpoint or is cleanly absent (typed I/O error) — never corruption.
    for at in 0..ops_per_save {
        let mut disk = SimDisk::new();
        disk.arm_crash(at);
        first
            .save_to(&mut disk, NAME, &ctx)
            .expect_err("armed crash must fire");
        for seed in [3u64, 11, 42] {
            let label = format!("first-save crash at op {at}, seed {seed}");
            let (mut surface, _) = disk.crash_surface(seed);
            match TrainingCheckpoint::load_from(&mut surface, NAME, &ctx) {
                Ok(got) => assert_matches_reference(&got, &first, &second, &label),
                Err(CkksError::Io { .. }) => {} // no checkpoint yet — a state, not a fault
                Err(e) => panic!("{label}: torn checkpoint surfaced: {e}"),
            }
        }
    }
}

#[test]
fn dropping_the_fsyncs_loses_an_acknowledged_checkpoint_on_some_power_loss_surface() {
    let (ctx, first, second) = fixture();

    // An undisciplined writer: same create/append/flush/rename shape as `save_to`, but no
    // file fsync before the rename and no directory fsync after it.
    let unsynced_save = |disk: &mut SimDisk, ckpt: &TrainingCheckpoint| {
        let tmp = format!("{NAME}.tmp");
        disk.create(&tmp).unwrap();
        disk.append(&tmp, &ckpt.to_bytes(&ctx)).unwrap();
        disk.flush(&tmp).unwrap();
        disk.rename(&tmp, NAME).unwrap();
    };

    let mut torn_or_lost = 0u32;
    for seed in 0..64u64 {
        // Disciplined first checkpoint, then an undisciplined overwrite that RETURNED
        // SUCCESS — and then the power fails.
        let mut disk = SimDisk::new();
        first.save_to(&mut disk, NAME, &ctx).unwrap();
        unsynced_save(&mut disk, &second);
        let (mut surface, _) = disk.crash_surface(seed);
        match TrainingCheckpoint::load_from(&mut surface, NAME, &ctx) {
            Ok(got) if got.iteration == 2 => {
                assert_matches_reference(&got, &first, &second, "lucky surface")
            }
            Ok(got) => assert_matches_reference(&got, &first, &second, "reverted name"),
            // The acknowledged overwrite surfaced as garbage (or took the name down with
            // it): the exact power-loss window the fsync discipline closes.
            Err(_) => torn_or_lost += 1,
        }

        // The disciplined writer under the identical power loss never tears.
        let mut disk = SimDisk::new();
        first.save_to(&mut disk, NAME, &ctx).unwrap();
        second.save_to(&mut disk, NAME, &ctx).unwrap();
        let (mut surface, _) = disk.crash_surface(seed);
        let got = TrainingCheckpoint::load_from(&mut surface, NAME, &ctx)
            .unwrap_or_else(|e| panic!("disciplined save lost data, seed {seed}: {e}"));
        assert_eq!(
            got.iteration, 2,
            "fully-synced overwrite survives, seed {seed}"
        );
        assert_matches_reference(&got, &first, &second, "disciplined");
    }
    assert!(
        torn_or_lost > 0,
        "the crash model must expose the missing-fsync window across 64 surfaces"
    );
}
