//! Bootstrapping end to end: run the real software bootstrapping pipeline (ModRaise →
//! CoeffToSlot → EvalMod → SlotToCoeff) at a reduced parameter set, measure its precision, and
//! print the accelerator model's view of fully-packed bootstrapping at the paper's parameters
//! (the Table 7 amortized metric).
//!
//! Run with: `cargo run --release --example bootstrap_pipeline`

use fab::ckks::bootstrap::BootstrapParams;
use fab::prelude::*;
use fab_core::workload::bootstrap_cost;
use rand::SeedableRng;
use rand_chacha::ChaCha20Rng;
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- software bootstrapping at N = 2^10 -------------------------------------------------
    let ctx = CkksContext::new_arc(CkksParams::bootstrap_testing())?;
    let mut rng = ChaCha20Rng::seed_from_u64(7);
    let sk = SecretKey::generate(&ctx, &mut rng);
    let keygen = KeyGenerator::new(ctx.clone(), sk.clone());
    let encoder = Encoder::new(ctx.clone());
    let encryptor = Encryptor::new(ctx.clone(), keygen.public_key(&mut rng));
    let decryptor = Decryptor::new(ctx.clone(), sk);
    let rlk = keygen.relinearization_key(&mut rng);

    let bootstrapper = Bootstrapper::new(
        ctx.clone(),
        BootstrapParams {
            eval_mod_degree: 159,
            k_range: 16.0,
            fft_iter: 3,
            sparse_slots: None,
        },
    )?;
    println!(
        "bootstrapper: {} CoeffToSlot + {} SlotToCoeff stages, {} rotation keys needed",
        bootstrapper.stage_counts().0,
        bootstrapper.stage_counts().1,
        bootstrapper.required_rotations().len()
    );
    let gks = keygen.galois_keys(&bootstrapper.required_rotations(), true, &mut rng)?;

    let scale = ctx.params().default_scale();
    let values: Vec<f64> = (0..ctx.slot_count())
        .map(|i| 0.4 * (i as f64 * 0.05).sin())
        .collect();
    let exhausted = encryptor.encrypt(&encoder.encode_real(&values, scale, 0)?, &mut rng)?;
    println!(
        "input ciphertext: level {}, {} slots (level 0 = no multiplications possible)",
        exhausted.level(),
        ctx.slot_count()
    );

    let start = Instant::now();
    let refreshed = bootstrapper.bootstrap(&exhausted, &rlk, &gks)?;
    let elapsed = start.elapsed();
    let decoded = encoder.decode_real(&decryptor.decrypt(&refreshed)?);
    let max_err = decoded
        .iter()
        .zip(&values)
        .map(|(d, v)| (d - v).abs())
        .fold(0.0f64, f64::max);
    println!(
        "software bootstrap: {:.2} s, refreshed level {}, max slot error {:.2e}",
        elapsed.as_secs_f64(),
        refreshed.level(),
        max_err
    );

    // --- the accelerator model at the paper's full parameter set ---------------------------
    let config = FabConfig::alveo_u280();
    let paper = CkksParams::fab_paper();
    let cost = bootstrap_cost(
        &config,
        &CkksContext::new_arc(paper.clone())?,
        paper.fft_iter,
    );
    let amortized = fab_core::amortized_mult_time_us(
        &config,
        &paper,
        &cost,
        paper.levels_after_bootstrap(),
        paper.slot_count(),
    );
    println!("\nFAB model, fully-packed bootstrapping at N = 2^16 (Table 7):");
    println!("  T_boot             : {:.1} ms", cost.time_ms(&config));
    println!("  NTT operations     : {}", cost.ntt_count);
    println!("  levels after boot  : {}", paper.levels_after_bootstrap());
    println!("  amortized mult time: {amortized:.3} µs/slot (paper reports 0.477 µs/slot)");
    Ok(())
}
