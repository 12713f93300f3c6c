//! Explore the FAB design space: the dnum and ﬀtIter sweeps behind Figures 1 and 2, the
//! Table 3 resource estimate, the KeySwitch datapath ablation, and the working-set accounting
//! that motivates the modified datapath.
//!
//! Run with: `cargo run --release --example accelerator_design_space`

use fab::prelude::*;
use fab_core::{dnum_sweep, fft_iter_sweep, WorkingSetReport};

fn main() {
    let config = FabConfig::alveo_u280();
    let params = CkksParams::fab_paper();

    println!("== Figure 1: dnum trade-off (log PQ fixed at 1728) ==");
    for p in dnum_sweep(&params, 32, params.bootstrap_depth(), &[1, 2, 3, 4, 5, 6]) {
        println!(
            "  dnum {}: {} limbs of Q, alpha {}, {} levels after bootstrap, key {:.1} MB",
            p.dnum, p.q_limbs, p.alpha, p.levels_after_bootstrap, p.key_size_mib
        );
    }

    println!("\n== Figure 2: fftIter trade-off ==");
    let ctx = CkksContext::new_arc(params.clone()).expect("fab_paper() builds a context");
    for p in fft_iter_sweep(&config, &ctx, &[1, 2, 3, 4, 5, 6]) {
        println!(
            "  fftIter {}: depth {}, {} levels left, T_boot {:.1} ms, {} NTTs, {:.3} us/slot",
            p.fft_iter,
            p.bootstrap_depth,
            p.levels_after_bootstrap,
            p.bootstrap_ms,
            p.ntt_operations,
            p.amortized_mult_us
        );
    }

    println!("\n== Table 3: resource utilisation on the Alveo U280 ==");
    let estimate = ResourceEstimator::new().estimate(&config);
    for (name, available, used, percent) in estimate.rows() {
        println!("  {name:<5}: {used:>9} / {available:>9}  ({percent:5.2}%)");
    }

    println!("\n== KeySwitch datapath ablation (level 23, N = 2^16) ==");
    let modified = OpCostModel::new(config.clone(), params.clone());
    let mut original_config = config.clone();
    original_config.keyswitch_datapath = KeySwitchDatapath::Original;
    let original = OpCostModel::new(original_config, params.clone());
    let level = params.max_level;
    let m = modified.key_switch(level);
    let o = original.key_switch(level);
    println!(
        "  modified datapath: {:.3} ms, {:.1} MB HBM traffic, memory bound: {}",
        m.time_ms(&config),
        m.hbm_bytes as f64 / 1e6,
        m.is_memory_bound()
    );
    println!(
        "  original datapath: {:.3} ms, {:.1} MB HBM traffic, memory bound: {}",
        o.time_ms(&config),
        o.hbm_bytes as f64 / 1e6,
        o.is_memory_bound()
    );

    println!("\n== Working set vs on-chip capacity (Section 4.6) ==");
    let report = WorkingSetReport::new(&config, &params);
    println!(
        "  keys {:.1} MB + ciphertext {:.1} MB = {:.1} MB vs {:.1} MB on chip (fits: {})",
        report.key_mib,
        report.ciphertext_mib,
        report.total_mib,
        report.on_chip_mib,
        report.fits_entirely
    );
    println!(
        "  modified datapath keeps 1/{} of the key resident at a time",
        params.dnum
    );
}
