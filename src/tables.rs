//! Regenerates every table and figure of the paper's evaluation section.
//!
//! Each function returns the rendered rows as a `String` (so tests can assert on them) and is
//! driven entirely by the accelerator model (`fab-core`), the CKKS parameter sets (`fab-ckks`),
//! the LR workload (`fab-lr`) and the published baseline constants.

use std::fmt::Write as _;

use fab_ckks::linear_transform::coeff_to_slot_offset_sets;
use fab_ckks::{BsgsPlan, CkksParams};
use fab_core::baselines::{
    table4_resources, table7_bootstrapping, table8_lr_training, FAB2_COMMUNICATION_S, HELR_TASK,
    LEVELED_FHE_CLIENT_ENCRYPT_S, TABLE5_FAB_REPORTED, TABLE5_GPU, TABLE6_FAB_REPORTED,
    TABLE6_HEAX,
};
use fab_core::workload::{bootstrap_trace, HeOp};
use fab_core::{
    amortized_mult_time_us, dnum_sweep, fft_iter_sweep, FabConfig, OpCostModel, ResourceEstimator,
    WorkingSetReport,
};
use fab_lr::lr_training_time_s;

/// The experiments that can be regenerated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Experiment {
    /// Table 2: the FPGA parameter set.
    Table2,
    /// Figure 1: dnum design-space sweep.
    Figure1,
    /// Figure 2: ﬀtIter design-space sweep.
    Figure2,
    /// Table 3: FPGA resource utilisation.
    Table3,
    /// Table 4: resource comparison with F1 and BTS.
    Table4,
    /// Table 5: basic CKKS operation latency vs GPU.
    Table5,
    /// Table 6: NTT / Mult throughput vs HEAX.
    Table6,
    /// Table 7: bootstrapping comparison.
    Table7,
    /// Table 8: logistic-regression training comparison.
    Table8,
    /// Section 5.5: leveled-FHE comparison.
    Leveled,
}

impl Experiment {
    /// All experiments, in paper order.
    pub fn all() -> Vec<Experiment> {
        vec![
            Experiment::Table2,
            Experiment::Figure1,
            Experiment::Figure2,
            Experiment::Table3,
            Experiment::Table4,
            Experiment::Table5,
            Experiment::Table6,
            Experiment::Table7,
            Experiment::Table8,
            Experiment::Leveled,
        ]
    }

    /// Parses a command-line name (e.g. `table5`, `figure1`, `leveled`).
    pub fn parse(name: &str) -> Option<Experiment> {
        match name.to_ascii_lowercase().as_str() {
            "table2" => Some(Experiment::Table2),
            "figure1" => Some(Experiment::Figure1),
            "figure2" => Some(Experiment::Figure2),
            "table3" => Some(Experiment::Table3),
            "table4" => Some(Experiment::Table4),
            "table5" => Some(Experiment::Table5),
            "table6" => Some(Experiment::Table6),
            "table7" => Some(Experiment::Table7),
            "table8" => Some(Experiment::Table8),
            "leveled" => Some(Experiment::Leveled),
            _ => None,
        }
    }
}

/// Renders one experiment.
pub fn render_experiment(experiment: Experiment) -> String {
    match experiment {
        Experiment::Table2 => table2(),
        Experiment::Figure1 => figure1(),
        Experiment::Figure2 => figure2(),
        Experiment::Table3 => table3(),
        Experiment::Table4 => table4(),
        Experiment::Table5 => table5(),
        Experiment::Table6 => table6(),
        Experiment::Table7 => table7(),
        Experiment::Table8 => table8(),
        Experiment::Leveled => leveled(),
    }
}

/// Renders every experiment in paper order.
pub fn render_all() -> String {
    Experiment::all()
        .into_iter()
        .map(render_experiment)
        .collect::<Vec<_>>()
        .join("\n")
}

fn table2() -> String {
    let p = CkksParams::fab_paper();
    let mut out = String::new();
    writeln!(
        out,
        "== Table 2: parameter set for the FPGA implementation =="
    )
    .unwrap();
    writeln!(
        out,
        "log q = {}  N = 2^{}  L = {}  dnum = {}  fftIter = {}  lambda = {}",
        p.scale_bits, p.log_n, p.max_level, p.dnum, p.fft_iter, p.security_bits
    )
    .unwrap();
    writeln!(
        out,
        "limbs(Q) = {}  extension limbs = {}  log PQ = {:.0}  max ciphertext = {:.1} MB",
        p.total_q_limbs(),
        p.special_limbs(),
        p.log_pq(),
        p.max_ciphertext_bytes() as f64 / (1024.0 * 1024.0)
    )
    .unwrap();
    let report = WorkingSetReport::new(&FabConfig::alveo_u280(), &p);
    writeln!(
        out,
        "keyswitch working set = {:.0} MB keys + {:.0} MB ciphertext vs {:.0} MB on-chip",
        report.key_mib, report.ciphertext_mib, report.on_chip_mib
    )
    .unwrap();
    out
}

fn figure1() -> String {
    let p = CkksParams::fab_paper();
    let points = dnum_sweep(&p, 32, p.bootstrap_depth(), &[1, 2, 3, 4, 5, 6]);
    let mut out = String::new();
    writeln!(
        out,
        "== Figure 1: dnum vs levels after bootstrapping and key size =="
    )
    .unwrap();
    writeln!(
        out,
        "{:<6} {:<9} {:<7} {:<18} {:<14}",
        "dnum", "limbs(Q)", "alpha", "levels after boot", "key size (MB)"
    )
    .unwrap();
    for pt in points {
        writeln!(
            out,
            "{:<6} {:<9} {:<7} {:<18} {:<14.1}",
            pt.dnum, pt.q_limbs, pt.alpha, pt.levels_after_bootstrap, pt.key_size_mib
        )
        .unwrap();
    }
    out
}

fn figure2() -> String {
    let config = FabConfig::alveo_u280();
    let p = CkksParams::fab_paper();
    let points = fft_iter_sweep(&config, &p, &[1, 2, 3, 4, 5, 6]);
    let mut out = String::new();
    writeln!(
        out,
        "== Figure 2: fftIter vs bootstrapping time and NTT count =="
    )
    .unwrap();
    writeln!(
        out,
        "{:<8} {:<7} {:<13} {:<14} {:<12} {:<20}",
        "fftIter", "depth", "levels after", "T_boot (ms)", "#NTT ops", "amortized (us/slot)"
    )
    .unwrap();
    for pt in points {
        writeln!(
            out,
            "{:<8} {:<7} {:<13} {:<14.1} {:<12} {:<20.3}",
            pt.fft_iter,
            pt.bootstrap_depth,
            pt.levels_after_bootstrap,
            pt.bootstrap_ms,
            pt.ntt_operations,
            pt.amortized_mult_us
        )
        .unwrap();
    }
    // The rotation schedule behind the sweep: per-diagonal vs the exact BSGS plans of the
    // CoeffToSlot stages (the schedule the software pipeline executes and fab-core prices).
    writeln!(
        out,
        "\nCoeffToSlot key-switched rotations at N = 2^{} (per-diagonal -> BSGS+hoisting):",
        p.log_n
    )
    .unwrap();
    writeln!(
        out,
        "{:<8} {:<14} {:<12} {:<10}",
        "fftIter", "per-diagonal", "BSGS", "reduction"
    )
    .unwrap();
    for fft_iter in [1usize, 2, 3, 4, 5, 6] {
        let mut naive = 0usize;
        let mut bsgs = 0usize;
        for offsets in coeff_to_slot_offset_sets(p.slot_count(), fft_iter) {
            naive += offsets.iter().filter(|&&d| d != 0).count();
            bsgs += BsgsPlan::for_offsets(p.slot_count(), &offsets).rotation_count();
        }
        writeln!(
            out,
            "{:<8} {:<14} {:<12} {:<10.2}",
            fft_iter,
            naive,
            bsgs,
            naive as f64 / bsgs as f64
        )
        .unwrap();
    }
    out
}

fn table3() -> String {
    let estimate = ResourceEstimator::new().estimate(&FabConfig::alveo_u280());
    let mut out = String::new();
    writeln!(
        out,
        "== Table 3: FAB hardware resource utilisation (modelled) =="
    )
    .unwrap();
    writeln!(
        out,
        "{:<10} {:<12} {:<12} {:<12}",
        "Resource", "Available", "Utilized", "% Utilization"
    )
    .unwrap();
    for (name, available, utilized, percent) in estimate.rows() {
        writeln!(
            out,
            "{name:<10} {available:<12} {utilized:<12} {percent:<12.2}"
        )
        .unwrap();
    }
    out
}

fn table4() -> String {
    let mut out = String::new();
    writeln!(
        out,
        "== Table 4: modular multipliers, register file and on-chip memory =="
    )
    .unwrap();
    writeln!(
        out,
        "{:<6} {:<16} {:<12} {:<10} {:<16}",
        "Work", "(N, log q)", "Mod mults", "RF (MB)", "On-chip (MB)"
    )
    .unwrap();
    for row in table4_resources() {
        writeln!(
            out,
            "{:<6} {:<16} {:<12} {:<10} {:<16}",
            row.name,
            format!("2^{}, {}", row.log_n, row.log_q),
            row.modular_multipliers,
            row.register_file_mb,
            row.on_chip_memory_mb
        )
        .unwrap();
    }
    out
}

fn table5() -> String {
    let config = FabConfig::alveo_u280();
    let params = CkksParams::gpu_comparison();
    let model = OpCostModel::new(config.clone(), params.clone());
    let level = params.max_level;
    let rows = [
        (
            "Add",
            model.add(level).time_ms(&config),
            TABLE5_GPU.add_ms,
            TABLE5_FAB_REPORTED.add_ms,
        ),
        (
            "Mult",
            model.multiply(level).time_ms(&config),
            TABLE5_GPU.mult_ms,
            TABLE5_FAB_REPORTED.mult_ms,
        ),
        (
            "Rescale",
            model.rescale(level).time_ms(&config),
            TABLE5_GPU.rescale_ms,
            TABLE5_FAB_REPORTED.rescale_ms,
        ),
        (
            "Rotate",
            model.rotate(level).time_ms(&config),
            TABLE5_GPU.rotate_ms,
            TABLE5_FAB_REPORTED.rotate_ms,
        ),
    ];
    let mut out = String::new();
    writeln!(
        out,
        "== Table 5: basic CKKS operation latency (ms), N = 2^16 =="
    )
    .unwrap();
    writeln!(
        out,
        "{:<10} {:<16} {:<16} {:<12} {:<18}",
        "Operation", "FAB model (ms)", "FAB paper (ms)", "GPU (ms)", "speedup vs GPU"
    )
    .unwrap();
    for (name, modelled, gpu, reported) in rows {
        writeln!(
            out,
            "{:<10} {:<16.3} {:<16.3} {:<12.3} {:<18.2}",
            name,
            modelled,
            reported,
            gpu,
            gpu / modelled
        )
        .unwrap();
    }
    out
}

fn table6() -> String {
    let config = FabConfig::alveo_u280();
    let model = OpCostModel::new(config, CkksParams::heax_comparison());
    let ntt = model.ntt_throughput_ops();
    let mult = model.multiply_throughput_ops();
    let mut out = String::new();
    writeln!(
        out,
        "== Table 6: throughput (ops/s) vs HEAX, N = 2^14, log Q = 438 =="
    )
    .unwrap();
    writeln!(
        out,
        "{:<10} {:<16} {:<16} {:<12} {:<18}",
        "Operation", "FAB model", "FAB paper", "HEAX", "speedup vs HEAX"
    )
    .unwrap();
    writeln!(
        out,
        "{:<10} {:<16.0} {:<16.0} {:<12.0} {:<18.2}",
        "NTT",
        ntt,
        TABLE6_FAB_REPORTED.ntt_ops_per_s,
        TABLE6_HEAX.ntt_ops_per_s,
        ntt / TABLE6_HEAX.ntt_ops_per_s
    )
    .unwrap();
    writeln!(
        out,
        "{:<10} {:<16.0} {:<16.0} {:<12.0} {:<18.2}",
        "Mult",
        mult,
        TABLE6_FAB_REPORTED.mult_ops_per_s,
        TABLE6_HEAX.mult_ops_per_s,
        mult / TABLE6_HEAX.mult_ops_per_s
    )
    .unwrap();
    out
}

fn table7() -> String {
    let config = FabConfig::alveo_u280();
    let params = CkksParams::fab_paper();
    let trace = bootstrap_trace(&params, params.fft_iter);
    let boot = OpCostModel::new(config.clone(), params.clone()).cost_trace(&trace);
    // The plan's last op is a rescale at the lowest level it touches.
    let plan_exit = trace.ops.iter().filter_map(HeOp::level).min().unwrap_or(1) - 1;
    let amortized = amortized_mult_time_us(
        &config,
        &params,
        &boot,
        params.levels_after_bootstrap(),
        params.slot_count(),
    );
    let mut out = String::new();
    writeln!(
        out,
        "== Table 7: fully-packed bootstrapping, amortized mult time per slot =="
    )
    .unwrap();
    writeln!(
        out,
        "modelled FAB: T_boot = {:.1} ms, levels after = {} (plan exits at {}), slots = 2^15, amortized = {:.3} us/slot",
        boot.time_ms(&config),
        params.levels_after_bootstrap(),
        plan_exit,
        amortized
    )
    .unwrap();
    writeln!(
        out,
        "{:<16} {:<12} {:<8} {:<14} {:<22} {:<22}",
        "Work",
        "Freq (GHz)",
        "Slots",
        "Time (us)",
        "FAB-model speedup(t)",
        "FAB-model speedup(cyc)"
    )
    .unwrap();
    for row in table7_bootstrapping() {
        let speedup_time = row.amortized_mult_us / amortized;
        let speedup_cycles = speedup_time * row.freq_ghz / 0.3;
        writeln!(
            out,
            "{:<16} {:<12} {:<8} {:<14.4} {:<22.2} {:<22.2}",
            row.name,
            row.freq_ghz,
            if row.log_slots > 0 {
                format!("2^{}", row.log_slots)
            } else {
                "-".into()
            },
            row.amortized_mult_us,
            speedup_time,
            speedup_cycles
        )
        .unwrap();
    }
    out
}

fn table8() -> String {
    let config = FabConfig::alveo_u280();
    let params = CkksParams::fab_paper();
    let breakdown = lr_training_time_s(&config, &params, &HELR_TASK);
    let mut out = String::new();
    writeln!(
        out,
        "== Table 8: LR training, average time per iteration (sparsely packed) =="
    )
    .unwrap();
    writeln!(
        out,
        "modelled FAB-1 = {:.3} s, FAB-2 = {:.3} s ({} chunks, parallel {:.3} s, serial {:.3} s, comm {:.3} s)",
        breakdown.fab1_s,
        breakdown.fab2_s,
        breakdown.chunks,
        breakdown.parallel_s,
        breakdown.serial_s,
        FAB2_COMMUNICATION_S
    )
    .unwrap();
    writeln!(
        out,
        "{:<18} {:<12} {:<22} {:<24}",
        "Work", "Time (s)", "FAB-2-model speedup(t)", "FAB-2-model speedup(cyc)"
    )
    .unwrap();
    for row in table8_lr_training() {
        let speedup = row.seconds_per_iteration / breakdown.fab2_s;
        writeln!(
            out,
            "{:<18} {:<12.3} {:<22.2} {:<24.2}",
            row.name,
            row.seconds_per_iteration,
            speedup,
            speedup * row.freq_ghz / 0.3
        )
        .unwrap();
    }
    out
}

fn leveled() -> String {
    let config = FabConfig::alveo_u280();
    let params = CkksParams::fab_paper();
    let breakdown = lr_training_time_s(&config, &params, &HELR_TASK);
    let mut out = String::new();
    writeln!(
        out,
        "== Section 5.5: bootstrapped FHE vs leveled FHE (client-aided) =="
    )
    .unwrap();
    writeln!(
        out,
        "FAB-1 full LR iteration (incl. bootstrapping, modelled): {:.3} s",
        breakdown.fab1_s
    )
    .unwrap();
    writeln!(
        out,
        "leveled approach, client-side re-encryption alone (2.8 GHz CPU): {:.3} s",
        LEVELED_FHE_CLIENT_ENCRYPT_S
    )
    .unwrap();
    writeln!(
        out,
        "leveled approach additionally leaks intermediate values and adds cloud + network time"
    )
    .unwrap();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_experiment_renders_nonempty_output() {
        for experiment in Experiment::all() {
            let rendered = render_experiment(experiment);
            assert!(
                rendered.lines().count() >= 2,
                "{experiment:?} produced too little output"
            );
            assert!(rendered.starts_with("=="));
        }
    }

    #[test]
    fn experiment_parsing_roundtrip() {
        for (name, expected) in [
            ("table2", Experiment::Table2),
            ("Figure1", Experiment::Figure1),
            ("FIGURE2", Experiment::Figure2),
            ("table3", Experiment::Table3),
            ("table4", Experiment::Table4),
            ("table5", Experiment::Table5),
            ("table6", Experiment::Table6),
            ("table7", Experiment::Table7),
            ("table8", Experiment::Table8),
            ("leveled", Experiment::Leveled),
        ] {
            assert_eq!(Experiment::parse(name), Some(expected));
        }
        assert_eq!(Experiment::parse("table9"), None);
    }

    #[test]
    fn figure2_reports_bsgs_rotation_reduction() {
        let rendered = render_experiment(Experiment::Figure2);
        assert!(rendered.contains("CoeffToSlot key-switched rotations"));
        assert!(rendered.contains("per-diagonal"));
        // Every sweep point must show a real reduction (the last column is > 1).
        let reductions: Vec<f64> = rendered
            .lines()
            .skip_while(|l| !l.starts_with("fftIter"))
            .skip_while(|l| !l.contains("reduction"))
            .skip(1)
            .filter_map(|l| l.split_whitespace().nth(3)?.parse().ok())
            .collect();
        assert_eq!(reductions.len(), 6);
        assert!(reductions.iter().all(|&r| r > 1.5), "{reductions:?}");
    }

    #[test]
    fn table5_rows_show_fab_faster_than_gpu() {
        let rendered = render_experiment(Experiment::Table5);
        assert!(rendered.contains("Add"));
        assert!(rendered.contains("Rotate"));
        // The GPU column (2.96 ms for Mult) must be present.
        assert!(rendered.contains("2.96"));
    }

    #[test]
    fn table7_contains_all_baselines() {
        let rendered = render_experiment(Experiment::Table7);
        for name in ["Lattigo", "GPU-1", "GPU-2", "F1", "BTS-2", "FAB"] {
            assert!(rendered.contains(name), "missing {name}");
        }
    }

    #[test]
    fn render_all_contains_every_header() {
        let all = render_all();
        for header in [
            "Table 2",
            "Figure 1",
            "Figure 2",
            "Table 3",
            "Table 4",
            "Table 5",
            "Table 6",
            "Table 7",
            "Table 8",
            "leveled FHE",
        ] {
            assert!(all.contains(header), "missing section {header}");
        }
    }
}
