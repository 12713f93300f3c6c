//! Performance metrics: the amortized per-slot multiplication time (Equation 2 of the paper)
//! and speedup reporting helpers.

use fab_ckks::CkksParams;

use crate::{FabConfig, OpCost, OpCostModel};

/// Amortized multiplication time per slot in microseconds (Equation 2):
/// `T_mult,a/slot = (T_boot + Σ_{i=1..ℓ} T_mult(i)) / (ℓ·n)`,
/// where `ℓ` is the number of levels available after bootstrapping and `n` the slot count.
pub fn amortized_mult_time_us(
    config: &FabConfig,
    params: &CkksParams,
    bootstrap: &OpCost,
    levels_after_bootstrap: usize,
    slots: usize,
) -> f64 {
    let model = OpCostModel::new(config.clone(), params.clone());
    let mut total_cycles = bootstrap.total_cycles as f64;
    // Multiplications are performed at decreasing levels as the ciphertext is consumed.
    let top = levels_after_bootstrap.min(params.max_level);
    for i in 0..top {
        let level = top - i;
        let mult = model.multiply(level).then(model.rescale(level));
        total_cycles += mult.total_cycles as f64;
    }
    let time_us = total_cycles * config.cycle_ns() / 1e3;
    time_us / (levels_after_bootstrap.max(1) as f64 * slots as f64)
}

/// A speedup comparison against a published baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct SpeedupReport {
    /// Name of the baseline system.
    pub baseline: String,
    /// Baseline metric value (time; lower is better).
    pub baseline_value: f64,
    /// Our measured/modelled value.
    pub fab_value: f64,
    /// Baseline clock frequency in GHz (for the cycle-count comparison).
    pub baseline_freq_ghz: f64,
    /// FAB clock frequency in GHz.
    pub fab_freq_ghz: f64,
}

impl SpeedupReport {
    /// Speedup in absolute time (`> 1` means FAB is faster).
    pub fn time_speedup(&self) -> f64 {
        self.baseline_value / self.fab_value
    }

    /// Speedup in clock cycles, normalising out the frequency difference — the paper reports
    /// both because FAB runs at only 300 MHz.
    pub fn cycle_speedup(&self) -> f64 {
        (self.baseline_value * self.baseline_freq_ghz) / (self.fab_value * self.fab_freq_ghz)
    }
}

/// Convenience constructor for a speedup report.
pub fn speedup(
    baseline: impl Into<String>,
    baseline_value: f64,
    baseline_freq_ghz: f64,
    fab_value: f64,
    fab_freq_ghz: f64,
) -> SpeedupReport {
    SpeedupReport {
        baseline: baseline.into(),
        baseline_value,
        fab_value,
        baseline_freq_ghz,
        fab_freq_ghz,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::bootstrap_cost;

    #[test]
    fn amortized_metric_matches_equation_2_structure() {
        let config = FabConfig::alveo_u280();
        let ctx = fab_ckks::CkksContext::new_arc(CkksParams::fab_paper()).unwrap();
        let params = ctx.params();
        let boot = bootstrap_cost(&config, &ctx, params.fft_iter);
        let slots = params.slot_count();
        let levels = params.levels_after_bootstrap();
        let amortized = amortized_mult_time_us(&config, params, &boot, levels, slots);
        // The paper reports 0.477 µs/slot for FAB; the analytical model should land within a
        // small factor of that (same order of magnitude, between the GPU and ASIC baselines).
        assert!(
            amortized > 0.1 && amortized < 3.0,
            "amortized mult time {amortized} µs/slot"
        );
        // More levels after bootstrapping improve (reduce) the metric.
        let fewer = amortized_mult_time_us(&config, params, &boot, levels.saturating_sub(2), slots);
        assert!(fewer > amortized);
    }

    #[test]
    fn speedup_reports_account_for_frequency() {
        let report = speedup("Lattigo", 101.78, 3.5, 0.477, 0.3);
        assert!((report.time_speedup() - 213.4).abs() < 2.0);
        assert!((report.cycle_speedup() - 2489.0).abs() < 30.0);
        let slower = speedup("BTS-2", 0.0455, 1.2, 0.477, 0.3);
        assert!(slower.time_speedup() < 1.0, "FAB is slower than BTS-2");
    }
}
