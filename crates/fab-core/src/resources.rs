//! FPGA resource estimation (Table 3 of the paper).
//!
//! The estimator is parametric in the accelerator configuration: DSP usage follows directly
//! from the functional-unit count and the multi-word arithmetic mapping, URAM/BRAM usage from
//! the bank geometry of Figure 4, and LUT/FF usage from per-unit costs calibrated against the
//! paper's reported totals (so that alternative configurations — more functional units, wider
//! limbs — produce proportionate estimates).

use crate::FabConfig;

/// LUTs per functional unit (calibrated: the paper attributes ~37% of 899K LUTs to the 256
/// functional units).
const LUT_PER_FUNCTIONAL_UNIT: f64 = 1_300.0;
/// Base LUT cost of the control logic, address generation units and FIFOs.
const LUT_BASE: f64 = 566_432.0;
/// Flip-flops per functional unit (pipeline registers of the DSP chains).
const FF_PER_FUNCTIONAL_UNIT: f64 = 3_800.0;
/// Base flip-flop cost (distributed register file and control).
const FF_BASE: f64 = 1_100_200.0;

/// Resources available on the Xilinx Alveo U280 (16 nm UltraScale+).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AvailableResources {
    /// Lookup tables.
    pub luts: u64,
    /// Flip-flops.
    pub ffs: u64,
    /// DSP slices.
    pub dsps: u64,
    /// BRAM blocks (18 Kb each).
    pub brams: u64,
    /// URAM blocks (288 Kb each).
    pub urams: u64,
}

impl AvailableResources {
    /// The Alveo U280 resource budget used in Table 3.
    pub fn alveo_u280() -> Self {
        Self {
            luts: 1_304_000,
            ffs: 2_607_000,
            dsps: 9_024,
            brams: 4_032,
            urams: 962,
        }
    }
}

/// Estimated utilization of each resource class, mirroring Table 3.
#[derive(Debug, Clone, PartialEq)]
pub struct ResourceUtilization {
    /// Utilized LUTs.
    pub luts: u64,
    /// Utilized flip-flops.
    pub ffs: u64,
    /// Utilized DSP slices.
    pub dsps: u64,
    /// Utilized BRAM blocks.
    pub brams: u64,
    /// Utilized URAM blocks.
    pub urams: u64,
    /// Available resources for the percentage columns.
    pub available: AvailableResources,
}

impl ResourceUtilization {
    /// Percentage of LUTs used.
    pub fn lut_percent(&self) -> f64 {
        100.0 * self.luts as f64 / self.available.luts as f64
    }

    /// Percentage of flip-flops used.
    pub fn ff_percent(&self) -> f64 {
        100.0 * self.ffs as f64 / self.available.ffs as f64
    }

    /// Percentage of DSP slices used.
    pub fn dsp_percent(&self) -> f64 {
        100.0 * self.dsps as f64 / self.available.dsps as f64
    }

    /// Percentage of BRAM blocks used.
    pub fn bram_percent(&self) -> f64 {
        100.0 * self.brams as f64 / self.available.brams as f64
    }

    /// Percentage of URAM blocks used.
    pub fn uram_percent(&self) -> f64 {
        100.0 * self.urams as f64 / self.available.urams as f64
    }

    /// Whether the design fits in the available resources.
    pub fn fits(&self) -> bool {
        self.luts <= self.available.luts
            && self.ffs <= self.available.ffs
            && self.dsps <= self.available.dsps
            && self.brams <= self.available.brams
            && self.urams <= self.available.urams
    }

    /// Table-3-style rows: (resource, available, utilized, % utilization).
    pub fn rows(&self) -> Vec<(String, u64, u64, f64)> {
        vec![
            (
                "LUTs".into(),
                self.available.luts,
                self.luts,
                self.lut_percent(),
            ),
            (
                "FFs".into(),
                self.available.ffs,
                self.ffs,
                self.ff_percent(),
            ),
            (
                "DSP".into(),
                self.available.dsps,
                self.dsps,
                self.dsp_percent(),
            ),
            (
                "BRAM".into(),
                self.available.brams,
                self.brams,
                self.bram_percent(),
            ),
            (
                "URAM".into(),
                self.available.urams,
                self.urams,
                self.uram_percent(),
            ),
        ]
    }
}

/// Parametric resource estimator.
#[derive(Debug, Clone)]
pub struct ResourceEstimator {
    available: AvailableResources,
}

impl ResourceEstimator {
    /// Creates an estimator against the U280 budget.
    pub fn new() -> Self {
        Self {
            available: AvailableResources::alveo_u280(),
        }
    }

    /// Estimates the utilization of a configuration.
    pub fn estimate(&self, config: &FabConfig) -> ResourceUtilization {
        let fu = config.functional_units as f64;
        let luts = (LUT_PER_FUNCTIONAL_UNIT * fu + LUT_BASE).round() as u64;
        let ffs = (FF_PER_FUNCTIONAL_UNIT * fu + FF_BASE).round() as u64;
        let dsps = (config.functional_units * config.dsp_per_functional_unit) as u64;
        let brams = config.on_chip.bram_blocks as u64;
        let urams = config.on_chip.uram_blocks as u64;
        ResourceUtilization {
            luts,
            ffs,
            dsps,
            brams,
            urams,
            available: self.available,
        }
    }
}

impl Default for ResourceEstimator {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_3_reproduction() {
        // Paper Table 3: 899,232 LUTs (68.96%), 2,073K FFs (79.54%), 5,120 DSP (56.7%),
        // 3,840 BRAM (95.24%), 960 URAM (99.8%).
        let estimate = ResourceEstimator::new().estimate(&FabConfig::alveo_u280());
        assert_eq!(estimate.dsps, 5_120);
        assert_eq!(estimate.brams, 3_840);
        assert_eq!(estimate.urams, 960);
        assert!((estimate.luts as f64 - 899_232.0).abs() / 899_232.0 < 0.01);
        assert!((estimate.ffs as f64 - 2_073_000.0).abs() / 2_073_000.0 < 0.01);
        assert!((estimate.lut_percent() - 68.96).abs() < 1.0);
        assert!((estimate.ff_percent() - 79.54).abs() < 1.0);
        assert!((estimate.dsp_percent() - 56.70).abs() < 0.2);
        assert!((estimate.bram_percent() - 95.24).abs() < 0.2);
        assert!((estimate.uram_percent() - 99.80).abs() < 0.3);
        assert!(estimate.fits());
        assert_eq!(estimate.rows().len(), 5);
    }

    #[test]
    fn scaling_functional_units_scales_dsp_and_logic() {
        let estimator = ResourceEstimator::new();
        let base = estimator.estimate(&FabConfig::alveo_u280());
        let mut doubled_config = FabConfig::alveo_u280();
        doubled_config.functional_units = 512;
        let doubled = estimator.estimate(&doubled_config);
        assert_eq!(doubled.dsps, 2 * base.dsps);
        assert!(doubled.luts > base.luts);
        assert!(doubled.ffs > base.ffs);
        // A 512-FU design would exceed the DSP budget utilisation but still nominally fit.
        assert!(doubled.dsp_percent() > 100.0 || doubled.dsps <= doubled.available.dsps);
    }

    #[test]
    fn bts_class_design_does_not_fit_on_one_u280() {
        let estimate = ResourceEstimator::new().estimate(&FabConfig::bts_class_scaling());
        assert!(
            !estimate.fits(),
            "a BTS-class design cannot fit a single U280"
        );
    }
}
