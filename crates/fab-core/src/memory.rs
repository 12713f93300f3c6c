//! On-chip memory and HBM models (Section 4.2 and the working-set accounting of Section 4.6).
//!
//! ## Calibration against measured traffic (PR 7)
//!
//! Until PR 7 every byte figure in this module was hand-derived from the paper and never
//! checked against what the software stack actually moves. The PR 7 byte meter
//! ([`fab_rns::metering`]) changed that; the audit's outcome per parameter:
//!
//! * **Word size** — *before*: all limb traffic priced at the hardware's packed 54-bit
//!   words ([`OnChipMemoryModel::limb_bytes`] = `N·54/8` = 442 368 B at `N = 2^16`);
//!   *after*: the hardware figures are kept (they are what the paper's Table 3 / Section
//!   4.6 numbers are pinned to) and the **software** layout gets its own calibrated
//!   constant, [`SoftwareTrafficModel::WORD_BYTES`] = 8 (the meter measures 64-bit words:
//!   `8N` = 524 288 B per row at `N = 2^16`, a fixed 64/54 ratio to divide out when
//!   comparing software traffic against FAB's HBM numbers).
//! * **Accumulators** — the KSKIP inner product and the basis-conversion sums accumulate in
//!   registers across their whole inner loop (the software analog of FAB's double-width MAC
//!   registers), so they move no bytes: each operand row is read once and each output row
//!   written once.
//! * **Per-op bytes** — *before*: only per-limb transfer cycles existed
//!   ([`HbmModel::limb_cycles`]); *after*: [`SoftwareTrafficModel::key_switch_bytes`]
//!   prices the full key-switch datapath analytically and is pinned within
//!   [`SoftwareTrafficModel::TOLERANCE`] of the metered traffic (see
//!   `software_model_agrees_with_metered_traffic` below and the workspace-level
//!   `bytes_accounting.rs` suite that asserts the meter equals the closed forms).
//! * **Dead constants** — the audit found none to remove: every pre-existing constant in
//!   this module and [`crate::config`] (URAM/BRAM geometry, 54-bit packing, HBM
//!   bandwidth) is load-bearing for the paper-pinned tests; the drift was missing
//!   software-side constants, not stale hardware ones.

use fab_ckks::CkksParams;

use crate::{FabConfig, OnChipMemoryConfig};

/// Model of the URAM/BRAM bank organisation of Figure 4.
#[derive(Debug, Clone)]
pub struct OnChipMemoryModel {
    config: OnChipMemoryConfig,
    limb_bits: u32,
    degree: usize,
}

impl OnChipMemoryModel {
    /// Builds the model for a parameter set.
    pub fn new(config: OnChipMemoryConfig, params: &CkksParams) -> Self {
        Self {
            config,
            limb_bits: params.scale_bits,
            degree: params.degree(),
        }
    }

    /// Bytes of one packed ciphertext limb.
    pub fn limb_bytes(&self) -> usize {
        self.degree * self.limb_bits as usize / 8
    }

    /// URAM blocks needed to form one bank that serves all functional units in a single cycle:
    /// three 72-bit blocks give a 216-bit word holding four coefficients, and 64 such groups
    /// deliver 256 coefficients per access (Figure 4a).
    pub fn uram_blocks_per_bank(&self) -> usize {
        64 * 3
    }

    /// Limbs that fit in one URAM bank (16 at N = 2^16: 192 blocks ≈ 7.08 MB).
    pub fn limbs_per_uram_bank(&self) -> usize {
        let bank_bits = self.uram_blocks_per_bank() * 288 * 1024;
        bank_bits / (self.degree * self.limb_bits as usize)
    }

    /// BRAM blocks per bank: 256 coefficient columns × 3 blocks for 54-bit words × 2 for depth
    /// (Figure 4b).
    pub fn bram_blocks_per_bank(&self) -> usize {
        256 * 3 * 2
    }

    /// Limbs that fit in one BRAM bank (8 at N = 2^16).
    pub fn limbs_per_bram_bank(&self) -> usize {
        let bank_bits = self.bram_blocks_per_bank() * 18 * 1024;
        bank_bits / (self.degree * self.limb_bits as usize)
    }

    /// Total on-chip capacity in limbs.
    pub fn capacity_limbs(&self) -> usize {
        let total_bytes = self.config.capacity_mib() * 1024.0 * 1024.0;
        (total_bytes / self.limb_bytes() as f64) as usize
    }

    /// Total on-chip capacity in MiB.
    pub fn capacity_mib(&self) -> f64 {
        self.config.capacity_mib()
    }

    /// Whether a full raised ciphertext (2 ring elements over `Q ∪ P`) fits on chip — the
    /// property that lets FAB avoid spilling ciphertext limbs to HBM (Section 2.2).
    pub fn ciphertext_fits_on_chip(&self, params: &CkksParams) -> bool {
        2 * params.total_raised_limbs() <= self.capacity_limbs()
    }
}

/// Report of the KeySwitch working set versus on-chip capacity (the ~112 MB vs 43 MB
/// discussion of Section 4.6).
#[derive(Debug, Clone, PartialEq)]
pub struct WorkingSetReport {
    /// Size of the switching key in MiB.
    pub key_mib: f64,
    /// Size of the (raised) ciphertext in MiB.
    pub ciphertext_mib: f64,
    /// Total working set in MiB.
    pub total_mib: f64,
    /// On-chip capacity in MiB.
    pub on_chip_mib: f64,
    /// Whether the whole working set fits on chip at once (it does not on the U280 — the
    /// modified datapath streams the key digit by digit instead).
    pub fits_entirely: bool,
}

impl WorkingSetReport {
    /// Builds the report for a parameter set on a given configuration.
    pub fn new(config: &FabConfig, params: &CkksParams) -> Self {
        let key_mib = params.switching_key_bytes(false) as f64 / (1024.0 * 1024.0);
        let ciphertext_mib = params.max_ciphertext_bytes() as f64 / (1024.0 * 1024.0);
        let total_mib = key_mib + ciphertext_mib;
        let on_chip_mib = config.on_chip.capacity_mib();
        Self {
            key_mib,
            ciphertext_mib,
            total_mib,
            on_chip_mib,
            fits_entirely: total_mib <= on_chip_mib,
        }
    }

    /// The fraction of the key that must be resident at any time under the modified datapath:
    /// one digit's worth of key limbs (`2 × (ℓ+1+α)` limbs out of `2·dnum·(ℓ+1+α)`).
    pub fn resident_key_fraction(&self, params: &CkksParams) -> f64 {
        1.0 / params.dnum as f64
    }
}

/// HBM transfer model.
#[derive(Debug, Clone)]
pub struct HbmModel {
    bytes_per_cycle: f64,
    limb_bytes: usize,
}

impl HbmModel {
    /// Builds the model from the configuration and parameter set.
    pub fn new(config: &FabConfig, params: &CkksParams) -> Self {
        Self {
            bytes_per_cycle: config.hbm_bytes_per_cycle(),
            limb_bytes: params.limb_bytes(),
        }
    }

    /// Cycles to stream `bytes` from (or to) HBM at full bandwidth.
    pub fn transfer_cycles(&self, bytes: usize) -> u64 {
        (bytes as f64 / self.bytes_per_cycle).ceil() as u64
    }

    /// Cycles to stream one ciphertext limb (the ~300-cycle key-read latency of Section 4.6).
    pub fn limb_cycles(&self) -> u64 {
        self.transfer_cycles(self.limb_bytes)
    }

    /// Bytes of one packed limb.
    pub fn limb_bytes(&self) -> usize {
        self.limb_bytes
    }
}

/// Analytical software-traffic model of the key-switch datapath, calibrated against the
/// PR 7 byte meter.
///
/// The model prices each datapath stage of Section 4.6 in *row passes* over the software
/// layout (a row = `N` 64-bit words) and is deliberately simpler than the exact
/// [`fab_ckks::accounting`] closed forms: every NTT is priced at `log2 N + 1` sweeps
/// (butterfly stages + one canonicalisation) even though the lazy forwards skip the last
/// sweep, and each `k`-term basis-conversion row is priced at its coefficient-major
/// accumulation (`k` reads, one write) without the canonicalisation sweep ModDown adds.
/// Those simplifications are the model's entire deviation from measurement, and
/// [`SoftwareTrafficModel::TOLERANCE`] bounds it.
#[derive(Debug, Clone)]
pub struct SoftwareTrafficModel {
    degree: usize,
}

impl SoftwareTrafficModel {
    /// Calibrated software word size: the meter measures 64-bit words (the hardware packs
    /// 54-bit words — divide by 64/54 when comparing against FAB's HBM figures).
    pub const WORD_BYTES: u64 = 8;
    /// Relative tolerance on modelled vs metered bytes per op, bounding the documented
    /// simplifications above.
    pub const TOLERANCE: f64 = 0.05;

    /// Builds the model for a parameter set.
    pub fn new(params: &CkksParams) -> Self {
        Self {
            degree: params.degree(),
        }
    }

    /// Bytes of one software limb row (`N` 64-bit words).
    pub fn row_bytes(&self) -> u64 {
        self.degree as u64 * Self::WORD_BYTES
    }

    /// One NTT of one row: `log2 N` butterfly sweeps plus one canonicalisation sweep, each
    /// reading and writing the row.
    pub fn transform_bytes(&self) -> u64 {
        2 * self.row_bytes() * (self.degree.trailing_zeros() as u64 + 1)
    }

    /// Modelled bytes of one hybrid key switch (coefficient entry) at `limbs = ℓ+1` with
    /// `special = |P|` extension limbs and digit size `alpha`, summing the Section 4.6
    /// datapath stages: digit raise (hoisted products, lifts, ModUp conversions), the KSKIP
    /// inner product over the β digits, the accumulator inverses, and both ModDowns.
    pub fn key_switch_bytes(&self, limbs: usize, special: usize, alpha: usize) -> u64 {
        let row = self.row_bytes();
        let transform = self.transform_bytes();
        let beta = limbs.div_ceil(alpha);
        let raised = (limbs + special) as u64;

        // One k-term conversion row, coefficient-major: k row reads plus one row write.
        let conversion = |k: u64| (k + 1) * row;

        // Digit raise: hoisted products (read + write per source row), one lift NTT per
        // digit row, and per digit one k-term conversion + NTT for each extension row.
        let mut raise = 2 * limbs as u64 * row + limbs as u64 * transform;
        for j in 0..beta {
            let len = (((j + 1) * alpha).min(limbs) - j * alpha) as u64;
            raise += (raised - len) * (conversion(len) + transform);
        }

        // KSKIP: per raised row and digit, read the operand row and both key rows (the sums
        // stay in registers); both output rows are written once.
        let kskip = raised * (beta as u64 * 3 * row + 2 * row);

        // Both accumulators come back to coefficient form.
        let inverses = 2 * raised * transform;

        // ModDown ×2: hoisted products over the special rows, then per output row one
        // k-term conversion plus the `(x - conv)·P⁻¹` combine (two reads, one write).
        let special_u = special as u64;
        let mod_down = 2 * (2 * special_u * row + limbs as u64 * (conversion(special_u) + 3 * row));

        raise + kskip + inverses + mod_down
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (FabConfig, CkksParams) {
        (FabConfig::alveo_u280(), CkksParams::fab_paper())
    }

    #[test]
    fn bank_geometry_matches_figure_4() {
        let (config, params) = setup();
        let model = OnChipMemoryModel::new(config.on_chip.clone(), &params);
        assert_eq!(model.uram_blocks_per_bank(), 192);
        assert_eq!(model.limbs_per_uram_bank(), 16);
        assert_eq!(model.bram_blocks_per_bank(), 1536);
        assert_eq!(model.limbs_per_bram_bank(), 8);
        // Five URAM banks (2×32-limb c0/c1 + 16-limb misc) and three BRAM banks account for
        // the 960 URAM / 3840 BRAM blocks of Table 3.
        assert_eq!(5 * model.uram_blocks_per_bank(), 960);
        assert_eq!(2 * model.bram_blocks_per_bank() + 768, 3840);
    }

    #[test]
    fn ciphertext_fits_on_chip_at_paper_parameters() {
        let (config, params) = setup();
        let model = OnChipMemoryModel::new(config.on_chip.clone(), &params);
        assert!(model.ciphertext_fits_on_chip(&params));
        // Roughly 97 limbs of on-chip storage at 0.44 MB per limb.
        assert!(model.capacity_limbs() > 64 && model.capacity_limbs() < 128);
    }

    #[test]
    fn working_set_exceeds_on_chip_capacity() {
        // Section 4.6: ~112 MB of key + ciphertext data must be managed within 43 MB.
        let (config, params) = setup();
        let report = WorkingSetReport::new(&config, &params);
        assert!(report.key_mib > 80.0 && report.key_mib < 90.0);
        assert!(report.ciphertext_mib > 26.0 && report.ciphertext_mib < 29.0);
        assert!(report.total_mib > 105.0 && report.total_mib < 120.0);
        assert!(!report.fits_entirely);
        assert!((report.resident_key_fraction(&params) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn hbm_limb_latency_matches_paper() {
        // "hiding the key read latency (which is about 300 clock cycles)" — Section 4.6.
        let (config, params) = setup();
        let hbm = HbmModel::new(&config, &params);
        let cycles = hbm.limb_cycles();
        assert!((250..350).contains(&cycles), "limb read cycles {cycles}");
        assert_eq!(hbm.limb_bytes(), 442_368);
    }

    #[test]
    fn software_model_agrees_with_metered_traffic() {
        // The workspace-level `bytes_accounting.rs` suite asserts the closed-form
        // `accounting::key_switch_bytes` equals the traffic the meter actually records, so
        // pinning the analytical model against the closed form pins it against measurement.
        // Checked at the testing shape (every level) and the paper shape (spot levels).
        for (params, levels) in [
            (CkksParams::testing(), (1..=6).collect::<Vec<_>>()),
            (CkksParams::fab_paper(), vec![3, 11, 23]),
        ] {
            let model = SoftwareTrafficModel::new(&params);
            let special = params.special_limbs();
            let alpha = params.alpha();
            for level in levels {
                let limbs = level + 1;
                let modelled = model.key_switch_bytes(limbs, special, alpha) as f64;
                let metered =
                    fab_ckks::accounting::key_switch_bytes(params.degree(), limbs, special, alpha)
                        .total() as f64;
                let deviation = (modelled - metered).abs() / metered;
                assert!(
                    deviation <= SoftwareTrafficModel::TOLERANCE,
                    "modelled {modelled} vs metered {metered} bytes: deviation {:.3} \
                     exceeds tolerance at level {level}",
                    deviation
                );
            }
        }
    }

    #[test]
    fn transfer_cycles_scale_linearly() {
        let (config, params) = setup();
        let hbm = HbmModel::new(&config, &params);
        let one = hbm.transfer_cycles(1_000_000);
        let two = hbm.transfer_cycles(2_000_000);
        assert!(two >= 2 * one - 2 && two <= 2 * one + 2);
    }
}
