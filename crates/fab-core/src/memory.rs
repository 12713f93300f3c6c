//! On-chip memory and HBM models (Section 4.2 and the working-set accounting of Section 4.6).

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
    fn transfer_cycles_scale_linearly() {
        let (config, params) = setup();
        let hbm = HbmModel::new(&config, &params);
        let one = hbm.transfer_cycles(1_000_000);
        let two = hbm.transfer_cycles(2_000_000);
        assert!(two >= 2 * one - 2 && two <= 2 * one + 2);
    }
}
