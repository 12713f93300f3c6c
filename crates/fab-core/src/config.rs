//! Hardware configuration of the modelled accelerator.

/// Which KeySwitch datapath the scheduler uses (Section 4.6 / Figure 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeySwitchDatapath {
    /// The naïve datapath: all ModUp outputs are written to HBM and read back before KSKIP.
    Original,
    /// The paper's modified datapath: KSKIP starts greedily per digit, extension limbs are
    /// produced block-wise, and no intermediate ciphertext limb touches HBM.
    Modified,
}

/// High Bandwidth Memory (HBM2) configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct HbmConfig {
    /// Total sustained bandwidth in GB/s (the U280 offers up to 460 GB/s).
    pub bandwidth_gbps: f64,
    /// Number of AXI ports exposed to the kernel (32 on the U280).
    pub axi_ports: usize,
    /// Width of each AXI port in bits (256 in FAB).
    pub axi_width_bits: usize,
    /// Burst length supported by the write FIFOs.
    pub burst_length: usize,
    /// Capacity of both HBM stacks in GiB.
    pub capacity_gib: f64,
}

/// On-chip memory configuration (URAM + BRAM banks, Figure 4, plus the register file).
#[derive(Debug, Clone, PartialEq)]
pub struct OnChipMemoryConfig {
    /// Number of URAM blocks used (out of 962 on the U280).
    pub uram_blocks: usize,
    /// Bits per URAM block (288 Kb).
    pub uram_block_kbits: usize,
    /// Number of BRAM blocks used (out of 4032).
    pub bram_blocks: usize,
    /// Bits per BRAM block (18 Kb).
    pub bram_block_kbits: usize,
    /// Register file capacity in MiB.
    pub register_file_mib: f64,
    /// Aggregate internal SRAM bandwidth in TB/s (the paper reports 30 TB/s).
    pub sram_bandwidth_tbps: f64,
}

impl OnChipMemoryConfig {
    /// Total on-chip memory capacity in MiB.
    pub fn capacity_mib(&self) -> f64 {
        let bits = self.uram_blocks * self.uram_block_kbits * 1024
            + self.bram_blocks * self.bram_block_kbits * 1024;
        bits as f64 / 8.0 / (1024.0 * 1024.0)
    }
}

/// 100G Ethernet (CMAC) configuration for multi-FPGA communication (Section 3).
#[derive(Debug, Clone, PartialEq)]
pub struct CmacConfig {
    /// Link rate in Gb/s.
    pub link_gbps: f64,
    /// Width of the kernel-side interface in bits (FAB uses 512).
    pub interface_bits: usize,
    /// Kernel clock in MHz driving the interface.
    pub interface_clock_mhz: f64,
}

impl CmacConfig {
    /// Cycles (at the kernel clock) to transmit one ciphertext limb of `limb_bytes` bytes,
    /// limited by the slower of the Ethernet link and the kernel-side interface.
    pub fn cycles_per_limb(&self, limb_bytes: usize) -> u64 {
        let interface_bytes_per_cycle = self.interface_bits as f64 / 8.0;
        let link_bytes_per_cycle = self.link_gbps * 1e9 / 8.0 / (self.interface_clock_mhz * 1e6);
        let bytes_per_cycle = interface_bytes_per_cycle.min(link_bytes_per_cycle);
        (limb_bytes as f64 / bytes_per_cycle).ceil() as u64
    }
}

/// Full accelerator configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct FabConfig {
    /// Number of functional units (modular add/sub/mult + automorph), 256 in FAB.
    pub functional_units: usize,
    /// Kernel clock frequency in MHz (300 for FAB).
    pub frequency_mhz: f64,
    /// Pipeline latency of a modular addition/subtraction in cycles (7 in FAB; Section 4.1
    /// adds 54-bit operands as two 27-bit DSP words).
    pub mod_add_latency: u64,
    /// Pipeline latency of the integer multiplication stage in cycles (12 in FAB; Section 4.1
    /// multiplies 54-bit operands as three 18-bit DSP words).
    pub int_mul_latency: u64,
    /// Pipeline latency of the shift-add modular reduction in cycles (12 in FAB; Section 4.1's
    /// Algorithm 1 with a 6-bit shift window).
    pub mod_reduce_latency: u64,
    /// DSP slices consumed per functional unit (the 5120/256 = 20 of Table 3).
    pub dsp_per_functional_unit: usize,
    /// Which KeySwitch datapath the scheduler uses.
    pub keyswitch_datapath: KeySwitchDatapath,
    /// HBM configuration.
    pub hbm: HbmConfig,
    /// On-chip memory configuration.
    pub on_chip: OnChipMemoryConfig,
    /// CMAC (multi-FPGA link) configuration.
    pub cmac: CmacConfig,
}

impl FabConfig {
    /// The FAB configuration for a single Xilinx Alveo U280 (Sections 3–4 of the paper).
    pub fn alveo_u280() -> Self {
        Self {
            functional_units: 256,
            frequency_mhz: 300.0,
            mod_add_latency: 7,
            int_mul_latency: 12,
            mod_reduce_latency: 12,
            dsp_per_functional_unit: 20,
            keyswitch_datapath: KeySwitchDatapath::Modified,
            hbm: HbmConfig {
                bandwidth_gbps: 460.0,
                axi_ports: 32,
                axi_width_bits: 256,
                burst_length: 128,
                capacity_gib: 8.0,
            },
            on_chip: OnChipMemoryConfig {
                uram_blocks: 960,
                uram_block_kbits: 288,
                bram_blocks: 3840,
                bram_block_kbits: 18,
                register_file_mib: 2.0,
                sram_bandwidth_tbps: 30.0,
            },
            cmac: CmacConfig {
                link_gbps: 100.0,
                interface_bits: 512,
                interface_clock_mhz: 300.0,
            },
        }
    }

    /// A hypothetical scaled-up FAB with BTS-class resources (8192 modular multipliers and
    /// 512 MB of on-chip memory), used for the paper's "at least 3× faster than BTS" claim in
    /// Section 5.4.
    pub fn bts_class_scaling() -> Self {
        let mut config = Self::alveo_u280();
        config.functional_units = 8192;
        config.on_chip.uram_blocks = 960 * 12;
        config.on_chip.bram_blocks = 3840 * 12;
        config.on_chip.register_file_mib = 22.0;
        config.hbm.bandwidth_gbps = 1200.0;
        config
    }

    /// Total modular multiplier latency (integer multiply + reduction), 24 cycles in FAB.
    pub fn mod_mul_latency(&self) -> u64 {
        self.int_mul_latency + self.mod_reduce_latency
    }

    /// Cycle time in nanoseconds.
    pub fn cycle_ns(&self) -> f64 {
        1e3 / self.frequency_mhz
    }

    /// Converts a cycle count into milliseconds at the configured frequency.
    pub fn cycles_to_ms(&self, cycles: u64) -> f64 {
        cycles as f64 * self.cycle_ns() / 1e6
    }

    /// Converts a cycle count into microseconds at the configured frequency.
    pub fn cycles_to_us(&self, cycles: u64) -> f64 {
        cycles as f64 * self.cycle_ns() / 1e3
    }

    /// HBM bytes deliverable per kernel cycle (≈ 1533 B at 460 GB/s and 300 MHz).
    pub fn hbm_bytes_per_cycle(&self) -> f64 {
        self.hbm.bandwidth_gbps * 1e9 / (self.frequency_mhz * 1e6)
    }
}

impl Default for FabConfig {
    fn default() -> Self {
        Self::alveo_u280()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u280_configuration_matches_paper_figures() {
        let config = FabConfig::alveo_u280();
        assert_eq!(config.functional_units, 256);
        assert_eq!(config.frequency_mhz, 300.0);
        assert_eq!(config.mod_mul_latency(), 24);
        assert_eq!(config.mod_add_latency, 7);
        // On-chip memory ≈ 43 MB (Section 4.2).
        let capacity = config.on_chip.capacity_mib();
        assert!(
            capacity > 41.0 && capacity < 44.0,
            "capacity {capacity} MiB"
        );
        // HBM delivers ≈ 1.5 KB per 300 MHz cycle.
        let bpc = config.hbm_bytes_per_cycle();
        assert!(bpc > 1400.0 && bpc < 1600.0, "bytes/cycle {bpc}");
    }

    #[test]
    fn cmac_limb_transfer_matches_paper_cycle_count() {
        // Section 3: with the 512-bit interface it takes ~11,399 cycles to transmit a single
        // 0.44 MB limb and ~546,980 cycles for a full ciphertext.
        let config = FabConfig::alveo_u280();
        let limb_bytes = (1usize << 16) * 54 / 8;
        let cycles = config.cmac.cycles_per_limb(limb_bytes);
        assert!(
            (10_000..13_000).contains(&cycles),
            "limb transfer cycles {cycles}"
        );
        let full_ciphertext = cycles * 48; // 48 limbs at log Q = 1693-class parameters
        assert!(full_ciphertext > 450_000 && full_ciphertext < 650_000);
    }

    #[test]
    fn cmac_narrow_interface_is_link_limited() {
        // With a 256-bit interface the kernel side (76 Gbps) is slower than the 100G link, so
        // the transfer takes longer (the reason the paper chose 512 bits).
        let mut narrow = FabConfig::alveo_u280().cmac;
        narrow.interface_bits = 256;
        let wide = FabConfig::alveo_u280().cmac;
        let limb_bytes = (1usize << 16) * 54 / 8;
        assert!(narrow.cycles_per_limb(limb_bytes) > wide.cycles_per_limb(limb_bytes));
    }

    #[test]
    fn time_conversions_are_consistent() {
        let config = FabConfig::alveo_u280();
        assert!((config.cycles_to_ms(300_000) - 1.0).abs() < 1e-9);
        assert!((config.cycles_to_us(300) - 1.0).abs() < 1e-9);
        assert!((config.cycle_ns() - 3.333).abs() < 0.01);
    }

    #[test]
    fn bts_class_scaling_increases_resources() {
        let base = FabConfig::alveo_u280();
        let scaled = FabConfig::bts_class_scaling();
        assert!(scaled.functional_units > base.functional_units);
        assert!(scaled.on_chip.capacity_mib() > 10.0 * base.on_chip.capacity_mib());
    }

    #[test]
    fn alveo_u280_preset_matches_the_paper() {
        // Pin the preset's load-bearing fields (Section 4: 256 FUs at 300 MHz, the modified
        // datapath, 460 GB/s HBM over 32 AXI ports).
        let config = FabConfig::alveo_u280();
        assert_eq!(config.functional_units, 256);
        assert!((config.frequency_mhz - 300.0).abs() < 1e-9);
        assert_eq!(config.keyswitch_datapath, KeySwitchDatapath::Modified);
        assert_eq!(config.hbm.axi_ports, 32);
        assert!((config.hbm.bandwidth_gbps - 460.0).abs() < 1e-9);
    }
}
