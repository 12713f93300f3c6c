//! Multi-FPGA (FAB-2) system model: eight Alveo U280 boards connected through 100G Ethernet
//! (Section 3 and Section 5.5 of the paper).
//!
//! The paper's FAB-2 design parallelises the data-parallel part of each logistic-regression
//! iteration across FPGAs while bootstrapping remains on a single board (Amdahl-limited), and
//! pays ~12 ms of inter-FPGA communication per iteration.

use crate::{CmacConfig, FabConfig, OpCost};

/// Inter-FPGA communication model over the CMAC link.
#[derive(Debug, Clone)]
pub struct CommunicationModel {
    cmac: CmacConfig,
    frequency_mhz: f64,
}

impl CommunicationModel {
    /// Builds the communication model from an accelerator configuration.
    pub fn new(config: &FabConfig) -> Self {
        Self {
            cmac: config.cmac.clone(),
            frequency_mhz: config.frequency_mhz,
        }
    }

    /// Time in milliseconds to transfer `limbs` ciphertext limbs of `limb_bytes` bytes each
    /// between two FPGAs.
    pub fn transfer_ms(&self, limbs: usize, limb_bytes: usize) -> f64 {
        let cycles = self.cmac.cycles_per_limb(limb_bytes) * limbs as u64;
        cycles as f64 * 1e3 / (self.frequency_mhz * 1e6)
    }

    /// Time to broadcast a full ciphertext from the master FPGA to the pool (the paper's
    /// broadcast step), assuming a binary-tree relay over `num_fpgas` boards.
    pub fn broadcast_ms(&self, limbs: usize, limb_bytes: usize, num_fpgas: usize) -> f64 {
        let hops = (num_fpgas as f64).log2().ceil();
        self.transfer_ms(limbs, limb_bytes) * hops
    }
}

/// A workload split into a data-parallel part and a serial (non-parallelisable) part.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ParallelWorkload {
    /// Cost of the part that can be distributed across FPGAs (e.g. per-ciphertext updates).
    pub parallel: OpCost,
    /// Cost of the part that stays on one FPGA (e.g. bootstrapping the weight ciphertext).
    pub serial: OpCost,
}

/// A pool of identical FPGAs with a communication model.
#[derive(Debug, Clone)]
pub struct MultiFpgaSystem {
    config: FabConfig,
    num_fpgas: usize,
    communication: CommunicationModel,
}

impl MultiFpgaSystem {
    /// Builds a system of `num_fpgas` boards.
    ///
    /// # Panics
    ///
    /// Panics if `num_fpgas` is zero.
    pub fn new(config: FabConfig, num_fpgas: usize) -> Self {
        assert!(num_fpgas > 0, "at least one FPGA is required");
        let communication = CommunicationModel::new(&config);
        Self {
            config,
            num_fpgas,
            communication,
        }
    }

    /// The per-board configuration.
    pub fn config(&self) -> &FabConfig {
        &self.config
    }

    /// The communication model.
    pub fn communication(&self) -> &CommunicationModel {
        &self.communication
    }

    /// Executes a split workload: the parallel part is divided across the boards, the serial
    /// part runs on one board, and `communication_ms` is added per execution (0 for a single
    /// board).
    pub fn execute_ms(&self, workload: &ParallelWorkload, communication_ms: f64) -> f64 {
        let parallel_ms = workload.parallel.time_ms(&self.config) / self.num_fpgas as f64;
        let serial_ms = workload.serial.time_ms(&self.config);
        let comm = if self.num_fpgas > 1 {
            communication_ms
        } else {
            0.0
        };
        parallel_ms + serial_ms + comm
    }

    /// Speedup of this pool over a single board for the same workload.
    pub fn speedup_over_single(&self, workload: &ParallelWorkload, communication_ms: f64) -> f64 {
        let single = MultiFpgaSystem::new(self.config.clone(), 1);
        single.execute_ms(workload, 0.0) / self.execute_ms(workload, communication_ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_workload() -> ParallelWorkload {
        // 39 ms of parallelisable work and 64 ms of serial (bootstrap) work at 300 MHz,
        // mirroring the FAB-1 / FAB-2 split implied by Table 8.
        let parallel = OpCost {
            compute_cycles: 11_700_000,
            memory_cycles: 0,
            total_cycles: 11_700_000,
            ntt_count: 0,
            hbm_bytes: 0,
        };
        let serial = OpCost {
            compute_cycles: 19_200_000,
            memory_cycles: 0,
            total_cycles: 19_200_000,
            ntt_count: 0,
            hbm_bytes: 0,
        };
        ParallelWorkload { parallel, serial }
    }

    #[test]
    fn amdahl_limits_the_eight_fpga_speedup() {
        let config = FabConfig::alveo_u280();
        let workload = sample_workload();
        let fab2 = MultiFpgaSystem::new(config.clone(), 8);
        let speedup = fab2.speedup_over_single(&workload, 12.0);
        // Table 8: FAB-2 is only ~1.3× faster than FAB-1 despite 8 boards.
        assert!(speedup > 1.0 && speedup < 2.0, "speedup {speedup}");
    }

    #[test]
    fn single_board_pays_no_communication() {
        let config = FabConfig::alveo_u280();
        let workload = sample_workload();
        let fab1 = MultiFpgaSystem::new(config, 1);
        let with_comm = fab1.execute_ms(&workload, 12.0);
        let without = fab1.execute_ms(&workload, 0.0);
        assert!((with_comm - without).abs() < 1e-12);
    }

    #[test]
    fn execution_time_decreases_with_more_fpgas() {
        let config = FabConfig::alveo_u280();
        let workload = sample_workload();
        let mut last = f64::INFINITY;
        for n in [1usize, 2, 4, 8] {
            let t = MultiFpgaSystem::new(config.clone(), n).execute_ms(&workload, 12.0);
            if n == 1 {
                last = t;
                continue;
            }
            assert!(
                t < last + 12.0,
                "time should not grow substantially with more FPGAs"
            );
            last = t;
        }
    }

    #[test]
    fn communication_model_matches_paper_cycle_counts() {
        let config = FabConfig::alveo_u280();
        let comm = CommunicationModel::new(&config);
        let limb_bytes = (1usize << 16) * 54 / 8;
        // One limb ≈ 11,399 cycles ≈ 38 µs at 300 MHz; a full 48-limb ciphertext ≈ 1.8 ms.
        let one = comm.transfer_ms(1, limb_bytes);
        assert!(one > 0.030 && one < 0.045, "one limb {one} ms");
        let ct = comm.transfer_ms(48, limb_bytes);
        assert!(ct > 1.5 && ct < 2.2, "ciphertext {ct} ms");
        let broadcast = comm.broadcast_ms(48, limb_bytes, 8);
        assert!(
            broadcast > ct,
            "broadcast must cost more than a point-to-point transfer"
        );
    }

    #[test]
    #[should_panic(expected = "at least one FPGA")]
    fn zero_fpgas_is_rejected() {
        let _ = MultiFpgaSystem::new(FabConfig::alveo_u280(), 0);
    }
}
