//! # fab-core
//!
//! The FAB accelerator model — the paper's primary contribution, reproduced as a
//! cycle-level analytical model instead of Verilog RTL (see `DESIGN.md` for the substitution
//! argument). The model captures:
//!
//! * the **functional units** (256 modular arithmetic + automorph units, 7-cycle modular
//!   add/sub, 12+12-cycle modular multiply, Section 4.1),
//! * the **NTT datapath** (unified Cooley–Tukey, 256 radix-2 butterflies processing 512
//!   coefficients per cycle, Section 4.5),
//! * the **on-chip memory** (URAM/BRAM bank geometry of Figure 4, 43 MB total, 2 MB register
//!   file) and the **HBM2 main memory** (460 GB/s across 32 AXI ports),
//! * the **KeySwitch datapath** in both its original and modified (Figure 5) forms together
//!   with the smart operation scheduling that overlaps key fetches with compute,
//! * the **multi-FPGA system** (FAB-2: eight Alveo U280 boards connected by 100G Ethernet),
//! * the **FPGA resource estimator** behind Table 3, and
//! * the **published baseline numbers** (CPU/GPU/ASIC/HEAX) that the paper compares against.
//!
//! Every table and figure of the evaluation section is regenerated from these pieces by the
//! facade's `tables` bin (`cargo run --release --bin tables`).
//!
//! ```
//! use fab_ckks::CkksParams;
//! use fab_core::{FabConfig, OpCostModel};
//!
//! let model = OpCostModel::new(FabConfig::alveo_u280(), CkksParams::fab_paper());
//! let mult = model.multiply(CkksParams::fab_paper().max_level);
//! // A fully-loaded homomorphic multiplication takes on the order of a millisecond at 300 MHz.
//! assert!(mult.time_ms(&FabConfig::alveo_u280()) > 0.1);
//! assert!(mult.time_ms(&FabConfig::alveo_u280()) < 10.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baselines;
mod config;
mod cost;
mod design_space;
mod memory;
mod metrics;
mod multi_fpga;
mod resources;
pub mod workload;

pub use config::{CmacConfig, FabConfig, HbmConfig, KeySwitchDatapath, OnChipMemoryConfig};
pub use cost::{OpCost, OpCostModel};
pub use design_space::{dnum_sweep, fft_iter_sweep, DnumPoint, FftIterPoint};
pub use fab_trace::{HeOp, OpCounts, OpTrace};
pub use memory::{HbmModel, OnChipMemoryModel, WorkingSetReport};
pub use metrics::{amortized_mult_time_us, speedup, SpeedupReport};
pub use multi_fpga::{CommunicationModel, MultiFpgaSystem, ParallelWorkload};
pub use resources::{ResourceEstimator, ResourceUtilization};
