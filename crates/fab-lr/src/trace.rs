//! The HELR iteration workload for the accelerator model (the FAB-1 / FAB-2 rows of Table 8).
//!
//! Since the trace-recording redesign, the serial op mix of the workload is no longer
//! hand-written: one miniature iteration of the *real* encrypted trainer is planned through
//! the execute/plan seam of `fab-ckks` (validated op-for-op against a recorded execution by
//! this crate's tests), and its per-phase structure is scaled to the benchmark parameters.
//! The miniature is the sample-packed iteration the trainer executes, planned for one sample:
//! its sigmoid phase is the masked sigmoid (two ciphertext multiplies and the mask's
//! plaintext product), and its data touches are the forward and gradient plaintext products.
//! The aggregation rotations below are still structural rather than planned at the
//! benchmark's shape.
//!
//! One iteration of encrypted LR training at the benchmark scale consists of
//!
//! * a **data-parallel part** — streaming every sparsely-packed data ciphertext through the
//!   inner-product / gradient accumulation (mostly plaintext multiplications, additions and a
//!   few hoisted rotations at low levels), which FAB-2 distributes over eight FPGAs, and
//! * a **serial part** — the sigmoid evaluation, the weight update and the bootstrapping of
//!   the weight ciphertexts at the end of the iteration ("a bootstrapping operation after
//!   every iteration", Section 5.5), which stays on one FPGA, plus
//! * ~12 ms of inter-FPGA communication per iteration for FAB-2 (Section 5.5).
//!
//! Since the BSGS refactor the end-of-iteration bootstrap is no longer hand-approximated
//! either: the serial trace embeds the *planned* trace of the real sparse-slot bootstrapper
//! (`fab_ckks::Bootstrapper` with [`fab_ckks::bootstrap::BootstrapParams::sparse_for_scheme`])
//! at the benchmark parameters — the same pipeline whose recorded execution is pinned
//! op-for-op to its plan by the fab-ckks tests, and the one
//! [`crate::EncryptedLogisticRegression::train_with_refresh`] really executes.

use std::collections::HashMap;
use std::sync::Mutex;

use fab_ckks::bootstrap::BootstrapParams;
use fab_ckks::{Bootstrapper, CkksContext, CkksParams};
use fab_core::baselines::HelrTask;
use fab_core::workload::{HeOp, OpTrace, TraceCost};
use fab_core::{FabConfig, MultiFpgaSystem, OpCostModel, ParallelWorkload};

/// Breakdown of one modelled HELR iteration.
#[derive(Debug, Clone, PartialEq)]
pub struct HelrWorkloadBreakdown {
    /// Number of sparsely-packed data ciphertexts processed per iteration.
    pub data_ciphertexts: usize,
    /// Time of the data-parallel part on a single FPGA, in seconds.
    pub parallel_s: f64,
    /// Time of the serial part (sigmoid, update, bootstrapping), in seconds.
    pub serial_s: f64,
    /// Inter-FPGA communication per iteration, in seconds (only paid by multi-FPGA systems).
    pub communication_s: f64,
    /// Total time per iteration on a single FPGA (FAB-1), in seconds.
    pub fab1_s: f64,
    /// Total time per iteration on `num_fpgas` FPGAs (FAB-2), in seconds.
    pub fab2_s: f64,
    /// Number of FPGAs in the multi-FPGA configuration.
    pub num_fpgas: usize,
}

/// Builds the per-iteration workload for the HELR task at the given parameters.
///
/// `levels_per_iteration` is the multiplicative depth of one LR iteration (5 in HELR).
pub fn helr_iteration_workload(
    params: &CkksParams,
    task: &HelrTask,
    levels_per_iteration: usize,
) -> (ParallelWorkload, OpTrace, OpTrace) {
    let config = FabConfig::alveo_u280();
    let model = OpCostModel::new(config, params.clone());

    // One miniature iteration of the real trainer, planned (not hand-written) and phase-split.
    // The plan is op-for-op identical to a recorded execution — see
    // `encrypted::tests::recorded_iteration_matches_planned_trace_exactly`. Its inputs are
    // constants, so it is planned once per process (context construction is not free).
    static MINI: std::sync::OnceLock<MiniatureIteration> = std::sync::OnceLock::new();
    let mini = MINI.get_or_init(MiniatureIteration::plan);

    // Sparsely-packed ciphertexts: one batch of `batch_size` samples × `features` values packed
    // 256 values per ciphertext.
    let data_ciphertexts = (task.batch_size * task.features).div_ceil(task.slots);
    // The working levels of the iteration sit just above the bootstrapping floor.
    let base_level = levels_per_iteration + 1;

    // Data-parallel trace: every data ciphertext is touched once per plaintext product the
    // real iteration performs on a sample (forward X·w and gradient Xᵀ·error — `touches` is
    // recorded, not assumed), each touch being an element-wise multiplication and the packed
    // accumulation addition at the iteration's working level. The per-sample rescales of the
    // miniature amortise into the level transition already charged to the serial part.
    let mut parallel = OpTrace::new("helr-iteration-parallel");
    for _ in 0..data_ciphertexts {
        for _ in 0..mini.data_touches {
            parallel.push(HeOp::MultiplyPlain { level: base_level });
            parallel.push(HeOp::Add { level: base_level });
        }
    }

    // Serial trace: the aggregation rotations over the slot tree (structural: their count
    // depends on the benchmark packing, not the miniature's), then the sigmoid and weight
    // update with the exact op mix of the real iteration relabelled to the benchmark levels,
    // and the end-of-iteration bootstrapping of the (few) weight ciphertexts. The
    // bootstrapping uses the sparse-slot structure: the linear transforms only span
    // log2(slots) butterfly levels.
    let mut serial = OpTrace::new("helr-iteration-serial");
    let slot_rotations = (task.slots as f64).log2().ceil() as usize;
    for _ in 0..slot_rotations {
        serial.push(HeOp::RotateHoisted { level: base_level });
        serial.push(HeOp::Add { level: base_level });
    }
    for op in mini.relabel(&mini.sigmoid_ops, base_level) {
        serial.push(op);
    }
    for op in mini.relabel(&mini.update_ops, base_level.saturating_sub(3)) {
        serial.push(op);
    }
    serial.extend(&sparse_bootstrap_trace(params, task.slots));

    let workload = ParallelWorkload {
        parallel: parallel.cost(&model),
        serial: serial.cost(&model),
    };
    (workload, parallel, serial)
}

/// The phase-split structure of one planned miniature iteration of the real encrypted
/// trainer, used to scale its op mix to the benchmark parameters.
struct MiniatureIteration {
    /// Plaintext products per sample (forward + gradient passes).
    data_touches: usize,
    /// The sigmoid ops of one chunk (the masked `p(−u) − ½`).
    sigmoid_ops: Vec<HeOp>,
    /// The weight-update ops.
    update_ops: Vec<HeOp>,
}

impl MiniatureIteration {
    /// Plans one single-sample iteration at a reduced parameter set and splits it by phase.
    fn plan() -> Self {
        let params = CkksParams::builder()
            .log_n(12)
            .scale_bits(40)
            .first_prime_bits(60)
            .max_level(12)
            .dnum(4)
            .secret_hamming_weight(Some(64))
            .security_bits(0)
            .build()
            .expect("miniature parameters are valid");
        let ctx = fab_ckks::CkksContext::new_arc(params).expect("miniature context");
        let trace = crate::planned_iteration_trace(&ctx, 16, 1, 1.0)
            .expect("miniature iteration plans within the level budget");
        let phase_ops = |label: &str| -> Vec<HeOp> {
            trace
                .phase_ops(label)
                .map(<[HeOp]>::to_vec)
                .unwrap_or_default()
        };
        let forward = phase_ops(fab_trace::phase::LR_FORWARD);
        let gradient = phase_ops(fab_trace::phase::LR_GRADIENT);
        let data_touches = [&forward, &gradient]
            .into_iter()
            .flatten()
            .filter(|op| matches!(op, HeOp::MultiplyPlain { .. }))
            .count();
        Self {
            data_touches,
            sigmoid_ops: phase_ops(fab_trace::phase::LR_SIGMOID),
            update_ops: phase_ops(fab_trace::phase::LR_UPDATE),
        }
    }

    /// Relabels a phase's ops so its first op sits at `target_level` and subsequent ops keep
    /// their level distance to it (the benchmark iteration runs just above the bootstrapping
    /// floor rather than at the miniature's top level).
    fn relabel(&self, ops: &[HeOp], target_level: usize) -> Vec<HeOp> {
        let first = ops.iter().find_map(HeOp::level).unwrap_or(0);
        ops.iter()
            .map(|op| {
                let remap = |level: usize| target_level.saturating_sub(first.saturating_sub(level));
                match *op {
                    HeOp::Add { level } => HeOp::Add {
                        level: remap(level),
                    },
                    HeOp::MultiplyPlain { level } => HeOp::MultiplyPlain {
                        level: remap(level),
                    },
                    HeOp::Multiply { level } => HeOp::Multiply {
                        level: remap(level),
                    },
                    HeOp::Rescale { level } => HeOp::Rescale {
                        level: remap(level),
                    },
                    HeOp::Rotate { level } => HeOp::Rotate {
                        level: remap(level),
                    },
                    HeOp::RotateHoisted { level } => HeOp::RotateHoisted {
                        level: remap(level),
                    },
                    HeOp::Conjugate { level } => HeOp::Conjugate {
                        level: remap(level),
                    },
                    HeOp::Ntt { count } => HeOp::Ntt { count },
                }
            })
            .collect()
    }
}

/// Bootstrapping trace for a sparsely-packed ciphertext: the *planned* trace of the real
/// sparse-slot bootstrapper at the given parameters — SubSum onto the packing subring, tiled
/// sub-FFT CoeffToSlot/SlotToCoeff under their exact BSGS plans, and one widened-range
/// EvalMod over the real and imaginary halves packed into one slot vector (a fully-packed
/// bootstrap needs two). The same pipeline's recorded execution equals its plan op-for-op (fab-ckks
/// `sparse_bootstrap_refreshes_message_and_matches_predicted_trace`), so the serial part of
/// the HELR workload is no longer a hand-written approximation.
///
/// Planning builds the scheme context at the benchmark parameters (seconds of one-time work),
/// so traces are cached per `(log_n, slots)` for the life of the process.
fn sparse_bootstrap_trace(params: &CkksParams, slots: usize) -> OpTrace {
    static CACHE: Mutex<Option<HashMap<String, OpTrace>>> = Mutex::new(None);
    // The trace depends on every parameter (levels, fft_iter, moduli, secret sparsity), so
    // key on the full parameter set, not just its size.
    let key = format!("{params:?}|{slots}");
    // Recover a poisoned lock: the cache only memoises pure plan outputs, so a panicked
    // thread mid-insert leaves at worst a missing entry, and one panicked test thread must
    // not cascade failures across the rest of the suite.
    let mut guard = CACHE
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    let cache = guard.get_or_insert_with(HashMap::new);
    cache
        .entry(key)
        .or_insert_with(|| {
            let ctx =
                CkksContext::new_arc(params.clone()).expect("benchmark parameters build a context");
            let bootstrap = BootstrapParams::sparse_for_scheme(params, slots);
            Bootstrapper::new(ctx, bootstrap)
                .expect("benchmark parameters carry the sparse bootstrap")
                .predicted_trace()
                .expect("sparse bootstrap plans within the level budget")
        })
        .clone()
}

/// Models the average LR training time per iteration for FAB-1 (one FPGA) and FAB-2
/// (`num_fpgas` FPGAs), returning the full breakdown.
pub fn lr_training_time_s(
    config: &FabConfig,
    params: &CkksParams,
    task: &HelrTask,
    num_fpgas: usize,
    communication_s: f64,
) -> HelrWorkloadBreakdown {
    let (workload, _, _) = helr_iteration_workload(params, task, 5);
    let fab1 = MultiFpgaSystem::new(config.clone(), 1);
    let fab2 = MultiFpgaSystem::new(config.clone(), num_fpgas);
    let data_ciphertexts = (task.batch_size * task.features).div_ceil(task.slots);
    HelrWorkloadBreakdown {
        data_ciphertexts,
        parallel_s: workload.parallel.time_ms(config) / 1e3,
        serial_s: workload.serial.time_ms(config) / 1e3,
        communication_s,
        fab1_s: fab1.execute_ms(&workload, 0.0) / 1e3,
        fab2_s: fab2.execute_ms(&workload, communication_s * 1e3) / 1e3,
        num_fpgas,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fab_core::baselines::{table8_lr_training, HELR_TASK};

    fn breakdown() -> HelrWorkloadBreakdown {
        // FAB runs the LR workload at its own N = 2^16 parameter set (the hardware is designed
        // for it); the CPU/GPU/ASIC baselines of Table 8 use the N = 2^17 HELR configuration.
        lr_training_time_s(
            &FabConfig::alveo_u280(),
            &CkksParams::fab_paper(),
            &HELR_TASK,
            8,
            0.012,
        )
    }

    #[test]
    fn iteration_uses_the_expected_ciphertext_count() {
        let b = breakdown();
        // 1,024 samples × 196 features packed 256 values per ciphertext = 784 ciphertexts.
        assert_eq!(b.data_ciphertexts, 784);
        assert_eq!(b.num_fpgas, 8);
    }

    #[test]
    fn fab1_and_fab2_times_have_the_table_8_shape() {
        let b = breakdown();
        // FAB-1 ≈ 0.103 s and FAB-2 ≈ 0.081 s in the paper; the analytical model must land in
        // the same regime and preserve the ordering.
        assert!(b.fab1_s > 0.03 && b.fab1_s < 0.5, "FAB-1 {}", b.fab1_s);
        assert!(b.fab2_s > 0.02 && b.fab2_s < 0.4, "FAB-2 {}", b.fab2_s);
        assert!(b.fab2_s < b.fab1_s, "eight FPGAs must not be slower");
        // Amdahl: the speedup is far from 8× because bootstrapping is serial.
        let speedup = b.fab1_s / b.fab2_s;
        assert!(speedup > 1.05 && speedup < 3.0, "FAB-2 speedup {speedup}");
        // The serial (bootstrap-dominated) part dominates the iteration, as in the paper.
        assert!(b.serial_s > b.parallel_s / 8.0);
    }

    #[test]
    fn modelled_times_beat_cpu_and_gpu_baselines() {
        let b = breakdown();
        let rows = table8_lr_training();
        let lattigo = rows.iter().find(|r| r.name.contains("Lattigo")).unwrap();
        let gpu = rows.iter().find(|r| r.name.contains("GPU")).unwrap();
        let bts = rows.iter().find(|r| r.name.contains("BTS")).unwrap();
        assert!(
            lattigo.seconds_per_iteration / b.fab2_s > 100.0,
            "CPU speedup too small: {}",
            lattigo.seconds_per_iteration / b.fab2_s
        );
        assert!(
            gpu.seconds_per_iteration / b.fab2_s > 2.0,
            "GPU speedup too small: {}",
            gpu.seconds_per_iteration / b.fab2_s
        );
        // The ASIC remains faster, as the paper reports.
        assert!(bts.seconds_per_iteration < b.fab2_s);
    }

    #[test]
    fn parallel_part_scales_with_batch_size() {
        let params = CkksParams::lr_training();
        let small_task = HelrTask {
            batch_size: 256,
            ..HELR_TASK
        };
        let (small, _, _) = helr_iteration_workload(&params, &small_task, 5);
        let (full, _, _) = helr_iteration_workload(&params, &HELR_TASK, 5);
        assert!(full.parallel.total_cycles > 3 * small.parallel.total_cycles);
        // The serial bootstrap part is independent of the batch size.
        assert_eq!(full.serial.total_cycles, small.serial.total_cycles);
    }
}
