//! Cycle-level cost model for CKKS operations on the FAB microarchitecture.
//!
//! Every homomorphic operation decomposes into four primitive kernels that the FAB functional
//! units execute (Section 4): element-wise modular arithmetic over one limb, the NTT/iNTT over
//! one limb, the automorph permutation, and approximate basis conversion. The model charges
//! cycles for each primitive from the datapath geometry (256 functional units, 512 coefficients
//! per NTT cycle) and charges HBM cycles for the data each operation must stream (switching
//! keys, plaintexts); per phase the scheduler overlaps compute with prefetch, so the phase time
//! is the maximum of the two — the balanced-design argument at the heart of the paper.

use fab_ckks::CkksParams;
use fab_trace::{HeOp, OpTrace};

use crate::memory::HbmModel;
use crate::{FabConfig, KeySwitchDatapath};

/// The cost of one operation: compute cycles, memory cycles, and the overlapped total.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OpCost {
    /// Cycles spent in the functional units / NTT datapath.
    pub compute_cycles: u64,
    /// Cycles of HBM traffic (keys, plaintext operands, spilled limbs).
    pub memory_cycles: u64,
    /// Total cycles after overlapping compute with prefetch (per-phase maxima).
    pub total_cycles: u64,
    /// Number of NTT/iNTT invocations (single-limb transforms) — reported in Figure 2.
    pub ntt_count: u64,
    /// Bytes moved to/from HBM.
    pub hbm_bytes: u64,
}

impl OpCost {
    /// Sequential composition of two costs.
    pub fn then(self, other: OpCost) -> OpCost {
        OpCost {
            compute_cycles: self.compute_cycles + other.compute_cycles,
            memory_cycles: self.memory_cycles + other.memory_cycles,
            total_cycles: self.total_cycles + other.total_cycles,
            ntt_count: self.ntt_count + other.ntt_count,
            hbm_bytes: self.hbm_bytes + other.hbm_bytes,
        }
    }

    /// Repeats this cost `count` times.
    pub fn repeat(self, count: u64) -> OpCost {
        OpCost {
            compute_cycles: self.compute_cycles * count,
            memory_cycles: self.memory_cycles * count,
            total_cycles: self.total_cycles * count,
            ntt_count: self.ntt_count * count,
            hbm_bytes: self.hbm_bytes * count,
        }
    }

    /// Wall-clock time in milliseconds on the given configuration.
    pub fn time_ms(&self, config: &FabConfig) -> f64 {
        config.cycles_to_ms(self.total_cycles)
    }

    /// Wall-clock time in microseconds on the given configuration.
    pub fn time_us(&self, config: &FabConfig) -> f64 {
        config.cycles_to_us(self.total_cycles)
    }

    /// Whether the operation is memory bound (memory cycles exceed compute cycles).
    pub fn is_memory_bound(&self) -> bool {
        self.memory_cycles > self.compute_cycles
    }
}

/// Cycle-level cost model of FAB for one CKKS parameter set.
#[derive(Debug, Clone)]
pub struct OpCostModel {
    config: FabConfig,
    params: CkksParams,
    hbm: HbmModel,
}

impl OpCostModel {
    /// Builds the model.
    pub fn new(config: FabConfig, params: CkksParams) -> Self {
        let hbm = HbmModel::new(&config, &params);
        Self {
            config,
            params,
            hbm,
        }
    }

    /// The accelerator configuration.
    pub fn config(&self) -> &FabConfig {
        &self.config
    }

    /// The CKKS parameter set.
    pub fn params(&self) -> &CkksParams {
        &self.params
    }

    // ----------------------------------------------------------------- primitive kernels

    /// Cycles for one element-wise pass over a single limb (one modular operation per
    /// coefficient, 256 per cycle, plus the pipeline fill).
    pub fn elementwise_cycles(&self) -> u64 {
        let n = self.params.degree() as u64;
        n.div_ceil(self.config.functional_units as u64) + self.config.mod_mul_latency()
    }

    /// Cycles for one NTT or iNTT over a single limb: `log N` stages, 512 coefficients per
    /// cycle (256 radix-2 butterflies), plus pipeline fill per stage (Section 4.5).
    pub fn ntt_cycles(&self) -> u64 {
        let n = self.params.degree() as u64;
        let log_n = self.params.log_n as u64;
        let per_stage = n.div_ceil(2 * self.config.functional_units as u64);
        log_n * (per_stage + self.config.mod_mul_latency() + self.config.mod_add_latency)
    }

    /// Cycles for the automorph permutation of a single limb (one read-permute-write pass).
    pub fn automorph_cycles(&self) -> u64 {
        let n = self.params.degree() as u64;
        n.div_ceil(self.config.functional_units as u64)
    }

    /// Cycles for approximate basis conversion from `source` limbs to `target` limbs: the
    /// hoisted products (one element-wise multiply per source limb) plus one multiply-accumulate
    /// per (source, target) pair. The smart scheduling of Section 4.6 shares the hoisted
    /// products across all targets, halving the multiplication count versus the naïve form.
    pub fn basis_convert_cycles(&self, source: usize, target: usize) -> u64 {
        let hoisted = source as u64 * self.elementwise_cycles();
        let accumulate = (source as u64 * target as u64) * self.elementwise_cycles();
        hoisted + accumulate
    }

    /// Cycles to read or write one limb of HBM data.
    pub fn hbm_limb_cycles(&self) -> u64 {
        self.hbm.limb_cycles()
    }

    // --------------------------------------------------------------------- CKKS operations

    /// Homomorphic addition at `level` (element-wise over both ring elements, data on chip).
    pub fn add(&self, level: usize) -> OpCost {
        let limbs = (level + 1) as u64;
        let compute = 2 * limbs * self.elementwise_cycles();
        OpCost {
            compute_cycles: compute,
            memory_cycles: 0,
            total_cycles: compute,
            ntt_count: 0,
            hbm_bytes: 0,
        }
    }

    /// Plaintext multiplication at `level` (element-wise over both ring elements; the plaintext
    /// is streamed from HBM).
    pub fn multiply_plain(&self, level: usize) -> OpCost {
        let limbs = (level + 1) as u64;
        let compute = 2 * limbs * self.elementwise_cycles();
        let memory = limbs * self.hbm_limb_cycles();
        OpCost {
            compute_cycles: compute,
            memory_cycles: memory,
            total_cycles: compute.max(memory),
            ntt_count: 0,
            hbm_bytes: limbs * self.hbm.limb_bytes() as u64,
        }
    }

    /// Rescaling at `level` (divide by `q_level`): one iNTT of the dropped limb, a correction
    /// pass and NTT over every remaining limb, for both ring elements.
    pub fn rescale(&self, level: usize) -> OpCost {
        let remaining = level as u64;
        let compute = 2
            * (self.ntt_cycles()
                + remaining * (2 * self.elementwise_cycles() + self.ntt_cycles()) / 2);
        let ntt_count = 2 * (1 + remaining / 2);
        OpCost {
            compute_cycles: compute,
            memory_cycles: 0,
            total_cycles: compute,
            ntt_count,
            hbm_bytes: 0,
        }
    }

    /// Hybrid key switching of one polynomial at `level` (Decomp → ModUp → KSKIP → ModDown,
    /// Figure 5), under the configured datapath.
    pub fn key_switch(&self, level: usize) -> OpCost {
        let limbs = (level + 1) as u64;
        let alpha = self.params.alpha() as u64;
        let special = self.params.special_limbs() as u64;
        let beta = limbs.div_ceil(alpha);
        let raised = limbs + special;
        let elementwise = self.elementwise_cycles();
        let ntt = self.ntt_cycles();

        // The digit limbs enter in evaluation form and must be brought to coefficient form
        // once for the basis conversion (iNTT per source limb).
        let decomp_intt = limbs * ntt;

        // Per digit: generate the extension limbs (basis conversion to all limbs outside the
        // digit plus the special limbs), transform them with the NTT, and accumulate the
        // KSKIP inner product over the raised basis for both key halves.
        let mut per_digit_compute = 0u64;
        let targets = raised - alpha;
        per_digit_compute += self.basis_convert_cycles(alpha as usize, targets as usize);
        per_digit_compute += targets * ntt;
        per_digit_compute += 2 * raised * 2 * elementwise; // multiply + accumulate, two halves
        let per_digit_ntt = targets;

        // Per digit memory: stream the corresponding key block (2 ring elements over the
        // raised basis).
        let per_digit_key_limbs = 2 * raised;
        let per_digit_memory = per_digit_key_limbs * self.hbm_limb_cycles();

        // Original datapath additionally writes the ModUp outputs to HBM and reads them back.
        let spill_limbs = match self.config.keyswitch_datapath {
            KeySwitchDatapath::Modified => 0,
            KeySwitchDatapath::Original => 2 * raised,
        };
        let per_digit_spill = spill_limbs * self.hbm_limb_cycles();

        // ModDown: for both accumulated halves, bring the special limbs to coefficient form,
        // convert them down to Q_level, and apply the correction (subtract + multiply), then
        // return to evaluation form.
        let mod_down_compute = 2
            * (special * ntt
                + self.basis_convert_cycles(special as usize, limbs as usize)
                + limbs * 2 * elementwise
                + limbs * ntt);
        let mod_down_ntt = 2 * (special + limbs);

        let compute = decomp_intt + beta * per_digit_compute + mod_down_compute;
        let memory = beta * (per_digit_memory + per_digit_spill);
        // Smart scheduling overlaps each digit's key prefetch with the previous digit's
        // compute; ModDown has no memory traffic, so the overlapped total is the sum of
        // per-digit maxima plus the purely-compute phases.
        let per_digit_total = (per_digit_compute).max(per_digit_memory + per_digit_spill);
        let total = decomp_intt + beta * per_digit_total + mod_down_compute;

        OpCost {
            compute_cycles: compute,
            memory_cycles: memory,
            total_cycles: total,
            ntt_count: limbs + beta * per_digit_ntt + mod_down_ntt,
            hbm_bytes: beta * (per_digit_key_limbs + spill_limbs) * self.hbm.limb_bytes() as u64,
        }
    }

    /// Ciphertext–ciphertext multiplication at `level` (tensor product + relinearisation key
    /// switch), without the final rescale (reported separately, as in Table 5).
    pub fn multiply(&self, level: usize) -> OpCost {
        let limbs = (level + 1) as u64;
        let tensor = OpCost {
            compute_cycles: 6 * limbs * self.elementwise_cycles(),
            memory_cycles: 0,
            total_cycles: 6 * limbs * self.elementwise_cycles(),
            ntt_count: 0,
            hbm_bytes: 0,
        };
        tensor.then(self.key_switch(level))
    }

    /// Rotation at `level`: automorph of both ring elements plus a key switch.
    pub fn rotate(&self, level: usize) -> OpCost {
        let limbs = (level + 1) as u64;
        let automorph = OpCost {
            compute_cycles: 2 * limbs * self.automorph_cycles(),
            memory_cycles: 0,
            total_cycles: 2 * limbs * self.automorph_cycles(),
            ntt_count: 0,
            hbm_bytes: 0,
        };
        automorph.then(self.key_switch(level))
    }

    /// A rotation that shares the decomposition of a previous rotation on the same ciphertext
    /// (hoisting, as in the Bossuat et al. algorithm FAB adopts; FAB always hoists, as the
    /// software's hoisted batch does): only the automorph, the KSKIP inner product and a share
    /// of the ModDown are charged.
    pub fn rotate_hoisted(&self, level: usize) -> OpCost {
        let limbs = (level + 1) as u64;
        let alpha = self.params.alpha() as u64;
        let special = self.params.special_limbs() as u64;
        let beta = limbs.div_ceil(alpha);
        let raised = limbs + special;
        let elementwise = self.elementwise_cycles();

        let automorph = 2 * limbs * self.automorph_cycles();
        let kskip = beta * 2 * raised * 2 * elementwise;
        let mod_down = 2
            * (special * self.ntt_cycles()
                + self.basis_convert_cycles(special as usize, limbs as usize)
                + limbs * 2 * elementwise
                + limbs * self.ntt_cycles());
        let key_limbs = beta * 2 * raised;
        let memory = key_limbs * self.hbm_limb_cycles();
        let compute = automorph + kskip + mod_down;
        OpCost {
            compute_cycles: compute,
            memory_cycles: memory,
            total_cycles: compute.max(memory),
            ntt_count: 2 * (special + limbs),
            hbm_bytes: key_limbs * self.hbm.limb_bytes() as u64,
        }
    }

    /// Conjugation at `level` (same structure as a rotation).
    pub fn conjugate(&self, level: usize) -> OpCost {
        self.rotate(level)
    }

    // ------------------------------------------------------------------- trace consumers

    /// The cost of one operation from the shared `fab-trace` vocabulary.
    pub fn cost_op(&self, op: &HeOp) -> OpCost {
        match *op {
            HeOp::Add { level } => self.add(level),
            HeOp::MultiplyPlain { level } => self.multiply_plain(level),
            HeOp::Multiply { level } => self.multiply(level),
            HeOp::Rescale { level } => self.rescale(level),
            HeOp::Rotate { level } => self.rotate(level),
            HeOp::RotateHoisted { level } => self.rotate_hoisted(level),
            HeOp::Conjugate { level } => self.conjugate(level),
            HeOp::Ntt { count } => {
                let cycles = count as u64 * self.ntt_cycles();
                OpCost {
                    compute_cycles: cycles,
                    memory_cycles: 0,
                    total_cycles: cycles,
                    ntt_count: count as u64,
                    hbm_bytes: 0,
                }
            }
        }
    }

    /// Total cost of a trace — analytic or recorded from a real execution via
    /// `fab_trace::RecordingSink` — as sequential composition of its op costs.
    pub fn cost_trace(&self, trace: &OpTrace) -> OpCost {
        trace
            .ops
            .iter()
            .fold(OpCost::default(), |acc, op| acc.then(self.cost_op(op)))
    }

    /// Per-phase cost breakdown of a trace carrying phase markers (one entry per
    /// [`OpTrace::phase_slices`] bucket, in order).
    pub fn phase_costs(&self, trace: &OpTrace) -> Vec<(String, OpCost)> {
        trace
            .phase_slices()
            .into_iter()
            .map(|(label, ops)| {
                let cost = ops
                    .iter()
                    .fold(OpCost::default(), |acc, op| acc.then(self.cost_op(op)));
                (label.to_string(), cost)
            })
            .collect()
    }

    /// Throughput of single-limb NTTs in operations per second (Table 6).
    pub fn ntt_throughput_ops(&self) -> f64 {
        let cycles = self.ntt_cycles();
        self.config.frequency_mhz * 1e6 / cycles as f64
    }

    /// Throughput of full homomorphic multiplications (with rescale) in operations per second
    /// at the top level (Table 6).
    pub fn multiply_throughput_ops(&self) -> f64 {
        let cost = self
            .multiply(self.params.max_level)
            .then(self.rescale(self.params.max_level));
        self.config.frequency_mhz * 1e6 / cost.total_cycles as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> OpCostModel {
        OpCostModel::new(FabConfig::alveo_u280(), CkksParams::fab_paper())
    }

    #[test]
    fn primitive_kernel_cycles_match_datapath_geometry() {
        let m = model();
        // N = 2^16 over 256 functional units: 256 cycles per element-wise pass plus pipeline.
        assert_eq!(m.elementwise_cycles(), 256 + 24);
        // NTT: 16 stages × (128 cycles + pipeline) — ≈ log N · N/512 as in Section 4.5.
        assert!(m.ntt_cycles() >= 16 * 128);
        assert!(m.ntt_cycles() < 16 * 200);
        assert_eq!(m.automorph_cycles(), 256);
        // Key-read latency of about 300 cycles per limb (Section 4.6).
        assert!((250..350).contains(&m.hbm_limb_cycles()));
    }

    #[test]
    fn table_5_shape_add_much_cheaper_than_mult() {
        let m = model();
        let level = m.params().max_level;
        let config = m.config().clone();
        let add_ms = m.add(level).time_ms(&config);
        let mult_ms = m.multiply(level).time_ms(&config);
        let rescale_ms = m.rescale(level).time_ms(&config);
        let rotate_ms = m.rotate(level).time_ms(&config);
        // Paper Table 5: Add 0.04 ms, Mult 1.71 ms, Rescale 0.19 ms, Rotate 1.57 ms.
        assert!((0.02..0.08).contains(&add_ms), "add {add_ms}");
        assert!((0.8..4.0).contains(&mult_ms), "mult {mult_ms}");
        assert!((0.05..0.6).contains(&rescale_ms), "rescale {rescale_ms}");
        assert!((0.8..4.0).contains(&rotate_ms), "rotate {rotate_ms}");
        // Ordering: Add << Rescale << Rotate <= Mult.
        assert!(add_ms < rescale_ms && rescale_ms < rotate_ms && rotate_ms <= mult_ms * 1.05);
    }

    #[test]
    fn keyswitch_is_not_memory_bound_with_modified_datapath() {
        let m = model();
        let cost = m.key_switch(m.params().max_level);
        assert!(
            !cost.is_memory_bound(),
            "modified datapath must keep FAB compute bound: {cost:?}"
        );
    }

    #[test]
    fn original_datapath_increases_memory_traffic_and_time() {
        let mut config = FabConfig::alveo_u280();
        config.keyswitch_datapath = KeySwitchDatapath::Original;
        let original = OpCostModel::new(config, CkksParams::fab_paper());
        let modified = model();
        let level = CkksParams::fab_paper().max_level;
        let orig = original.key_switch(level);
        let modi = modified.key_switch(level);
        assert!(orig.hbm_bytes > modi.hbm_bytes);
        assert!(orig.memory_cycles > modi.memory_cycles);
        assert!(orig.total_cycles >= modi.total_cycles);
    }

    #[test]
    fn hoisted_rotation_is_cheaper_than_full_rotation() {
        let m = model();
        let level = m.params().max_level;
        assert!(m.rotate_hoisted(level).total_cycles < m.rotate(level).total_cycles);
    }

    #[test]
    fn costs_grow_with_level() {
        let m = model();
        let mut last = 0u64;
        for level in [3usize, 7, 11, 15, 19, 23] {
            let c = m.multiply(level).total_cycles;
            assert!(c > last, "multiply cycles must grow with level");
            last = c;
        }
    }

    #[test]
    fn table_6_throughputs_beat_heax_reference() {
        // Table 6 (N = 2^14, log Q = 438): FAB 167K NTT/s and 5.7K Mult/s vs HEAX 42K / 2.6K.
        let m = OpCostModel::new(FabConfig::alveo_u280(), CkksParams::heax_comparison());
        let ntt = m.ntt_throughput_ops();
        let mult = m.multiply_throughput_ops();
        assert!(ntt > 100_000.0, "NTT throughput {ntt}");
        assert!(ntt < 600_000.0, "NTT throughput {ntt}");
        assert!(mult > 2_600.0, "Mult throughput {mult}");
        assert!(mult < 30_000.0, "Mult throughput {mult}");
    }

    #[test]
    fn op_cost_composition() {
        let m = model();
        let a = m.add(5);
        let b = m.rescale(5);
        let c = a.then(b);
        assert_eq!(c.compute_cycles, a.compute_cycles + b.compute_cycles);
        let r = a.repeat(3);
        assert_eq!(r.total_cycles, 3 * a.total_cycles);
        assert!(a.time_us(m.config()) > 0.0);
    }
}
