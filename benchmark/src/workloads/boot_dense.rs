//! `boot_dense`: one fully-packed bootstrap followed by `multiply_rescale` down every
//! refreshed level — the numerator of the paper's amortized-mult metric (Table 7).

use std::path::Path;
use std::sync::Arc;

use super::{op_rungs, row_rungs, rung_fixture, LayerValues, Settled, Traced, Verdict, Workload};
use crate::api::{ct_digest, ct_level, Boot, Ct, ParamSet, Probe, Scheme};
use crate::harness::{median, or_zero, Digest, SlotErrors};
use crate::spans::{per_round_ms, Recorder};

/// Bits the refreshed-and-multiplied slots must keep (7.05 measured at seed 1).
const PRECISION_FLOOR_BITS: f64 = 8.0;

pub struct BootDense {
    scheme: Scheme,
    boot: Boot,
    values: Vec<f64>,
    exhausted: Ct,
    ones: Ct,
    /// Levels the bootstrap left, counted by the last round's multiply chain.
    levels: usize,
    output: Option<Ct>,
}

impl Workload for BootDense {
    const PARAMS: ParamSet = ParamSet::BootstrapTesting;

    fn setup(seed: u64, _scratch: &Path, probe: &Option<Arc<Probe>>) -> Result<Self, String> {
        let mut scheme = Scheme::new(Self::PARAMS, seed, probe)?;
        let boot = Boot::new(&mut scheme, probe)?;
        let values = scheme.random_slots(0.5);
        let exhausted = scheme.encrypt(&values, 0)?;
        let ones = scheme.encrypt(&vec![1.0; scheme.slots()], scheme.max_level())?;
        Ok(Self {
            scheme,
            boot,
            values,
            exhausted,
            ones,
            levels: 0,
            output: None,
        })
    }

    fn input_digest(&self) -> u64 {
        let mut d = Digest::default();
        d.floats(&self.values);
        d.words(&[ct_digest(&self.exhausted)]);
        d.finish()
    }

    fn round(&mut self, rec: &mut Recorder) -> Result<(), String> {
        let span = rec.enter("ckks.bootstrap");
        let mut ct = self.boot.bootstrap(&self.scheme, &self.exhausted)?;
        rec.exit(span);
        let span = rec.enter("ckks.mult_chain");
        self.levels = ct_level(&ct);
        for _ in 0..self.levels {
            ct = self.scheme.multiply_rescale(&ct, &self.ones)?;
        }
        rec.exit(span);
        self.output = Some(ct);
        Ok(())
    }

    fn settle(&mut self) -> Result<Settled, String> {
        Ok(Settled::single(self.output.as_ref().map(ct_digest)))
    }

    fn verify(&mut self, sabotage: bool) -> Result<Verdict, String> {
        let output = self.output.as_ref().ok_or("no round produced an output")?;
        let got = self.scheme.decrypt(output)?;
        let mut want = self.values.clone();
        if sabotage {
            want[0] += 1.0;
        }
        Ok(Verdict::gate(
            SlotErrors::of(&got, &want),
            PRECISION_FLOOR_BITS,
        ))
    }

    fn layer_metrics(&mut self, seed: u64, traced: &Traced) -> Result<LayerValues, String> {
        let (mut rungs, a, b) = rung_fixture(Self::PARAMS, seed)?;
        let mut out = row_rungs(&mut rungs, &a, 30)?;
        out.extend(op_rungs(&rungs, &a, &b, 30)?);
        let (phases, covered) = boot_phase_metrics(traced);
        out.extend(phases);
        let residue: Vec<f64> = per_round_ms(traced.spans, "ckks.bootstrap")
            .iter()
            .zip(&covered)
            .map(|(whole, phases)| 100.0 * (whole - phases) / whole)
            .collect();
        out.push(("ckks.boot.residue_pct", or_zero(median(&residue))));

        out.push((
            "ckks.bsgs_stage_ms",
            bsgs_stage_ms(traced, self.boot.coeff_to_slot_stages()),
        ));

        let work = (self.levels * self.scheme.slots()) as f64;
        out.push((
            "ckks.amortized_mult_us_per_slot",
            traced.unit_ms * 1e3 / work,
        ));
        Ok(out)
    }
}

/// Per-unit time in each bootstrap phase (median over traced rounds), and per round the
/// time all five cover.
pub fn boot_phase_metrics(traced: &Traced) -> (LayerValues, Vec<f64>) {
    let names = [
        ("ckks.boot.mod_raise_ms", "mod_raise"),
        ("ckks.boot.sub_sum_ms", "sub_sum"),
        ("ckks.boot.coeff_to_slot_ms", "coeff_to_slot"),
        ("ckks.boot.eval_mod_ms", "eval_mod"),
        ("ckks.boot.slot_to_coeff_ms", "slot_to_coeff"),
    ];
    let mut covered: Vec<f64> = Vec::new();
    let mut metrics = Vec::new();
    for (metric, phase) in names {
        let per_round = per_round_ms(traced.spans, phase);
        covered.resize(covered.len().max(per_round.len()), 0.0);
        for (sum, ms) in covered.iter_mut().zip(&per_round) {
            *sum += ms;
        }
        metrics.push((metric, or_zero(median(&per_round))));
    }
    (metrics, covered)
}

/// One steady-state BSGS stage: the CoeffToSlot phase (its diagonals NTT-cached by the
/// warm-up rounds) divided by its stage count; the conjugation split rides along.
pub fn bsgs_stage_ms(traced: &Traced, stages: usize) -> f64 {
    or_zero(median(&per_round_ms(traced.spans, "coeff_to_slot"))) / stages.max(1) as f64
}
