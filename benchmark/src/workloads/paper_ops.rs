//! `paper_ops`: Table 5's op set at the paper's own parameters (`N = 2^16, L = 23,
//! dnum = 3`), top level: multiply → rescale → rotate(1) → add.

use std::path::Path;
use std::sync::Arc;

use super::{row_rungs, LayerValues, Settled, Traced, Verdict, Workload};
use crate::api::{ct_digest, Ct, ParamSet, Probe, Scheme};
use crate::harness::{best_of, or_zero, Digest, SlotErrors};
use crate::spans::{each_ms, Recorder};

/// Bits the result must keep (29.7 measured at seed 1).
const PRECISION_FLOOR_BITS: f64 = 31.5;

pub struct PaperOps {
    scheme: Scheme,
    x: Vec<f64>,
    y: Vec<f64>,
    a: Ct,
    b: Ct,
    output: Option<Ct>,
}

impl Workload for PaperOps {
    const PARAMS: ParamSet = ParamSet::FabPaper;

    fn setup(seed: u64, _scratch: &Path, probe: &Option<Arc<Probe>>) -> Result<Self, String> {
        let mut scheme = Scheme::new(Self::PARAMS, seed, probe)?;
        scheme.add_rotation_keys(&[1], false)?;
        let level = scheme.max_level();
        let x = scheme.random_slots(1.0);
        let y = scheme.random_slots(1.0);
        let a = scheme.encrypt(&x, level)?;
        let b = scheme.encrypt(&y, level)?;
        Ok(Self {
            scheme,
            x,
            y,
            a,
            b,
            output: None,
        })
    }

    fn input_digest(&self) -> u64 {
        let mut d = Digest::default();
        d.floats(&self.x);
        d.floats(&self.y);
        d.finish()
    }

    fn round(&mut self, rec: &mut Recorder) -> Result<(), String> {
        let span = rec.enter("ckks.multiply");
        let product = self.scheme.multiply(&self.a, &self.b)?;
        rec.exit(span);
        let span = rec.enter("ckks.rescale");
        let rescaled = self.scheme.rescale(&product)?;
        rec.exit(span);
        let span = rec.enter("ckks.rotate");
        let rotated = self.scheme.rotate(&rescaled, 1)?;
        rec.exit(span);
        let span = rec.enter("ckks.add");
        let sum = self.scheme.add(&rotated, &rescaled)?;
        rec.exit(span);
        self.output = Some(sum);
        Ok(())
    }

    fn settle(&mut self) -> Result<Settled, String> {
        Ok(Settled::single(self.output.as_ref().map(ct_digest)))
    }

    fn verify(&mut self, sabotage: bool) -> Result<Verdict, String> {
        let output = self.output.as_ref().ok_or("no round produced an output")?;
        let got = self.scheme.decrypt(output)?;
        let product: Vec<f64> = self.x.iter().zip(&self.y).map(|(x, y)| x * y).collect();
        let mut want: Vec<f64> = (0..product.len())
            .map(|i| product[(i + 1) % product.len()] + product[i])
            .collect();
        if sabotage {
            want[0] += 1.0;
        }
        Ok(Verdict::gate(
            SlotErrors::of(&got, &want),
            PRECISION_FLOOR_BITS,
        ))
    }

    fn layer_metrics(&mut self, _seed: u64, traced: &Traced) -> Result<LayerValues, String> {
        // At 100 MB a key this workload's own scheme serves the row rungs; the evaluator
        // rungs are the spans of the unit itself. No hoisted batch is measured here.
        let mut out = row_rungs(&mut self.scheme, &self.a, 5)?;
        let best = |name: &str| or_zero(best_of(&each_ms(traced.spans, name), 0));
        out.extend([
            ("ckks.multiply_ms", best("ckks.multiply")),
            ("ckks.rescale_ms", best("ckks.rescale")),
            ("ckks.rotate_ms", best("ckks.rotate")),
            ("ckks.add_ms", best("ckks.add")),
        ]);
        Ok(out)
    }
}
