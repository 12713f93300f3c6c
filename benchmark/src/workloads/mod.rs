//! The four workloads and the shape they share.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use crate::api::{Ct, Drained, ParamSet, Probe, Scheme};
use crate::harness::{best_of, or_zero, SlotErrors};
use crate::spans::{Recorder, Span};

pub mod boot_dense;
pub mod helr_refresh;
pub mod paper_ops;
pub mod serve_durable;

/// Name and one-line reason of every workload, in ladder order.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "boot_dense",
        "fully-packed bootstrap then multiply_rescale down every refreshed level at N=2^10 L=29 dnum=5: BSGS, EvalMod and many-digit key switching on a cache-resident ring; no fab-lr/serve/store",
    ),
    (
        "paper_ops",
        "multiply, rescale, rotate, add at the paper's N=2^16 L=23 dnum=3: a limb row exceeds L2 and a key is ~100 MB, so fab-math NTT and fab-rns ModUp/ModDown do the work",
    ),
    (
        "helr_refresh",
        "two HELR iterations with one sparse-slot bootstrap between them: the same bootstrap layers used sparsely (SubSum, tiled sub-FFT) beside fab-lr's rotations",
    ),
    (
        "serve_durable",
        "32 requests per pass through FabServer with a starved key cache and an fsync-always journal: the only workload with fab-serve and fab-store on the blocking path",
    ),
];

/// What checking one round found.
#[derive(Debug, Clone, Copy)]
pub struct Settled {
    /// Operations the round attempted (1, or the requests of a serving pass).
    pub attempted: u64,
    /// Of those, how many returned an error, were failed or shed, or produced no output.
    pub failed: u64,
    /// Bit pattern of the round's outputs: identical rounds must agree on it.
    pub digest: u64,
}

impl Settled {
    /// A round that is one operation: `digest` of its output, `None` if it produced none.
    pub fn single(digest: Option<u64>) -> Self {
        Self {
            attempted: 1,
            failed: u64::from(digest.is_none()),
            digest: digest.unwrap_or(0),
        }
    }
}

/// What the end-of-run output check found.
#[derive(Debug, Clone, Copy)]
pub struct Verdict {
    /// The last round's output against its cleartext reference.
    pub errors: SlotErrors,
    /// Checks that failed (precision under the workload's floor, bitwise mismatch, …).
    pub failed: u64,
}

impl Verdict {
    /// Fails when the RMS precision is under `floor_bits` (a NaN slot reads as −∞ bits).
    pub fn gate(errors: SlotErrors, floor_bits: f64) -> Self {
        let under = errors.rms_bits() < floor_bits;
        if under {
            eprintln!(
                "precision {:.3} bits is under the floor of {floor_bits} bits",
                errors.rms_bits()
            );
        }
        Self {
            errors,
            failed: u64::from(under),
        }
    }
}

/// Everything the traced rounds produced, handed to [`Workload::layer_metrics`].
pub struct Traced<'a> {
    pub spans: &'a [Span],
    /// What the probe recorded in each traced round (warm-up excluded), in order.
    pub rounds: &'a [Drained],
    /// Best untraced unit of the same process, ms.
    pub unit_ms: f64,
}

/// A layer metric a workload reports: name and value (units live in the registry).
pub type LayerValues = Vec<(&'static str, f64)>;

pub trait Workload: Sized {
    /// The parameter set the unit runs at (prices its recorded trace on the FAB model).
    const PARAMS: ParamSet;

    /// Untimed, once per run: the seed the inputs are built from. Workloads on which some
    /// inputs make an operation of the program fail override this to step past them.
    fn usable_seed(seed: u64) -> Result<u64, String> {
        Ok(seed)
    }

    /// Builds every input from `seed`. Timed by the caller as `setup_s`.
    fn setup(seed: u64, scratch: &Path, probe: &Option<Arc<Probe>>) -> Result<Self, String>;

    /// Digest of the generated inputs (same seed → same digest).
    fn input_digest(&self) -> u64;

    /// Untimed, before every round: restores the state a round starts from, so that every
    /// round does bit-identical work.
    fn prepare(&mut self) -> Result<(), String> {
        Ok(())
    }

    /// One unit of work. Timed by the caller.
    fn round(&mut self, rec: &mut Recorder) -> Result<(), String>;

    /// Untimed, after every round: checks what the round produced.
    fn settle(&mut self) -> Result<Settled, String>;

    /// Untimed, after the last round: the output check against the cleartext reference.
    /// `sabotage` perturbs the reference so the gate can be seen to trip.
    fn verify(&mut self, sabotage: bool) -> Result<Verdict, String>;

    /// Traced runs only: this workload's layer metrics (others are reported as 0).
    fn layer_metrics(&mut self, seed: u64, traced: &Traced) -> Result<LayerValues, String>;
}

/// Times `iters` calls and returns the fastest, in seconds × `scale` (1e3 → ms, 1e6 → µs).
fn best_call(
    iters: usize,
    scale: f64,
    mut call: impl FnMut() -> Result<(), String>,
) -> Result<f64, String> {
    let mut samples = Vec::with_capacity(iters);
    for _ in 0..iters {
        let start = Instant::now();
        call()?;
        samples.push(start.elapsed().as_secs_f64() * scale);
    }
    Ok(or_zero(best_of(&samples, 0)))
}

/// The NTT, basis-conversion and key-switch rungs at `scheme`'s parameters: direct public
/// calls, best of `iters` (the NTT row, being microseconds, best of 200).
pub fn row_rungs(scheme: &mut Scheme, top: &Ct, iters: usize) -> Result<LayerValues, String> {
    let mut row = scheme.ntt_row();
    let ntt_fwd = best_call(200, 1e6, || {
        row.forward();
        Ok(())
    })?;
    let ntt_inv = best_call(200, 1e6, || {
        row.inverse();
        Ok(())
    })?;
    let mut conv = scheme.basis_conversion(top)?;
    let mod_up = best_call(iters, 1e6, || conv.mod_up())?;
    let mod_down = best_call(iters, 1e6, || conv.mod_down())?;
    let key_switch = best_call(iters, 1e3, || scheme.key_switch(top, 1))?;
    Ok(vec![
        ("math.ntt_fwd_us", ntt_fwd),
        ("math.ntt_inv_us", ntt_inv),
        ("rns.mod_up_us", mod_up),
        ("rns.mod_down_us", mod_down),
        ("ckks.key_switch_ms", key_switch),
    ])
}

/// The evaluator rungs at the top level: multiply, rescale, rotate, add and a 4-step hoisted
/// rotation batch, each a direct public call, best of `iters`. `scheme` must hold rotation
/// keys for steps 1–4.
pub fn op_rungs(scheme: &Scheme, a: &Ct, b: &Ct, iters: usize) -> Result<LayerValues, String> {
    let product = scheme.multiply(a, b)?;
    Ok(vec![
        (
            "ckks.multiply_ms",
            best_call(iters, 1e3, || scheme.multiply(a, b).map(drop))?,
        ),
        (
            "ckks.rescale_ms",
            best_call(iters, 1e3, || scheme.rescale(&product).map(drop))?,
        ),
        (
            "ckks.rotate_ms",
            best_call(iters, 1e3, || scheme.rotate(a, 1).map(drop))?,
        ),
        (
            "ckks.add_ms",
            best_call(iters, 1e3, || scheme.add(a, b).map(drop))?,
        ),
        (
            "ckks.hoisted_batch_ms",
            best_call(iters, 1e3, || {
                scheme.rotate_hoisted_batch(a, &[1, 2, 3, 4]).map(drop)
            })?,
        ),
    ])
}

/// A fresh scheme at `set` with rotation keys 1–4 and two top-level ciphertexts, for the
/// rung measurements of workloads whose own keys do not cover those steps.
pub fn rung_fixture(set: ParamSet, seed: u64) -> Result<(Scheme, Ct, Ct), String> {
    let mut scheme = Scheme::new(set, seed, &None)?;
    scheme.add_rotation_keys(&[1, 2, 3, 4], false)?;
    let level = scheme.max_level();
    let x = scheme.random_slots(1.0);
    let y = scheme.random_slots(1.0);
    let a = scheme.encrypt(&x, level)?;
    let b = scheme.encrypt(&y, level)?;
    Ok((scheme, a, b))
}
