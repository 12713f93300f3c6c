//! `serve_durable`: a fixed cycle of 8 batches × 4 tenants through `FabServer` with a key
//! cache a quarter the size of the tenants' keys and an fsync-always journal on the real
//! filesystem, then timed recoveries of the last pass's journal.

use std::path::Path;
use std::sync::Arc;

use super::{op_rungs, row_rungs, rung_fixture, LayerValues, Settled, Traced, Verdict, Workload};
use crate::api::{CacheCounters, ParamSet, Probe, Serve, Served, Stamp};
use crate::harness::{best_of, median, or_zero, percentile, SlotErrors};
use crate::spans::{each_ms, Recorder};

/// Bits every request's output must keep against the cleartext evaluation of its program.
const PRECISION_FLOOR_BITS: f64 = 24.5;
/// Timed recoveries after the last pass.
const RECOVERIES: usize = 7;

/// What one pass left behind for the layer metrics.
struct Pass {
    served: Vec<Served>,
    cache: CacheCounters,
    journal_bytes: u64,
}

pub struct ServeDurable {
    serve: Serve,
    /// The attached journal holds a finished pass: swap it before the next one.
    journal_used: bool,
    served: Vec<Served>,
    cache_before: CacheCounters,
    passes: Vec<Pass>,
    last_digest: u64,
    recover_ms: Vec<f64>,
}

impl Workload for ServeDurable {
    const PARAMS: ParamSet = ParamSet::Testing;

    fn setup(seed: u64, scratch: &Path, probe: &Option<Arc<Probe>>) -> Result<Self, String> {
        Ok(Self {
            serve: Serve::new(seed, scratch, probe)?,
            journal_used: false,
            served: Vec::new(),
            cache_before: CacheCounters::default(),
            passes: Vec::new(),
            last_digest: 0,
            recover_ms: Vec::new(),
        })
    }

    fn input_digest(&self) -> u64 {
        self.serve.input_digest()
    }

    /// A fresh journal directory per pass; the key cache stays warm across passes (after the
    /// warm-up passes its contents at a pass boundary repeat, because one pass touches four
    /// times what it can hold).
    fn prepare(&mut self) -> Result<(), String> {
        if self.journal_used {
            self.serve.swap_journal()?;
            self.journal_used = false;
        }
        self.served.clear();
        self.cache_before = self.serve.cache();
        Ok(())
    }

    fn round(&mut self, rec: &mut Recorder) -> Result<(), String> {
        self.journal_used = true;
        for batch in 0..Serve::BATCHES {
            let span = rec.enter("serve.submit");
            self.serve.submit_batch(batch);
            rec.exit(span);
            let span = rec.enter("serve.run");
            let outcomes = self.serve.run();
            rec.exit(span);
            self.served.extend(outcomes.into_iter().flatten());
        }
        Ok(())
    }

    fn settle(&mut self) -> Result<Settled, String> {
        let (digest, missing) = self.serve.take_pass_digest();
        let after = self.serve.cache();
        self.passes.push(Pass {
            served: std::mem::take(&mut self.served),
            cache: CacheCounters {
                loads: after.loads - self.cache_before.loads,
                demand: after.demand - self.cache_before.demand,
                evictions: after.evictions - self.cache_before.evictions,
                bytes_fetched: after.bytes_fetched - self.cache_before.bytes_fetched,
            },
            journal_bytes: self.serve.journal_bytes()?,
        });
        self.last_digest = digest;
        let attempted = Serve::REQUESTS as u64;
        Ok(Settled {
            attempted,
            // A failed journal write voids the whole pass: nothing it acknowledged is durable.
            failed: if self.serve.journal_failed() {
                attempted
            } else {
                missing
            },
            digest,
        })
    }

    fn verify(&mut self, sabotage: bool) -> Result<Verdict, String> {
        let mut reference = self.serve.reference()?;
        let mut failed = 0;
        // Bitwise: cache state, prefetch and journaling must not change one output bit.
        if Serve::expected_pass_digest(&reference) != self.last_digest {
            eprintln!("serve_durable: served outputs differ from direct execution");
            failed += 1;
        }
        // Error relative to the output's own magnitude (doubling and squaring move it).
        let mut errors = SlotErrors::default();
        for r in &mut reference {
            let magnitude = r.clear.iter().fold(1.0f64, |m, x| m.max(x.abs()));
            if sabotage {
                r.clear[0] += magnitude;
            }
            errors.add(&r.decrypted, &r.clear, magnitude);
        }
        let mut verdict = Verdict::gate(errors, PRECISION_FLOOR_BITS);

        // Recovery of the last pass's journal: everything settled, nothing run again.
        self.recover_ms.clear();
        for copy in 0..RECOVERIES {
            let r = self.serve.timed_recovery(copy)?;
            if r.settled != Serve::REQUESTS || r.readmitted != 0 || r.reexecuted != 0 {
                eprintln!("serve_durable: recovery {copy} settled {r:?}");
                failed += 1;
            }
            self.recover_ms.push(r.ms);
        }
        verdict.failed += failed;
        Ok(verdict)
    }

    fn layer_metrics(&mut self, seed: u64, traced: &Traced) -> Result<LayerValues, String> {
        let (mut rungs, a, b) = rung_fixture(Self::PARAMS, seed)?;
        let mut out = row_rungs(&mut rungs, &a, 30)?;
        out.extend(op_rungs(&rungs, &a, &b, 30)?);

        // The traced passes are the last ones run.
        let first = self.passes.len().saturating_sub(traced.rounds.len());
        let passes = &self.passes[first..];
        let requests = || passes.iter().flat_map(|p| p.served.iter());
        let column = |f: fn(&Served) -> f64| -> Vec<f64> { requests().map(f).collect() };
        let total = column(|s| s.total_ms);
        let units = each_ms(traced.spans, "unit");
        let overhead: Vec<f64> = passes
            .iter()
            .zip(&units)
            .map(|(p, unit)| {
                unit - p
                    .served
                    .iter()
                    .map(|s| s.prefetch_ms + s.execute_ms)
                    .sum::<f64>()
            })
            .collect();
        let last = passes.last().ok_or("no traced pass")?;
        out.extend([
            (
                "serve.queue_ms_p50",
                or_zero(median(&column(|s| s.queue_ms))),
            ),
            (
                "serve.prefetch_ms_p50",
                or_zero(median(&column(|s| s.prefetch_ms))),
            ),
            (
                "serve.execute_ms_p50",
                or_zero(median(&column(|s| s.execute_ms))),
            ),
            ("serve.req_ms_p50", or_zero(median(&total))),
            ("serve.req_ms_p90", or_zero(percentile(&total, 90.0))),
            ("serve.journal_overhead_ms", or_zero(median(&overhead))),
            (
                "serve.cache_hit_rate",
                1.0 - last.cache.loads as f64 / last.cache.demand.max(1) as f64,
            ),
            ("serve.cache_evictions", last.cache.evictions as f64),
            ("serve.key_bytes_fetched", last.cache.bytes_fetched as f64),
            ("serve.journal_bytes", last.journal_bytes as f64),
            ("serve.recover_ms", or_zero(best_of(&self.recover_ms, 0))),
            ("serve.recover_ms_p50", or_zero(median(&self.recover_ms))),
        ]);

        // Storage calls, as the timed backend under the journal saw them.
        let per_pass = |name: &str, f: fn(&Stamp) -> f64| -> Vec<f64> {
            traced
                .rounds
                .iter()
                .map(|r| r.store.iter().filter(|s| s.name == name).map(f).sum())
                .collect()
        };
        let ms = |s: &Stamp| (s.end_ns - s.start_ns) as f64 / 1e6;
        let last_of = |v: Vec<f64>| v.last().copied().unwrap_or(0.0);
        let syncs: Vec<f64> = traced
            .rounds
            .iter()
            .flat_map(|r| r.store.iter().filter(|s| s.name == "store.sync").map(ms))
            .collect();
        out.extend([
            ("store.appends", last_of(per_pass("store.append", |_| 1.0))),
            ("store.syncs", last_of(per_pass("store.sync", |_| 1.0))),
            (
                "store.bytes_appended",
                last_of(per_pass("store.append", |s| s.bytes as f64)),
            ),
            (
                "store.append_ms_total",
                or_zero(median(&per_pass("store.append", ms))),
            ),
            (
                "store.sync_ms_total",
                or_zero(median(&per_pass("store.sync", ms))),
            ),
            ("store.sync_ms_p50", or_zero(median(&syncs))),
        ]);
        Ok(out)
    }
}
