//! The metric registry: every name the benchmark prints, with its unit, direction and
//! definition. `BENCHMARK.json` is generated from it (`--describe`) and a test keeps the
//! two in step.

use crate::workloads::WORKLOADS;

/// Seconds one driver run measures for. The driver makes 4 + 22 × 4 runs and allows 3420 s
/// for all of them with two builds; a run costs this plus ≈ 8.5 s of set-up repeats, warm-up
/// and output checks (measured on a busy host), which leaves a fifth of the allowance spare.
pub const RUN_SECONDS: u64 = 20;

#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
    pub what: &'static str,
}

#[derive(Debug, Clone, Copy)]
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub what: &'static str,
}

/// Measured with tracing off (`NoopSink`, plain `FileBackend`).
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "unit_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
        what: "minimum wall time of one round over all timed rounds (after the discarded warm-up rounds)",
    },
    EndToEnd {
        name: "precision_bits",
        unit: "bits",
        better: "higher",
        bound: 0.15,
        what: "-log2 of the root-mean-square slot error of the last round's decrypted output against its cleartext reference",
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: "lower",
        bound: 0.15,
        what: "VmHWM of the workload's process at exit",
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
        what: "context, key generation and bootstrapper/trainer/tenant/journal construction; median of 3 to 7 set-ups",
    },
];

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    what: &'static str,
) -> Layer {
    Layer {
        name,
        unit,
        better,
        what,
    }
}

/// Measured in the traced run. A metric a workload does not exercise reads 0 there.
pub const PER_LAYER: [Layer; 60] = [
    // fab-math
    layer("math.ntt_fwd_us", "us", "lower", "forward NTT of one limb row at the workload's N, best of 200"),
    layer("math.ntt_inv_us", "us", "lower", "inverse NTT of one limb row at the workload's N, best of 200"),
    // fab-rns
    layer("rns.mod_up_us", "us", "lower", "top-level ModUp of the first digit through the cached plan, best-of"),
    layer("rns.mod_down_us", "us", "lower", "top-level ModDown through the cached plan, best-of"),
    layer("rns.transforms_per_unit", "count", "lower", "single-limb NTTs one unit performs (fab_rns::metering, exact)"),
    layer("rns.bytes_per_unit", "B", "lower", "bytes one unit's kernels move, computed by fab_rns::metering from row sizes (exact, ignores caches)"),
    // fab-ckks evaluator
    layer("ckks.key_switch_ms", "ms", "lower", "one hybrid key switch at the top level, best-of"),
    layer("ckks.multiply_ms", "ms", "lower", "one ciphertext multiply with relinearisation at the top level, best-of"),
    layer("ckks.rescale_ms", "ms", "lower", "one rescale at the top level, best-of"),
    layer("ckks.rotate_ms", "ms", "lower", "one rotation by 1 at the top level, best-of"),
    layer("ckks.add_ms", "ms", "lower", "one ciphertext addition at the top level, best-of"),
    layer("ckks.hoisted_batch_ms", "ms", "lower", "one 4-step rotate_hoisted_batch at the top level, best-of (not measured on paper_ops)"),
    layer("ckks.key_switches_per_unit", "count", "lower", "multiplies + rotations + conjugations one unit records (exact)"),
    layer("ckks.multiplies_per_unit", "count", "lower", "HeOp::Multiply one unit records (exact)"),
    layer("ckks.rotations_per_unit", "count", "lower", "HeOp::Rotate + RotateHoisted one unit records (exact)"),
    // fab-ckks bootstrap
    layer("ckks.boot.mod_raise_ms", "ms", "lower", "time in the mod_raise phase per unit, median of traced rounds"),
    layer("ckks.boot.sub_sum_ms", "ms", "lower", "time in the sub_sum phase per unit (sparse bootstrap only)"),
    layer("ckks.boot.coeff_to_slot_ms", "ms", "lower", "time in the coeff_to_slot phase per unit"),
    layer("ckks.boot.eval_mod_ms", "ms", "lower", "time in the eval_mod phase per unit"),
    layer("ckks.boot.slot_to_coeff_ms", "ms", "lower", "time in the slot_to_coeff phase per unit"),
    layer("ckks.boot.residue_pct", "%", "lower", "share of the bootstrap call (boot_dense) or the refresh (helr_refresh) its five phases do not cover"),
    layer("ckks.bsgs_stage_ms", "ms", "lower", "one steady-state LinearTransform apply: coeff_to_slot phase / its stage count"),
    layer("ckks.amortized_mult_us_per_slot", "us", "lower", "unit_ms x 1000 / (levels after bootstrap x slots), Table 7's metric in software"),
    // fab-lr
    layer("lr.forward_ms", "ms", "lower", "time in lr_forward phases per unit"),
    layer("lr.aggregate_ms", "ms", "lower", "time in lr_aggregate phases per unit"),
    layer("lr.sigmoid_ms", "ms", "lower", "time in lr_sigmoid phases per unit"),
    layer("lr.gradient_ms", "ms", "lower", "time in lr_gradient phases per unit"),
    layer("lr.update_ms", "ms", "lower", "time in lr_update phases per unit"),
    layer("lr.refresh_ms", "ms", "lower", "mask-and-exhaust plus the sparse bootstrap it feeds, per unit"),
    layer("lr.train_accuracy", "ratio", "higher", "training accuracy of the decrypted model"),
    // fab-serve
    layer("serve.queue_ms_p50", "ms", "lower", "median time a request waits queued (server's report)"),
    layer("serve.prefetch_ms_p50", "ms", "lower", "median key prefetch/deserialise time per request"),
    layer("serve.execute_ms_p50", "ms", "lower", "median program execution time per request"),
    layer("serve.req_ms_p50", "ms", "lower", "median request latency, queue + prefetch + execute"),
    layer("serve.req_ms_p90", "ms", "lower", "p90 request latency; 0 = refused, fewer than 10 samples beyond it"),
    layer("serve.journal_overhead_ms", "ms", "lower", "pass wall time minus the sum of prefetch + execute: queueing, journal encode, append, fsync"),
    layer("serve.cache_hit_rate", "ratio", "higher", "share of one steady-state pass's demand key accesses that needed no key deserialised (prefetches count as loads)"),
    layer("serve.cache_evictions", "count", "lower", "evictions in one steady-state pass"),
    layer("serve.key_bytes_fetched", "B", "lower", "serialized key bytes fetched in one steady-state pass"),
    layer("serve.journal_bytes", "B", "lower", "journal bytes on disk after one pass"),
    layer("serve.recover_ms", "ms", "lower", "minimum of the 7 timed recover_from_store calls on the last pass's journal"),
    layer("serve.recover_ms_p50", "ms", "lower", "median of the same 7"),
    // fab-store (real disk: measured on this host's filesystem)
    layer("store.appends", "count", "lower", "backend appends in one pass (exact)"),
    layer("store.syncs", "count", "lower", "backend fsyncs in one pass (exact)"),
    layer("store.bytes_appended", "B", "lower", "bytes appended in one pass (exact)"),
    layer("store.append_ms_total", "ms", "lower", "time inside append calls per pass"),
    layer("store.sync_ms_total", "ms", "lower", "time inside fsync calls per pass"),
    layer("store.sync_ms_p50", "ms", "lower", "median fsync"),
    // fab-core (simulated, not measured)
    layer("core.model_ms", "ms", "lower", "FAB alveo_u280 simulated time for the unit's recorded trace (exact)"),
    layer("core.sw_over_model", "ratio", "lower", "unit_ms / core.model_ms: host software over simulated accelerator"),
    layer("core.price_trace_us", "us", "lower", "host time to price the trace"),
    // fab-trace and the harness itself
    layer("trace.overhead_pct", "%", "lower", "traced over untraced best unit, same process"),
    layer("bench.unit_ms_p50", "ms", "lower", "median untraced unit (diagnostic next to the best-of)"),
    layer("bench.rounds", "count", "higher", "untraced timed rounds in the traced run"),
    layer("bench.residue_pct", "%", "lower", "share of the traced unit no child span covers"),
    layer("bench.failed_share", "ratio", "lower", "failed / attempted"),
    layer("bench.worst_slot_bits", "bits", "higher", "min over slots of -log2|decrypted - cleartext reference|: the worst slot beside the gated RMS"),
    layer("bench.calib_copy_gbps", "GB/s", "higher", "streaming copy of a buffer of 4x the last-level cache (at most 256 MiB), read + written bytes over the best of 3"),
    layer("bench.calib_loop_ns", "ns", "lower", "one step of a dependent multiply-add chain (known-answer integer loop)"),
    layer("bench.timer_ns", "ns", "lower", "smallest positive step between consecutive clock reads"),
];

/// The `BENCHMARK.json` this registry implies.
pub fn benchmark_json() -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    let join = |rows: Vec<String>| rows.join(",\n");
    out.push_str("  \"workloads\": [\n");
    out.push_str(&join(
        WORKLOADS
            .iter()
            .map(|(name, why)| format!("    {{\"name\": \"{name}\", \"why\": \"{why}\"}}"))
            .collect(),
    ));
    out.push_str("\n  ],\n  \"end_to_end\": [\n");
    out.push_str(&join(
        END_TO_END
            .iter()
            .map(|m| {
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                    m.name, m.unit, m.better, m.bound
                )
            })
            .collect(),
    ));
    out.push_str("\n  ],\n  \"per_layer\": [\n");
    out.push_str(&join(
        PER_LAYER
            .iter()
            .map(|m| {
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                    m.name, m.unit, m.better
                )
            })
            .collect(),
    ));
    out.push_str("\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::valid_name;
    use std::collections::BTreeSet;

    #[test]
    fn names_are_valid_unique_and_within_the_contract_limits() {
        let mut seen = BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.0)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for name in names {
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(name), "{name} used twice");
        }
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
    }

    #[test]
    fn units_whys_and_bounds_are_within_the_contract_limits() {
        let unit_ok = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.bytes()
                    .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b))
        };
        for m in END_TO_END {
            assert!(unit_ok(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(matches!(m.better, "lower" | "higher"));
        }
        for m in PER_LAYER {
            assert!(unit_ok(m.unit), "{}: {}", m.name, m.unit);
            assert!(matches!(m.better, "lower" | "higher"));
        }
        for (name, why) in WORKLOADS {
            assert!(why.len() <= 200 && !why.contains('\n'), "{name}");
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!((1..=60).contains(&RUN_SECONDS));
    }

    #[test]
    fn benchmark_json_is_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "regenerate with `-- --describe > BENCHMARK.json`"
        );
        assert!(on_disk.len() <= 64 * 1024);
    }
}
