//! The FAB ladder benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- --seed 1
//! ```
//!
//! runs every workload (each in its own child process, one after the other, single
//! threaded), prints every metric by name with its unit, checks the outputs and exits
//! non-zero if any check failed. With `--workload NAME` it runs that workload in this
//! process and prints the driver's one-line JSON result last. See the README.

mod api;
mod calib;
mod harness;
mod metrics;
mod spans;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use api::{Drained, Meter, Probe};
use harness::{best_of, median, or_zero, peak_rss_mib, RunResult};
use metrics::{END_TO_END, PER_LAYER, RUN_SECONDS};
use spans::{each_ms, self_times_ns, Recorder};
use workloads::{Traced, Workload, WORKLOADS};

/// Set-ups per end-to-end run; `setup_s` is their median. A cheap set-up is repeated beyond
/// the minimum while all of them together stay under `SETUP_BUDGET_S`.
const SETUPS: std::ops::RangeInclusive<usize> = 3..=7;
const SETUP_BUDGET_S: f64 = 2.0;
/// Discarded rounds before the timed ones of an end-to-end run.
const WARMUP: usize = 2;
/// Fewest timed rounds whatever `--seconds` says.
const MIN_ROUNDS: usize = 3;

#[derive(Debug, Clone)]
struct Opts {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// At most three timed rounds, one warm-up, one set-up: a smoke run, no bounds.
    quick: bool,
    /// Perturb the cleartext reference so the output gate must trip.
    sabotage: bool,
    agree: bool,
    describe: bool,
}

fn parse_args() -> Result<Opts, String> {
    let mut opts = Opts {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS as f64,
        trace: false,
        quick: false,
        sabotage: false,
        agree: false,
        describe: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |what: &str| args.next().ok_or(format!("{arg} needs {what}"));
        match arg.as_str() {
            "--workload" => opts.workload = Some(value("a name")?),
            "--seed" => {
                opts.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                opts.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => opts.trace = value("0 or 1")? == "1",
            "--quick" => opts.quick = true,
            "--sabotage" => opts.sabotage = true,
            "--agree" => opts.agree = true,
            "--describe" => opts.describe = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(opts.seconds.is_finite() && opts.seconds >= 0.0) {
        return Err("--seconds must be a non-negative number".into());
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("fab-ladder: {e}");
            return ExitCode::from(2);
        }
    };
    if opts.describe {
        print!("{}", metrics::benchmark_json());
        return ExitCode::SUCCESS;
    }
    let outcome = match &opts.workload {
        Some(name) => run_named(name, &opts),
        None if opts.agree => agree(&opts),
        None => suite(&opts).map(|runs| runs.iter().all(|r| r.result.correct)),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("fab-ladder: {e}");
            ExitCode::FAILURE
        }
    }
}

// ------------------------------------------------------------------ one workload

fn run_named(name: &str, opts: &Opts) -> Result<bool, String> {
    use workloads::{boot_dense, helr_refresh, paper_ops, serve_durable};
    api::single_thread();
    let result = match name {
        "boot_dense" => run::<boot_dense::BootDense>(name, opts),
        "paper_ops" => run::<paper_ops::PaperOps>(name, opts),
        "helr_refresh" => run::<helr_refresh::HelrRefresh>(name, opts),
        "serve_durable" => run::<serve_durable::ServeDurable>(name, opts),
        _ => Err(format!("unknown workload {name}")),
    }?;
    println!("{}", result.to_json());
    Ok(result.correct)
}

/// `benchmark/out`, where spans and scratch journals go: inside the checkout, ignored by git.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// A per-process scratch directory under `benchmark/out`, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new() -> Result<Self, String> {
        let dir = out_dir().join(format!("tmp-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(Self(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// What a block of rounds measured.
#[derive(Default)]
struct Rounds {
    /// Wall time of every round, warm-up first, ms.
    unit_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    /// Metered work of the last round.
    meter: Meter,
    /// What the probe recorded in each timed round (traced blocks only).
    drained: Vec<Drained>,
}

/// Runs `warmup` discarded rounds, then timed rounds until `budget` has passed since the
/// first timed one (at least `min_rounds`, at most `max_rounds`). Every round's output
/// digest must equal the first's: rounds that differ are not the same work.
fn run_rounds<W: Workload>(
    w: &mut W,
    rec: &mut Recorder,
    probe: Option<&Probe>,
    warmup: usize,
    budget: Duration,
    rounds: std::ops::RangeInclusive<usize>,
) -> Result<Rounds, String> {
    let mut out = Rounds::default();
    let mut first_digest = None;
    let mut started = Instant::now();
    loop {
        let index = out.unit_ms.len();
        let timed = index >= warmup;
        if index == warmup {
            started = Instant::now();
        }
        w.prepare()?;
        // Warm-up rounds leave no spans.
        let mut unrecorded = Recorder::disabled();
        let rec = if timed { &mut *rec } else { &mut unrecorded };
        rec.begin_round((index - warmup.min(index)) as u32);
        let before = Meter::now();
        let span = rec.enter("unit");
        let start = Instant::now();
        let ran = w.round(rec);
        out.unit_ms.push(start.elapsed().as_secs_f64() * 1e3);
        rec.exit(span);
        out.meter = Meter::now().since(before);
        if let Some(probe) = probe {
            let drained = probe.drain();
            if timed {
                let mut stamps: Vec<_> = drained.phases.iter().chain(&drained.store).collect();
                stamps.sort_by_key(|s| (s.start_ns, std::cmp::Reverse(s.end_ns)));
                for s in stamps {
                    rec.adopt(&s.name, s.start_ns, s.end_ns);
                }
                out.drained.push(drained);
            }
        }
        if let Err(e) = ran {
            eprintln!("round {index} failed: {e}");
            out.attempted += 1;
            out.failed += 1;
            return Ok(out);
        }
        let settled = w.settle()?;
        out.attempted += settled.attempted;
        out.failed += settled.failed;
        if *first_digest.get_or_insert(settled.digest) != settled.digest {
            eprintln!("round {index} produced different output bits than round 0");
            out.failed += 1;
        }
        let done = index + 1 - warmup.min(index + 1);
        if done >= *rounds.end() || (done >= *rounds.start() && started.elapsed() >= budget) {
            return Ok(out);
        }
    }
}

fn run<W: Workload>(name: &str, opts: &Opts) -> Result<RunResult, String> {
    // The streaming copy needs two buffers of 4 × LLC: traced runs only, where peak RSS is
    // not a reported metric (and not in a smoke run).
    let calibration = calib::calibrate(opts.trace && !opts.quick)?;
    let scratch = Scratch::new()?;
    let result = if opts.trace {
        run_traced::<W>(name, opts, &scratch, &calibration)?
    } else {
        run_end_to_end::<W>(name, opts, &scratch)?
    };
    print_metrics(name, &result);
    Ok(result)
}

/// The seed the inputs are built from: `--seed`, or the first one after it on which the
/// workload's operations succeed.
fn input_seed<W: Workload>(name: &str, seed: u64) -> Result<u64, String> {
    let usable = W::usable_seed(seed)?;
    if usable != seed {
        println!("{name}: seed {seed} makes an operation fail; inputs are built from {usable}");
    }
    Ok(usable)
}

/// Tracing off: set-up (several times), warm-up, timed rounds for `--seconds`, output check.
fn run_end_to_end<W: Workload>(
    name: &str,
    opts: &Opts,
    scratch: &Scratch,
) -> Result<RunResult, String> {
    let (rounds, warmup, setups) = if opts.quick {
        (MIN_ROUNDS..=MIN_ROUNDS, 1, 1..=1)
    } else {
        (MIN_ROUNDS..=usize::MAX, WARMUP, SETUPS)
    };
    let seed = input_seed::<W>(name, opts.seed)?;
    // Set up several times: one set-up is a single noisy sample, and a later change that
    // moves work into set-up has to show against a steady number.
    let mut setup_s = Vec::new();
    let mut w = None;
    while setup_s.len() < *setups.start()
        || (setup_s.len() < *setups.end() && setup_s.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        drop(w.take());
        let start = Instant::now();
        w = Some(W::setup(seed, &scratch.0, &None)?);
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let mut w = w.expect("at least one set-up");
    println!(
        "{name}: seed {} input digest {:016x}",
        opts.seed,
        w.input_digest()
    );
    let measured = run_rounds(
        &mut w,
        &mut Recorder::disabled(),
        None,
        warmup,
        Duration::from_secs_f64(opts.seconds),
        rounds,
    )?;
    let verdict = w.verify(opts.sabotage)?;
    let failed = measured.failed + verdict.failed;
    let timed = &measured.unit_ms[warmup.min(measured.unit_ms.len())..];
    println!(
        "{name}: {} timed rounds, median {:.3} ms (diagnostic; the gated statistic is the minimum)",
        timed.len(),
        or_zero(median(timed)),
    );
    let values = [
        ("unit_ms", or_zero(best_of(timed, 0))),
        ("precision_bits", verdict.errors.rms_bits()),
        ("peak_rss_mib", peak_rss_mib().unwrap_or(0.0)),
        ("setup_s", or_zero(median(&setup_s))),
    ];
    Ok(RunResult {
        correct: failed == 0,
        attempted: measured.attempted.max(1),
        failed,
        metrics: END_TO_END
            .iter()
            .map(|m| {
                let value = values.iter().find(|v| v.0 == m.name).expect("registered").1;
                (m.name.to_string(), value, m.unit.to_string())
            })
            .collect(),
    })
}

/// Tracing on: one fixture reporting to a probe that starts disabled. Untraced rounds give
/// the baseline and the metered work; then the probe is switched on (the fixture is warm by
/// then, so no further round is discarded).
fn run_traced<W: Workload>(
    name: &str,
    opts: &Opts,
    scratch: &Scratch,
    calibration: &calib::Calibration,
) -> Result<RunResult, String> {
    let (untraced_rounds, traced_rounds, warmup) = if opts.quick {
        (2..=2, 2..=2, 0)
    } else {
        (MIN_ROUNDS..=usize::MAX, MIN_ROUNDS..=64, 1)
    };
    let budget = |share: f64| Duration::from_secs_f64(opts.seconds * share);
    let seed = input_seed::<W>(name, opts.seed)?;
    let origin = Instant::now();
    let probe = Probe::new(origin);
    let mut w = W::setup(seed, &scratch.0, &Some(probe.clone()))?;
    println!(
        "{name}: seed {} input digest {:016x}",
        opts.seed,
        w.input_digest()
    );
    let untraced = run_rounds(
        &mut w,
        &mut Recorder::disabled(),
        None,
        warmup,
        budget(0.45),
        untraced_rounds,
    )?;
    let mut rec = Recorder::new(origin);
    probe.set_enabled(true);
    let traced = run_rounds(
        &mut w,
        &mut rec,
        Some(&probe),
        0,
        budget(0.35),
        traced_rounds,
    )?;
    probe.set_enabled(false);
    let verdict = w.verify(opts.sabotage)?;
    let failed = untraced.failed + traced.failed + verdict.failed;
    let attempted = (untraced.attempted + traced.attempted).max(1);

    let unit_ms = or_zero(best_of(&untraced.unit_ms, warmup));
    let traced_units = each_ms(rec.spans(), "unit");
    let traced_unit_ms = or_zero(best_of(&traced_units, 0));
    let mut values = w.layer_metrics(
        seed,
        &Traced {
            spans: rec.spans(),
            rounds: &traced.drained,
            unit_ms,
        },
    )?;

    let log = traced.drained.last().map(|d| &d.log);
    if let Some(log) = log.filter(|l| !l.is_empty()) {
        let tally = log.tally();
        let (model_ms, price_us) = log.model_cost(W::PARAMS);
        values.extend([
            ("ckks.key_switches_per_unit", tally.key_switches as f64),
            ("ckks.multiplies_per_unit", tally.multiplies as f64),
            ("ckks.rotations_per_unit", tally.rotations as f64),
            ("core.model_ms", model_ms),
            ("core.sw_over_model", unit_ms / model_ms),
            ("core.price_trace_us", price_us),
        ]);
    }
    // Self time of each traced unit: what no child span covers.
    let residues: Vec<f64> = rec
        .spans()
        .iter()
        .zip(self_times_ns(rec.spans()))
        .filter(|(s, _)| s.name == "unit")
        .map(|(s, own)| 100.0 * own as f64 / s.duration_ns() as f64)
        .collect();
    let residue_pct = or_zero(median(&residues));
    values.extend([
        ("rns.transforms_per_unit", untraced.meter.transforms as f64),
        ("rns.bytes_per_unit", untraced.meter.bytes as f64),
        (
            "trace.overhead_pct",
            100.0 * (traced_unit_ms - unit_ms) / unit_ms,
        ),
        (
            "bench.unit_ms_p50",
            or_zero(median(&untraced.unit_ms[warmup..])),
        ),
        ("bench.rounds", (untraced.unit_ms.len() - warmup) as f64),
        ("bench.residue_pct", residue_pct),
        ("bench.failed_share", failed as f64 / attempted as f64),
        ("bench.worst_slot_bits", verdict.errors.worst_bits()),
        (
            "bench.calib_copy_gbps",
            calibration.copy_gbps.unwrap_or(0.0),
        ),
        ("bench.calib_loop_ns", calibration.loop_ns),
        ("bench.timer_ns", calibration.timer_ns),
    ]);
    for (given, _) in &values {
        if !PER_LAYER.iter().any(|m| m.name == *given) {
            return Err(format!("{given} is not a registered layer metric"));
        }
    }

    std::fs::create_dir_all(out_dir()).map_err(|e| e.to_string())?;
    let spans_path = out_dir().join(format!("{name}.spans.jsonl"));
    rec.write_jsonl(&spans_path)
        .map_err(|e| format!("{}: {e}", spans_path.display()))?;
    let median_unit = or_zero(median(&traced_units));
    println!(
        "{name}: {} spans over {} traced rounds → {}",
        rec.spans().len(),
        traced_units.len(),
        spans_path.display()
    );
    println!(
        "{name}: traced unit (median) {median_unit:.3} ms = child spans {:.3} ms + residue {:.3} ms",
        median_unit * (1.0 - residue_pct / 100.0),
        median_unit * residue_pct / 100.0,
    );
    if calibration.copy_gbps.is_some() {
        println!(
            "{name}: calibration copied a {} MiB buffer; last-level cache {} MiB",
            calibration.buffer_bytes >> 20,
            calibration.llc_bytes >> 20
        );
    }
    Ok(RunResult {
        correct: failed == 0,
        attempted,
        failed,
        metrics: PER_LAYER
            .iter()
            .map(|m| {
                let value = values.iter().find(|v| v.0 == m.name).map_or(0.0, |v| v.1);
                (m.name.to_string(), value, m.unit.to_string())
            })
            .collect(),
    })
}

fn print_metrics(workload: &str, result: &RunResult) {
    for (name, value, unit) in &result.metrics {
        println!("{workload:<14} {name:<34} {value:>18.4} {unit}");
    }
    println!(
        "{workload:<14} {:<34} {:>18} of {} attempted",
        "failed", result.failed, result.attempted
    );
}

// --------------------------------------------------------------------- the suite

/// One child run of the suite.
struct ChildRun {
    workload: &'static str,
    trace: bool,
    result: RunResult,
}

/// Runs this executable with `--workload`; its stdout is echoed and its last line parsed.
fn child(workload: &str, trace: bool, opts: &Opts) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if opts.quick {
        cmd.arg("--quick");
    }
    if opts.sabotage {
        cmd.arg("--sabotage");
    }
    // `output` waits for the child to end.
    let output = cmd.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.trim_end().lines().last().unwrap_or("");
    for line in stdout.trim_end().lines().filter(|l| *l != last) {
        println!("{line}");
    }
    RunResult::from_json(last).ok_or(format!(
        "{workload} (trace {}) exited with {} and no result line",
        u8::from(trace),
        output.status
    ))
}

/// Every workload, untraced then traced, each in its own process, one at a time.
fn suite(opts: &Opts) -> Result<Vec<ChildRun>, String> {
    let mut runs = Vec::new();
    for (workload, why) in WORKLOADS {
        println!("== {workload}: {why}");
        for trace in [false, true] {
            let result = child(workload, trace, opts)?;
            if !result.correct {
                println!(
                    "{workload}: FAILED {} of {} attempted",
                    result.failed, result.attempted
                );
            }
            runs.push(ChildRun {
                workload,
                trace,
                result,
            });
        }
    }
    std::fs::create_dir_all(out_dir()).map_err(|e| e.to_string())?;
    let path = out_dir().join("ladder.json");
    let rows: Vec<String> = runs
        .iter()
        .map(|r| {
            format!(
                "  {{\"workload\": \"{}\", \"trace\": {}, \"seed\": {}, \"result\": {}}}",
                r.workload,
                u8::from(r.trace),
                opts.seed,
                r.result.to_json()
            )
        })
        .collect();
    std::fs::write(&path, format!("[\n{}\n]\n", rows.join(",\n")))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    println!("\nmetric definitions");
    for m in END_TO_END {
        println!("  {:<34} {:<6} {}", m.name, m.unit, m.what);
    }
    for m in PER_LAYER {
        println!("  {:<34} {:<6} {}", m.name, m.unit, m.what);
    }
    let failed: u64 = runs.iter().map(|r| r.result.failed).sum();
    println!(
        "failed_share: {failed} of {} attempted across {} runs",
        runs.iter().map(|r| r.result.attempted).sum::<u64>(),
        runs.len()
    );
    Ok(runs)
}

/// Runs the end-to-end half of the suite twice and compares every workload × end-to-end
/// metric against its bound — the repeatability criterion, and the tool for re-deriving
/// bounds (raise round counts; never loosen `unit_ms` past 10 %).
fn agree(opts: &Opts) -> Result<bool, String> {
    let mut sets = Vec::new();
    for set in 1..=2 {
        println!("== set {set}");
        let mut results = Vec::new();
        for (workload, _) in WORKLOADS {
            results.push(child(workload, false, opts)?);
        }
        sets.push(results);
    }
    println!(
        "\n{:<14} {:<16} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "set 1", "set 2", "worse by", "bound"
    );
    let mut all = true;
    for (i, (workload, _)) in WORKLOADS.iter().enumerate() {
        for m in END_TO_END {
            let a = sets[0][i].value(m.name).unwrap_or(0.0);
            let b = sets[1][i].value(m.name).unwrap_or(0.0);
            // How much the worse of the two is worse than the better one.
            let worse_by = (a - b).abs() / a.min(b).abs().max(f64::MIN_POSITIVE);
            let pass = worse_by <= m.bound;
            all &= pass;
            println!(
                "{workload:<14} {:<16} {a:>14.4} {b:>14.4} {:>8.2}% {:>6.0}%  {}",
                m.name,
                100.0 * worse_by,
                100.0 * m.bound,
                if pass { "PASS" } else { "FAIL" }
            );
        }
        let failures = sets[0][i].failed + sets[1][i].failed;
        all &= failures == 0;
        println!(
            "{workload:<14} {:<16} {:>14} {:>14} {:>9} {:>7}  {}",
            "failed",
            sets[0][i].failed,
            sets[1][i].failed,
            "",
            "any",
            if failures == 0 { "PASS" } else { "FAIL" }
        );
    }
    Ok(all)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use workloads::serve_durable::ServeDurable;

    /// Same seed → same inputs and the same exact metrics; another seed → other inputs.
    /// Uses the serving workload's fixture, the only one cheap enough for a debug build.
    #[test]
    fn seeds_determine_inputs_and_exact_metrics() {
        api::single_thread();
        let scratch = Scratch::new().unwrap();
        let digest_and_outputs = |seed: u64, tag: &str| {
            let dir = scratch.0.join(tag);
            let mut w = ServeDurable::setup(seed, &dir, &None).unwrap();
            let input = w.input_digest();
            w.prepare().unwrap();
            w.round(&mut Recorder::disabled()).unwrap();
            let settled = w.settle().unwrap();
            assert_eq!(settled.failed, 0);
            (input, settled.digest, settled.attempted)
        };
        let a = digest_and_outputs(5, "a");
        let b = digest_and_outputs(5, "b");
        let c = digest_and_outputs(6, "c");
        assert_eq!(a, b, "same seed, same inputs and outputs");
        assert_ne!(a.0, c.0, "another seed, other inputs");
        assert_ne!(a.1, c.1);
        assert_eq!(a.2, c.2, "the op stream's size does not depend on the seed");
    }

    #[test]
    fn budget_does_not_cut_short_the_minimum_rounds() {
        struct Counter(u64);
        impl Workload for Counter {
            const PARAMS: api::ParamSet = api::ParamSet::Testing;
            fn setup(_: u64, _: &Path, _: &Option<Arc<Probe>>) -> Result<Self, String> {
                Ok(Self(0))
            }
            fn input_digest(&self) -> u64 {
                0
            }
            fn round(&mut self, _: &mut Recorder) -> Result<(), String> {
                self.0 += 1;
                Ok(())
            }
            fn settle(&mut self) -> Result<workloads::Settled, String> {
                Ok(workloads::Settled {
                    attempted: 1,
                    failed: 0,
                    // Round 3 (the second timed one) disagrees with the rest.
                    digest: u64::from(self.0 == 3),
                })
            }
            fn verify(&mut self, _: bool) -> Result<workloads::Verdict, String> {
                unreachable!()
            }
            fn layer_metrics(
                &mut self,
                _: u64,
                _: &Traced,
            ) -> Result<workloads::LayerValues, String> {
                unreachable!()
            }
        }
        let mut w = Counter(0);
        let mut rec = Recorder::new(Instant::now());
        let rounds = run_rounds(&mut w, &mut rec, None, 1, Duration::ZERO, 3..=10).unwrap();
        assert_eq!(
            rounds.unit_ms.len(),
            1 + 3,
            "one warm-up and the minimum three"
        );
        assert_eq!(rounds.attempted, 4);
        assert_eq!(
            rounds.failed, 1,
            "the round whose output bits differ is a failure"
        );
        let units: Vec<u32> = rec.spans().iter().map(|s| s.round).collect();
        assert_eq!(units, vec![0, 1, 2], "the warm-up round leaves no span");
    }
}
