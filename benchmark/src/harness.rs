//! Statistics, name rules, process probes and the result line — everything in the harness
//! that does not touch the repository under test.

use std::fmt::Write as _;

/// Why a statistic was not produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Refused {
    /// Fewer than ten samples lie beyond the requested percentile.
    TooFewBeyond { have: usize, beyond: usize },
    /// No samples (after discarding warm-up).
    Empty,
}

/// Samples a tail percentile needs beyond it before it is reported.
pub const MIN_BEYOND: usize = 10;

/// The `p`-th percentile (nearest rank, `0 < p < 100`), refused unless at least
/// [`MIN_BEYOND`] samples lie strictly beyond its rank.
pub fn percentile(samples: &[f64], p: f64) -> Result<f64, Refused> {
    if samples.is_empty() {
        return Err(Refused::Empty);
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    let beyond = sorted.len().saturating_sub(rank);
    if beyond < MIN_BEYOND {
        return Err(Refused::TooFewBeyond {
            have: sorted.len(),
            beyond,
        });
    }
    Ok(sorted[rank - 1])
}

/// The median (mean of the middle pair for an even count). Not a tail statistic, so it is
/// reported at any sample count.
pub fn median(samples: &[f64]) -> Result<f64, Refused> {
    if samples.is_empty() {
        return Err(Refused::Empty);
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Ok(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

/// Best of rounds: the minimum after the first `warmup` samples are discarded.
///
/// On this class of host the noise is time-correlated core slowdown, which only ever adds
/// time: the minimum of rounds doing bit-identical work repeats to a few percent where the
/// median moves by ten (see the README's spread table).
pub fn best_of(samples: &[f64], warmup: usize) -> Result<f64, Refused> {
    samples
        .get(warmup..)
        .unwrap_or(&[])
        .iter()
        .copied()
        .min_by(f64::total_cmp)
        .ok_or(Refused::Empty)
}

/// A refused statistic is reported as 0 (no metric of this benchmark is legitimately 0 ms).
pub fn or_zero(stat: Result<f64, Refused>) -> f64 {
    stat.unwrap_or(0.0)
}

/// Metric and workload names: `[A-Za-z0-9_.-]+`, at most 64 characters, starting with a
/// letter or digit.
#[cfg(test)]
pub fn valid_name(name: &str) -> bool {
    let body = name
        .bytes()
        .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'));
    let head = name
        .bytes()
        .next()
        .is_some_and(|b| b.is_ascii_alphanumeric());
    body && head && name.len() <= 64
}

/// 64-bit FNV-1a over a word stream — input and output digests.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn words(&mut self, words: &[u64]) {
        for &w in words {
            self.0 = (self.0 ^ w).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn floats(&mut self, values: &[f64]) {
        for v in values {
            self.words(&[v.to_bits()]);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// `VmHWM` of this process in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Slot errors of decrypted outputs against their cleartext reference.
#[derive(Debug, Clone, Copy, Default)]
pub struct SlotErrors {
    sum_sq: f64,
    worst: f64,
    slots: usize,
}

impl SlotErrors {
    /// Adds `|got − want| / magnitude` for every slot (`magnitude` = 1 for absolute error).
    pub fn add(&mut self, got: &[f64], want: &[f64], magnitude: f64) {
        for (g, w) in got.iter().zip(want) {
            let e = (g - w).abs() / magnitude;
            self.sum_sq += e * e;
            // A NaN slot must poison the result: it wins here and, once stored, never loses
            // (`e > NaN` is false), where `f64::max` would drop it.
            if e > self.worst || e.is_nan() {
                self.worst = e;
            }
        }
        self.slots += got.len();
    }

    pub fn of(got: &[f64], want: &[f64]) -> Self {
        let mut errors = Self::default();
        errors.add(got, want, 1.0);
        errors
    }

    /// −log2 of the root-mean-square slot error: the gated `precision_bits`. Over thousands of
    /// slots it moves by a few percent between seeds where the worst slot moves by ten.
    pub fn rms_bits(&self) -> f64 {
        bits((self.sum_sq / self.slots.max(1) as f64).sqrt())
    }

    /// −log2 of the largest slot error.
    pub fn worst_bits(&self) -> f64 {
        bits(self.worst)
    }
}

/// −log2 of an error, floored at 2⁻⁶⁰ so an exact match stays finite; NaN reads as −∞ bits.
fn bits(error: f64) -> f64 {
    if error.is_nan() {
        return f64::NEG_INFINITY;
    }
    -error.max(2f64.powi(-60)).log2()
}

/// What one workload run reports: the contract's result line.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// name → (value, unit), in emission order.
    pub metrics: Vec<(String, f64, String)>,
}

impl RunResult {
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _, _)| n == name).map(|m| m.1)
    }

    /// The single-line JSON object the driver reads from the last line of stdout.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            );
        }
        out.push_str("}}");
        out
    }

    /// Parses a line written by [`Self::to_json`] (the suite reads its children this way).
    pub fn from_json(line: &str) -> Option<Self> {
        let field = |key: &str| -> Option<&str> {
            let at = line.find(&format!("\"{key}\": "))? + key.len() + 4;
            let rest = &line[at..];
            Some(&rest[..rest.find([',', '}'])?])
        };
        let correct = field("correct")?.trim().parse().ok()?;
        let attempted = field("attempted")?.trim().parse().ok()?;
        let failed = field("failed")?.trim().parse().ok()?;
        let body = &line[line.find("\"metrics\": {")? + 12..];
        let mut metrics = Vec::new();
        for entry in body.split("}, ") {
            let entry = entry.trim_end_matches('}');
            if entry.is_empty() {
                continue;
            }
            let name = entry.split('"').nth(1)?.to_string();
            let value_at = entry.find("\"value\": ")? + 9;
            let value_end = entry[value_at..].find(',')? + value_at;
            let value: f64 = entry[value_at..value_end].trim().parse().ok()?;
            let unit = entry[value_end..].split('"').nth(3)?.to_string();
            metrics.push((name, value, unit));
        }
        Some(Self {
            correct,
            attempted,
            failed,
            metrics,
        })
    }
}

/// A finite number with all its digits; non-finite values (a refused precision) become 0.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_percentile_is_refused_without_ten_samples_beyond_it() {
        let n = |count: usize| -> Vec<f64> { (1..=count).map(|i| i as f64).collect() };
        assert_eq!(
            percentile(&n(3), 99.0),
            Err(Refused::TooFewBeyond { have: 3, beyond: 0 }),
            "the old serving 'p99 over three requests'"
        );
        assert_eq!(
            percentile(&n(99), 90.0),
            Err(Refused::TooFewBeyond {
                have: 99,
                beyond: 9
            })
        );
        assert_eq!(percentile(&n(100), 90.0), Ok(90.0));
        assert_eq!(percentile(&n(160), 90.0), Ok(144.0));
        assert_eq!(percentile(&n(20), 50.0), Ok(10.0));
        assert!(percentile(&n(19), 50.0).is_err());
        assert_eq!(percentile(&[], 50.0), Err(Refused::Empty));
        assert_eq!(or_zero(percentile(&n(3), 99.0)), 0.0);
    }

    #[test]
    fn median_is_reported_at_any_count() {
        assert_eq!(median(&[3.0]), Ok(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0]), Ok(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Ok(2.5));
        assert_eq!(median(&[]), Err(Refused::Empty));
    }

    #[test]
    fn best_of_ignores_warm_up_rounds() {
        // The two warm-up rounds hold the smallest values; they must not win.
        let samples = [1.0, 2.0, 9.0, 7.0, 8.0];
        assert_eq!(best_of(&samples, 2), Ok(7.0));
        assert_eq!(best_of(&samples, 0), Ok(1.0));
        assert_eq!(best_of(&samples, 5), Err(Refused::Empty));
        assert_eq!(best_of(&samples, 9), Err(Refused::Empty));
    }

    #[test]
    fn names_follow_the_contract() {
        for good in [
            "unit_ms",
            "ckks.boot.eval_mod_ms",
            "boot_dense",
            "a-b",
            "9x",
        ] {
            assert!(valid_name(good), "{good}");
        }
        let long = "x".repeat(65);
        for bad in ["", ".lead", "_lead", "sp ace", "µs", "a/b", long.as_str()] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    #[test]
    fn precision_is_minus_log2_of_the_slot_error() {
        let e = SlotErrors::of(&[1.0, 2.25, 3.0, 4.0], &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(e.worst_bits(), 2.0);
        assert_eq!(e.rms_bits(), 3.0, "sqrt(0.25² / 4) = 2⁻³");
        assert_eq!(SlotErrors::of(&[1.0], &[1.0]).rms_bits(), 60.0);
        let poisoned = SlotErrors::of(&[0.0, f64::NAN, 0.0], &[0.0; 3]);
        assert_eq!(poisoned.worst_bits(), f64::NEG_INFINITY);
        assert_eq!(poisoned.rms_bits(), f64::NEG_INFINITY);
        let mut relative = SlotErrors::default();
        relative.add(&[16.5], &[16.0], 16.0);
        assert_eq!(relative.worst_bits(), 5.0);
    }

    #[test]
    fn the_result_line_round_trips() {
        let result = RunResult {
            correct: true,
            attempted: 36,
            failed: 0,
            metrics: vec![
                ("unit_ms".into(), 812.337_019, "ms".into()),
                ("setup_s".into(), 0.25, "s".into()),
                ("ckks.boot.eval_mod_ms".into(), 0.0, "ms".into()),
            ],
        };
        let line = result.to_json();
        assert!(!line.contains('\n'));
        assert_eq!(RunResult::from_json(&line), Some(result));
        assert_eq!(RunResult::from_json("cargo: error"), None);
    }

    #[test]
    fn digests_separate_inputs() {
        let mut a = Digest::default();
        a.floats(&[0.5, 0.25]);
        let mut b = Digest::default();
        b.floats(&[0.25, 0.5]);
        assert_ne!(a.finish(), b.finish());
    }
}
