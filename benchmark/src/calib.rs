//! Known-answer calibration (Röhl et al.): before any row is trusted, the clock, a
//! fixed-trip-count loop, a streaming copy of exact size and the byte meter of a known
//! `fab_rns` kernel are checked against what they must read.

use std::hint::black_box;
use std::time::Instant;

use crate::api;

#[derive(Debug, Clone, Copy)]
pub struct Calibration {
    /// Smallest positive step between consecutive clock reads.
    pub timer_ns: f64,
    /// One step of the dependent multiply-add chain.
    pub loop_ns: f64,
    /// Streaming copy bandwidth, read + written bytes; `None` when not measured.
    pub copy_gbps: Option<f64>,
    /// Last-level cache and copy buffer sizes the bandwidth was measured with.
    pub llc_bytes: usize,
    pub buffer_bytes: usize,
}

/// A copy buffer is 4 × the last-level cache, but no larger than this: a guest reports the
/// host's whole shared L3 (260 MiB here, of which two vCPUs own a sliver), and first-touching
/// two 1 GiB buffers costs a traced run 8 s of page faults.
const COPY_BUFFER_CAP: usize = 256 << 20;

/// Refuses (with the reason) if the clock steps backwards or is coarser than 1 µs, if the
/// integer loop's time does not grow with its trip count, or if the metered byte count of a
/// forward NTT disagrees with its closed form. The copy runs only when `with_copy`: its two
/// buffers would otherwise set the end-to-end run's peak RSS.
pub fn calibrate(with_copy: bool) -> Result<Calibration, String> {
    let timer_ns = clock_step_ns()?;
    let loop_ns = integer_loop_ns()?;
    meter_agrees()?;
    let llc_bytes = last_level_cache_bytes();
    let buffer_bytes = (4 * llc_bytes).min(COPY_BUFFER_CAP);
    let copy_gbps = with_copy.then(|| copy_gbps(buffer_bytes));
    Ok(Calibration {
        timer_ns,
        loop_ns,
        copy_gbps,
        llc_bytes,
        buffer_bytes,
    })
}

fn clock_step_ns() -> Result<f64, String> {
    let origin = Instant::now();
    let mut last = 0u128;
    let mut step = u128::MAX;
    for _ in 0..100_000 {
        let now = origin.elapsed().as_nanos();
        if now < last {
            return Err(format!("clock stepped backwards: {last} ns then {now} ns"));
        }
        if now > last {
            step = step.min(now - last);
        }
        last = now;
    }
    if step > 1_000 {
        return Err(format!(
            "clock is coarser than 1 µs (smallest step {step} ns)"
        ));
    }
    Ok(step as f64)
}

/// A dependent xorshift-multiply chain: `trips` steps cannot be reordered, skipped or folded
/// into a closed form, so the time per step is a property of the core and must not depend on
/// `trips`.
fn chain_ns(trips: u64) -> f64 {
    (0..5)
        .map(|_| {
            let start = Instant::now();
            let mut x = black_box(1u64);
            for _ in 0..trips {
                x ^= x >> 12;
                x ^= x << 25;
                x ^= x >> 27;
                x = x.wrapping_mul(0x2545_F491_4F6C_DD1D);
            }
            black_box(x);
            start.elapsed().as_nanos() as f64
        })
        .fold(f64::INFINITY, f64::min)
}

fn integer_loop_ns() -> Result<f64, String> {
    const TRIPS: u64 = 2_000_000;
    let short = chain_ns(TRIPS);
    let long = chain_ns(4 * TRIPS);
    let ratio = long / short;
    if !(2.0..=8.0).contains(&ratio) {
        return Err(format!(
            "4x the loop trips took {ratio:.2}x the time ({short:.0} ns → {long:.0} ns): the timer cannot be trusted"
        ));
    }
    Ok(long / (4 * TRIPS) as f64)
}

fn meter_agrees() -> Result<(), String> {
    const LOG_N: u32 = 12;
    const LIMBS: usize = 3;
    let metered = api::metered_known_kernel(LOG_N, LIMBS)?;
    // A canonical forward NTT sweeps the row log2(n) + 1 times, reading and writing 8n bytes.
    let closed_form = LIMBS as u64 * (u64::from(LOG_N) + 1) * 2 * 8 * (1u64 << LOG_N);
    if metered.transforms != LIMBS as u64 || metered.bytes != closed_form {
        return Err(format!(
            "fab_rns meter charged {} transforms / {} B for {LIMBS} forward NTTs at N=2^{LOG_N}; closed form is {LIMBS} / {closed_form} B",
            metered.transforms, metered.bytes
        ));
    }
    Ok(())
}

/// The largest cache `sysfs` lists for cpu0 (32 MiB if it cannot be read).
fn last_level_cache_bytes() -> usize {
    (0..8)
        .filter_map(|i| {
            let path = format!("/sys/devices/system/cpu/cpu0/cache/index{i}/size");
            let text = std::fs::read_to_string(path).ok()?;
            let text = text.trim();
            let (digits, scale) = match text.as_bytes().last()? {
                b'K' => (&text[..text.len() - 1], 1 << 10),
                b'M' => (&text[..text.len() - 1], 1 << 20),
                _ => (text, 1),
            };
            Some(digits.parse::<usize>().ok()? * scale)
        })
        .max()
        .unwrap_or(32 << 20)
}

fn copy_gbps(buffer_bytes: usize) -> f64 {
    let words = buffer_bytes / 8;
    let src: Vec<u64> = (0..words as u64).collect();
    let mut dst = vec![0u64; words];
    let best = (0..3)
        .map(|_| {
            let start = Instant::now();
            dst.copy_from_slice(black_box(&src));
            black_box(&mut dst);
            start.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min);
    (2 * words * 8) as f64 / best / 1e9
}
