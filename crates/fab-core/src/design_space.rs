//! Design-space sweeps behind Figures 1 and 2 of the paper.
//!
//! * **Figure 1**: with `log PQ = 1728` fixed, increasing `dnum` leaves more limbs for `Q`
//!   (more compute levels after bootstrapping) but grows the switching key linearly.
//! * **Figure 2**: increasing `ﬀtIter` shrinks the FFT stage radix (fewer rotations and NTTs
//!   per stage) but consumes more levels, so the amortized per-slot multiplication time has a
//!   sweet spot (the paper picks `ﬀtIter = 4`).

use fab_ckks::CkksParams;

use crate::metrics::amortized_mult_time_us;
use crate::workload::bootstrap_cost;
use crate::FabConfig;

/// One point of the `dnum` sweep (Figure 1).
#[derive(Debug, Clone, PartialEq)]
pub struct DnumPoint {
    /// The number of key-switching digits.
    pub dnum: usize,
    /// Limbs of `Q` that fit under the fixed `log PQ` budget.
    pub q_limbs: usize,
    /// Extension limbs (`α`).
    pub alpha: usize,
    /// Compute levels remaining after bootstrapping.
    pub levels_after_bootstrap: usize,
    /// Switching-key size in MiB (with the key-compression halving the paper applies).
    pub key_size_mib: f64,
}

/// Sweeps `dnum` at a fixed total modulus budget (Figure 1).
///
/// `total_limbs` is `log PQ / log q` (32 for the paper's 1728/54) and `bootstrap_depth` is
/// `L_boot` (17 for `ﬀtIter = 4`).
pub fn dnum_sweep(
    params: &CkksParams,
    total_limbs: usize,
    bootstrap_depth: usize,
    dnums: &[usize],
) -> Vec<DnumPoint> {
    let limb_mib = params.limb_bytes() as f64 / (1024.0 * 1024.0);
    dnums
        .iter()
        .map(|&dnum| {
            // Largest q_limbs such that q_limbs + ceil(q_limbs / dnum) <= total_limbs.
            let mut q_limbs = 0usize;
            for candidate in 1..=total_limbs {
                if candidate + candidate.div_ceil(dnum) <= total_limbs {
                    q_limbs = candidate;
                }
            }
            let alpha = q_limbs.div_ceil(dnum);
            let levels_after_bootstrap = q_limbs.saturating_sub(1).saturating_sub(bootstrap_depth);
            // Key: 2 × dnum polynomials over the raised modulus, halved by key compression.
            let key_size_mib = (2 * dnum * (q_limbs + alpha)) as f64 * limb_mib / 2.0;
            DnumPoint {
                dnum,
                q_limbs,
                alpha,
                levels_after_bootstrap,
                key_size_mib,
            }
        })
        .collect()
}

/// One point of the `ﬀtIter` sweep (Figure 2).
#[derive(Debug, Clone, PartialEq)]
pub struct FftIterPoint {
    /// The linear-transform depth parameter.
    pub fft_iter: usize,
    /// Total bootstrapping depth ([`CkksParams::bootstrap_depth`]).
    pub bootstrap_depth: usize,
    /// Levels remaining after bootstrapping.
    pub levels_after_bootstrap: usize,
    /// Bootstrapping execution time in milliseconds.
    pub bootstrap_ms: f64,
    /// Number of single-limb NTT operations per bootstrapping.
    pub ntt_operations: u64,
    /// Amortized per-slot multiplication time in microseconds (Equation 2).
    pub amortized_mult_us: f64,
}

/// Sweeps `ﬀtIter` for a fixed parameter set and accelerator configuration (Figure 2).
pub fn fft_iter_sweep(
    config: &FabConfig,
    params: &CkksParams,
    fft_iters: &[usize],
) -> Vec<FftIterPoint> {
    fft_iters
        .iter()
        .map(|&fft_iter| {
            let cost = bootstrap_cost(config, params, fft_iter);
            let at = CkksParams {
                fft_iter,
                ..params.clone()
            };
            let levels_after = at.levels_after_bootstrap();
            let amortized = amortized_mult_time_us(
                config,
                params,
                &cost,
                levels_after.max(1),
                params.slot_count(),
            );
            FftIterPoint {
                fft_iter,
                bootstrap_depth: at.bootstrap_depth(),
                levels_after_bootstrap: levels_after,
                bootstrap_ms: cost.time_ms(config),
                ntt_operations: cost.ntt_count,
                amortized_mult_us: amortized,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dnum_sweep_reproduces_figure_1_trend() {
        let params = CkksParams::fab_paper();
        let points = dnum_sweep(&params, 32, 17, &[1, 2, 3, 4, 5, 6]);
        assert_eq!(points.len(), 6);
        // Levels after bootstrapping are non-decreasing in dnum; key size strictly grows.
        for w in points.windows(2) {
            assert!(w[1].levels_after_bootstrap >= w[0].levels_after_bootstrap);
            assert!(w[1].key_size_mib > w[0].key_size_mib);
        }
        // The paper's choice dnum = 3: 24 limbs of Q, α = 8, 6 levels after bootstrapping.
        let chosen = &points[2];
        assert_eq!(chosen.dnum, 3);
        assert_eq!(chosen.q_limbs, 24);
        assert_eq!(chosen.alpha, 8);
        assert_eq!(chosen.levels_after_bootstrap, 6);
        // Compressed key ≈ 42 MiB (half of the ~84 MiB raw key of Section 4.6).
        assert!(chosen.key_size_mib > 38.0 && chosen.key_size_mib < 46.0);
    }

    #[test]
    fn dnum_one_leaves_no_levels_after_bootstrap() {
        let params = CkksParams::fab_paper();
        let points = dnum_sweep(&params, 32, 17, &[1]);
        assert_eq!(points[0].q_limbs, 16);
        assert_eq!(points[0].levels_after_bootstrap, 0);
    }

    #[test]
    fn fft_iter_sweep_reproduces_figure_2_trend() {
        let config = FabConfig::alveo_u280();
        let params = CkksParams::fab_paper();
        let points = fft_iter_sweep(&config, &params, &[1, 2, 3, 4, 5, 6]);
        assert_eq!(points.len(), 6);
        // Levels after bootstrapping shrink as fftIter grows, and the NTT count drops sharply
        // from fftIter = 1 to the paper's choice of 4 (the radix — and with it the rotation
        // count — stops shrinking once ceil(log n / fftIter) saturates, so strict monotonicity
        // is not required at the tail of the sweep).
        for w in points.windows(2) {
            assert!(w[1].levels_after_bootstrap <= w[0].levels_after_bootstrap);
        }
        assert!(points[3].ntt_operations < points[0].ntt_operations / 2);
        // ﬀtIter 6 groups the 15 butterfly levels into the same 5 stages as ﬀtIter 5: one
        // program, one depth and one price.
        assert_eq!(points[5].bootstrap_depth, 19);
        assert_eq!(
            (points[5].levels_after_bootstrap, points[5].bootstrap_ms),
            (points[4].levels_after_bootstrap, points[4].bootstrap_ms)
        );
        assert!(points
            .iter()
            .all(|p| p.ntt_operations <= points[0].ntt_operations));
        // The amortized metric has an interior optimum: the best fftIter is not 1.
        let best = points
            .iter()
            .min_by(|a, b| {
                a.amortized_mult_us
                    .partial_cmp(&b.amortized_mult_us)
                    .unwrap()
            })
            .unwrap();
        assert!(
            best.fft_iter >= 2,
            "expected an interior optimum, got fftIter = {}",
            best.fft_iter
        );
        // And the paper's choice (4) is within 25% of the best point.
        let chosen = points.iter().find(|p| p.fft_iter == 4).unwrap();
        assert!(chosen.amortized_mult_us <= best.amortized_mult_us * 1.25);
    }
}
