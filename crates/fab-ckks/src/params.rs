//! CKKS parameter sets, including the paper's FPGA parameter set (Table 2) and scaled-down
//! sets used for fast software testing.

use crate::linear_transform::coeff_to_slot_offset_sets;
use crate::{CkksError, Result};

/// Parameters of an RNS-CKKS instance.
///
/// The terminology follows Table 1 of the paper: `N` is the ring degree, `L` the maximum
/// number of *levels* (so `L + 1` limbs of `Q`), `dnum` the number of digits in the switching
/// key, `α = ⌈(L+1)/dnum⌉` the number of limbs per digit (also the number of extension limbs
/// of `P`), and `ﬀtIter` the multiplicative depth of each bootstrapping linear transform.
///
/// ```
/// use fab_ckks::CkksParams;
///
/// let params = CkksParams::fab_paper();
/// assert_eq!(params.degree(), 1 << 16);
/// assert_eq!(params.total_q_limbs(), 24);
/// assert_eq!(params.alpha(), 8);
/// assert!((params.log_pq() - 1728.0).abs() < 64.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CkksParams {
    /// log2 of the ring degree `N`.
    pub log_n: usize,
    /// Bit-width of the scaling primes (`log q` in the paper; 54 for FAB).
    pub scale_bits: u32,
    /// Bit-width of the first prime `q_0` (chosen larger than the scale for decryption margin).
    pub first_prime_bits: u32,
    /// Maximum level `L`; the ciphertext modulus `Q` has `L + 1` limbs.
    pub max_level: usize,
    /// Number of digits in the switching-key decomposition (`dnum`).
    pub dnum: usize,
    /// Multiplicative depth of each bootstrapping linear transform (`ﬀtIter`).
    pub fft_iter: usize,
    /// Standard deviation of the error distribution.
    pub error_std: f64,
    /// Hamming weight of the secret key; `None` selects a uniform ternary (non-sparse) secret.
    /// A uniform secret widens ModRaise's integer `I` past what a bootstrap's EvalMod covers:
    /// at `fab_paper()` its coefficients have a standard deviation of about 60
    /// (`√((h+1)/12)` with `h` ≈ 43 770), and 37 268 of 65 536 exceeded the range `K` = 34
    /// that [`crate::bootstrap::BootstrapParams::for_scheme`] assumes. A bootstrap at such
    /// parameters is planned and priced, not run; `ROADMAP.md` direction 2 picks a secret it
    /// can run with.
    pub secret_hamming_weight: Option<usize>,
    /// Claimed security level in bits (informational; derived from N and log PQ tables).
    pub security_bits: u32,
}

impl CkksParams {
    /// The paper's FPGA parameter set (Table 2): `log q = 54`, `N = 2^16`, `L = 23`,
    /// `dnum = 3`, `ﬀtIter = 4`, 128-bit security, `log PQ = 1728` (32 limbs of 54 bits).
    pub fn fab_paper() -> Self {
        Self {
            log_n: 16,
            scale_bits: 54,
            first_prime_bits: 54,
            max_level: 23,
            dnum: 3,
            fft_iter: 4,
            error_std: 3.2,
            secret_hamming_weight: None,
            security_bits: 128,
        }
    }

    /// The GPU comparison parameter set of Table 5 (`N = 2^16`, `log Q ≈ 1693`, 100-bit
    /// security in the original work); modelled with the same 54-bit limbs.
    pub fn gpu_comparison() -> Self {
        Self {
            log_n: 16,
            scale_bits: 54,
            first_prime_bits: 54,
            // log Q = 1693 ≈ 31 limbs of 54 bits plus the special limbs; keep the FAB split.
            max_level: 23,
            dnum: 3,
            fft_iter: 4,
            error_std: 3.2,
            secret_hamming_weight: None,
            security_bits: 100,
        }
    }

    /// The HEAX comparison parameter set of Table 6: `N = 2^14`, `log Q = 438`.
    pub fn heax_comparison() -> Self {
        Self {
            log_n: 14,
            scale_bits: 42,
            first_prime_bits: 58,
            // 438 bits ≈ 58 + 9 × 40 + special limbs.
            max_level: 9,
            dnum: 2,
            fft_iter: 3,
            error_std: 3.2,
            secret_hamming_weight: None,
            security_bits: 128,
        }
    }

    /// The sparsely-packed LR training parameter set used in Table 8 (derived from the
    /// HELR/BTS configuration: `N = 2^17`, `log Q = 2395`-class). The limb structure follows
    /// the same 54-bit layout; only the accelerator cost model evaluates this set.
    pub fn lr_training() -> Self {
        Self {
            log_n: 17,
            scale_bits: 54,
            first_prime_bits: 54,
            max_level: 34,
            dnum: 4,
            fft_iter: 4,
            error_std: 3.2,
            secret_hamming_weight: None,
            security_bits: 128,
        }
    }

    /// A small parameter set for fast software tests of the basic scheme
    /// (`N = 2^12`, a handful of levels). Not secure; for correctness testing only.
    pub fn testing() -> Self {
        Self {
            log_n: 12,
            scale_bits: 40,
            first_prime_bits: 60,
            max_level: 6,
            dnum: 3,
            fft_iter: 2,
            error_std: 3.2,
            secret_hamming_weight: Some(64),
            security_bits: 0,
        }
    }

    /// A tiny parameter set (`N = 2^10`) with enough levels to run the full bootstrapping
    /// pipeline in software tests. Not secure; for correctness testing only.
    pub fn bootstrap_testing() -> Self {
        Self {
            log_n: 10,
            scale_bits: 45,
            first_prime_bits: 55,
            max_level: 29,
            dnum: 5,
            fft_iter: 0, // 0 = one stage per butterfly level in the software bootstrapper
            error_std: 3.2,
            secret_hamming_weight: Some(32),
            security_bits: 0,
        }
    }

    /// Ring degree `N`.
    pub fn degree(&self) -> usize {
        1 << self.log_n
    }

    /// Number of complex slots `n = N/2` for fully-packed ciphertexts.
    pub fn slot_count(&self) -> usize {
        self.degree() / 2
    }

    /// Number of limbs of `Q` (`L + 1`).
    pub fn total_q_limbs(&self) -> usize {
        self.max_level + 1
    }

    /// Limbs per key-switching digit, `α = ⌈(L+1)/dnum⌉`; also the number of extension limbs.
    pub fn alpha(&self) -> usize {
        self.total_q_limbs().div_ceil(self.dnum)
    }

    /// Number of special (extension) limbs comprising `P`. Equal to [`Self::alpha`].
    pub fn special_limbs(&self) -> usize {
        self.alpha()
    }

    /// Total number of limbs in the raised modulus `P·Q`.
    pub fn total_raised_limbs(&self) -> usize {
        self.total_q_limbs() + self.special_limbs()
    }

    /// Approximate `log2(P·Q)` in bits, assuming every limb has the scaling width except the
    /// first (which uses `first_prime_bits`).
    pub fn log_pq(&self) -> f64 {
        self.first_prime_bits as f64
            + (self.total_q_limbs() - 1) as f64 * self.scale_bits as f64
            + self.special_limbs() as f64 * self.scale_bits as f64
    }

    /// Approximate `log2(Q)` in bits.
    pub fn log_q(&self) -> f64 {
        self.first_prime_bits as f64 + (self.total_q_limbs() - 1) as f64 * self.scale_bits as f64
    }

    /// The default encoding scale `Δ = 2^scale_bits`.
    pub fn default_scale(&self) -> f64 {
        2f64.powi(self.scale_bits as i32)
    }

    /// Size of one ciphertext limb in bytes when packed at the limb bit-width
    /// (`N · log q / 8`), as used by the paper's memory-traffic discussion (~0.44 MB at
    /// `N = 2^16`, 54-bit limbs).
    pub fn limb_bytes(&self) -> usize {
        self.degree() * self.scale_bits as usize / 8
    }

    /// Size of a full ciphertext (2 ring elements at the raised modulus) in bytes.
    pub fn max_ciphertext_bytes(&self) -> usize {
        2 * self.total_raised_limbs() * self.limb_bytes()
    }

    /// Size of the full switching key (a `2 × dnum` matrix of polynomials over `P·Q`) in
    /// bytes, optionally halved by the key-compression technique the paper adopts from
    /// de Castro et al. (Figure 1 caption).
    pub fn switching_key_bytes(&self, compressed: bool) -> usize {
        let raw = 2 * self.dnum * self.total_raised_limbs() * self.limb_bytes();
        if compressed {
            raw / 2
        } else {
            raw
        }
    }

    /// Total multiplicative depth of bootstrapping, `L_boot = 2·ﬀtIter + 9` (Section 2.1.4),
    /// with `ﬀtIter` read as the number of CoeffToSlot stages the grouping of the `log2(slots)`
    /// butterfly levels really makes ([`coeff_to_slot_offset_sets`]): 15 levels in 6 groups of
    /// at most 3 make 5 stages, the same program as `ﬀtIter = 5`.
    pub fn bootstrap_depth(&self) -> usize {
        2 * coeff_to_slot_offset_sets(self.slot_count(), self.fft_iter).len() + 9
    }

    /// Compute levels remaining after a bootstrapping operation.
    pub fn levels_after_bootstrap(&self) -> usize {
        self.max_level.saturating_sub(self.bootstrap_depth())
    }

    /// Validates internal consistency of the parameters.
    ///
    /// # Errors
    ///
    /// Returns [`CkksError::InvalidParameters`] with a description of the first violated
    /// constraint.
    pub fn validate(&self) -> Result<()> {
        if self.log_n < 3 || self.log_n > 17 {
            return Err(CkksError::InvalidParameters {
                reason: format!("log_n = {} outside supported range [3, 17]", self.log_n),
            });
        }
        if self.scale_bits < 20 || self.scale_bits > 60 {
            return Err(CkksError::InvalidParameters {
                reason: format!("scale_bits = {} outside [20, 60]", self.scale_bits),
            });
        }
        if self.first_prime_bits < self.scale_bits || self.first_prime_bits > 60 {
            return Err(CkksError::InvalidParameters {
                reason: format!(
                    "first_prime_bits = {} must be in [scale_bits, 60]",
                    self.first_prime_bits
                ),
            });
        }
        if self.max_level == 0 {
            return Err(CkksError::InvalidParameters {
                reason: "max_level must be at least 1".into(),
            });
        }
        if self.dnum == 0 || self.dnum > self.total_q_limbs() {
            return Err(CkksError::InvalidParameters {
                reason: format!(
                    "dnum = {} must be in [1, {}]",
                    self.dnum,
                    self.total_q_limbs()
                ),
            });
        }
        if let Some(h) = self.secret_hamming_weight {
            if h == 0 || h > self.degree() {
                return Err(CkksError::InvalidParameters {
                    reason: format!("secret hamming weight {h} outside (0, N]"),
                });
            }
        }
        if self.error_std <= 0.0 {
            return Err(CkksError::InvalidParameters {
                reason: "error standard deviation must be positive".into(),
            });
        }
        Ok(())
    }
}

impl Default for CkksParams {
    fn default() -> Self {
        Self::testing()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CkksContext;

    #[test]
    fn fab_paper_parameters_match_table_2() {
        let p = CkksParams::fab_paper();
        assert_eq!(p.log_n, 16);
        assert_eq!(p.scale_bits, 54);
        assert_eq!(p.max_level, 23);
        assert_eq!(p.dnum, 3);
        assert_eq!(p.fft_iter, 4);
        assert_eq!(p.security_bits, 128);
        // 24 original + 8 extension limbs = 32 limbs of 54 bits = log PQ 1728.
        assert_eq!(p.total_q_limbs(), 24);
        assert_eq!(p.alpha(), 8);
        assert_eq!(p.total_raised_limbs(), 32);
        assert!((p.log_pq() - 1728.0).abs() < 1e-9);
        // Bootstrapping depth L_boot = 2*4 + 9 = 17 (Section 2.2).
        assert_eq!(p.bootstrap_depth(), 17);
        assert_eq!(p.levels_after_bootstrap(), 6);
        // ﬀtIter = 6 groups the 15 butterfly levels into 5 stages, as ﬀtIter = 5 does.
        let six = CkksParams {
            fft_iter: 6,
            ..p.clone()
        };
        assert_eq!(six.bootstrap_depth(), 19);
        assert_eq!(six.levels_after_bootstrap(), 4);
        p.validate().unwrap();
    }

    #[test]
    fn fab_paper_memory_footprint_matches_paper_figures() {
        let p = CkksParams::fab_paper();
        // One limb ≈ 0.44 MB ("polynomial of size 0.4 MB", Section 3).
        let limb_mb = p.limb_bytes() as f64 / (1024.0 * 1024.0);
        assert!(limb_mb > 0.40 && limb_mb < 0.45, "limb is {limb_mb} MB");
        // Maximum ciphertext ≈ 28.3 MB (Section 2.2, 32 raised limbs).
        let ct_mb = p.max_ciphertext_bytes() as f64 / (1024.0 * 1024.0);
        assert!(ct_mb > 26.0 && ct_mb < 29.0, "ciphertext is {ct_mb} MB");
        // Switching key ≈ 84 MB uncompressed-equivalent working set (Section 4.6 mentions
        // 84 MB keys + 28 MB ciphertext = 112 MB working set).
        let key_mb = p.switching_key_bytes(false) as f64 / (1024.0 * 1024.0);
        assert!(
            key_mb > 80.0 && key_mb < 90.0,
            "switching key is {key_mb} MB"
        );
    }

    #[test]
    fn named_sets_validate() {
        for p in [
            CkksParams::fab_paper(),
            CkksParams::gpu_comparison(),
            CkksParams::heax_comparison(),
            CkksParams::lr_training(),
            CkksParams::testing(),
            CkksParams::bootstrap_testing(),
        ] {
            p.validate().unwrap();
        }
    }

    #[test]
    fn heax_set_matches_table_6_modulus() {
        let p = CkksParams::heax_comparison();
        assert_eq!(p.log_n, 14);
        assert!((p.log_q() - 438.0).abs() < 20.0, "log Q = {}", p.log_q());
    }

    #[test]
    fn each_bad_field_is_refused_by_validate_and_context() {
        let t = CkksParams::testing;
        for bad in [
            CkksParams { log_n: 2, ..t() },
            CkksParams {
                scale_bits: 10,
                ..t()
            },
            CkksParams { dnum: 0, ..t() },
            CkksParams {
                max_level: 3,
                dnum: 9,
                ..t()
            },
            CkksParams {
                error_std: -1.0,
                ..t()
            },
            CkksParams {
                secret_hamming_weight: Some(0),
                ..t()
            },
        ] {
            assert!(
                matches!(bad.validate(), Err(CkksError::InvalidParameters { .. })),
                "{bad:?}"
            );
            assert!(
                matches!(
                    CkksContext::new(bad.clone()),
                    Err(CkksError::InvalidParameters { .. })
                ),
                "{bad:?}"
            );
        }
    }

    #[test]
    fn dnum_alpha_relationship() {
        // α = ⌈(L+1)/dnum⌉ per Table 1.
        for (level, dnum, expected_alpha) in
            [(23, 3, 8), (23, 2, 12), (23, 4, 6), (9, 2, 5), (10, 2, 6)]
        {
            let p = CkksParams {
                max_level: level,
                dnum,
                ..CkksParams::testing()
            };
            p.validate().unwrap();
            assert_eq!(p.alpha(), expected_alpha);
        }
    }

    #[test]
    fn default_is_testing_set() {
        assert_eq!(CkksParams::default(), CkksParams::testing());
    }
}
