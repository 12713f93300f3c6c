//! Thread-local NTT transform **and bytes-moved** counters — the hardware-counter analogue
//! for perf claims.
//!
//! The HPM-validation literature argues that trustworthy performance claims need *verified
//! operation counts*, not just wall-clock timings. This module keeps a cheap tally of
//! single-limb forward/inverse NTT transforms **and of bytes read/written by the hot
//! kernels over the flat limb-major layout**, so tests can pin `recorded == closed-form
//! formula` for every hot operation (and fail loudly if a future change silently adds
//! transforms or traffic). The byte tallies are what the ladder benchmark reports per unit
//! of work, and what calibrates `fab-core`'s memory model against *measured* traffic.
//!
//! ## Counting discipline
//!
//! Counters are **thread-local** and incremented on the *calling* thread:
//!
//! * [`RnsPolynomial::to_evaluation`](crate::RnsPolynomial::to_evaluation) /
//!   [`RnsPolynomial::to_coefficient`](crate::RnsPolynomial::to_coefficient) add their limb
//!   count before fanning the per-limb transforms out over the `fab-par` pool, so the tally
//!   is exact at **any** `FAB_THREADS` setting;
//! * kernels that drive [`fab_math::NttTable`] rows directly (the batched key-switch
//!   pipeline in `fab-ckks`) report their row counts through [`add_forward`] /
//!   [`add_inverse`] themselves;
//! * every byte-charged kernel calls [`add_bytes`] with the matching closed-form helper
//!   from [`bytes`] before its `fab_par` fan-out — charge sites and accounting formulas
//!   share one definition, so a drift between them is a real structural change, never a
//!   bookkeeping disagreement.
//!
//! Thread-locality makes concurrent tests (cargo's default) independent: each test thread
//! observes only its own transforms, as long as it keeps `FAB_THREADS = 1` (the default) or
//! measures deltas around operations whose counting happens on the caller thread (all of the
//! workspace's instrumented call sites do).
//!
//! ## Bytes convention (the [`bytes`] module)
//!
//! Traffic is counted at **row-pass granularity** over the flat limb-major layout: each
//! sequential pass of a kernel over an `n`-coefficient row charges `8n` read and/or written
//! per `u64` word touched; sums a kernel carries across its inner loop in registers or a fixed
//! few-hundred-byte block of its stack frame (the conversion's running `[0, 2p)` sums, the
//! KSKIP's `u128` pairs) are not traffic.
//! Index/permutation tables of
//! length `n` (automorphism maps, the KSKIP evaluation-domain gather) count as reads;
//! precomputed *constant* tables (twiddles, Shoup companions, conversion weights — the
//! software analogue of FAB's on-chip ROMs) are excluded, as are pure `memcpy`s and
//! zero-fills (allocation traffic, not kernel traffic). The algorithmic count is
//! deliberately cache-oblivious — it charges row passes, not misses — so a kernel whose
//! measured GB/s rises *above* the streaming baseline is showing cache residency.

use std::cell::Cell;

thread_local! {
    static FORWARD: Cell<u64> = const { Cell::new(0) };
    static INVERSE: Cell<u64> = const { Cell::new(0) };
    static BYTES_READ: Cell<u64> = const { Cell::new(0) };
    static BYTES_WRITTEN: Cell<u64> = const { Cell::new(0) };
}

/// A snapshot of the transform counters (monotonic within a thread).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TransformCounts {
    /// Single-limb forward NTTs performed.
    pub forward: u64,
    /// Single-limb inverse NTTs performed.
    pub inverse: u64,
}

impl TransformCounts {
    /// Transforms performed since an earlier snapshot.
    #[must_use]
    pub fn since(&self, earlier: &TransformCounts) -> TransformCounts {
        TransformCounts {
            forward: self.forward - earlier.forward,
            inverse: self.inverse - earlier.inverse,
        }
    }

    /// Total transforms (forward + inverse).
    pub fn total(&self) -> u64 {
        self.forward + self.inverse
    }
}

/// A snapshot of the bytes-moved counters (monotonic within a thread), or a closed-form
/// bytes cost produced by the [`bytes`] helpers — the two are deliberately the same type so
/// `recorded == formula` assertions read naturally.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ByteCounts {
    /// Bytes read by instrumented kernels.
    pub read: u64,
    /// Bytes written by instrumented kernels.
    pub written: u64,
}

impl ByteCounts {
    /// Bytes moved since an earlier snapshot.
    #[must_use]
    pub fn since(&self, earlier: &ByteCounts) -> ByteCounts {
        ByteCounts {
            read: self.read - earlier.read,
            written: self.written - earlier.written,
        }
    }

    /// Total traffic (read + written).
    pub fn total(&self) -> u64 {
        self.read + self.written
    }

    /// This cost repeated `k` times (for per-row / per-limb formulas).
    #[must_use]
    pub fn times(self, k: u64) -> ByteCounts {
        ByteCounts {
            read: self.read * k,
            written: self.written * k,
        }
    }
}

impl std::ops::Add for ByteCounts {
    type Output = ByteCounts;
    fn add(self, rhs: ByteCounts) -> ByteCounts {
        ByteCounts {
            read: self.read + rhs.read,
            written: self.written + rhs.written,
        }
    }
}

impl std::ops::AddAssign for ByteCounts {
    fn add_assign(&mut self, rhs: ByteCounts) {
        self.read += rhs.read;
        self.written += rhs.written;
    }
}

impl std::iter::Sum for ByteCounts {
    fn sum<I: Iterator<Item = ByteCounts>>(iter: I) -> ByteCounts {
        iter.fold(ByteCounts::default(), |a, b| a + b)
    }
}

/// The current thread's transform tally.
pub fn counts() -> TransformCounts {
    TransformCounts {
        forward: FORWARD.with(Cell::get),
        inverse: INVERSE.with(Cell::get),
    }
}

/// The current thread's bytes-moved tally.
pub fn byte_counts() -> ByteCounts {
    ByteCounts {
        read: BYTES_READ.with(Cell::get),
        written: BYTES_WRITTEN.with(Cell::get),
    }
}

/// Records `n` single-limb forward transforms (for kernels driving NTT rows directly).
pub fn add_forward(n: usize) {
    FORWARD.with(|c| c.set(c.get() + n as u64));
}

/// Records `n` single-limb inverse transforms (for kernels driving NTT rows directly).
pub fn add_inverse(n: usize) {
    INVERSE.with(|c| c.set(c.get() + n as u64));
}

/// Records a bytes-moved charge (kernels call this with the matching [`bytes`] helper on
/// the calling thread, before any `fab_par` fan-out).
pub fn add_bytes(cost: ByteCounts) {
    BYTES_READ.with(|c| c.set(c.get() + cost.read));
    BYTES_WRITTEN.with(|c| c.set(c.get() + cost.written));
}

/// Closed-form bytes-moved costs of the hot kernels, at row-pass granularity over the flat
/// limb-major layout (see the module docs for the exact convention). These helpers are the
/// **single source of truth**: the kernels charge them at their call sites and
/// `fab_ckks::accounting` composes them into per-operation formulas, so `recorded ==
/// formula` tests can only fail on a genuine structural change.
pub mod bytes {
    use super::ByteCounts;

    /// Bytes per `u64` word.
    const W64: u64 = 8;

    fn bc(read: u64, written: u64) -> ByteCounts {
        ByteCounts { read, written }
    }

    /// One full read+write sweep over an `n`-coefficient `u64` row (one NTT butterfly
    /// stage, or one canonicalisation pass).
    pub fn ntt_pass(n: usize) -> ByteCounts {
        bc(W64 * n as u64, W64 * n as u64)
    }

    /// A canonical forward NTT of one row: `log2 n` butterfly stages plus the final
    /// `[0, q)` correction pass.
    pub fn ntt_forward(n: usize) -> ByteCounts {
        ntt_pass(n).times(n.trailing_zeros() as u64 + 1)
    }

    /// A lazy forward NTT of one row (`log2 n` butterfly stages, output left in `[0, 4q)`).
    pub fn ntt_forward_lazy(n: usize) -> ByteCounts {
        ntt_pass(n).times(n.trailing_zeros() as u64)
    }

    /// An inverse NTT of one row: `log2 n` butterfly stages (the last fused with the
    /// `N^{-1}` scaling) plus the final `[0, q)` correction pass.
    pub fn ntt_inverse(n: usize) -> ByteCounts {
        ntt_pass(n).times(n.trailing_zeros() as u64 + 1)
    }

    /// `rows` pointwise binary passes (`dst[i] = f(dst[i], src[i])` — add/sub/mul
    /// in-place kernels): two `u64` rows read, one written, per row pair.
    pub fn pointwise_binary(n: usize, rows: usize) -> ByteCounts {
        bc(2 * W64 * n as u64, W64 * n as u64).times(rows as u64)
    }

    /// `rows` pointwise unary passes (`dst[i] = f(src[i])` — negate, per-limb scalar
    /// multiply): one row read, one written.
    pub fn pointwise_unary(n: usize, rows: usize) -> ByteCounts {
        bc(W64 * n as u64, W64 * n as u64).times(rows as u64)
    }

    /// `rows` fused multiply-add passes (`dst[i] += a[i]·b[i]`): three rows read, one
    /// written.
    pub fn fused_multiply_add(n: usize, rows: usize) -> ByteCounts {
        bc(3 * W64 * n as u64, W64 * n as u64).times(rows as u64)
    }

    /// `rows` scalar multiply-add passes (`dst[i] += s·src[i]`, the scalar held in a
    /// register): two rows read, one written.
    pub fn scalar_multiply_add(n: usize, rows: usize) -> ByteCounts {
        pointwise_binary(n, rows)
    }

    /// `rows` automorphism gathers (`dst[i] = ±src[map[i]]`): the source row and the
    /// `n`-entry index map read, one row written.
    pub fn automorphism(n: usize, rows: usize) -> ByteCounts {
        bc(2 * W64 * n as u64, W64 * n as u64).times(rows as u64)
    }

    /// `k` hoisted basis-conversion product rows (`y_i = x_i · \hat{q}_i^{-1} mod q_i`):
    /// one read + one written row each.
    pub fn hoisted_products(n: usize, k: usize) -> ByteCounts {
        pointwise_unary(n, k)
    }

    /// One **lazy** conversion output row accumulated from `k` hoisted source rows,
    /// coefficient-major: each source row is read once, the running `[0, 2p)` sum stays in a
    /// register, and the output row is written once.
    pub fn convert_row_lazy(n: usize, k: usize) -> ByteCounts {
        bc(k as u64 * W64 * n as u64, W64 * n as u64)
    }

    /// One **canonical** conversion output row: the lazy accumulation plus a `[0, 2q)`
    /// correction pass.
    pub fn convert_row(n: usize, k: usize) -> ByteCounts {
        convert_row_lazy(n, k) + ntt_pass(n)
    }

    /// A full ModUp plan application: hoisted products over the `digit_len` source rows,
    /// then one canonical conversion row per extension target (`out_limbs - digit_len` of
    /// them; the digit's own rows are pure copies, uncharged).
    pub fn mod_up(n: usize, digit_len: usize, out_limbs: usize) -> ByteCounts {
        hoisted_products(n, digit_len)
            + convert_row(n, digit_len).times((out_limbs - digit_len) as u64)
    }

    /// A full ModDown plan application: hoisted products over the `p_len` special rows,
    /// then per output `q`-row one canonical conversion plus the `(x - conv)·P^{-1}`
    /// combine (which reads the input's matching `q`-row and the converted row, writing
    /// the output row).
    pub fn mod_down(n: usize, q_len: usize, p_len: usize) -> ByteCounts {
        hoisted_products(n, p_len)
            + (convert_row(n, p_len) + pointwise_binary(n, 1)).times(q_len as u64)
    }

    /// A rescale by the top prime: `limbs - 1` output rows, each reading the last limb's
    /// row (reduced mod `q_i`) and the matching row, writing one row.
    pub fn rescale(n: usize, limbs: usize) -> ByteCounts {
        pointwise_binary(n, limbs - 1)
    }

    /// One raised row of the u128 KSKIP inner product over `digits` digits, coefficient-major:
    /// per digit the operand row and both key rows (3 `u64` reads, plus the `n`-entry
    /// permutation gather when `permuted`); the two `u128` sums of a coefficient live in
    /// registers across all digits — overflow-guard folds included — so the only writes are
    /// the two lazy `u64` output rows.
    pub fn kskip_row(n: usize, digits: usize, permuted: bool) -> ByteCounts {
        let n = n as u64;
        bc((3 + u64::from(permuted)) * W64 * n, 0).times(digits as u64) + bc(0, 2 * W64 * n)
    }

    /// The evaluation-domain `acc += P·d` absorption over `limbs` rows: accumulator row
    /// and operand row read, accumulator row written.
    pub fn absorb(n: usize, limbs: usize) -> ByteCounts {
        pointwise_binary(n, limbs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_diff() {
        let start = counts();
        add_forward(3);
        add_inverse(2);
        add_forward(1);
        let delta = counts().since(&start);
        assert_eq!(
            delta,
            TransformCounts {
                forward: 4,
                inverse: 2
            }
        );
        assert_eq!(delta.total(), 6);
    }

    #[test]
    fn counters_are_thread_local() {
        let start = counts();
        std::thread::spawn(|| {
            add_forward(1000);
            add_bytes(ByteCounts {
                read: 512,
                written: 256,
            });
        })
        .join()
        .unwrap();
        assert_eq!(counts().since(&start).forward, 0);
        assert_eq!(byte_counts().since(&byte_counts()).total(), 0);
    }

    #[test]
    fn byte_counters_accumulate_and_diff() {
        let start = byte_counts();
        add_bytes(bytes::ntt_pass(1024));
        add_bytes(bytes::pointwise_binary(1024, 3));
        let delta = byte_counts().since(&start);
        assert_eq!(delta.read, 8 * 1024 + 3 * 16 * 1024);
        assert_eq!(delta.written, 8 * 1024 + 3 * 8 * 1024);
        assert_eq!(delta.total(), delta.read + delta.written);
    }

    #[test]
    fn transform_bytes_formulas_count_passes() {
        // log2(4096) = 12 stages; canonical paths pay one extra correction pass.
        assert_eq!(
            bytes::ntt_forward_lazy(4096),
            bytes::ntt_pass(4096).times(12)
        );
        assert_eq!(bytes::ntt_forward(4096), bytes::ntt_pass(4096).times(13));
        assert_eq!(bytes::ntt_inverse(4096), bytes::ntt_pass(4096).times(13));
    }

    #[test]
    fn conversion_formulas_compose() {
        let n = 64;
        // ModUp over a 2-limb digit to 5 output limbs: 2 hoisted rows + 3 conversion rows.
        assert_eq!(
            bytes::mod_up(n, 2, 5),
            bytes::hoisted_products(n, 2) + bytes::convert_row(n, 2).times(3)
        );
        // The canonical conversion row is the lazy one plus a correction pass.
        assert_eq!(
            bytes::convert_row(n, 3),
            bytes::convert_row_lazy(n, 3) + bytes::ntt_pass(n)
        );
    }
}
