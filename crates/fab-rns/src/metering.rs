//! The thread-local cost meter — the hardware-counter analogue for perf claims.
//!
//! The HPM-validation literature argues that trustworthy performance claims need *verified
//! operation counts*, not just wall-clock timings. This module keeps one cheap [`Tally`] of
//! the work the hot kernels do over the flat limb-major layout: single-limb forward/inverse
//! NTT transforms **and** bytes read/written. Tests pin `recorded == closed-form formula` for
//! every hot operation with one equality (and fail loudly if a future change silently adds
//! transforms or traffic). The byte tally is what the ladder benchmark reports per unit of
//! work.
//!
//! ## Counting discipline
//!
//! The tally is **thread-local**, and every kernel charges it on the *calling* thread with
//! [`charge`] and the matching closed-form cost from [`kernel`], before its `fab_par`
//! fan-out — so the tally is exact at **any** `FAB_THREADS` setting. An NTT row cost carries
//! its transform (`kernel::ntt_forward(n)` is one forward plus its row passes), so
//! `charge(kernel::ntt_forward(n).times(limbs))` counts transforms and bytes in one call.
//! Charge sites and accounting formulas (`fab_ckks::accounting`) share one definition, so a
//! drift between them is a real structural change, never a bookkeeping disagreement.
//!
//! Thread-locality makes concurrent tests (cargo's default) independent: each test thread
//! observes only its own work, because every instrumented call site charges on the caller
//! thread.
//!
//! ## Bytes convention (the [`kernel`] module)
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
    static TALLY: Cell<Tally> = const { Cell::new(Tally::ZERO) };
}

/// The transform half of a [`Tally`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TransformCounts {
    /// Single-limb forward NTTs.
    pub forward: u64,
    /// Single-limb inverse NTTs.
    pub inverse: u64,
}

impl TransformCounts {
    /// Total transforms (forward + inverse).
    pub fn total(&self) -> u64 {
        self.forward + self.inverse
    }
}

/// The traffic half of a [`Tally`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ByteCounts {
    /// Bytes read.
    pub read: u64,
    /// Bytes written.
    pub written: u64,
}

impl ByteCounts {
    /// Total traffic (read + written).
    pub fn total(&self) -> u64 {
        self.read + self.written
    }
}

/// Transforms and bytes together: a snapshot of the thread's meter (monotonic within a
/// thread), or a closed-form cost from [`kernel`] or `fab_ckks::accounting` — deliberately
/// the same type, so `recorded == formula` checks both meters in one equality.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    /// Single-limb NTTs performed.
    pub transforms: TransformCounts,
    /// Bytes moved by instrumented kernels.
    pub bytes: ByteCounts,
}

impl Tally {
    /// No work.
    pub const ZERO: Tally = Tally {
        transforms: TransformCounts {
            forward: 0,
            inverse: 0,
        },
        bytes: ByteCounts {
            read: 0,
            written: 0,
        },
    };

    fn zip_with(self, rhs: Tally, f: impl Fn(u64, u64) -> u64) -> Tally {
        Tally {
            transforms: TransformCounts {
                forward: f(self.transforms.forward, rhs.transforms.forward),
                inverse: f(self.transforms.inverse, rhs.transforms.inverse),
            },
            bytes: ByteCounts {
                read: f(self.bytes.read, rhs.bytes.read),
                written: f(self.bytes.written, rhs.bytes.written),
            },
        }
    }

    /// The work done since an earlier snapshot.
    #[must_use]
    pub fn since(&self, earlier: &Tally) -> Tally {
        self.zip_with(*earlier, |a, b| a - b)
    }

    /// This cost repeated `k` times (per-row / per-limb / per-op multiplicities).
    #[must_use]
    pub fn times(self, k: u64) -> Tally {
        self.zip_with(self, |a, _| a * k)
    }
}

impl std::ops::Add for Tally {
    type Output = Tally;
    fn add(self, rhs: Tally) -> Tally {
        self.zip_with(rhs, |a, b| a + b)
    }
}

impl std::ops::AddAssign for Tally {
    fn add_assign(&mut self, rhs: Tally) {
        *self = *self + rhs;
    }
}

impl std::iter::Sum for Tally {
    fn sum<I: Iterator<Item = Tally>>(iter: I) -> Tally {
        iter.fold(Tally::ZERO, |a, b| a + b)
    }
}

/// The current thread's tally.
pub fn tally() -> Tally {
    TALLY.with(Cell::get)
}

/// The current thread's transform count (a read-out of [`tally`]).
pub fn counts() -> TransformCounts {
    tally().transforms
}

/// The current thread's bytes-moved count (a read-out of [`tally`]).
pub fn byte_counts() -> ByteCounts {
    tally().bytes
}

/// Charges a kernel's cost to the current thread (kernels call this with the matching
/// [`kernel`] cost on the calling thread, before any `fab_par` fan-out).
pub fn charge(cost: Tally) {
    TALLY.with(|t| t.set(t.get() + cost));
}

/// Closed-form costs of the hot kernels: each NTT row carries its one transform, and every
/// kernel its bytes at row-pass granularity over the flat limb-major layout (see the module
/// docs for the exact convention). These helpers are the **single source of truth**: the
/// kernels charge them at their call sites and `fab_ckks::accounting` composes them into
/// per-operation formulas, so `recorded == formula` tests can only fail on a genuine
/// structural change.
pub mod kernel {
    use super::{ByteCounts, Tally, TransformCounts};

    /// Bytes per `u64` word.
    const W64: u64 = 8;

    fn moved(read: u64, written: u64) -> Tally {
        Tally {
            bytes: ByteCounts { read, written },
            ..Tally::ZERO
        }
    }

    fn transforms(forward: u64, inverse: u64) -> Tally {
        Tally {
            transforms: TransformCounts { forward, inverse },
            ..Tally::ZERO
        }
    }

    /// One full read+write sweep over an `n`-coefficient `u64` row (one NTT butterfly
    /// stage, or one canonicalisation pass). Not a transform on its own.
    pub fn ntt_pass(n: usize) -> Tally {
        moved(W64 * n as u64, W64 * n as u64)
    }

    /// A canonical forward NTT of one row: one forward transform, `log2 n` butterfly
    /// stages plus the final `[0, q)` correction pass.
    pub fn ntt_forward(n: usize) -> Tally {
        transforms(1, 0) + ntt_pass(n).times(n.trailing_zeros() as u64 + 1)
    }

    /// A lazy forward NTT of one row: one forward transform, `log2 n` butterfly stages,
    /// output left in `[0, 4q)`.
    pub fn ntt_forward_lazy(n: usize) -> Tally {
        transforms(1, 0) + ntt_pass(n).times(n.trailing_zeros() as u64)
    }

    /// An inverse NTT of one row: one inverse transform, `log2 n` butterfly stages (the
    /// last fused with the `N^{-1}` scaling) plus the final `[0, q)` correction pass.
    pub fn ntt_inverse(n: usize) -> Tally {
        transforms(0, 1) + ntt_pass(n).times(n.trailing_zeros() as u64 + 1)
    }

    /// `rows` pointwise binary passes (`dst[i] = f(dst[i], src[i])` — add/sub/mul
    /// in-place kernels): two `u64` rows read, one written, per row pair.
    pub fn pointwise_binary(n: usize, rows: usize) -> Tally {
        moved(2 * W64 * n as u64, W64 * n as u64).times(rows as u64)
    }

    /// `rows` pointwise unary passes (`dst[i] = f(src[i])` — negate, per-limb scalar
    /// multiply): one row read, one written.
    pub fn pointwise_unary(n: usize, rows: usize) -> Tally {
        moved(W64 * n as u64, W64 * n as u64).times(rows as u64)
    }

    /// `rows` fused multiply-add passes (`dst[i] += a[i]·b[i]`): three rows read, one
    /// written.
    pub fn fused_multiply_add(n: usize, rows: usize) -> Tally {
        moved(3 * W64 * n as u64, W64 * n as u64).times(rows as u64)
    }

    /// `rows` scalar multiply-add passes (`dst[i] += s·src[i]`, the scalar held in a
    /// register): two rows read, one written.
    pub fn scalar_multiply_add(n: usize, rows: usize) -> Tally {
        pointwise_binary(n, rows)
    }

    /// `rows` automorphism gathers (`dst[i] = ±src[map[i]]`): the source row and the
    /// `n`-entry index map read, one row written.
    pub fn automorphism(n: usize, rows: usize) -> Tally {
        moved(2 * W64 * n as u64, W64 * n as u64).times(rows as u64)
    }

    /// `k` hoisted basis-conversion product rows (`y_i = x_i · \hat{q}_i^{-1} mod q_i`):
    /// one read + one written row each.
    pub fn hoisted_products(n: usize, k: usize) -> Tally {
        pointwise_unary(n, k)
    }

    /// One **lazy** conversion output row accumulated from `k` hoisted source rows,
    /// coefficient-major: each source row is read once, the running `[0, 2p)` sum stays in a
    /// register, and the output row is written once.
    pub fn convert_row_lazy(n: usize, k: usize) -> Tally {
        moved(k as u64 * W64 * n as u64, W64 * n as u64)
    }

    /// One **canonical** conversion output row: the lazy accumulation plus a `[0, 2q)`
    /// correction pass.
    pub fn convert_row(n: usize, k: usize) -> Tally {
        convert_row_lazy(n, k) + ntt_pass(n)
    }

    /// A full ModUp plan application: hoisted products over the `digit_len` source rows,
    /// then one canonical conversion row per extension target (`out_limbs - digit_len` of
    /// them; the digit's own rows are pure copies, uncharged).
    pub fn mod_up(n: usize, digit_len: usize, out_limbs: usize) -> Tally {
        hoisted_products(n, digit_len)
            + convert_row(n, digit_len).times((out_limbs - digit_len) as u64)
    }

    /// A full ModDown plan application: hoisted products over the `p_len` special rows,
    /// then per output `q`-row one canonical conversion plus the `(x - conv)·P^{-1}`
    /// combine (which reads the input's matching `q`-row and the converted row, writing
    /// the output row).
    pub fn mod_down(n: usize, q_len: usize, p_len: usize) -> Tally {
        hoisted_products(n, p_len)
            + (convert_row(n, p_len) + pointwise_binary(n, 1)).times(q_len as u64)
    }

    /// A rescale by the top prime: `limbs - 1` output rows, each reading the last limb's
    /// row (reduced mod `q_i`) and the matching row, writing one row.
    pub fn rescale(n: usize, limbs: usize) -> Tally {
        pointwise_binary(n, limbs - 1)
    }

    /// One raised row of the u128 KSKIP inner product over `digits` digits, coefficient-major:
    /// per digit the operand row and both key rows (3 `u64` reads, plus the `n`-entry
    /// permutation gather when `permuted`); the two `u128` sums of a coefficient live in
    /// registers across all digits — overflow-guard folds included — so the only writes are
    /// the two lazy `u64` output rows.
    pub fn kskip_row(n: usize, digits: usize, permuted: bool) -> Tally {
        let n = n as u64;
        moved((3 + u64::from(permuted)) * W64 * n, 0).times(digits as u64) + moved(0, 2 * W64 * n)
    }

    /// The evaluation-domain `acc += P·d` absorption over `limbs` rows: accumulator row
    /// and operand row read, accumulator row written.
    pub fn absorb(n: usize, limbs: usize) -> Tally {
        pointwise_binary(n, limbs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_diff() {
        let start = tally();
        charge(kernel::ntt_forward(64).times(3));
        charge(kernel::ntt_inverse(64).times(2));
        charge(kernel::ntt_forward_lazy(64));
        let delta = tally().since(&start);
        assert_eq!(
            delta.transforms,
            TransformCounts {
                forward: 4,
                inverse: 2
            }
        );
        assert_eq!(delta.transforms.total(), 6);
        assert_eq!(counts(), tally().transforms);
        // 64 = 2^6: canonical rows make 7 passes, the lazy forward 6.
        assert_eq!(delta.bytes, kernel::ntt_pass(64).times(5 * 7 + 6).bytes);
    }

    #[test]
    fn counters_are_thread_local() {
        let start = tally();
        std::thread::spawn(|| {
            charge(kernel::ntt_forward(1024).times(1000));
            charge(kernel::pointwise_binary(1024, 3));
        })
        .join()
        .unwrap();
        assert_eq!(tally().since(&start), Tally::ZERO);
    }

    #[test]
    fn byte_counters_accumulate_and_diff() {
        let start = tally();
        charge(kernel::ntt_pass(1024));
        charge(kernel::pointwise_binary(1024, 3));
        let delta = tally().since(&start);
        assert_eq!(delta.transforms.total(), 0, "a pass is not a transform");
        assert_eq!(delta.bytes.read, 8 * 1024 + 3 * 16 * 1024);
        assert_eq!(delta.bytes.written, 8 * 1024 + 3 * 8 * 1024);
        assert_eq!(delta.bytes.total(), delta.bytes.read + delta.bytes.written);
        assert_eq!(byte_counts(), tally().bytes);
    }

    #[test]
    fn transform_bytes_formulas_count_passes() {
        // log2(4096) = 12 stages; canonical paths pay one extra correction pass.
        let passes = |k| kernel::ntt_pass(4096).times(k).bytes;
        assert_eq!(kernel::ntt_forward_lazy(4096).bytes, passes(12));
        assert_eq!(kernel::ntt_forward(4096).bytes, passes(13));
        assert_eq!(kernel::ntt_inverse(4096).bytes, passes(13));
        // Every row is one transform of its direction.
        let one = |forward, inverse| TransformCounts { forward, inverse };
        assert_eq!(kernel::ntt_forward_lazy(4096).transforms, one(1, 0));
        assert_eq!(kernel::ntt_forward(4096).transforms, one(1, 0));
        assert_eq!(kernel::ntt_inverse(4096).transforms, one(0, 1));
        assert_eq!(kernel::ntt_pass(4096).transforms, one(0, 0));
    }

    #[test]
    fn conversion_formulas_compose() {
        let n = 64;
        // ModUp over a 2-limb digit to 5 output limbs: 2 hoisted rows + 3 conversion rows.
        assert_eq!(
            kernel::mod_up(n, 2, 5),
            kernel::hoisted_products(n, 2) + kernel::convert_row(n, 2).times(3)
        );
        // The canonical conversion row is the lazy one plus a correction pass.
        assert_eq!(
            kernel::convert_row(n, 3),
            kernel::convert_row_lazy(n, 3) + kernel::ntt_pass(n)
        );
        // Conversions are transform-free.
        assert_eq!(kernel::mod_down(n, 4, 2).transforms.total(), 0);
        assert_eq!(
            [kernel::ntt_pass(n), kernel::absorb(n, 2)]
                .into_iter()
                .sum::<Tally>(),
            kernel::ntt_pass(n) + kernel::absorb(n, 2)
        );
    }
}
