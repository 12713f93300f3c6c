//! The vector arm of the row kernels — and the only `unsafe` in the workspace.
//!
//! Every hot row of the stack is a stream of lazy Shoup products
//! ([`crate::Modulus::mul_shoup_lazy`]: one 64×64 multiply-high, two multiply-lows), and on a
//! scalar core those three multiplies share one port. This module holds the same product eight
//! lanes wide on AVX-512F+DQ — the high half from four `vpmuludq` partial products, the two low
//! halves by `vpmullq`, the *same wrapping arithmetic* lane for lane, so a vector kernel returns
//! the very lazy representative its scalar twin returns, not merely a congruent one — and, built
//! on it, the NTT stage sweeps and the row kernels of [`crate::rows`].
//!
//! ## Selection
//!
//! The functions of this module are the dispatch seam: each returns how much of the row the
//! vector arm covered (a length, or `false` for "declined") and the caller runs its scalar loop
//! over the rest. The arm is taken when `is_x86_feature_detected!` reports `avx512f` and
//! `avx512dq` at run time; on every other CPU and target the answer is `0` / `false` and the
//! scalar loops — compiled everywhere, the single oracle — do all the work. Nothing selects
//! the arm but the CPU: no feature, no environment variable, no option.
//!
//! ## Unsafe policy
//!
//! Two kinds of `unsafe` block exist, each with its `// SAFETY:` comment: the unaligned
//! load / store pair (`avx512::load` / `avx512::store`, which assert `at + 8 <= len` before
//! touching memory, so no kernel can read or write outside its slices whatever its index
//! arithmetic does), and the calls from the safe dispatch functions into
//! `#[target_feature]` kernels, each of which sits behind the detection result. The
//! arithmetic intrinsics themselves are safe inside a `#[target_feature]` function.
//!
//! Two findings from the first version, kept so they are not rediscovered: 512-bit shifts,
//! `vpminuq` and the multiplies compete for one issue port on the cores this was tuned on, so
//! high dwords move down with `vpshufd` (not `vpsrlq`) and a conditional subtraction is a
//! compare-into-mask plus a masked subtract (not a `min`); that halved the butterfly.

#![deny(unsafe_op_in_unsafe_fn)]
#![deny(clippy::undocumented_unsafe_blocks)]

/// Rows shorter than this never reach a vector NTT kernel: the in-register `t = 4, 2, 1`
/// stages work on pairs of eight-lane vectors.
const MIN_NTT_DEGREE: usize = 16;

/// The stage constants of one NTT direction: twiddles in bit-reversed order and their Shoup
/// companions.
pub(crate) struct Twiddles<'a> {
    pub(crate) w: &'a [u64],
    pub(crate) w_shoup: &'a [u64],
}

impl Twiddles<'_> {
    /// Whether an `n`-element row with these tables has the shape the vector kernels index.
    fn fits_vector_ntt(&self, n: usize) -> bool {
        n >= MIN_NTT_DEGREE && n.is_power_of_two() && self.w.len() == n && self.w_shoup.len() == n
    }
}

/// `true` when the vector arm runs on this CPU.
pub(crate) fn detected() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512dq")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Expands to "run the AVX-512 kernel if the CPU has it, else report `$declined`".
macro_rules! dispatch {
    ($declined:expr, $kernel:ident($($arg:expr),* $(,)?)) => {{
        #[cfg(target_arch = "x86_64")]
        if detected() {
            // SAFETY: `detected()` just confirmed avx512f and avx512dq on this CPU, which
            // are exactly the target features the kernel is compiled with.
            return unsafe { avx512::$kernel($($arg),*) };
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = ($(&$arg),*);
        $declined
    }};
}

/// Vector arm of [`crate::NttTable::forward_lazy`]'s butterfly network. `false` = declined
/// (no AVX-512, or a row too short), nothing touched.
pub(crate) fn ntt_forward_lazy(values: &mut [u64], tw: &Twiddles<'_>, q: u64) -> bool {
    if !tw.fits_vector_ntt(values.len()) {
        return false;
    }
    dispatch!(false, ntt_forward_lazy(values, tw, q))
}

/// Vector arm of [`crate::NttTable::inverse`]'s butterfly network, the last stage fused with
/// the `N⁻¹` scaling (`last = [N⁻¹, its Shoup constant, ψ⁻¹·N⁻¹, its Shoup constant]`);
/// outputs stay in `[0, 2q)`. `false` = declined, nothing touched.
pub(crate) fn ntt_inverse_lazy(
    values: &mut [u64],
    tw: &Twiddles<'_>,
    last: [u64; 4],
    q: u64,
) -> bool {
    if !tw.fits_vector_ntt(values.len()) {
        return false;
    }
    dispatch!(false, ntt_inverse_lazy(values, tw, last, q))
}

/// Vector arm of `row[c] ← row[c] mod q` for `row[c] < bound·q`, `bound ∈ {2, 4}`. Returns the
/// covered prefix length.
pub(crate) fn reduce_row(row: &mut [u64], q: u64, from_4q: bool) -> usize {
    dispatch!(0, reduce_row(row, q, from_4q))
}

/// Vector arm of `out[c] = src[c]·b mod q` (canonical). Returns the covered prefix length.
pub(crate) fn mul_shoup_row(q: u64, src: &[u64], b: u64, b_shoup: u64, out: &mut [u64]) -> usize {
    assert_eq!(src.len(), out.len());
    dispatch!(0, mul_shoup_row(q, src, b, b_shoup, out))
}

/// Vector arm of `acc[c] = (acc[c] + src[c]·b) mod q` for `acc[c] < 2q` (canonical out).
/// Returns the covered prefix length.
pub(crate) fn add_mul_shoup_row(
    q: u64,
    acc: &mut [u64],
    src: &[u64],
    b: u64,
    b_shoup: u64,
) -> usize {
    assert_eq!(src.len(), acc.len());
    dispatch!(0, add_mul_shoup_row(q, acc, src, b, b_shoup))
}

/// Vector arm of `out[c] = (x[c] − out[c])·b mod q` for canonical `x`, `out`. Returns the
/// covered prefix length.
pub(crate) fn sub_mul_shoup_row(q: u64, out: &mut [u64], x: &[u64], b: u64, b_shoup: u64) -> usize {
    assert_eq!(x.len(), out.len());
    dispatch!(0, sub_mul_shoup_row(q, out, x, b, b_shoup))
}

/// Vector arm of the rescale combine `out[c] = (x[c] − centre(last[c]))·b mod q`, `centre`
/// taking the representative of `last[c] mod q_last` in `(−q_last/2, q_last/2]`. Returns the
/// covered prefix length.
pub(crate) fn rescale_row(
    q: u64,
    q_last: u64,
    x: &[u64],
    last: &[u64],
    b: u64,
    b_shoup: u64,
    out: &mut [u64],
) -> usize {
    assert!(x.len() == out.len() && last.len() == out.len());
    dispatch!(0, rescale_row(q, q_last, x, last, b, b_shoup, out))
}

/// Vector arm of the coefficient-major conversion accumulate: `out[c] = Σ_i rows[i][c]·w[i]`
/// in the lazy `[0, 2p)` domain, `rows[i] = flat[i·n .. (i+1)·n]`, summed in source order.
/// Returns the covered prefix length.
pub(crate) fn convert_accumulate_row(
    p: u64,
    flat: &[u64],
    w: &[u64],
    w_shoup: &[u64],
    out: &mut [u64],
) -> usize {
    assert!(!w.is_empty() && w.len() == w_shoup.len() && flat.len() == w.len() * out.len());
    dispatch!(0, convert_accumulate_row(p, flat, w, w_shoup, out))
}

#[cfg(target_arch = "x86_64")]
mod avx512 {
    use super::Twiddles;
    use std::arch::x86_64::*;

    const LANES: usize = 8;
    /// `vpshufd` control moving each qword's high dword onto its low dword.
    const HIGH_TO_LOW: i32 = 0b11_11_01_01;
    /// The even (low) dword of every qword.
    const LOW_DWORDS: __mmask16 = 0x5555;

    /// The limb modulus in the two forms the kernels compare and subtract.
    #[derive(Clone, Copy)]
    struct Limb {
        q: __m512i,
        two_q: __m512i,
    }

    /// A fixed Shoup multiplicand `b` with `⌊b·2^64/q⌋`, one per lane.
    #[derive(Clone, Copy)]
    struct Fixed {
        b: __m512i,
        b_shoup: __m512i,
    }

    #[inline]
    #[target_feature(enable = "avx512f")]
    fn splat(x: u64) -> __m512i {
        _mm512_set1_epi64(x as i64)
    }

    #[inline]
    #[target_feature(enable = "avx512f")]
    fn limb(q: u64) -> Limb {
        Limb {
            q: splat(q),
            two_q: splat(q << 1),
        }
    }

    #[inline]
    #[target_feature(enable = "avx512f")]
    fn fixed(b: u64, b_shoup: u64) -> Fixed {
        Fixed {
            b: splat(b),
            b_shoup: splat(b_shoup),
        }
    }

    /// Loads lanes `row[at .. at + 8]`.
    #[inline]
    #[target_feature(enable = "avx512f")]
    pub(super) fn load(row: &[u64], at: usize) -> __m512i {
        assert!(at <= row.len() && row.len() - at >= LANES);
        // SAFETY: the assertion keeps the eight `u64` lanes `[at, at + 8)` inside `row`, and
        // `loadu` has no alignment requirement.
        unsafe { _mm512_loadu_si512(row.as_ptr().add(at).cast()) }
    }

    /// Stores eight lanes to `row[at .. at + 8]`.
    #[inline]
    #[target_feature(enable = "avx512f")]
    pub(super) fn store(row: &mut [u64], at: usize, v: __m512i) {
        assert!(at <= row.len() && row.len() - at >= LANES);
        // SAFETY: the assertion keeps the eight `u64` lanes `[at, at + 8)` inside `row`, which
        // is exclusively borrowed; `storeu` has no alignment requirement.
        unsafe { _mm512_storeu_si512(row.as_mut_ptr().add(at).cast(), v) }
    }

    /// `x − m` where `x ≥ m`, else `x` (compare into a mask, masked subtract).
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn cond_sub(x: __m512i, m: __m512i) -> __m512i {
        _mm512_mask_sub_epi64(x, _mm512_cmpge_epu64_mask(x, m), x, m)
    }

    /// High 64 bits of the 128-bit product, per lane, from four 32×32 partial products.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn mul_high(a: __m512i, b: __m512i) -> __m512i {
        let a_hi = _mm512_shuffle_epi32::<HIGH_TO_LOW>(a);
        let b_hi = _mm512_shuffle_epi32::<HIGH_TO_LOW>(b);
        let lo_lo = _mm512_mul_epu32(a, b);
        let hi_lo = _mm512_mul_epu32(a_hi, b);
        let lo_hi = _mm512_mul_epu32(a, b_hi);
        let hi_hi = _mm512_mul_epu32(a_hi, b_hi);
        // t = hi_lo + (lo_lo >> 32) and u = lo_hi + (t mod 2^32) cannot overflow a lane.
        let t = _mm512_add_epi64(
            hi_lo,
            _mm512_maskz_shuffle_epi32::<HIGH_TO_LOW>(LOW_DWORDS, lo_lo),
        );
        let u = _mm512_add_epi64(lo_hi, _mm512_maskz_mov_epi32(LOW_DWORDS, t));
        _mm512_add_epi64(
            _mm512_add_epi64(
                hi_hi,
                _mm512_maskz_shuffle_epi32::<HIGH_TO_LOW>(LOW_DWORDS, t),
            ),
            _mm512_maskz_shuffle_epi32::<HIGH_TO_LOW>(LOW_DWORDS, u),
        )
    }

    /// Eight lanes of [`crate::Modulus::mul_shoup_lazy`]: `a·b − ⌊a·b_shoup/2^64⌋·q` in
    /// wrapping arithmetic, in `[0, 2q)` for any `a`.
    #[inline]
    #[target_feature(enable = "avx512f,avx512dq")]
    fn mul_shoup_lazy(a: __m512i, f: Fixed, q: __m512i) -> __m512i {
        let q_hat = mul_high(a, f.b_shoup);
        _mm512_sub_epi64(_mm512_mullo_epi64(a, f.b), _mm512_mullo_epi64(q_hat, q))
    }

    /// Harvey forward butterfly: `x, y < 4q` in, `x + v, x + 2q − v < 4q` out.
    #[inline]
    #[target_feature(enable = "avx512f,avx512dq")]
    fn forward_butterfly(x: __m512i, y: __m512i, s: Fixed, m: Limb) -> (__m512i, __m512i) {
        let u = cond_sub(x, m.two_q);
        let v = mul_shoup_lazy(y, s, m.q);
        (
            _mm512_add_epi64(u, v),
            _mm512_sub_epi64(_mm512_add_epi64(u, m.two_q), v),
        )
    }

    /// Gentleman–Sande inverse butterfly over `[0, 2q)`.
    #[inline]
    #[target_feature(enable = "avx512f,avx512dq")]
    fn inverse_butterfly(u: __m512i, v: __m512i, s: Fixed, m: Limb) -> (__m512i, __m512i) {
        (
            cond_sub(_mm512_add_epi64(u, v), m.two_q),
            mul_shoup_lazy(_mm512_sub_epi64(_mm512_add_epi64(u, m.two_q), v), s, m.q),
        )
    }

    /// One stage whose half-block `t ≥ 8` holds whole vectors: one broadcast twiddle per
    /// block, `first` being the table index of block 0's.
    #[inline]
    #[target_feature(enable = "avx512f,avx512dq")]
    fn wide_stage<const FORWARD: bool>(
        values: &mut [u64],
        tw: &Twiddles<'_>,
        first: usize,
        t: usize,
        m: Limb,
    ) {
        for (i, base) in (0..values.len()).step_by(2 * t).enumerate() {
            let s = fixed(tw.w[first + i], tw.w_shoup[first + i]);
            for at in (base..base + t).step_by(LANES) {
                let (x, y) = (load(values, at), load(values, at + t));
                let (x, y) = if FORWARD {
                    forward_butterfly(x, y, s, m)
                } else {
                    inverse_butterfly(x, y, s, m)
                };
                store(values, at, x);
                store(values, at + t, y);
            }
        }
    }

    /// One stage whose half-block `t ∈ {4, 2, 1}` is narrower than a vector: sixteen
    /// consecutive values (`8/t` blocks) are de-interleaved in registers into their eight
    /// upper and eight lower butterfly inputs, transformed, and re-interleaved. Their `8/t`
    /// twiddles are consecutive in the table and spread over the lanes with one permute.
    #[inline]
    #[target_feature(enable = "avx512f,avx512dq")]
    fn narrow_stage<const FORWARD: bool>(
        values: &mut [u64],
        tw: &Twiddles<'_>,
        first: usize,
        t: usize,
        m: Limb,
    ) {
        // Lane `l` of the upper inputs is element `split_x[l]` of the sixteen (0‥7 from the
        // first vector, 8‥15 from the second); `join_*` undoes it.
        let (split_x, split_y, join_a, join_b, spread) = match t {
            4 => (
                _mm512_setr_epi64(0, 1, 2, 3, 8, 9, 10, 11),
                _mm512_setr_epi64(4, 5, 6, 7, 12, 13, 14, 15),
                _mm512_setr_epi64(0, 1, 2, 3, 8, 9, 10, 11),
                _mm512_setr_epi64(4, 5, 6, 7, 12, 13, 14, 15),
                _mm512_setr_epi64(0, 0, 0, 0, 1, 1, 1, 1),
            ),
            2 => (
                _mm512_setr_epi64(0, 1, 4, 5, 8, 9, 12, 13),
                _mm512_setr_epi64(2, 3, 6, 7, 10, 11, 14, 15),
                _mm512_setr_epi64(0, 1, 8, 9, 2, 3, 10, 11),
                _mm512_setr_epi64(4, 5, 12, 13, 6, 7, 14, 15),
                _mm512_setr_epi64(0, 0, 1, 1, 2, 2, 3, 3),
            ),
            _ => (
                _mm512_setr_epi64(0, 2, 4, 6, 8, 10, 12, 14),
                _mm512_setr_epi64(1, 3, 5, 7, 9, 11, 13, 15),
                _mm512_setr_epi64(0, 8, 1, 9, 2, 10, 3, 11),
                _mm512_setr_epi64(4, 12, 5, 13, 6, 14, 7, 15),
                _mm512_setr_epi64(0, 1, 2, 3, 4, 5, 6, 7),
            ),
        };
        let blocks = LANES / t;
        for (j, at) in (0..values.len()).step_by(2 * LANES).enumerate() {
            let (a, b) = (load(values, at), load(values, at + LANES));
            let x = _mm512_permutex2var_epi64(a, split_x, b);
            let y = _mm512_permutex2var_epi64(a, split_y, b);
            // Eight table entries from this group's first twiddle on; the permute keeps the
            // leading `8/t`. (The load stays inside the table: `first + blocks·j + 8 ≤ n`.)
            let s = Fixed {
                b: _mm512_permutexvar_epi64(spread, load(tw.w, first + blocks * j)),
                b_shoup: _mm512_permutexvar_epi64(spread, load(tw.w_shoup, first + blocks * j)),
            };
            let (x, y) = if FORWARD {
                forward_butterfly(x, y, s, m)
            } else {
                inverse_butterfly(x, y, s, m)
            };
            store(values, at, _mm512_permutex2var_epi64(x, join_a, y));
            store(values, at + LANES, _mm512_permutex2var_epi64(x, join_b, y));
        }
    }

    #[target_feature(enable = "avx512f,avx512dq")]
    pub(super) fn ntt_forward_lazy(values: &mut [u64], tw: &Twiddles<'_>, q: u64) -> bool {
        let n = values.len();
        let m = limb(q);
        let mut t = n;
        let mut blocks = 1usize;
        while blocks < n {
            t >>= 1;
            if t >= LANES {
                wide_stage::<true>(values, tw, blocks, t, m);
            } else {
                narrow_stage::<true>(values, tw, blocks, t, m);
            }
            blocks <<= 1;
        }
        true
    }

    #[target_feature(enable = "avx512f,avx512dq")]
    pub(super) fn ntt_inverse_lazy(
        values: &mut [u64],
        tw: &Twiddles<'_>,
        last: [u64; 4],
        q: u64,
    ) -> bool {
        let n = values.len();
        let m = limb(q);
        let mut t = 1usize;
        let mut blocks = n >> 1;
        while blocks > 1 {
            if t >= LANES {
                wide_stage::<false>(values, tw, blocks, t, m);
            } else {
                narrow_stage::<false>(values, tw, blocks, t, m);
            }
            t <<= 1;
            blocks >>= 1;
        }
        // Last stage: one block spanning the row, `N⁻¹` fused into both output multipliers.
        let scale = fixed(last[0], last[1]);
        let twiddle = fixed(last[2], last[3]);
        for at in (0..t).step_by(LANES) {
            let (u, v) = (load(values, at), load(values, at + t));
            let sum = cond_sub(_mm512_add_epi64(u, v), m.two_q);
            let diff = _mm512_sub_epi64(_mm512_add_epi64(u, m.two_q), v);
            store(values, at, mul_shoup_lazy(sum, scale, m.q));
            store(values, at + t, mul_shoup_lazy(diff, twiddle, m.q));
        }
        true
    }

    /// The covered prefix of an `n`-element row: whole vectors only.
    fn whole_vectors(n: usize) -> usize {
        n - n % LANES
    }

    #[target_feature(enable = "avx512f,avx512dq")]
    pub(super) fn reduce_row(row: &mut [u64], q: u64, from_4q: bool) -> usize {
        let m = limb(q);
        let done = whole_vectors(row.len());
        for at in (0..done).step_by(LANES) {
            let mut v = load(row, at);
            if from_4q {
                v = cond_sub(v, m.two_q);
            }
            store(row, at, cond_sub(v, m.q));
        }
        done
    }

    #[target_feature(enable = "avx512f,avx512dq")]
    pub(super) fn mul_shoup_row(
        q: u64,
        src: &[u64],
        b: u64,
        b_shoup: u64,
        out: &mut [u64],
    ) -> usize {
        let (m, f) = (limb(q), fixed(b, b_shoup));
        let done = whole_vectors(out.len());
        for at in (0..done).step_by(LANES) {
            let product = mul_shoup_lazy(load(src, at), f, m.q);
            store(out, at, cond_sub(product, m.q));
        }
        done
    }

    #[target_feature(enable = "avx512f,avx512dq")]
    pub(super) fn add_mul_shoup_row(
        q: u64,
        acc: &mut [u64],
        src: &[u64],
        b: u64,
        b_shoup: u64,
    ) -> usize {
        let (m, f) = (limb(q), fixed(b, b_shoup));
        let done = whole_vectors(acc.len());
        for at in (0..done).step_by(LANES) {
            let product = mul_shoup_lazy(load(src, at), f, m.q);
            let sum = _mm512_add_epi64(load(acc, at), product);
            store(acc, at, cond_sub(cond_sub(sum, m.two_q), m.q));
        }
        done
    }

    #[target_feature(enable = "avx512f,avx512dq")]
    pub(super) fn sub_mul_shoup_row(
        q: u64,
        out: &mut [u64],
        x: &[u64],
        b: u64,
        b_shoup: u64,
    ) -> usize {
        let (m, f) = (limb(q), fixed(b, b_shoup));
        let done = whole_vectors(out.len());
        for at in (0..done).step_by(LANES) {
            // x + q − out ∈ (0, 2q) is congruent to the canonical difference, and the
            // canonical product does not depend on which representative is multiplied.
            let diff = _mm512_sub_epi64(_mm512_add_epi64(load(x, at), m.q), load(out, at));
            store(out, at, cond_sub(mul_shoup_lazy(diff, f, m.q), m.q));
        }
        done
    }

    #[target_feature(enable = "avx512f,avx512dq")]
    pub(super) fn rescale_row(
        q: u64,
        q_last: u64,
        x: &[u64],
        last: &[u64],
        b: u64,
        b_shoup: u64,
        out: &mut [u64],
    ) -> usize {
        let (m, f) = (limb(q), fixed(b, b_shoup));
        let (q_last_v, half) = (splat(q_last), splat(q_last / 2));
        let done = whole_vectors(out.len());
        for at in (0..done).step_by(LANES) {
            // centre(c) = c or −(q_last − c); either way (x − centre)·b = x·b ∓ |centre|·b,
            // two lazy products below 2q whose sum or difference lies in [0, 4q).
            let c = load(last, at);
            let negative = _mm512_cmpgt_epu64_mask(c, half);
            let magnitude = _mm512_mask_sub_epi64(c, negative, q_last_v, c);
            let xb = mul_shoup_lazy(load(x, at), f, m.q);
            let cb = mul_shoup_lazy(magnitude, f, m.q);
            let minus = _mm512_sub_epi64(_mm512_add_epi64(xb, m.two_q), cb);
            let r = _mm512_mask_add_epi64(minus, negative, xb, cb);
            store(out, at, cond_sub(cond_sub(r, m.two_q), m.q));
        }
        done
    }

    #[target_feature(enable = "avx512f,avx512dq")]
    pub(super) fn convert_accumulate_row(
        p: u64,
        flat: &[u64],
        w: &[u64],
        w_shoup: &[u64],
        out: &mut [u64],
    ) -> usize {
        let m = limb(p);
        let n = out.len();
        let done = whole_vectors(n);
        for at in (0..done).step_by(LANES) {
            let mut sum = mul_shoup_lazy(load(flat, at), fixed(w[0], w_shoup[0]), m.q);
            for i in 1..w.len() {
                let term = mul_shoup_lazy(load(flat, i * n + at), fixed(w[i], w_shoup[i]), m.q);
                sum = cond_sub(_mm512_add_epi64(sum, term), m.two_q);
            }
            store(out, at, sum);
        }
        done
    }
}
