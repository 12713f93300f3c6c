//! The vector arms of the row kernels — and the only `unsafe` in the workspace.
//!
//! Every hot row of the stack is a stream of lazy Shoup products
//! ([`crate::Modulus::mul_shoup_lazy`]: `a·b − ⌊a·b_shoup/2^64⌋·q`, one 64×64 multiply-high and
//! two multiply-lows), and on a scalar core those three multiplies share one port. There are
//! three arms: the scalar loops (compiled on every target, the oracle), and two in this module
//! that hold the same product eight lanes wide, compute the *same quotient* and so return the
//! very lazy representative the scalar twin returns, not merely a congruent one:
//!
//! * **AVX-512F+DQ** ([`Arm::Dq`], any limb): the high half from four `vpmuludq` partial
//!   products, the two low halves by `vpmullq`, the same wrapping arithmetic lane for lane.
//! * **AVX-512 IFMA** ([`Arm::Ifma`], limbs below `2^50`): the 52-bit multiplier. With
//!   `b_shoup = h·2^12 + l` (`h` its top 52 bits, `l` its low 12), three `vpmadd52*` give
//!   `⌊a·l/2^12⌋`, then `a·h` split at bit 52 with that sum's carry folded in — which *is*
//!   `⌊a·b_shoup/2^64⌋` — and two more give `a·b − q̂·q` modulo `2^52`, exact because the
//!   result lies in `[0, 2q)`. The same Shoup constants, no second table.
//!
//! **52-bit twiddles.** The NTT tables of a limb below `2^50` store each Shoup companion with
//! its low 12 bits cleared (`l = 0`), i.e. `⌊w·2^52/q⌋·2^12` — Intel HEXL's form. The IFMA
//! butterfly's quotient is then one `vpmadd52huq` (`q̂ = ⌊a·h/2^52⌋`), the product three
//! multiplies instead of five, and the scalar and DQ twins, reading the same tables, compute
//! the same `q̂`. Every butterfly operand is below `4q < 2^52`, so `a·h/2^52` falls short of
//! `a·w/q` by less than `a/2^52 < 1`: `q̂` undershoots the Shoup quotient by at most 1 and the
//! product stays in `[0, 2q)` — forward outputs below `4q`, inverse outputs canonical after
//! the final pass, as with full-width constants.
//!
//! Built on them: the NTT stage sweeps and the row kernels of [`crate::rows`] (the add / sub
//! rows are the same compare-mask code on both arms), and two kernels only the IFMA arm has —
//! the KSKIP inner product ([`crate::kskip`]) and the pointwise products (a Barrett reduction
//! whose output is canonical, so any correct one is bit-identical). The KSKIP row never leaves
//! the vector registers: per coefficient it sums each product's low and high 52-bit halves
//! exactly, then reduces `hi·2^52 + lo` eight lanes at a time — split into three 52-bit parts,
//! three Shoup products by `1`, `2^52` and `2^104 mod q` (52-bit constants, each below `2q`),
//! then conditional subtractions of `4q`, `2q` and `q`. Its output is canonical, as the scalar
//! twin's `reduce_u128`, so the two agree word for word. A hoisted rotation's permuted row
//! gathers its eight sources with one `vpgatherqq` per digit.
//!
//! ## Selection
//!
//! The functions of this module are the dispatch seam: each returns how much of the row a
//! vector arm covered (a length, or `false` for "declined") and the caller runs its scalar loop
//! over the rest. [`Arm::select`] names the arm for a limb: IFMA when `is_x86_feature_detected!`
//! reports `avx512ifma` (with `avx512f` and `avx512dq`) and `q < 2^50`, else DQ when the CPU
//! has `avx512f` and `avx512dq`, else none — and on every other CPU and target the scalar
//! loops, compiled everywhere and the single oracle, do all the work. Nothing selects an arm
//! but the CPU and the modulus: no feature, no environment variable, no option. (Tests name
//! an arm explicitly; an arm the CPU or the limb cannot run declines.)
//!
//! ## The operand-width invariant
//!
//! `vpmadd52*` reads 52 bits of each lane, so the IFMA arm multiplies only operands below
//! `2^52`. For a limb below `2^50` every lazy operand of its own rows is below `4q < 2^52`
//! (butterfly inputs, Shoup multiplicands, key residues, canonical pointwise operands). Where a
//! row's contract admits any `u64`, the arm checks each vector and takes the DQ product for a
//! vector with a wide lane (`mul_shoup_row`, `add_mul_shoup_row`), or leaves the rest of the
//! row to the scalar loop (the KSKIP and pointwise kernels). A basis-conversion term is a
//! residue of its *source* limb, not of the narrow target: ModDown's `P` rows or `q0` in the
//! first digit are 55 – 60-bit words, so a term whose source limb is not narrow itself keeps
//! the DQ product — the caller names the sources, and a term takes the 52-bit multiplier only
//! if its words, below four times its source, fit it. The rescale's dropped limb likewise: its
//! centred magnitude, up to `q_last/2`, must fit. Either product yields the same
//! representative, so the choice is invisible in the output.
//!
//! ## Unsafe policy
//!
//! Three kinds of `unsafe` block exist, each with its `// SAFETY:` comment:
//!
//! * the unaligned loads and stores (`avx512::load` / `avx512::store`, and `indices` for a
//!   row of `usize` permutation entries), which assert `at + 8 <= len` before touching
//!   memory, so no kernel can read or write outside its slices whatever its index arithmetic
//!   does;
//! * the gather (`avx512::checked::gather`), which reads eight words of a row at eight
//!   indices. Its indices come only as a `checked::Indices`, whose fields are private to that
//!   module and whose one constructor, `indices`, compares all eight with one vector compare
//!   against a bound and panics if any is not below it; `gather` asserts that the row holds at
//!   least that bound, so every lane reads inside the row;
//! * the calls from the safe dispatch functions into `#[target_feature]` kernels, each of
//!   which sits behind the detection result.
//!
//! The arithmetic intrinsics themselves are safe inside a `#[target_feature]` function.
//!
//! Two findings from the first version, kept so they are not rediscovered: 512-bit shifts,
//! `vpminuq` and the multiplies compete for one issue port on the cores this was tuned on, so
//! high dwords move down with `vpshufd` (not `vpsrlq`) and a conditional subtraction is a
//! compare-into-mask plus a masked subtract (not a `min`); that halved the butterfly.

#![deny(unsafe_op_in_unsafe_fn)]
#![deny(clippy::undocumented_unsafe_blocks)]

use crate::kskip::DigitRows;
use crate::Modulus;

/// Rows shorter than this never reach a vector NTT kernel: the in-register `t = 4, 2, 1`
/// stages work on pairs of eight-lane vectors.
const MIN_NTT_DEGREE: usize = 16;

/// Limbs below this bound take the IFMA arm: every lazy operand `< 4q` then fits the 52-bit
/// multiplier.
pub(crate) const IFMA_LIMB_BOUND: u64 = 1 << 50;

/// The most KSKIP digits whose 52-bit partial sums a `u64` lane holds exactly.
const IFMA_MAX_DIGITS: usize = 1 << 12;

/// The stage constants of one NTT direction: twiddles in bit-reversed order and their Shoup
/// companions — for a limb below `2^50` in the 52-bit form (low 12 bits clear) the IFMA arm's
/// twiddle product requires, which [`crate::NttTable`] stores.
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

/// A vector arm of the row kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Arm {
    /// AVX-512F+DQ: the 64-bit Shoup product from 32-bit partial products, any limb.
    Dq,
    /// AVX-512 IFMA: the same product on the 52-bit multiplier, limbs below `2^50`.
    Ifma,
}

impl Arm {
    /// The arm this CPU takes for limb `q`, if any.
    pub(crate) fn select(q: u64) -> Option<Self> {
        [Self::Ifma, Self::Dq].into_iter().find(|arm| arm.runs(q))
    }

    /// Whether this arm runs limb `q` on this CPU.
    pub(crate) fn runs(self, q: u64) -> bool {
        match self {
            Self::Dq => detected(),
            Self::Ifma => q < IFMA_LIMB_BOUND && ifma_detected(),
        }
    }
}

/// `true` when the DQ arm runs on this CPU.
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

/// `true` when the IFMA arm runs on this CPU (for limbs below `2^50`).
pub(crate) fn ifma_detected() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        detected() && std::arch::is_x86_feature_detected!("avx512ifma")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Expands to "run `avx512::<arm>::$kernel` if `$arm` names an arm that runs limb `$q` on this
/// CPU, else report `$declined`". The `ifma` form has no DQ twin.
macro_rules! dispatch {
    (ifma $q:expr, $declined:expr, $kernel:ident $args:tt) => {
        dispatch!(@arms [Ifma ifma] Some(Arm::Ifma), $q, $declined, $kernel $args)
    };
    (@arms [$($variant:ident $module:ident),+] $arm:expr, $q:expr, $declined:expr,
        $kernel:ident $args:tt) => {{
        let (arm, q): (Option<Arm>, u64) = ($arm, $q);
        #[cfg(target_arch = "x86_64")]
        match arm {
            $(Some(Arm::$variant) if Arm::$variant.runs(q) => {
                // SAFETY: `runs` just confirmed every target feature this arm's kernels are
                // compiled with (avx512f and avx512dq, plus avx512ifma for the IFMA arm).
                return unsafe { avx512::$module::$kernel $args };
            })+
            _ => {}
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = (arm, q, $args);
        $declined
    }};
    ($arm:expr, $q:expr, $declined:expr, $kernel:ident $args:tt) => {
        dispatch!(@arms [Ifma ifma, Dq dq] $arm, $q, $declined, $kernel $args)
    };
}

/// Vector arm of [`crate::NttTable::forward_lazy`]'s butterfly network (inputs `< 4q`).
/// `false` = declined (no such arm here, or a row too short), nothing touched.
pub(crate) fn ntt_forward_lazy(
    arm: Option<Arm>,
    values: &mut [u64],
    tw: &Twiddles<'_>,
    q: u64,
) -> bool {
    if !tw.fits_vector_ntt(values.len()) {
        return false;
    }
    dispatch!(arm, q, false, ntt_forward_lazy(values, tw, q))
}

/// Vector arm of [`crate::NttTable::inverse`]'s butterfly network, the last stage fused with
/// the `N⁻¹` scaling (`last = [N⁻¹, its Shoup constant, ψ⁻¹·N⁻¹, its Shoup constant]`);
/// outputs stay in `[0, 2q)`. `false` = declined, nothing touched.
pub(crate) fn ntt_inverse_lazy(
    arm: Option<Arm>,
    values: &mut [u64],
    tw: &Twiddles<'_>,
    last: [u64; 4],
    q: u64,
) -> bool {
    if !tw.fits_vector_ntt(values.len()) {
        return false;
    }
    dispatch!(arm, q, false, ntt_inverse_lazy(values, tw, last, q))
}

/// Vector arm of `row[c] ← row[c] mod q` for `row[c] < bound·q`, `bound ∈ {2, 4}`. Returns the
/// covered prefix length.
pub(crate) fn reduce_row(arm: Option<Arm>, row: &mut [u64], q: u64, from_4q: bool) -> usize {
    dispatch!(arm, q, 0, reduce_row(row, q, from_4q))
}

/// Vector arm of `x[c] = (x[c] + y[c]) mod q` for canonical rows. Returns the covered prefix
/// length.
pub(crate) fn add_row(arm: Option<Arm>, q: u64, x: &mut [u64], y: &[u64]) -> usize {
    assert_eq!(x.len(), y.len());
    dispatch!(arm, q, 0, add_row(q, x, y))
}

/// Vector arm of `x[c] = (x[c] − y[c]) mod q` for canonical rows. Returns the covered prefix
/// length.
pub(crate) fn sub_row(arm: Option<Arm>, q: u64, x: &mut [u64], y: &[u64]) -> usize {
    assert_eq!(x.len(), y.len());
    dispatch!(arm, q, 0, sub_row(q, x, y))
}

/// Vector arm of `out[c] = src[c]·b mod q` (canonical). Returns the covered prefix length.
pub(crate) fn mul_shoup_row(
    arm: Option<Arm>,
    q: u64,
    src: &[u64],
    b: u64,
    b_shoup: u64,
    out: &mut [u64],
) -> usize {
    assert_eq!(src.len(), out.len());
    dispatch!(arm, q, 0, mul_shoup_row(q, src, b, b_shoup, out))
}

/// Vector arm of `acc[c] = (acc[c] + src[c]·b) mod q` for `acc[c] < 2q` (canonical out).
/// Returns the covered prefix length.
pub(crate) fn add_mul_shoup_row(
    arm: Option<Arm>,
    q: u64,
    acc: &mut [u64],
    src: &[u64],
    b: u64,
    b_shoup: u64,
) -> usize {
    assert_eq!(src.len(), acc.len());
    dispatch!(arm, q, 0, add_mul_shoup_row(q, acc, src, b, b_shoup))
}

/// Vector arm of `out[c] = (x[c] − out[c])·b mod q` for canonical `x`, `out`. Returns the
/// covered prefix length.
pub(crate) fn sub_mul_shoup_row(
    arm: Option<Arm>,
    q: u64,
    out: &mut [u64],
    x: &[u64],
    b: u64,
    b_shoup: u64,
) -> usize {
    assert_eq!(x.len(), out.len());
    dispatch!(arm, q, 0, sub_mul_shoup_row(q, out, x, b, b_shoup))
}

/// Vector arm of the rescale combine `out[c] = (x[c] − centre(last[c]))·b mod q`, `centre`
/// taking the representative of `last[c] mod q_last` in `(−q_last/2, q_last/2]`. Returns the
/// covered prefix length.
#[allow(clippy::too_many_arguments)]
pub(crate) fn rescale_row(
    arm: Option<Arm>,
    q: u64,
    q_last: u64,
    x: &[u64],
    last: &[u64],
    b: u64,
    b_shoup: u64,
    out: &mut [u64],
) -> usize {
    assert!(x.len() == out.len() && last.len() == out.len());
    dispatch!(arm, q, 0, rescale_row(q, q_last, x, last, b, b_shoup, out))
}

/// Vector arm of the coefficient-major conversion accumulate: `out[c] = Σ_i rows[i][c]·w[i]`
/// in the lazy `[0, 2p)` domain, `rows[i] = flat[i·n .. (i+1)·n]` below `4·sources[i]`,
/// summed in source order. Returns the covered prefix length.
pub(crate) fn convert_accumulate_row(
    arm: Option<Arm>,
    p: u64,
    sources: &[Modulus],
    flat: &[u64],
    w: &[u64],
    w_shoup: &[u64],
    out: &mut [u64],
) -> usize {
    assert!(
        !w.is_empty()
            && w.len() == w_shoup.len()
            && w.len() == sources.len()
            && flat.len() == w.len() * out.len()
    );
    dispatch!(
        arm,
        p,
        0,
        convert_accumulate_row(p, sources, flat, w, w_shoup, out)
    )
}

/// IFMA arm of the KSKIP row ([`crate::kskip::accumulate_digits`] without a fold): exact
/// digit sums per coefficient, reduced into `[0, q)`. Returns the covered prefix length — `0`
/// for a wide limb, a CPU without IFMA or more than 4096 digits; it ends early at the first
/// eight coefficients with an operand of 52 bits or more.
///
/// # Panics
///
/// Panics if a `perm` index of a covered vector is not below `out_b.len()`.
pub(crate) fn kskip_row(
    modulus: &Modulus,
    digits: &[DigitRows<'_>],
    perm: Option<&[usize]>,
    out_b: &mut [u64],
    out_a: &mut [u64],
) -> usize {
    if digits.len() > IFMA_MAX_DIGITS {
        return 0;
    }
    dispatch!(ifma modulus.value(), 0, kskip_row(modulus, digits, perm, out_b, out_a))
}

/// IFMA arm of `x[c] = x[c]·y[c] mod q` (canonical). Returns the covered prefix length — `0`
/// for a wide limb or a CPU without IFMA; it ends early at the first eight coefficients with a
/// non-canonical operand.
pub(crate) fn pointwise_mul_row(q: u64, x: &mut [u64], y: &[u64]) -> usize {
    assert_eq!(x.len(), y.len());
    dispatch!(ifma q, 0, pointwise_mul_row(q, x, y))
}

/// IFMA arm of `acc[c] = (acc[c] + a[c]·b[c]) mod q` (canonical). Returns the covered prefix
/// length, as [`pointwise_mul_row`].
pub(crate) fn pointwise_add_mul_row(q: u64, acc: &mut [u64], a: &[u64], b: &[u64]) -> usize {
    assert!(a.len() == acc.len() && b.len() == acc.len());
    dispatch!(ifma q, 0, pointwise_add_mul_row(q, acc, a, b))
}

#[cfg(target_arch = "x86_64")]
mod avx512 {
    use super::Twiddles;
    use crate::Modulus;
    use std::arch::x86_64::*;

    const LANES: usize = 8;
    /// `vpshufd` control moving each qword's high dword onto its low dword.
    const HIGH_TO_LOW: i32 = 0b11_11_01_01;
    /// The even (low) dword of every qword.
    const LOW_DWORDS: __mmask16 = 0x5555;
    /// The bits of a lane the 52-bit multiplier reads.
    const LOW_52: u64 = (1 << 52) - 1;
    /// Vectors whose conversion sums are carried together: each term's constants are built
    /// once per group.
    const GROUP: usize = 4;

    /// The limb modulus in the forms the kernels compare, subtract and multiply by.
    #[derive(Clone, Copy)]
    pub(super) struct Limb {
        q: __m512i,
        two_q: __m512i,
        /// `2^52 − q`: `−q` modulo the 52-bit multiplier.
        minus_q: __m512i,
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
            minus_q: splat((1 << 52) - (q & LOW_52)),
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

    pub(super) use checked::{gather, indices};

    /// The hardware gather, in a module of its own so that the fields of [`checked::Indices`]
    /// are private to it: [`checked::indices`] is the only way to build one.
    mod checked {
        use super::{splat, LANES};
        use std::arch::x86_64::*;

        /// Eight permutation entries, each checked below `bound`.
        #[derive(Clone, Copy)]
        pub(in crate::simd) struct Indices {
            v: __m512i,
            bound: usize,
        }

        /// Loads the entries `perm[at .. at + 8]` and checks them below `bound` with one
        /// compare.
        ///
        /// # Panics
        ///
        /// Panics if an entry is not below `bound`.
        #[inline]
        #[target_feature(enable = "avx512f")]
        pub(in crate::simd) fn indices(perm: &[usize], at: usize, bound: usize) -> Indices {
            const { assert!(size_of::<usize>() == size_of::<u64>()) };
            assert!(at <= perm.len() && perm.len() - at >= LANES);
            // SAFETY: the assertion keeps the eight `usize` entries `[at, at + 8)` inside
            // `perm`, a `usize` is a `u64` lane on this target (asserted at compile time), and
            // `loadu` has no alignment requirement.
            let v = unsafe { _mm512_loadu_si512(perm.as_ptr().add(at).cast()) };
            let outside = _mm512_cmpge_epu64_mask(v, splat(bound as u64));
            assert!(
                outside == 0,
                "permutation index out of range (not below {bound})"
            );
            Indices { v, bound }
        }

        /// Gathers `row[i]` for the eight checked indices `i`.
        #[inline]
        #[target_feature(enable = "avx512f")]
        pub(in crate::simd) fn gather(row: &[u64], at: Indices) -> __m512i {
            assert!(row.len() >= at.bound);
            // SAFETY: every lane of `at.v` is below `at.bound` (checked by `indices`, the only
            // constructor), which the assertion keeps within `row.len()`, so each of the eight
            // 8-byte reads at `row + 8·i` lies inside `row`; a gather has no alignment
            // requirement beyond the element's, which a `u64` slice meets.
            unsafe { _mm512_i64gather_epi64::<8>(at.v, row.as_ptr().cast()) }
        }
    }

    /// `x − m` where `x ≥ m`, else `x` (compare into a mask, masked subtract).
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn cond_sub(x: __m512i, m: __m512i) -> __m512i {
        _mm512_mask_sub_epi64(x, _mm512_cmpge_epu64_mask(x, m), x, m)
    }

    /// The covered prefix of an `n`-element row: whole vectors only.
    fn whole_vectors(n: usize) -> usize {
        n - n % LANES
    }

    /// The kernels both arms share, written against the arm's `Fixed` multiplicand, its
    /// `mul_shoup_lazy` and its operand test `fits`; `$features` are the arm's target features.
    macro_rules! shoup_kernels {
        ($features:literal) => {
            /// Harvey forward butterfly: `x, y < 4q` in, `x + v, x + 2q − v < 4q` out.
            #[inline]
            #[target_feature(enable = $features)]
            fn forward_butterfly(
                x: __m512i,
                y: __m512i,
                s: Twiddle,
                m: Limb,
            ) -> (__m512i, __m512i) {
                let u = cond_sub(x, m.two_q);
                let v = mul_twiddle(y, s, m);
                (
                    _mm512_add_epi64(u, v),
                    _mm512_sub_epi64(_mm512_add_epi64(u, m.two_q), v),
                )
            }

            /// Gentleman–Sande inverse butterfly over `[0, 2q)`.
            #[inline]
            #[target_feature(enable = $features)]
            fn inverse_butterfly(
                u: __m512i,
                v: __m512i,
                s: Twiddle,
                m: Limb,
            ) -> (__m512i, __m512i) {
                (
                    cond_sub(_mm512_add_epi64(u, v), m.two_q),
                    mul_twiddle(_mm512_sub_epi64(_mm512_add_epi64(u, m.two_q), v), s, m),
                )
            }

            /// One stage whose half-block `t ≥ 8` holds whole vectors: one broadcast twiddle
            /// per block, `first` being the table index of block 0's.
            #[inline]
            #[target_feature(enable = $features)]
            fn wide_stage<const FORWARD: bool>(
                values: &mut [u64],
                tw: &Twiddles<'_>,
                first: usize,
                t: usize,
                m: Limb,
            ) {
                for (i, base) in (0..values.len()).step_by(2 * t).enumerate() {
                    let s = twiddle(splat(tw.w[first + i]), splat(tw.w_shoup[first + i]));
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
            /// consecutive values (`8/t` blocks) are de-interleaved in registers into their
            /// eight upper and eight lower butterfly inputs, transformed, and re-interleaved.
            /// Their `8/t` twiddles are consecutive in the table and spread over the lanes
            /// with one permute.
            #[inline]
            #[target_feature(enable = $features)]
            fn narrow_stage<const FORWARD: bool>(
                values: &mut [u64],
                tw: &Twiddles<'_>,
                first: usize,
                t: usize,
                m: Limb,
            ) {
                // Lane `l` of the upper inputs is element `split_x[l]` of the sixteen (0‥7
                // from the first vector, 8‥15 from the second); `join_*` undoes it.
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
                    // Eight table entries from this group's first twiddle on; the permute
                    // keeps the leading `8/t`. (The load stays inside the table:
                    // `first + blocks·j + 8 ≤ n`.)
                    let s = twiddle(
                        _mm512_permutexvar_epi64(spread, load(tw.w, first + blocks * j)),
                        _mm512_permutexvar_epi64(spread, load(tw.w_shoup, first + blocks * j)),
                    );
                    let (x, y) = if FORWARD {
                        forward_butterfly(x, y, s, m)
                    } else {
                        inverse_butterfly(x, y, s, m)
                    };
                    store(values, at, _mm512_permutex2var_epi64(x, join_a, y));
                    store(values, at + LANES, _mm512_permutex2var_epi64(x, join_b, y));
                }
            }

            #[target_feature(enable = $features)]
            pub(crate) fn ntt_forward_lazy(values: &mut [u64], tw: &Twiddles<'_>, q: u64) -> bool {
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

            #[target_feature(enable = $features)]
            pub(crate) fn ntt_inverse_lazy(
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
                // Last stage: one block spanning the row, `N⁻¹` fused into both output
                // multipliers.
                let scale = twiddle(splat(last[0]), splat(last[1]));
                let fused = twiddle(splat(last[2]), splat(last[3]));
                for at in (0..t).step_by(LANES) {
                    let (u, v) = (load(values, at), load(values, at + t));
                    let sum = cond_sub(_mm512_add_epi64(u, v), m.two_q);
                    let diff = _mm512_sub_epi64(_mm512_add_epi64(u, m.two_q), v);
                    store(values, at, mul_twiddle(sum, scale, m));
                    store(values, at + t, mul_twiddle(diff, fused, m));
                }
                true
            }

            #[target_feature(enable = $features)]
            pub(crate) fn reduce_row(row: &mut [u64], q: u64, from_4q: bool) -> usize {
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

            #[target_feature(enable = $features)]
            pub(crate) fn add_row(q: u64, x: &mut [u64], y: &[u64]) -> usize {
                let m = limb(q);
                let done = whole_vectors(x.len());
                for at in (0..done).step_by(LANES) {
                    store(
                        x,
                        at,
                        cond_sub(_mm512_add_epi64(load(x, at), load(y, at)), m.q),
                    );
                }
                done
            }

            #[target_feature(enable = $features)]
            pub(crate) fn sub_row(q: u64, x: &mut [u64], y: &[u64]) -> usize {
                let m = limb(q);
                let done = whole_vectors(x.len());
                for at in (0..done).step_by(LANES) {
                    let (a, b) = (load(x, at), load(y, at));
                    let diff = _mm512_sub_epi64(a, b);
                    let borrow = _mm512_cmplt_epu64_mask(a, b);
                    store(x, at, _mm512_mask_add_epi64(diff, borrow, diff, m.q));
                }
                done
            }

            /// `a·b` lazily for any `a`: this arm's product where every lane fits it, the
            /// DQ product otherwise (`f` and `any` hold the same `b`).
            #[inline]
            #[target_feature(enable = $features)]
            fn mul_shoup_lazy_any(a: __m512i, f: Fixed, any: super::dq::Fixed, m: Limb) -> __m512i {
                if fits(a) {
                    mul_shoup_lazy(a, f, m)
                } else {
                    super::dq::mul_shoup_lazy(a, any, m)
                }
            }

            #[target_feature(enable = $features)]
            pub(crate) fn mul_shoup_row(
                q: u64,
                src: &[u64],
                b: u64,
                b_shoup: u64,
                out: &mut [u64],
            ) -> usize {
                let (m, f) = (limb(q), fixed(splat(b), splat(b_shoup)));
                let any = super::dq::fixed(splat(b), splat(b_shoup));
                let done = whole_vectors(out.len());
                for at in (0..done).step_by(LANES) {
                    let product = mul_shoup_lazy_any(load(src, at), f, any, m);
                    store(out, at, cond_sub(product, m.q));
                }
                done
            }

            #[target_feature(enable = $features)]
            pub(crate) fn add_mul_shoup_row(
                q: u64,
                acc: &mut [u64],
                src: &[u64],
                b: u64,
                b_shoup: u64,
            ) -> usize {
                let (m, f) = (limb(q), fixed(splat(b), splat(b_shoup)));
                let any = super::dq::fixed(splat(b), splat(b_shoup));
                let done = whole_vectors(acc.len());
                for at in (0..done).step_by(LANES) {
                    let product = mul_shoup_lazy_any(load(src, at), f, any, m);
                    let sum = _mm512_add_epi64(load(acc, at), product);
                    store(acc, at, cond_sub(cond_sub(sum, m.two_q), m.q));
                }
                done
            }

            #[target_feature(enable = $features)]
            pub(crate) fn sub_mul_shoup_row(
                q: u64,
                out: &mut [u64],
                x: &[u64],
                b: u64,
                b_shoup: u64,
            ) -> usize {
                let (m, f) = (limb(q), fixed(splat(b), splat(b_shoup)));
                let done = whole_vectors(out.len());
                for at in (0..done).step_by(LANES) {
                    // x + q − out ∈ (0, 2q) is congruent to the canonical difference, and the
                    // canonical product does not depend on which representative is multiplied.
                    let diff = _mm512_sub_epi64(_mm512_add_epi64(load(x, at), m.q), load(out, at));
                    store(out, at, cond_sub(mul_shoup_lazy(diff, f, m), m.q));
                }
                done
            }

            #[target_feature(enable = $features)]
            pub(crate) fn rescale_row(
                q: u64,
                q_last: u64,
                x: &[u64],
                last: &[u64],
                b: u64,
                b_shoup: u64,
                out: &mut [u64],
            ) -> usize {
                let (m, f) = (limb(q), fixed(splat(b), splat(b_shoup)));
                let any = super::dq::fixed(splat(b), splat(b_shoup));
                // Every centred magnitude is at most q_last/2.
                let last_fits = q_last / 2 <= OPERAND_MAX;
                let (q_last_v, half) = (splat(q_last), splat(q_last / 2));
                let done = whole_vectors(out.len());
                for at in (0..done).step_by(LANES) {
                    // centre(c) = c or −(q_last − c); either way (x − centre)·b = x·b ∓
                    // |centre|·b, two lazy products below 2q whose sum or difference lies in
                    // [0, 4q).
                    let c = load(last, at);
                    let negative = _mm512_cmpgt_epu64_mask(c, half);
                    let magnitude = _mm512_mask_sub_epi64(c, negative, q_last_v, c);
                    let xb = mul_shoup_lazy(load(x, at), f, m);
                    let cb = if last_fits {
                        mul_shoup_lazy(magnitude, f, m)
                    } else {
                        super::dq::mul_shoup_lazy(magnitude, any, m)
                    };
                    let minus = _mm512_sub_epi64(_mm512_add_epi64(xb, m.two_q), cb);
                    let r = _mm512_mask_add_epi64(minus, negative, xb, cb);
                    store(out, at, cond_sub(cond_sub(r, m.two_q), m.q));
                }
                done
            }

            /// `G` vectors of the conversion accumulate from coefficient `at`: every term runs
            /// over the group's `G` running sums (in registers) before the next term.
            #[inline]
            #[target_feature(enable = $features)]
            fn convert_group<const G: usize>(
                m: Limb,
                sources: &[Modulus],
                flat: &[u64],
                w: &[u64],
                w_shoup: &[u64],
                out: &mut [u64],
                at: usize,
            ) {
                let n = out.len();
                let mut sums = [_mm512_setzero_si512(); G];
                for (i, source) in sources.iter().enumerate() {
                    let (b, b_shoup) = (splat(w[i]), splat(w_shoup[i]));
                    let row = &flat[i * n..(i + 1) * n];
                    // A zero start leaves the first term as is: it is below 2p. The row's
                    // words are below 4·source.
                    if source.value() <= OPERAND_MAX / 4 {
                        let f = fixed(b, b_shoup);
                        for (g, sum) in sums.iter_mut().enumerate() {
                            let term = mul_shoup_lazy(load(row, at + g * LANES), f, m);
                            *sum = cond_sub(_mm512_add_epi64(*sum, term), m.two_q);
                        }
                    } else {
                        let f = super::dq::fixed(b, b_shoup);
                        for (g, sum) in sums.iter_mut().enumerate() {
                            let term = super::dq::mul_shoup_lazy(load(row, at + g * LANES), f, m);
                            *sum = cond_sub(_mm512_add_epi64(*sum, term), m.two_q);
                        }
                    }
                }
                for (g, &sum) in sums.iter().enumerate() {
                    store(out, at + g * LANES, sum);
                }
            }

            #[target_feature(enable = $features)]
            pub(crate) fn convert_accumulate_row(
                p: u64,
                sources: &[Modulus],
                flat: &[u64],
                w: &[u64],
                w_shoup: &[u64],
                out: &mut [u64],
            ) -> usize {
                let m = limb(p);
                let done = whole_vectors(out.len());
                let grouped = done - done % (GROUP * LANES);
                for at in (0..grouped).step_by(GROUP * LANES) {
                    convert_group::<GROUP>(m, sources, flat, w, w_shoup, out, at);
                }
                for at in (grouped..done).step_by(LANES) {
                    convert_group::<1>(m, sources, flat, w, w_shoup, out, at);
                }
                done
            }
        };
    }

    /// The AVX-512F+DQ arm: any limb, any operand.
    pub(super) mod dq {
        use super::*;

        /// The largest operand this arm multiplies: all of them.
        const OPERAND_MAX: u64 = u64::MAX;

        /// A fixed Shoup multiplicand `b` with `⌊b·2^64/q⌋`, one per lane.
        #[derive(Clone, Copy)]
        pub(crate) struct Fixed {
            b: __m512i,
            b_shoup: __m512i,
        }

        #[inline]
        #[target_feature(enable = "avx512f")]
        pub(crate) fn fixed(b: __m512i, b_shoup: __m512i) -> Fixed {
            Fixed { b, b_shoup }
        }

        /// Every lane fits this arm.
        #[inline]
        #[target_feature(enable = "avx512f")]
        fn fits(_: __m512i) -> bool {
            true
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
        pub(crate) fn mul_shoup_lazy(a: __m512i, f: Fixed, m: Limb) -> __m512i {
            let q_hat = mul_high(a, f.b_shoup);
            _mm512_sub_epi64(_mm512_mullo_epi64(a, f.b), _mm512_mullo_epi64(q_hat, m.q))
        }

        /// The NTT's twiddles take this arm's one product.
        use self::{fixed as twiddle, mul_shoup_lazy as mul_twiddle, Fixed as Twiddle};

        shoup_kernels!("avx512f,avx512dq");
    }

    /// The AVX-512 IFMA arm: limbs below `2^50`, operands below `2^52`.
    pub(super) mod ifma {
        use super::*;
        use crate::kskip::DigitRows;

        /// The largest operand this arm multiplies.
        const OPERAND_MAX: u64 = LOW_52;

        /// A fixed Shoup multiplicand `b` with `⌊b·2^64/q⌋` split for the 52-bit multiplier:
        /// its top 52 bits, and its low 12 at bits 40‥51 (the multiplier ignores the rest).
        #[derive(Clone, Copy)]
        pub(crate) struct Fixed {
            b: __m512i,
            shoup_high: __m512i,
            shoup_low: __m512i,
        }

        #[inline]
        #[target_feature(enable = "avx512f")]
        fn fixed(b: __m512i, b_shoup: __m512i) -> Fixed {
            Fixed {
                b,
                shoup_high: _mm512_srli_epi64::<12>(b_shoup),
                shoup_low: _mm512_slli_epi64::<40>(b_shoup),
            }
        }

        /// Whether every lane is below `2^52`.
        #[inline]
        #[target_feature(enable = "avx512f")]
        fn fits(a: __m512i) -> bool {
            _mm512_test_epi64_mask(a, splat(!LOW_52)) == 0
        }

        /// Eight lanes of [`crate::Modulus::mul_shoup_lazy`] for `a < 2^52`, `q < 2^50`. With
        /// `b_shoup = h·2^12 + l`: `⌊a·b_shoup/2^64⌋ = ⌊(a·h + ⌊a·l/2^12⌋)/2^52⌋`, the inner sum
        /// taken as `a·h`'s two 52-bit halves plus the carry out of the low one; then
        /// `a·b − q̂·q`, which lies in `[0, 2q)`, is exact modulo `2^52`.
        #[inline]
        #[target_feature(enable = "avx512f,avx512ifma")]
        fn mul_shoup_lazy(a: __m512i, f: Fixed, m: Limb) -> __m512i {
            let zero = _mm512_setzero_si512();
            let low_part = _mm512_madd52hi_epu64(zero, a, f.shoup_low);
            let low_sum = _mm512_madd52lo_epu64(low_part, a, f.shoup_high);
            let q_hat = _mm512_madd52hi_epu64(_mm512_srli_epi64::<52>(low_sum), a, f.shoup_high);
            let r = _mm512_madd52lo_epu64(_mm512_madd52lo_epu64(zero, a, f.b), q_hat, m.minus_q);
            _mm512_and_si512(r, splat(LOW_52))
        }

        /// A twiddle `w` with its 52-bit Shoup constant `⌊w·2^52/q⌋`: the NTT tables of a limb
        /// below `2^50` store it shifted up 12 bits (the low bits of the 64-bit form cleared).
        #[derive(Clone, Copy)]
        struct Twiddle {
            w: __m512i,
            w_shoup: __m512i,
        }

        #[inline]
        #[target_feature(enable = "avx512f")]
        fn twiddle(w: __m512i, w_shoup: __m512i) -> Twiddle {
            Twiddle {
                w,
                w_shoup: _mm512_srli_epi64::<12>(w_shoup),
            }
        }

        /// Eight lanes of [`crate::Modulus::mul_shoup_lazy`] by a 52-bit-form twiddle, for
        /// `a < 2^52`: `q̂ = ⌊a·w_shoup/2^52⌋` is one `vpmadd52huq`, and `a·w − q̂·q`, which lies
        /// in `[0, 2q)`, is exact modulo `2^52`.
        #[inline]
        #[target_feature(enable = "avx512f,avx512ifma")]
        fn mul_twiddle(a: __m512i, t: Twiddle, m: Limb) -> __m512i {
            let zero = _mm512_setzero_si512();
            let q_hat = _mm512_madd52hi_epu64(zero, a, t.w_shoup);
            let r = _mm512_madd52lo_epu64(_mm512_madd52lo_epu64(zero, a, t.w), q_hat, m.minus_q);
            _mm512_and_si512(r, splat(LOW_52))
        }

        shoup_kernels!("avx512f,avx512dq,avx512ifma");

        /// The end reduction of the KSKIP row: `1`, `2^52` and `2^104` modulo the limb as
        /// 52-bit-form multiplicands, and `4q`.
        #[derive(Clone, Copy)]
        struct Radix {
            one: Twiddle,
            two_52: Twiddle,
            two_104: Twiddle,
            four_q: __m512i,
        }

        #[inline]
        #[target_feature(enable = "avx512f")]
        fn radix(q: u64) -> Radix {
            let constant = |c: u128| {
                let c = (c % u128::from(q)) as u64;
                Twiddle {
                    w: splat(c),
                    w_shoup: splat(((u128::from(c) << 52) / u128::from(q)) as u64),
                }
            };
            Radix {
                one: constant(1),
                two_52: constant(1 << 52),
                two_104: constant(1 << 104),
                four_q: splat(q << 2),
            }
        }

        /// `hi·2^52 + lo mod q` (canonical) for `hi + ⌊lo/2^52⌋ < 2^64`: the sum's three 52-bit
        /// parts times `1`, `2^52` and `2^104 mod q`, each product below `2q`, then the
        /// conditional subtractions of `4q`, `2q` and `q` that take `[0, 6q)` to `[0, q)`.
        #[inline]
        #[target_feature(enable = "avx512f,avx512ifma")]
        fn reduce_halves(lo: __m512i, hi: __m512i, m: Limb, r: Radix) -> __m512i {
            let low_52 = splat(LOW_52);
            let upper = _mm512_add_epi64(hi, _mm512_srli_epi64::<52>(lo));
            let sum = _mm512_add_epi64(
                _mm512_add_epi64(
                    mul_twiddle(_mm512_and_si512(lo, low_52), r.one, m),
                    mul_twiddle(_mm512_and_si512(upper, low_52), r.two_52, m),
                ),
                mul_twiddle(_mm512_srli_epi64::<52>(upper), r.two_104, m),
            );
            cond_sub(cond_sub(cond_sub(sum, r.four_q), m.two_q), m.q)
        }

        #[target_feature(enable = "avx512f,avx512dq,avx512ifma")]
        pub(crate) fn kskip_row(
            modulus: &Modulus,
            digits: &[DigitRows<'_>],
            perm: Option<&[usize]>,
            out_b: &mut [u64],
            out_a: &mut [u64],
        ) -> usize {
            let n = out_b.len();
            let (m, r) = (limb(modulus.value()), radix(modulus.value()));
            let zero = _mm512_setzero_si512();
            for at in (0..whole_vectors(n)).step_by(LANES) {
                let sources = perm.map(|perm| indices(perm, at, n));
                let [mut lo_b, mut hi_b, mut lo_a, mut hi_a] = [zero; 4];
                let mut operands = zero;
                for digit in digits {
                    let x = match sources {
                        None => load(digit.x, at),
                        Some(sources) => gather(digit.x, sources),
                    };
                    let (key_b, key_a) = (load(digit.key_b, at), load(digit.key_a, at));
                    operands = _mm512_or_si512(operands, _mm512_or_si512(x, key_a));
                    operands = _mm512_or_si512(operands, key_b);
                    lo_b = _mm512_madd52lo_epu64(lo_b, x, key_b);
                    hi_b = _mm512_madd52hi_epu64(hi_b, x, key_b);
                    lo_a = _mm512_madd52lo_epu64(lo_a, x, key_a);
                    hi_a = _mm512_madd52hi_epu64(hi_a, x, key_a);
                }
                if !fits(operands) {
                    return at;
                }
                store(out_b, at, reduce_halves(lo_b, hi_b, m, r));
                store(out_a, at, reduce_halves(lo_a, hi_a, m, r));
            }
            whole_vectors(n)
        }

        /// Barrett constants of a `k`-bit limb (`2^(k−1) < q < 2^50`) for products below
        /// `2^(2k)`: the shifts that take such a product's top `k + 1` bits from its 52-bit
        /// halves, and `⌊2^(2k)/q⌋·2^(51−k)`.
        #[derive(Clone, Copy)]
        struct Barrett {
            high_shift: __m512i,
            low_shift: __m512i,
            mu: __m512i,
        }

        #[inline]
        #[target_feature(enable = "avx512f")]
        fn barrett(q: u64) -> Barrett {
            let k = u64::from(64 - q.leading_zeros());
            let mu = ((1u128 << (2 * k)) / u128::from(q)) as u64;
            Barrett {
                high_shift: splat(53 - k),
                low_shift: splat(k - 1),
                mu: splat(mu << (51 - k)),
            }
        }

        /// `a·b mod q` (canonical) for canonical `a`, `b`: the quotient estimate
        /// `⌊⌊ab/2^(k−1)⌋·⌊2^(2k)/q⌋/2^(k+1)⌋` undershoots by at most 2, so the remainder,
        /// exact modulo `2^52`, is below `3q`.
        #[inline]
        #[target_feature(enable = "avx512f,avx512ifma")]
        fn mul_mod(a: __m512i, b: __m512i, m: Limb, r: Barrett) -> __m512i {
            let zero = _mm512_setzero_si512();
            let lo = _mm512_madd52lo_epu64(zero, a, b);
            let hi = _mm512_madd52hi_epu64(zero, a, b);
            let top = _mm512_or_si512(
                _mm512_sllv_epi64(hi, r.high_shift),
                _mm512_srlv_epi64(lo, r.low_shift),
            );
            let q_hat = _mm512_madd52hi_epu64(zero, top, r.mu);
            let rem = _mm512_and_si512(_mm512_madd52lo_epu64(lo, q_hat, m.minus_q), splat(LOW_52));
            cond_sub(cond_sub(rem, m.q), m.q)
        }

        /// Whether any lane of `a` is not below `q`.
        #[inline]
        #[target_feature(enable = "avx512f")]
        fn non_canonical(a: __m512i, m: Limb) -> bool {
            _mm512_cmpge_epu64_mask(a, m.q) != 0
        }

        #[target_feature(enable = "avx512f,avx512dq,avx512ifma")]
        pub(crate) fn pointwise_mul_row(q: u64, x: &mut [u64], y: &[u64]) -> usize {
            if q.is_power_of_two() {
                return 0;
            }
            let (m, r) = (limb(q), barrett(q));
            for at in (0..whole_vectors(x.len())).step_by(LANES) {
                let (a, b) = (load(x, at), load(y, at));
                if non_canonical(_mm512_max_epu64(a, b), m) {
                    return at;
                }
                store(x, at, mul_mod(a, b, m, r));
            }
            whole_vectors(x.len())
        }

        #[target_feature(enable = "avx512f,avx512dq,avx512ifma")]
        pub(crate) fn pointwise_add_mul_row(
            q: u64,
            acc: &mut [u64],
            a: &[u64],
            b: &[u64],
        ) -> usize {
            if q.is_power_of_two() {
                return 0;
            }
            let (m, r) = (limb(q), barrett(q));
            for at in (0..whole_vectors(acc.len())).step_by(LANES) {
                let (x, a, b) = (load(acc, at), load(a, at), load(b, at));
                if non_canonical(_mm512_max_epu64(x, _mm512_max_epu64(a, b)), m) {
                    return at;
                }
                let sum = _mm512_add_epi64(x, mul_mod(a, b, m, r));
                store(acc, at, cond_sub(sum, m.q));
            }
            whole_vectors(acc.len())
        }
    }
}
