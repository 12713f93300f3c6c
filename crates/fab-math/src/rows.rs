//! Row kernels: the per-limb loops of basis conversion, key switching, rescaling and pointwise
//! products, written once.
//!
//! Each public function is "vector arm over the prefix it covers ([`crate::simd`]), then the
//! scalar loop over the rest" — the rest being the whole row where no vector arm runs and the
//! `len mod 8` tail otherwise. The vector arm is the one [`simd::Arm::select`] names for the
//! limb (IFMA below `2^50` where the CPU has it, else AVX-512F+DQ); the pointwise products have
//! only the IFMA arm. The scalar loops in [`scalar`] are the oracle: the unit tests below pin
//! every vector kernel to them bit for bit.

use crate::simd::{self, Arm};
use crate::Modulus;

impl Modulus {
    /// Corrects a row of lazy residues in `[0, 2q)` into `[0, q)` ([`Modulus::reduce_2q`]).
    pub fn reduce_2q_row(&self, row: &mut [u64]) {
        let done = simd::reduce_row(self.arm(), row, self.value(), false);
        scalar::reduce_2q_row(self, &mut row[done..]);
    }

    /// Corrects a row of doubly-lazy residues in `[0, 4q)` into `[0, q)`
    /// ([`Modulus::reduce_4q`]).
    pub fn reduce_4q_row(&self, row: &mut [u64]) {
        let done = simd::reduce_row(self.arm(), row, self.value(), true);
        scalar::reduce_4q_row(self, &mut row[done..]);
    }

    /// `x[c] = (x[c] + y[c]) mod q` for canonical rows ([`Modulus::add`]).
    ///
    /// # Panics
    ///
    /// Panics if the row lengths differ.
    pub fn add_row(&self, x: &mut [u64], y: &[u64]) {
        let done = simd::add_row(self.arm(), self.value(), x, y);
        scalar::add_row(self, &mut x[done..], &y[done..]);
    }

    /// `x[c] = (x[c] − y[c]) mod q` for canonical rows ([`Modulus::sub`]).
    ///
    /// # Panics
    ///
    /// Panics if the row lengths differ.
    pub fn sub_row(&self, x: &mut [u64], y: &[u64]) {
        let done = simd::sub_row(self.arm(), self.value(), x, y);
        scalar::sub_row(self, &mut x[done..], &y[done..]);
    }

    /// `out[c] = src[c]·b mod q` in `[0, q)`, `b_shoup` being [`Modulus::shoup_precompute`]
    /// of `b`; `src` may hold any `u64`.
    ///
    /// # Panics
    ///
    /// Panics if the row lengths differ.
    pub fn mul_shoup_row(&self, src: &[u64], b: u64, b_shoup: u64, out: &mut [u64]) {
        let done = simd::mul_shoup_row(self.arm(), self.value(), src, b, b_shoup, out);
        scalar::mul_shoup_row(self, &src[done..], b, b_shoup, &mut out[done..]);
    }

    /// `acc[c] = (acc[c] + src[c]·b) mod q` in `[0, q)`, for `acc[c] < 2q` on entry and any
    /// `u64` in `src`: the fused multiply-accumulate by a per-limb constant.
    ///
    /// # Panics
    ///
    /// Panics if the row lengths differ.
    pub fn add_mul_shoup_row(&self, acc: &mut [u64], src: &[u64], b: u64, b_shoup: u64) {
        let done = simd::add_mul_shoup_row(self.arm(), self.value(), acc, src, b, b_shoup);
        scalar::add_mul_shoup_row(self, &mut acc[done..], &src[done..], b, b_shoup);
    }

    /// `out[c] = (x[c] − out[c])·b mod q` in `[0, q)` for canonical `x` and `out`: the ModDown
    /// combine, `out` arriving as the converted `P`-part and `b = P⁻¹ mod q`.
    ///
    /// # Panics
    ///
    /// Panics if the row lengths differ.
    pub fn sub_mul_shoup_row(&self, out: &mut [u64], x: &[u64], b: u64, b_shoup: u64) {
        let done = simd::sub_mul_shoup_row(self.arm(), self.value(), out, x, b, b_shoup);
        scalar::sub_mul_shoup_row(self, &mut out[done..], &x[done..], b, b_shoup);
    }

    /// The rescale combine: `out[c] = (x[c] − centre(last[c]))·b mod q` in `[0, q)`, where
    /// `last` is the dropped limb's row (canonical mod `q_last`), `centre` takes its
    /// representative in `(−q_last/2, q_last/2]` so the rounding error stays within ½, and
    /// `b = q_last⁻¹ mod q`.
    ///
    /// # Panics
    ///
    /// Panics if the row lengths differ.
    pub fn rescale_row(
        &self,
        q_last: &Modulus,
        x: &[u64],
        last: &[u64],
        b: u64,
        b_shoup: u64,
        out: &mut [u64],
    ) {
        let q = self.value();
        let done = simd::rescale_row(self.arm(), q, q_last.value(), x, last, b, b_shoup, out);
        scalar::rescale_row(
            self,
            q_last,
            &x[done..],
            &last[done..],
            b,
            b_shoup,
            &mut out[done..],
        );
    }

    /// The basis-conversion accumulate, coefficient-major: `out[c] = Σ_i rows[i][c]·w[i]` in
    /// the lazy `[0, 2q)` domain, where `rows[i] = flat[i·n .. (i+1)·n]` (`n = out.len()`)
    /// are the hoisted source rows, residues of `sources[i]` below `4·sources[i]`, and `w[i]`
    /// their weights mod this (target) modulus. The terms are summed in source order with the
    /// running sums held in registers (a group of vectors, or the scalar arm's fixed block), so
    /// `out` is written once and never read (it may hold arbitrary recycled data). The sources
    /// only pick each term's vector product: a source of `2^50` or more keeps the DQ one.
    ///
    /// # Panics
    ///
    /// Panics if there is no source row or the shapes disagree.
    pub fn convert_accumulate_row(
        &self,
        sources: &[Modulus],
        flat: &[u64],
        w: &[u64],
        w_shoup: &[u64],
        out: &mut [u64],
    ) {
        let done =
            simd::convert_accumulate_row(self.arm(), self.value(), sources, flat, w, w_shoup, out);
        scalar::convert_accumulate_row(self, flat, w, w_shoup, out, done);
    }

    /// The pointwise product `x[c] = x[c]·y[c] mod q` of canonical rows, in `[0, q)`.
    ///
    /// # Panics
    ///
    /// Panics if the row lengths differ.
    pub fn pointwise_mul_row(&self, x: &mut [u64], y: &[u64]) {
        let done = simd::pointwise_mul_row(self.value(), x, y);
        scalar::pointwise_mul_row(self, &mut x[done..], &y[done..]);
    }

    /// The fused pointwise multiply-accumulate `acc[c] = (acc[c] + a[c]·b[c]) mod q` of
    /// canonical rows, in `[0, q)`.
    ///
    /// # Panics
    ///
    /// Panics if the row lengths differ.
    pub fn pointwise_add_mul_row(&self, acc: &mut [u64], a: &[u64], b: &[u64]) {
        let done = simd::pointwise_add_mul_row(self.value(), acc, a, b);
        scalar::pointwise_add_mul_row(self, &mut acc[done..], &a[done..], &b[done..]);
    }

    /// The vector arm this CPU takes for this limb.
    fn arm(&self) -> Option<Arm> {
        Arm::select(self.value())
    }
}

/// The scalar loops — what every target compiles, what runs where the vector arm does not,
/// and the oracle the vector arm is tested against.
pub(crate) mod scalar {
    use crate::Modulus;

    pub(crate) fn reduce_2q_row(q: &Modulus, row: &mut [u64]) {
        for v in row {
            *v = q.reduce_2q(*v);
        }
    }

    pub(crate) fn reduce_4q_row(q: &Modulus, row: &mut [u64]) {
        for v in row {
            *v = q.reduce_4q(*v);
        }
    }

    pub(crate) fn add_row(q: &Modulus, x: &mut [u64], y: &[u64]) {
        for (x, &y) in x.iter_mut().zip(y) {
            *x = q.add(*x, y);
        }
    }

    pub(crate) fn sub_row(q: &Modulus, x: &mut [u64], y: &[u64]) {
        for (x, &y) in x.iter_mut().zip(y) {
            *x = q.sub(*x, y);
        }
    }

    pub(crate) fn mul_shoup_row(q: &Modulus, src: &[u64], b: u64, b_shoup: u64, out: &mut [u64]) {
        for (o, &x) in out.iter_mut().zip(src) {
            *o = q.mul_shoup(x, b, b_shoup);
        }
    }

    pub(crate) fn add_mul_shoup_row(
        q: &Modulus,
        acc: &mut [u64],
        src: &[u64],
        b: u64,
        b_shoup: u64,
    ) {
        let (one_q, two_q) = (q.value(), q.two_q());
        // Lazy sum in `[0, 4q)`, then two branch-free conditional subtractions (`min` against
        // the wrapped difference): the branching form mispredicts on random residues.
        for (x, &y) in acc.iter_mut().zip(src) {
            debug_assert!(*x < two_q);
            let sum = *x + q.mul_shoup_lazy(y, b, b_shoup);
            let sum = sum.min(sum.wrapping_sub(two_q));
            *x = sum.min(sum.wrapping_sub(one_q));
        }
    }

    pub(crate) fn sub_mul_shoup_row(q: &Modulus, out: &mut [u64], x: &[u64], b: u64, b_shoup: u64) {
        for (o, &x) in out.iter_mut().zip(x) {
            *o = q.mul_shoup(q.sub(x, *o), b, b_shoup);
        }
    }

    pub(crate) fn rescale_row(
        q: &Modulus,
        q_last: &Modulus,
        x: &[u64],
        last: &[u64],
        b: u64,
        b_shoup: u64,
        out: &mut [u64],
    ) {
        for ((o, &x), &c_last) in out.iter_mut().zip(x).zip(last) {
            let centred = q.reduce_i64(q_last.to_signed(c_last));
            *o = q.mul_shoup(q.sub(x, centred), b, b_shoup);
        }
    }

    pub(crate) fn pointwise_mul_row(q: &Modulus, x: &mut [u64], y: &[u64]) {
        assert_eq!(x.len(), y.len());
        for (x, &y) in x.iter_mut().zip(y) {
            *x = q.mul(*x, y);
        }
    }

    pub(crate) fn pointwise_add_mul_row(q: &Modulus, acc: &mut [u64], a: &[u64], b: &[u64]) {
        assert!(a.len() == acc.len() && b.len() == acc.len());
        for ((x, &a), &b) in acc.iter_mut().zip(a).zip(b) {
            *x = q.add(*x, q.reduce_u128(a as u128 * b as u128));
        }
    }

    /// Coefficients whose running sums the conversion accumulate carries together: long enough
    /// for the per-row inner loop to pipeline (it is branch-free once the compiler sees a plain
    /// loop over the block), short enough that the sums stay in L1 next to the registers.
    const CONVERT_BLOCK: usize = 32;

    /// Coefficients `from..` of the conversion accumulate, block by block: all source rows run
    /// over one block of running sums before the block is stored.
    pub(crate) fn convert_accumulate_row(
        q: &Modulus,
        flat: &[u64],
        w: &[u64],
        w_shoup: &[u64],
        out: &mut [u64],
        from: usize,
    ) {
        let n = out.len();
        assert!(!w.is_empty() && w.len() == w_shoup.len() && flat.len() == w.len() * n);
        let mut sums = [0u64; CONVERT_BLOCK];
        for (block, out) in out[from..].chunks_mut(CONVERT_BLOCK).enumerate() {
            let span = from + block * CONVERT_BLOCK..from + block * CONVERT_BLOCK + out.len();
            let sums = &mut sums[..out.len()];
            for (sum, &y) in sums.iter_mut().zip(&flat[span.clone()]) {
                *sum = q.mul_shoup_lazy(y, w[0], w_shoup[0]);
            }
            for (i, (&w, &w_shoup)) in w.iter().zip(w_shoup).enumerate().skip(1) {
                let row = &flat[i * n..(i + 1) * n][span.clone()];
                for (sum, &y) in sums.iter_mut().zip(row) {
                    *sum = q.add_lazy(*sum, q.mul_shoup_lazy(y, w, w_shoup));
                }
            }
            out.copy_from_slice(sums);
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    /// Widths from a small limb to the 62-bit cap, where `4q` is within a factor 1.0001 of
    /// `2^64` and every lazy sum runs at the wrap, with the two limbs either side of the IFMA
    /// bound `2^50` in between (below it `4q − 1` is a 52-bit word). Shoup and Barrett need no
    /// primality.
    pub(crate) fn moduli() -> Vec<Modulus> {
        let ifma_bound = simd::IFMA_LIMB_BOUND;
        [30u32, 45]
            .iter()
            .map(|&bits| (1u64 << bits) - 57)
            .chain([ifma_bound - 57, ifma_bound + 57])
            .chain([54u32, 62].iter().map(|&bits| (1u64 << bits) - 57))
            .map(|q| Modulus::new(q).unwrap())
            .collect()
    }

    /// Lengths around the eight-lane boundary, most of them not a multiple of 8.
    pub(crate) const LENGTHS: [usize; 12] = [0, 1, 7, 8, 9, 15, 16, 17, 63, 100, 1000, 4099];

    /// A row over `[0, multiple·q)`: the domain's edge values first, then uniform residues.
    pub(crate) fn row(q: &Modulus, multiple: u64, len: usize, seed: u64) -> Vec<u64> {
        let top = multiple * q.value();
        let edges = [
            0,
            q.value() - 1,
            q.value(),
            2 * q.value() - 1,
            2 * q.value(),
            4 * q.value() - 1,
        ];
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        (0..len)
            .map(|c| match edges.get(c) {
                Some(&e) if e < top => e,
                _ => rng.gen_range(0..top),
            })
            .collect()
    }

    /// A fixed multiplicand below `q` with its Shoup constant.
    fn fixed(q: &Modulus, seed: u64) -> (u64, u64) {
        let b = rand_chacha::ChaCha8Rng::seed_from_u64(seed).gen_range(0..q.value());
        (b, q.shoup_precompute(b))
    }

    /// The ways to run a row kernel, by name — no global switch.
    #[derive(Clone, Copy)]
    enum Arm {
        /// A vector kernel alone — the named arm (`None`: no vector arm): covers whole vectors
        /// where that arm runs the limb, nothing elsewhere.
        Vector(Option<simd::Arm>),
        /// The scalar loop alone: the oracle.
        Scalar,
        /// The public function: vector prefix, scalar rest.
        Shipped,
    }

    /// The shared shape of every row gate. `run(arm, q, out, seed)` applies the kernel under
    /// test to `out` (drawn over `[0, out_domain·q)`) with operands derived from `seed`, and
    /// returns the length it covered. The vector arm must cover every whole vector (nothing
    /// without the CPU feature), equal the oracle there and leave the rest untouched; the
    /// shipped function must equal the oracle everywhere. Says in words which arms ran: a host
    /// without AVX-512 must read as "vector arm SKIPPED", never as a silent pass. Then each
    /// vector arm by name ([`check_arm`]), so the IFMA arm is pinned on the limbs below `2^50`
    /// and the DQ arm on every limb.
    fn gate(
        name: &str,
        seed: u64,
        out_domain: u64,
        run: impl Fn(Arm, &Modulus, &mut [u64], u64) -> usize,
    ) {
        let (mut covered, mut ifma_covered) = (0usize, 0usize);
        for q in moduli() {
            for len in LENGTHS {
                let seed = seed.wrapping_add(len as u64);
                let initial = row(&q, out_domain, len, seed ^ 0xA5A5);
                let mut by_scalar = initial.clone();
                run(Arm::Scalar, &q, &mut by_scalar, seed);
                let mut by_vector = initial.clone();
                let done = run(
                    Arm::Vector(simd::Arm::select(q.value())),
                    &q,
                    &mut by_vector,
                    seed,
                );
                let whole_vectors = if simd::detected() { len - len % 8 } else { 0 };
                assert_eq!(done, whole_vectors, "{name}: covered prefix, len {len}");
                assert_eq!(
                    by_vector[..done],
                    by_scalar[..done],
                    "{name}: vector ≠ scalar, {} bits, len {len}",
                    q.bits()
                );
                assert_eq!(
                    by_vector[done..],
                    initial[done..],
                    "{name}: wrote past its prefix"
                );
                let mut by_shipped = initial.clone();
                run(Arm::Shipped, &q, &mut by_shipped, seed);
                assert_eq!(by_shipped, by_scalar, "{name}: shipped ≠ scalar, len {len}");
                covered += done;
                for arm in [simd::Arm::Dq, simd::Arm::Ifma] {
                    let by_arm = |out: &mut [u64]| run(Arm::Vector(Some(arm)), &q, out, seed);
                    let done = check_arm(name, arm, &q, &initial, &by_scalar, by_arm);
                    if arm == simd::Arm::Ifma {
                        ifma_covered += done;
                    }
                }
            }
        }
        if covered > 0 {
            println!(
                "{name}: scalar arm ran; vector arm ({}) ran and matched it bit for bit",
                crate::row_kernel_arm()
            );
        } else {
            println!("{name}: scalar arm ran; vector arm SKIPPED (no AVX-512F+DQ on this CPU)");
        }
        report_ifma(name, ifma_covered);
    }

    /// Runs the vector kernel under test as `arm` on a copy of `initial` (`run` returns the
    /// covered length) and checks that it covered every whole vector if the arm runs the limb
    /// on this CPU and nothing otherwise, equals the oracle `by_scalar` there and leaves the
    /// rest untouched. Returns the covered length.
    fn check_arm(
        name: &str,
        arm: simd::Arm,
        q: &Modulus,
        initial: &[u64],
        by_scalar: &[u64],
        run: impl Fn(&mut [u64]) -> usize,
    ) -> usize {
        let len = initial.len();
        let mut by_arm = initial.to_vec();
        let done = run(&mut by_arm);
        let expected = if arm.runs(q.value()) {
            len - len % 8
        } else {
            0
        };
        let bits = q.bits();
        assert_eq!(
            done, expected,
            "{name}: {arm:?} arm coverage, {bits} bits, len {len}"
        );
        assert_eq!(
            by_arm[..done],
            by_scalar[..done],
            "{name}: {arm:?} ≠ scalar, {bits} bits"
        );
        assert_eq!(
            by_arm[done..],
            initial[done..],
            "{name}: {arm:?} wrote past its prefix"
        );
        done
    }

    /// Says in words whether the IFMA arm ran: a host without it must read "SKIPPED".
    pub(crate) fn report_ifma(name: &str, covered: usize) {
        if covered > 0 {
            println!("{name}: IFMA arm ran on the limbs below 2^50 and matched it bit for bit");
        } else {
            assert!(!simd::ifma_detected(), "{name}: the IFMA arm never ran");
            println!("{name}: IFMA arm SKIPPED (no AVX-512 IFMA on this CPU)");
        }
    }

    fn all_gates(seed: u64) {
        gate("reduce_2q_row", seed, 2, |arm, q, r, _| match arm {
            Arm::Vector(arm) => simd::reduce_row(arm, r, q.value(), false),
            Arm::Scalar => {
                scalar::reduce_2q_row(q, r);
                r.len()
            }
            Arm::Shipped => {
                q.reduce_2q_row(r);
                r.len()
            }
        });
        gate("reduce_4q_row", seed, 4, |arm, q, r, _| match arm {
            Arm::Vector(arm) => simd::reduce_row(arm, r, q.value(), true),
            Arm::Scalar => {
                scalar::reduce_4q_row(q, r);
                r.len()
            }
            Arm::Shipped => {
                q.reduce_4q_row(r);
                r.len()
            }
        });
        gate("add_row", seed, 1, |arm, q, x, s| {
            let y = row(q, 1, x.len(), s);
            match arm {
                Arm::Vector(arm) => simd::add_row(arm, q.value(), x, &y),
                Arm::Scalar => {
                    scalar::add_row(q, x, &y);
                    x.len()
                }
                Arm::Shipped => {
                    q.add_row(x, &y);
                    x.len()
                }
            }
        });
        gate("sub_row", seed, 1, |arm, q, x, s| {
            let y = row(q, 1, x.len(), s);
            match arm {
                Arm::Vector(arm) => simd::sub_row(arm, q.value(), x, &y),
                Arm::Scalar => {
                    scalar::sub_row(q, x, &y);
                    x.len()
                }
                Arm::Shipped => {
                    q.sub_row(x, &y);
                    x.len()
                }
            }
        });
        // Multiplied rows are drawn over the whole lazy domain [0, 4q): the Shoup product
        // accepts any u64.
        gate("mul_shoup_row", seed, 1, |arm, q, out, s| {
            let ((b, bs), src) = (fixed(q, s), row(q, 4, out.len(), s));
            match arm {
                Arm::Vector(arm) => simd::mul_shoup_row(arm, q.value(), &src, b, bs, out),
                Arm::Scalar => {
                    scalar::mul_shoup_row(q, &src, b, bs, out);
                    out.len()
                }
                Arm::Shipped => {
                    q.mul_shoup_row(&src, b, bs, out);
                    out.len()
                }
            }
        });
        gate("add_mul_shoup_row", seed, 2, |arm, q, acc, s| {
            let ((b, bs), src) = (fixed(q, s), row(q, 4, acc.len(), s));
            match arm {
                Arm::Vector(arm) => simd::add_mul_shoup_row(arm, q.value(), acc, &src, b, bs),
                Arm::Scalar => {
                    scalar::add_mul_shoup_row(q, acc, &src, b, bs);
                    acc.len()
                }
                Arm::Shipped => {
                    q.add_mul_shoup_row(acc, &src, b, bs);
                    acc.len()
                }
            }
        });
        gate("sub_mul_shoup_row", seed, 1, |arm, q, out, s| {
            let ((b, bs), x) = (fixed(q, s), row(q, 1, out.len(), s));
            match arm {
                Arm::Vector(arm) => simd::sub_mul_shoup_row(arm, q.value(), out, &x, b, bs),
                Arm::Scalar => {
                    scalar::sub_mul_shoup_row(q, out, &x, b, bs);
                    out.len()
                }
                Arm::Shipped => {
                    q.sub_mul_shoup_row(out, &x, b, bs);
                    out.len()
                }
            }
        });
        // Dropped limbs narrower than, as wide as and wider than the kept one, so the centred
        // residue is reduced by zero, one and many multiples of q.
        for q_last in &moduli() {
            gate("rescale_row", seed, 1, |arm, q, out, s| {
                let (b, bs) = fixed(q, s);
                let (x, last) = (row(q, 1, out.len(), s), row(q_last, 1, out.len(), s + 1));
                match arm {
                    Arm::Vector(arm) => {
                        simd::rescale_row(arm, q.value(), q_last.value(), &x, &last, b, bs, out)
                    }
                    Arm::Scalar => {
                        scalar::rescale_row(q, q_last, &x, &last, b, bs, out);
                        out.len()
                    }
                    Arm::Shipped => {
                        q.rescale_row(q_last, &x, &last, b, bs, out);
                        out.len()
                    }
                }
            });
        }
        for k in [1usize, 2, 3, 8] {
            gate("convert_accumulate_row", seed, 2, |arm, q, out, s| {
                // Hoisted rows are canonical mod *their own* limb, so from the target's side
                // they are arbitrary words: draw them over its [0, 4q).
                let flat = row(q, 4, k * out.len(), s);
                let (w, ws): (Vec<u64>, Vec<u64>) = (0..k as u64).map(|i| fixed(q, s + i)).unzip();
                let sources = vec![q.clone(); k];
                match arm {
                    Arm::Vector(arm) => {
                        simd::convert_accumulate_row(arm, q.value(), &sources, &flat, &w, &ws, out)
                    }
                    Arm::Scalar => {
                        scalar::convert_accumulate_row(q, &flat, &w, &ws, out, 0);
                        out.len()
                    }
                    Arm::Shipped => {
                        q.convert_accumulate_row(&sources, &flat, &w, &ws, out);
                        out.len()
                    }
                }
            });
        }
        // Sources on both sides of the IFMA bound into every target: ModDown's wide `P` rows
        // and `q0` beside narrow limbs. A wide source's words exceed 52 bits, so its terms
        // keep the DQ product whatever the target.
        let sources: Vec<Modulus> = [(1u64 << 55) - 55, (1 << 45) - 57, (1 << 60) - 93]
            .into_iter()
            .chain([simd::IFMA_LIMB_BOUND - 57, simd::IFMA_LIMB_BOUND + 57])
            .map(|q| Modulus::new(q).unwrap())
            .collect();
        gate(
            "convert_accumulate_row, wide sources",
            seed,
            2,
            |arm, q, out, s| {
                let n = out.len();
                let flat: Vec<u64> = sources
                    .iter()
                    .enumerate()
                    .flat_map(|(i, source)| row(source, 4, n, s + 10 * i as u64))
                    .collect();
                let (w, ws): (Vec<u64>, Vec<u64>) =
                    (0..sources.len() as u64).map(|i| fixed(q, s + i)).unzip();
                match arm {
                    Arm::Vector(arm) => {
                        simd::convert_accumulate_row(arm, q.value(), &sources, &flat, &w, &ws, out)
                    }
                    Arm::Scalar => {
                        scalar::convert_accumulate_row(q, &flat, &w, &ws, out, 0);
                        n
                    }
                    Arm::Shipped => {
                        q.convert_accumulate_row(&sources, &flat, &w, &ws, out);
                        n
                    }
                }
            },
        );
        // Words of any width in alternate vectors: the IFMA arm takes the DQ product for a
        // vector with a lane of 52 bits or more, and its own for the rest.
        gate("mul_shoup_row, any-u64 words", seed, 1, |arm, q, out, s| {
            let (b, bs) = fixed(q, s);
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(s);
            let src: Vec<u64> = row(q, 4, out.len(), s)
                .into_iter()
                .enumerate()
                .map(|(c, v)| {
                    if (c / 8) % 2 == 0 {
                        rng.gen_range(0..u64::MAX)
                    } else {
                        v
                    }
                })
                .collect();
            match arm {
                Arm::Vector(arm) => simd::mul_shoup_row(arm, q.value(), &src, b, bs, out),
                Arm::Scalar => {
                    scalar::mul_shoup_row(q, &src, b, bs, out);
                    out.len()
                }
                Arm::Shipped => {
                    q.mul_shoup_row(&src, b, bs, out);
                    out.len()
                }
            }
        });
        pointwise_gates(seed);
    }

    /// The pointwise products, which only the IFMA arm vectorises, against their scalar loops
    /// over canonical rows: the IFMA arm alone must cover every whole vector of a limb below
    /// `2^50` when the CPU has it (nothing elsewhere), equal the loop there and leave the rest
    /// untouched; the shipped function must equal the loop everywhere. A non-canonical operand
    /// ends the arm's prefix at its vector.
    fn pointwise_gates(seed: u64) {
        type Kernel = fn(&Modulus, &[u64], &[u64], &mut [u64]) -> usize;
        let vector_mul: Kernel = |q, y, _, x| simd::pointwise_mul_row(q.value(), x, y);
        let scalar_mul: Kernel = |q, y, _, x| {
            scalar::pointwise_mul_row(q, x, y);
            x.len()
        };
        let shipped_mul: Kernel = |q, y, _, x| {
            q.pointwise_mul_row(x, y);
            x.len()
        };
        let vector_add_mul: Kernel =
            |q, a, b, acc| simd::pointwise_add_mul_row(q.value(), acc, a, b);
        let scalar_add_mul: Kernel = |q, a, b, acc| {
            scalar::pointwise_add_mul_row(q, acc, a, b);
            acc.len()
        };
        let shipped_add_mul: Kernel = |q, a, b, acc| {
            q.pointwise_add_mul_row(acc, a, b);
            acc.len()
        };
        for (name, [vector, by_scalar, shipped]) in [
            ("pointwise_mul_row", [vector_mul, scalar_mul, shipped_mul]),
            (
                "pointwise_add_mul_row",
                [vector_add_mul, scalar_add_mul, shipped_add_mul],
            ),
        ] {
            let mut covered = 0usize;
            for q in moduli() {
                for len in LENGTHS {
                    let seed = seed.wrapping_add(len as u64);
                    let (a, b) = (row(&q, 1, len, seed), row(&q, 1, len, seed + 1));
                    let initial = row(&q, 1, len, seed ^ 0xA5A5);
                    let mut oracle = initial.clone();
                    by_scalar(&q, &a, &b, &mut oracle);
                    let run = |out: &mut [u64]| vector(&q, &a, &b, out);
                    covered += check_arm(name, simd::Arm::Ifma, &q, &initial, &oracle, run);
                    let mut by_shipped = initial.clone();
                    shipped(&q, &a, &b, &mut by_shipped);
                    assert_eq!(by_shipped, oracle, "{name}: shipped ≠ scalar, len {len}");
                    if len >= 24 {
                        let mut wide = a.clone();
                        wide[19] = q.value();
                        let mut out = initial.clone();
                        let done = vector(&q, &wide, &b, &mut out);
                        let expected = if simd::Arm::Ifma.runs(q.value()) {
                            16
                        } else {
                            0
                        };
                        assert_eq!(done, expected, "{name}: prefix before a non-canonical word");
                        assert_eq!(out[..done], oracle[..done], "{name}: ≠ scalar before it");
                    }
                }
            }
            println!("{name}: scalar arm ran (no DQ arm: the products are canonical)");
            report_ifma(name, covered);
        }
    }

    #[test]
    fn vector_rows_equal_scalar_rows_bit_for_bit() {
        all_gates(1);
    }

    #[test]
    fn conversion_accumulate_stays_lazy_and_matches_the_sum() {
        // The coefficient-major sum against its definition, at the widest modulus.
        let q = moduli().pop().unwrap();
        let (n, k) = (37usize, 5usize);
        let flat = row(&q, 4, k * n, 11);
        let (w, w_shoup): (Vec<u64>, Vec<u64>) = (0..k as u64).map(|i| fixed(&q, 20 + i)).unzip();
        let mut out = vec![u64::MAX; n];
        q.convert_accumulate_row(&vec![q.clone(); k], &flat, &w, &w_shoup, &mut out);
        for (c, &o) in out.iter().enumerate() {
            assert!(o < q.two_q(), "sum left the lazy domain");
            let expected = (0..k).fold(0u128, |acc, i| {
                (acc + flat[i * n + c] as u128 * w[i] as u128) % q.value() as u128
            });
            assert_eq!(q.reduce_2q(o) as u128, expected, "coefficient {c}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]
        #[test]
        fn prop_vector_rows_equal_scalar_rows(seed in any::<u64>()) {
            all_gates(seed);
        }
    }
}
