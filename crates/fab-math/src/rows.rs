//! Row kernels: the per-limb loops of basis conversion, key switching and rescaling, written
//! once.
//!
//! Each public function is "vector arm over the prefix it covers ([`crate::simd`]), then the
//! scalar loop over the rest" — the rest being the whole row on a CPU without AVX-512F+DQ and
//! the `len mod 8` tail otherwise. The scalar loops in [`scalar`] are the oracle: the unit
//! tests below pin every vector kernel to them bit for bit.

use crate::{simd, Modulus};

impl Modulus {
    /// Corrects a row of lazy residues in `[0, 2q)` into `[0, q)` ([`Modulus::reduce_2q`]).
    pub fn reduce_2q_row(&self, row: &mut [u64]) {
        let done = simd::reduce_row(row, self.value(), false);
        scalar::reduce_2q_row(self, &mut row[done..]);
    }

    /// Corrects a row of doubly-lazy residues in `[0, 4q)` into `[0, q)`
    /// ([`Modulus::reduce_4q`]).
    pub fn reduce_4q_row(&self, row: &mut [u64]) {
        let done = simd::reduce_row(row, self.value(), true);
        scalar::reduce_4q_row(self, &mut row[done..]);
    }

    /// `out[c] = src[c]·b mod q` in `[0, q)`, `b_shoup` being [`Modulus::shoup_precompute`]
    /// of `b`; `src` may hold any `u64`.
    ///
    /// # Panics
    ///
    /// Panics if the row lengths differ.
    pub fn mul_shoup_row(&self, src: &[u64], b: u64, b_shoup: u64, out: &mut [u64]) {
        let done = simd::mul_shoup_row(self.value(), src, b, b_shoup, out);
        scalar::mul_shoup_row(self, &src[done..], b, b_shoup, &mut out[done..]);
    }

    /// `acc[c] = (acc[c] + src[c]·b) mod q` in `[0, q)`, for `acc[c] < 2q` on entry and any
    /// `u64` in `src`: the fused multiply-accumulate by a per-limb constant.
    ///
    /// # Panics
    ///
    /// Panics if the row lengths differ.
    pub fn add_mul_shoup_row(&self, acc: &mut [u64], src: &[u64], b: u64, b_shoup: u64) {
        let done = simd::add_mul_shoup_row(self.value(), acc, src, b, b_shoup);
        scalar::add_mul_shoup_row(self, &mut acc[done..], &src[done..], b, b_shoup);
    }

    /// `out[c] = (x[c] − out[c])·b mod q` in `[0, q)` for canonical `x` and `out`: the ModDown
    /// combine, `out` arriving as the converted `P`-part and `b = P⁻¹ mod q`.
    ///
    /// # Panics
    ///
    /// Panics if the row lengths differ.
    pub fn sub_mul_shoup_row(&self, out: &mut [u64], x: &[u64], b: u64, b_shoup: u64) {
        let done = simd::sub_mul_shoup_row(self.value(), out, x, b, b_shoup);
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
        let done = simd::rescale_row(q, q_last.value(), x, last, b, b_shoup, out);
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
    /// are the hoisted source rows and `w[i]` their weights mod this (target) modulus. The
    /// terms are summed in source order with the running sums held in registers (a vector of
    /// eight, or the scalar arm's fixed block), so `out` is written once and never read (it may
    /// hold arbitrary recycled data).
    ///
    /// # Panics
    ///
    /// Panics if there is no source row or the shapes disagree.
    pub fn convert_accumulate_row(
        &self,
        flat: &[u64],
        w: &[u64],
        w_shoup: &[u64],
        out: &mut [u64],
    ) {
        let done = simd::convert_accumulate_row(self.value(), flat, w, w_shoup, out);
        scalar::convert_accumulate_row(self, flat, w, w_shoup, out, done);
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
    /// `2^64` and every lazy sum runs at the wrap. Shoup and Barrett need no primality.
    fn moduli() -> Vec<Modulus> {
        [30u32, 45, 54, 62]
            .iter()
            .map(|&bits| Modulus::new((1u64 << bits) - 57).unwrap())
            .collect()
    }

    /// Lengths around the eight-lane boundary, most of them not a multiple of 8.
    const LENGTHS: [usize; 12] = [0, 1, 7, 8, 9, 15, 16, 17, 63, 100, 1000, 4099];

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

    /// The three ways to run a row kernel, by name — no global switch.
    #[derive(Clone, Copy)]
    enum Arm {
        /// The AVX-512 kernel alone: covers whole vectors, or nothing without the CPU feature.
        Vector,
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
    /// without AVX-512 must read as "vector arm SKIPPED", never as a silent pass.
    fn gate(
        name: &str,
        seed: u64,
        out_domain: u64,
        run: impl Fn(Arm, &Modulus, &mut [u64], u64) -> usize,
    ) {
        let mut covered = 0usize;
        for q in moduli() {
            for len in LENGTHS {
                let seed = seed.wrapping_add(len as u64);
                let initial = row(&q, out_domain, len, seed ^ 0xA5A5);
                let mut by_scalar = initial.clone();
                run(Arm::Scalar, &q, &mut by_scalar, seed);
                let mut by_vector = initial.clone();
                let done = run(Arm::Vector, &q, &mut by_vector, seed);
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
                let mut by_shipped = initial;
                run(Arm::Shipped, &q, &mut by_shipped, seed);
                assert_eq!(by_shipped, by_scalar, "{name}: shipped ≠ scalar, len {len}");
                covered += done;
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
    }

    fn all_gates(seed: u64) {
        gate("reduce_2q_row", seed, 2, |arm, q, r, _| match arm {
            Arm::Vector => simd::reduce_row(r, q.value(), false),
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
            Arm::Vector => simd::reduce_row(r, q.value(), true),
            Arm::Scalar => {
                scalar::reduce_4q_row(q, r);
                r.len()
            }
            Arm::Shipped => {
                q.reduce_4q_row(r);
                r.len()
            }
        });
        // Multiplied rows are drawn over the whole lazy domain [0, 4q): the Shoup product
        // accepts any u64.
        gate("mul_shoup_row", seed, 1, |arm, q, out, s| {
            let ((b, bs), src) = (fixed(q, s), row(q, 4, out.len(), s));
            match arm {
                Arm::Vector => simd::mul_shoup_row(q.value(), &src, b, bs, out),
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
                Arm::Vector => simd::add_mul_shoup_row(q.value(), acc, &src, b, bs),
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
                Arm::Vector => simd::sub_mul_shoup_row(q.value(), out, &x, b, bs),
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
                    Arm::Vector => {
                        simd::rescale_row(q.value(), q_last.value(), &x, &last, b, bs, out)
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
                match arm {
                    Arm::Vector => simd::convert_accumulate_row(q.value(), &flat, &w, &ws, out),
                    Arm::Scalar => {
                        scalar::convert_accumulate_row(q, &flat, &w, &ws, out, 0);
                        out.len()
                    }
                    Arm::Shipped => {
                        q.convert_accumulate_row(&flat, &w, &ws, out);
                        out.len()
                    }
                }
            });
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
        q.convert_accumulate_row(&flat, &w, &w_shoup, &mut out);
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
