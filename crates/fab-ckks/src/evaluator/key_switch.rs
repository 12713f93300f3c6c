//! The hybrid key-switching core (Decomp → ModUp → KSKIP → ModDown, Figure 5 of the paper):
//! the digit raise every key switch starts with and the one back half every key switch ends in.

use fab_rns::metering::{self, kernel};
use fab_rns::{ops, Representation, RnsBasis, RnsPolynomial};

use super::scratch::Scratch;
use super::Evaluator;
use crate::{CkksError, Result, SwitchingKey};

/// The once-raised digit data of the lazy key-switch pipeline: `d`'s own limbs plus every
/// digit's conversion rows, all in lazy `[0, 4q)` evaluation form over `Q_level ∪ P`.
///
/// The Galois loop computes this **once** per batch and reuses it for every rotation or
/// conjugation in it (each automorphism is an evaluation-domain permutation applied inside
/// the KSKIP gather), so a batch of `M` pays one forward-NTT sweep, not `M`.
pub(super) struct RaisedDigits {
    /// The raised basis `Q_level ∪ P` (tables shared behind `Arc`s).
    basis: RnsBasis,
    /// `d` forward-transformed once (`ℓ+1` rows) — each digit reads its own limb block.
    d_eval: RnsPolynomial,
    /// Per digit: the extension rows produced by ModUp conversion, in
    /// `ModUpPlan::conversion_rows` order.
    converted: Vec<RnsPolynomial>,
    /// Per digit: its `[start, end)` limb range inside `Q_level`.
    ranges: Vec<(usize, usize)>,
    /// The level the digits were raised at.
    level: usize,
}

impl RaisedDigits {
    /// Returns every leased buffer to the arena.
    pub(super) fn recycle_into(self, sc: &mut Scratch) {
        sc.recycle(self.d_eval);
        for poly in self.converted {
            sc.recycle(poly);
        }
    }
}

impl Evaluator {
    /// Rejects a provider-supplied switching key whose geometry does not match this context
    /// and `level` *before* any indexed access can panic: digit width (the context's `α`, by
    /// which every raise splits), digit count (`β = ⌈(level+1)/α⌉`), ring degree, and raised
    /// limb count are all checked. Corrupt blobs are caught earlier by the serialization
    /// checksum; this guards the structurally-valid-but-mismatched case (a key generated
    /// under different parameters reaching the wrong evaluator).
    fn validate_switching_key(&self, key: &SwitchingKey, level: usize) -> Result<()> {
        let alpha = self.ctx.params().alpha();
        if key.alpha() != alpha {
            let reason = format!("key digits of {} limbs, context's of {alpha}", key.alpha());
            return Err(CkksError::KeyMismatch { reason });
        }
        let beta = (level + 1).div_ceil(alpha);
        if key.digit_count() < beta {
            return Err(CkksError::KeyMismatch {
                reason: format!(
                    "key has {} digits of alpha {} but level {level} needs {beta}",
                    key.digit_count(),
                    key.alpha()
                ),
            });
        }
        let (b0, _) = key.component(0);
        if b0.degree() != self.ctx.degree() {
            return Err(CkksError::KeyMismatch {
                reason: format!(
                    "key degree {} but context degree {}",
                    b0.degree(),
                    self.ctx.degree()
                ),
            });
        }
        let raised = self.ctx.params().total_raised_limbs();
        if b0.limb_count() != raised {
            return Err(CkksError::KeyMismatch {
                reason: format!(
                    "key carries {} limbs but the raised basis has {raised}",
                    b0.limb_count()
                ),
            });
        }
        Ok(())
    }

    /// Hybrid key switch of a single polynomial `d` at `level`: Decomp → ModUp → KSKIP
    /// (inner product with the key) → ModDown. Returns the pair `(k_0, k_1)` over `Q_level`
    /// in coefficient form.
    ///
    /// **Dual-form entry point**: `d`'s domain tag selects the seam. A coefficient-form
    /// operand runs the classic transform-minimal pipeline (`β·(ℓ+1+k)` forwards). An
    /// **evaluation-form** operand — the tensor product `d2` of a multiplication — reuses its
    /// rows directly as the digits' own raised rows and pays one batched inverse for the
    /// ModUp conversions instead: `β·(ℓ+1+k) − (ℓ+1)` forwards and `ℓ+1` extra inverses
    /// ([`crate::accounting::key_switch_dual`]). Both entries are bit-for-bit identical to
    /// the textbook per-digit key switch the integration tests keep as their oracle.
    ///
    /// The KSKIP inner product sums the raw 64×64→128-bit products of *all* digits into
    /// per-coefficient u128 accumulators, reducing **once** per coefficient instead of once
    /// per digit (`fab_rns::kskip`).
    ///
    /// # Errors
    ///
    /// Propagates RNS kernel errors.
    pub fn key_switch(
        &self,
        d: &RnsPolynomial,
        key: &SwitchingKey,
        level: usize,
    ) -> Result<(RnsPolynomial, RnsPolynomial)> {
        let mut scratch = self.scratch();
        let sc = &mut *scratch;
        let raised = self.raise_digits(sc, d, level)?;
        let down = self.ctx.mod_down_plan(level)?;
        let switched = self.switch_raised(sc, &raised, key, None, None, &down)?;
        raised.recycle_into(sc);
        Ok(switched)
    }

    /// The back half of every key switch, written once: KSKIP over the raised digits
    /// (`perm` is the hoisted batch's evaluation-domain rotation of them), the optional
    /// absorption of `P·d0`/`P·d1` into the accumulators (the multiply seam), the accumulator
    /// inverse, and ModDown through `down` — the level's plain plan, or the fused
    /// ModDown+rescale plan of `multiply_rescale`. Operates on an already-locked arena so a
    /// composite operation holds the lock once; every temporary is leased and recycled, the
    /// returned coefficient-form pair keeps its leased buffers, and `raised` stays the
    /// caller's to reuse or recycle.
    pub(super) fn switch_raised(
        &self,
        sc: &mut Scratch,
        raised: &RaisedDigits,
        key: &SwitchingKey,
        perm: Option<&fab_math::EvalAutomorphismMap>,
        absorb: Option<(&RnsPolynomial, &RnsPolynomial)>,
        down: &ops::ModDownPlan,
    ) -> Result<(RnsPolynomial, RnsPolynomial)> {
        let (mut acc0, mut acc1) = self.kskip_accumulate(sc, raised, key, perm)?;
        if let Some((d0, d1)) = absorb {
            // The raised basis opens with the `Q_level` limbs the absorbed rows live on.
            let p_mod_q = self.ctx.p_mod_q_constants(raised.level)?;
            self.absorb_p_times(&mut acc0, d0, &raised.basis, &p_mod_q);
            self.absorb_p_times(&mut acc1, d1, &raised.basis, &p_mod_q);
        }
        self.invert_accumulators(&mut acc0, &mut acc1, &raised.basis);
        let degree = acc0.degree();
        let mut k0 = sc.lease_zero(degree, down.output_limbs(), Representation::Coefficient);
        let mut k1 = sc.lease_zero(degree, down.output_limbs(), Representation::Coefficient);
        down.apply_into(&acc0, &mut sc.convert, &mut k0)?;
        down.apply_into(&acc1, &mut sc.convert, &mut k1)?;
        sc.recycle(acc0);
        sc.recycle(acc1);
        Ok((k0, k1))
    }

    /// Decomp + ModUp + batched forward NTT of every digit of `d`, the front half of the
    /// transform-minimal key switch (shared verbatim by hoisted rotation batches, which pay
    /// it **once** for the whole batch). The digits are the context's, whatever the key.
    ///
    /// Work is flattened into row-level job lists so one `fab_par` fan-out covers all β
    /// digits at once: hoisted products per digit row, then every converted/copied output
    /// row, each converted coefficient-major and forward-transformed lazily in the same job
    /// while it is hot. Outputs stay in the lazy `[0, 4q)` evaluation domain; the u128 KSKIP
    /// absorbs the laziness in its single end reduction, so no correction sweep runs between
    /// ModUp and KSKIP.
    pub(super) fn raise_digits(
        &self,
        sc: &mut Scratch,
        d: &RnsPolynomial,
        level: usize,
    ) -> Result<RaisedDigits> {
        let limbs = level + 1;
        let alpha = self.ctx.params().alpha();
        // `d` must carry (at least) the level's limbs at the ring degree. Both domains are
        // accepted — the tag selects the seam:
        //
        // * **coefficient** (classic): every digit row is lifted + forward-transformed
        //   (`limbs` of the `β·raised` forwards are spent re-transforming rows a tensor may
        //   just have inverse-transformed);
        // * **evaluation** (dual-form): the rows are reused *verbatim* as the digits' own
        //   raised rows (zero forwards), and one batched inverse of the `limbs` rows feeds
        //   the ModUp conversions, which are coefficient-domain by nature (CRT lifting sums
        //   residues across moduli).
        if d.limb_count() < limbs {
            return Err(fab_rns::RnsError::LimbOutOfRange {
                requested: limbs,
                available: d.limb_count(),
            }
            .into());
        }
        if d.degree() != self.ctx.degree() {
            return Err(fab_rns::RnsError::Mismatch {
                reason: format!(
                    "key-switch operand degree {} does not match ring degree {}",
                    d.degree(),
                    self.ctx.degree()
                ),
            }
            .into());
        }
        let beta = limbs.div_ceil(alpha);
        let degree = d.degree();
        let basis = self.ctx.raised_basis_at_level(level)?;
        let raised_limbs = basis.len();

        let mut ranges = Vec::with_capacity(beta);
        let mut plans = Vec::with_capacity(beta);
        for j in 0..beta {
            let start = j * alpha;
            let end = ((j + 1) * alpha).min(limbs);
            ranges.push((start, end));
            plans.push(self.ctx.mod_up_plan(level, start, end - start)?);
        }

        // Dual-form seam: an evaluation-domain operand pays one batched inverse of its
        // `limbs` rows to feed the conversions (`to_coefficient` meters it), while its
        // original rows skip the Lift forwards entirely.
        let dual = d.representation() == Representation::Evaluation;
        let d_coeff_lease: Option<RnsPolynomial> = if dual {
            let mut c = sc.lease_prefix(d, limbs)?;
            c.to_coefficient(&basis);
            Some(c)
        } else {
            None
        };
        let d_coeff: &RnsPolynomial = d_coeff_lease.as_ref().unwrap_or(d);

        // Phase 1 (digit-parallel): hoisted conversion products, one job per digit source row.
        if sc.hoisted.len() < beta {
            sc.hoisted.resize_with(beta, Vec::new);
        }
        for (j, buf) in sc.hoisted.iter_mut().take(beta).enumerate() {
            let (start, end) = ranges[j];
            buf.resize(degree * (end - start), 0);
        }
        {
            let mut jobs = Vec::with_capacity(limbs);
            for (j, buf) in sc.hoisted.iter_mut().take(beta).enumerate() {
                for (i, row) in buf.chunks_mut(degree).enumerate() {
                    jobs.push((j, i, row));
                }
            }
            let plans = &plans;
            let ranges = &ranges;
            metering::charge(kernel::hoisted_products(degree, limbs));
            fab_par::par_jobs(jobs, |(j, i, row)| {
                let converter = plans[j]
                    .converter()
                    .expect("key-switch ModUp always has extension targets");
                converter.hoisted_product_row(i, d_coeff.limb(ranges[j].0 + i), row);
            });
        }

        // Phase 2 (batched): every output row of every digit — digit rows lifted from `d`
        // (or, in the dual-form seam, copied from the evaluation-domain operand without any
        // transform), the rest produced by lazy conversion — forward-transformed in the same
        // job. Coefficient operands pay β·(ℓ+1+k) forwards (the classic closed-form minimum);
        // evaluation operands pay β·(ℓ+1+k) − (ℓ+1), because the digits' own rows are reused.
        let mut d_eval = sc.lease_zero(degree, limbs, Representation::Evaluation);
        if dual {
            d_eval.copy_limbs_from(d, 0..limbs)?;
        }
        let mut converted: Vec<RnsPolynomial> = plans
            .iter()
            .map(|p| {
                sc.lease_zero(
                    degree,
                    p.conversion_rows().len(),
                    Representation::Evaluation,
                )
            })
            .collect();
        {
            enum RowJob<'a> {
                /// Lift a digit row of `d` and transform it (shared by its digit).
                Lift {
                    src: &'a [u64],
                    table: &'a fab_math::NttTable,
                    out: &'a mut [u64],
                },
                /// Convert one extension row of one digit (lazy, no correction) + transform.
                Convert {
                    plan: &'a ops::ModUpPlan,
                    hoisted: &'a [u64],
                    target: usize,
                    table: &'a fab_math::NttTable,
                    out: &'a mut [u64],
                },
            }
            let mut jobs = Vec::with_capacity(beta * raised_limbs);
            if !dual {
                for (i, out) in d_eval.data_mut().chunks_mut(degree).enumerate() {
                    jobs.push(RowJob::Lift {
                        src: d.limb(i),
                        table: basis.table(i),
                        out,
                    });
                }
            }
            for (j, poly) in converted.iter_mut().enumerate() {
                let plan = plans[j].as_ref();
                let hoisted = &sc.hoisted[j];
                for (target, out) in poly.data_mut().chunks_mut(degree).enumerate() {
                    jobs.push(RowJob::Convert {
                        plan,
                        hoisted,
                        target,
                        table: basis.table(plan.conversion_rows()[target]),
                        out,
                    });
                }
            }
            // One lazy forward per job; a Convert job also pays its conversion row.
            let mut cost = kernel::ntt_forward_lazy(degree).times(jobs.len() as u64);
            for (j, plan) in plans.iter().enumerate() {
                let len = ranges[j].1 - ranges[j].0;
                cost += kernel::convert_row_lazy(degree, len)
                    .times(plan.conversion_rows().len() as u64);
            }
            metering::charge(cost);
            fab_par::par_jobs(jobs, |job| match job {
                RowJob::Lift { src, table, out } => {
                    out.copy_from_slice(src);
                    table.forward_lazy(out);
                }
                RowJob::Convert {
                    plan,
                    hoisted,
                    target,
                    table,
                    out,
                } => {
                    plan.converter()
                        .expect("conversion rows imply a converter")
                        .accumulate_target_limb_lazy_into(hoisted, out.len(), target, out);
                    table.forward_lazy(out);
                }
            });
        }
        if let Some(c) = d_coeff_lease {
            sc.recycle(c);
        }

        Ok(RaisedDigits {
            basis,
            d_eval,
            converted,
            ranges,
            level,
        })
    }

    /// The u128 lazy KSKIP accumulation: `Σ_j ext_j · ksk_j` over all β digits in
    /// per-coefficient u128 sums that never leave registers (fold-guarded against overflow),
    /// reduced once per coefficient into the lazy `[0, 2q)` domain. The returned pair is still
    /// in **evaluation** representation over `Q_level ∪ P`; the back half
    /// ([`Evaluator::switch_raised`]) either inverts it straight away or first absorbs
    /// evaluation-domain addends ([`Evaluator::absorb_p_times`] — the multiply seam) so the
    /// addends ride the accumulator inverse for free instead of paying their own.
    ///
    /// `perm` applies an evaluation-domain automorphism gather to the raised digits on the
    /// fly (hoisted rotation batches), so no rotated copy is ever materialised. Work fans out
    /// one job per raised limb; each digit's contribution is summed in fixed digit order, so
    /// results are bitwise identical at any `FAB_THREADS`.
    fn kskip_accumulate(
        &self,
        sc: &mut Scratch,
        raised: &RaisedDigits,
        key: &SwitchingKey,
        perm: Option<&fab_math::EvalAutomorphismMap>,
    ) -> Result<(RnsPolynomial, RnsPolynomial)> {
        self.validate_switching_key(key, raised.level)?;
        let limbs = raised.level + 1;
        let degree = raised.d_eval.degree();
        let raised_limbs = raised.basis.len();
        let key_map = key_limb_map(limbs, self.ctx.q_basis().len(), self.ctx.p_basis().len());
        let perm = perm.map(fab_math::EvalAutomorphismMap::source);

        let mut acc0 = sc.lease_zero(degree, raised_limbs, Representation::Evaluation);
        let mut acc1 = sc.lease_zero(degree, raised_limbs, Representation::Evaluation);
        metering::charge(
            kernel::kskip_row(degree, raised.ranges.len(), perm.is_some())
                .times(raised_limbs as u64),
        );
        let jobs: Vec<_> = acc0
            .data_mut()
            .chunks_mut(degree)
            .zip(acc1.data_mut().chunks_mut(degree))
            .enumerate()
            .collect();
        fab_par::par_jobs(jobs, |(r, (out_b, out_a))| {
            let modulus = raised.basis.modulus(r);
            let digit_rows: Vec<_> = raised
                .ranges
                .iter()
                .enumerate()
                .map(|(j, &(start, end))| {
                    let x = if r >= start && r < end {
                        raised.d_eval.limb(r)
                    } else {
                        // Converted rows skip the digit's own contiguous limb block.
                        let t = if r < start { r } else { r - (end - start) };
                        raised.converted[j].limb(t)
                    };
                    let (b_full, a_full) = key.component(j);
                    fab_rns::kskip::DigitRows {
                        x,
                        key_b: b_full.limb(key_map[r]),
                        key_a: a_full.limb(key_map[r]),
                    }
                })
                .collect();
            // All digits of a coefficient are summed in registers under the shared fold
            // schedule; the single [0, 2q) reduction per coefficient feeds the inverse NTT.
            fab_rns::kskip::accumulate_digits(
                modulus,
                modulus.u128_mac_capacity(),
                &digit_rows,
                perm,
                out_b,
                out_a,
            );
        });
        Ok((acc0, acc1))
    }

    /// Batched inverse NTTs of both KSKIP accumulators (`2·(ℓ+1+k)` rows, the closed-form
    /// minimum), canonicalising every coefficient into `[0, q)` — which is what makes every
    /// evaluation-domain rearrangement upstream (dual-form digit reuse, `P·d` absorption,
    /// eval-resident partial sums) bitwise invisible downstream.
    fn invert_accumulators(
        &self,
        acc0: &mut RnsPolynomial,
        acc1: &mut RnsPolynomial,
        basis: &RnsBasis,
    ) {
        let degree = acc0.degree();
        let mut jobs = Vec::with_capacity(acc0.limb_count() + acc1.limb_count());
        for poly in [&mut *acc0, &mut *acc1] {
            for (r, row) in poly.data_mut().chunks_mut(degree).enumerate() {
                jobs.push((basis.table(r), row));
            }
        }
        metering::charge(kernel::ntt_inverse(degree).times(jobs.len() as u64));
        fab_par::par_jobs(jobs, |(table, row)| table.inverse(row));
        acc0.set_representation(Representation::Coefficient);
        acc1.set_representation(Representation::Coefficient);
    }

    /// Absorbs `P·d` into a KSKIP accumulator **in the evaluation domain**, before the
    /// accumulator inverse: `ModDown(acc + P·d) = ModDown(acc) + d` exactly (the `P` rows are
    /// untouched, and on each `q_i` row the added `P·d` term survives the `·P^{-1}` combine as
    /// `+d`), and the fused ModDown+rescale plan divides the same sum by `P·q_level`. Because
    /// the addition happens pre-inverse, `d` never pays its own inverse NTT — the tensor's
    /// `d0`/`d1` stay evaluation-resident from the pointwise products to this seam, which is
    /// why neither pays an inverse of its own in `multiply`/`multiply_rescale`.
    ///
    /// The accumulator rows arrive in the lazy `[0, 2q)` domain; absorbed rows are
    /// canonicalised on the way (`fab_math::Modulus::add_mul_shoup_row`), preserving the
    /// inverse NTT's `[0, 2q)` input invariant and the bitwise equality with the
    /// coefficient-domain path.
    fn absorb_p_times(
        &self,
        acc: &mut RnsPolynomial,
        d: &RnsPolynomial,
        basis: &RnsBasis,
        p_mod_q: &[(u64, u64)],
    ) {
        debug_assert_eq!(acc.representation(), Representation::Evaluation);
        debug_assert_eq!(d.representation(), Representation::Evaluation);
        let limbs = d.limb_count();
        let degree = d.degree();
        metering::charge(kernel::absorb(degree, limbs));
        fab_par::par_chunks_mut(&mut acc.data_mut()[..limbs * degree], degree, |i, row| {
            let (p, p_shoup) = p_mod_q[i];
            basis
                .modulus(i)
                .add_mul_shoup_row(row, d.limb(i), p, p_shoup);
        });
    }
}

/// The limb map selecting the level-`limbs` live rows `[q_0 … q_{limbs-1}, p_0 … p_{k-1}]`
/// out of a full-basis key polynomial `[q_0 … q_L, p_0 … p_{k-1}]`.
fn key_limb_map(limbs: usize, total_q_limbs: usize, p_limbs: usize) -> Vec<usize> {
    (0..limbs)
        .chain(total_q_limbs..total_q_limbs + p_limbs)
        .collect()
}
