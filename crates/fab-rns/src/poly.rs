//! Limb-major RNS polynomials in one flat allocation, with explicit representation tracking.

use fab_math::AutomorphismMap;

use crate::{Result, RnsBasis, RnsError};

/// Whether a polynomial is stored as coefficients or as NTT evaluations.
///
/// The paper keeps most data in evaluation form and switches to coefficient form only where
/// basis conversion requires it (Fig. 5); we track the representation explicitly so misuse is a
/// type-checked error rather than silent corruption.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Representation {
    /// Polynomial coefficients `a_0 … a_{N-1}`.
    Coefficient,
    /// NTT evaluations (the "evaluation representation" of Section 2.1.2).
    Evaluation,
}

impl std::fmt::Display for Representation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Representation::Coefficient => write!(f, "coefficient"),
            Representation::Evaluation => write!(f, "evaluation"),
        }
    }
}

/// The polynomial **domain** — the paper's coefficient-domain / evaluation-domain vocabulary
/// for [`Representation`].
///
/// Every [`RnsPolynomial`] carries this tag: it is maintained by
/// [`RnsPolynomial::to_evaluation`] / [`RnsPolynomial::to_coefficient`] (both no-ops when the
/// polynomial is already in the requested domain, which is what makes domain-resident
/// pipelines free to express), and checked by the arithmetic and key-switch kernels — a
/// pointwise product of coefficient-domain operands or a basis conversion of evaluation-domain
/// rows is rejected with [`RnsError::WrongRepresentation`] instead of silently producing
/// garbage. Downstream crates exploit the tag to skip transforms whenever a producer's output
/// domain already matches the consumer's input domain (the dual-form key-switch seam and the
/// eval-resident BSGS accumulation in `fab-ckks`).
pub type Domain = Representation;

/// An RNS polynomial stored as **one flat, contiguous `Vec<u64>`** in limb-major order: limb
/// `i` occupies `data[i·N .. (i+1)·N]` (the row-major ciphertext view of Section 2.1.1).
///
/// A polynomial is therefore a single allocation regardless of its limb count, kernels stream
/// cache-line-contiguous rows via the [`RnsPolynomial::limb`] / [`RnsPolynomial::limb_mut`]
/// slice accessors, and per-limb work parallelises over disjoint `&mut` chunks (`fab-par`).
///
/// The polynomial does not own its basis; operations take the relevant [`RnsBasis`] so the same
/// struct can represent data in `Q`, in a digit basis, or in the extended basis `Q ∪ P`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RnsPolynomial {
    degree: usize,
    limb_count: usize,
    data: Vec<u64>,
    representation: Representation,
}

impl RnsPolynomial {
    /// The all-zero polynomial with the given number of limbs.
    pub fn zero(degree: usize, limb_count: usize, representation: Representation) -> Self {
        Self {
            degree,
            limb_count,
            data: vec![0u64; degree * limb_count],
            representation,
        }
    }

    /// Builds a polynomial directly from its flat limb-major data (`limb i` at
    /// `data[i·degree .. (i+1)·degree]`). The buffer's spare capacity is kept, so scratch
    /// arenas can recycle allocations through [`RnsPolynomial::into_data`] and back.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` is not a multiple of `degree`.
    pub fn from_flat(degree: usize, data: Vec<u64>, representation: Representation) -> Self {
        assert!(degree > 0, "degree must be positive");
        assert_eq!(
            data.len() % degree,
            0,
            "flat data length must be a multiple of the degree"
        );
        Self {
            degree,
            limb_count: data.len() / degree,
            data,
            representation,
        }
    }

    /// Builds a polynomial from per-limb rows (flattening them into the contiguous layout).
    ///
    /// # Panics
    ///
    /// Panics if the limbs have inconsistent lengths or no limb is given.
    pub fn from_limbs(limbs: Vec<Vec<u64>>, representation: Representation) -> Self {
        assert!(!limbs.is_empty(), "polynomial must have at least one limb");
        let degree = limbs[0].len();
        assert!(
            limbs.iter().all(|l| l.len() == degree),
            "all limbs must have the same length"
        );
        let limb_count = limbs.len();
        let mut data = Vec::with_capacity(degree * limb_count);
        for limb in &limbs {
            data.extend_from_slice(limb);
        }
        Self {
            degree,
            limb_count,
            data,
            representation,
        }
    }

    /// Lifts a single small (signed) coefficient vector into every limb of a basis.
    pub fn from_signed_coeffs(
        coeffs: &[i64],
        basis: &RnsBasis,
        representation: Representation,
    ) -> Self {
        let degree = coeffs.len();
        let limb_count = basis.len();
        let mut data = vec![0u64; degree * limb_count];
        for (i, row) in data.chunks_exact_mut(degree).enumerate() {
            let m = basis.modulus(i);
            for (out, &c) in row.iter_mut().zip(coeffs.iter()) {
                *out = m.reduce_i64(c);
            }
        }
        let mut poly = Self {
            degree,
            limb_count,
            data,
            representation: Representation::Coefficient,
        };
        if representation == Representation::Evaluation {
            poly.to_evaluation(basis);
        }
        poly
    }

    /// Ring degree `N`.
    pub fn degree(&self) -> usize {
        self.degree
    }

    /// Number of limbs currently held.
    pub fn limb_count(&self) -> usize {
        self.limb_count
    }

    /// Current representation.
    pub fn representation(&self) -> Representation {
        self.representation
    }

    /// The polynomial's current [`Domain`] (the paper-vocabulary name for
    /// [`RnsPolynomial::representation`] — same tag, domain-aware callers read this one).
    pub fn domain(&self) -> Domain {
        self.representation
    }

    /// `true` when the polynomial is in evaluation (NTT) domain.
    pub fn is_evaluation(&self) -> bool {
        self.representation == Representation::Evaluation
    }

    /// `true` when the polynomial is in coefficient domain.
    pub fn is_coefficient(&self) -> bool {
        self.representation == Representation::Coefficient
    }

    /// Reinterprets the stored data as the given representation without transforming it.
    ///
    /// Low-level escape hatch for kernels that produce data directly in a known form (e.g.
    /// scratch buffers filled by an NTT-domain accumulation); everyday code should use
    /// [`RnsPolynomial::to_evaluation`] / [`RnsPolynomial::to_coefficient`].
    pub fn set_representation(&mut self, representation: Representation) {
        self.representation = representation;
    }

    /// Immutable access to limb `i` (a `N`-length row of the flat buffer).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn limb(&self, i: usize) -> &[u64] {
        assert!(i < self.limb_count, "limb index {i} out of range");
        &self.data[i * self.degree..(i + 1) * self.degree]
    }

    /// Mutable access to limb `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn limb_mut(&mut self, i: usize) -> &mut [u64] {
        assert!(i < self.limb_count, "limb index {i} out of range");
        &mut self.data[i * self.degree..(i + 1) * self.degree]
    }

    /// Iterates over the limbs as `N`-length rows.
    pub fn limbs_iter(&self) -> std::slice::ChunksExact<'_, u64> {
        self.data.chunks_exact(self.degree)
    }

    /// The whole flat limb-major buffer (limb `i` at `data[i·N .. (i+1)·N]`).
    pub fn data(&self) -> &[u64] {
        &self.data
    }

    /// Mutable access to the whole flat buffer.
    pub fn data_mut(&mut self) -> &mut [u64] {
        &mut self.data
    }

    /// Consumes the polynomial and returns its flat buffer (for allocation recycling).
    pub fn into_data(self) -> Vec<u64> {
        self.data
    }

    /// Reshapes this polynomial in place into an all-zero polynomial of the given shape,
    /// reusing the existing allocation when capacity allows (the scratch-arena workhorse).
    pub fn reset(&mut self, degree: usize, limb_count: usize, representation: Representation) {
        self.degree = degree;
        self.limb_count = limb_count;
        self.representation = representation;
        self.data.clear();
        self.data.resize(degree * limb_count, 0);
    }

    /// Reshapes this polynomial in place **without zeroing**: the resulting coefficient
    /// values are unspecified (whatever the recycled buffer held). Strictly for kernel
    /// outputs whose every element is overwritten before being read — ModUp/ModDown targets
    /// and automorphism outputs — where [`RnsPolynomial::reset`]'s zero pass would be a
    /// wasted full write of a memory-bound buffer.
    pub fn reshape_unspecified(
        &mut self,
        degree: usize,
        limb_count: usize,
        representation: Representation,
    ) {
        self.degree = degree;
        self.limb_count = limb_count;
        self.representation = representation;
        let len = degree * limb_count;
        if self.data.len() > len {
            self.data.truncate(len);
        } else {
            self.data.resize(len, 0);
        }
    }

    /// Overwrites this polynomial with a copy of `src`, reusing the existing allocation when
    /// capacity allows.
    pub fn copy_from(&mut self, src: &Self) {
        self.degree = src.degree;
        self.limb_count = src.limb_count;
        self.representation = src.representation;
        self.data.clear();
        self.data.extend_from_slice(&src.data);
    }

    /// Overwrites this polynomial with a copy of the limbs `range` of `src` (the allocation-
    /// recycling counterpart of [`RnsPolynomial::slice_limbs`], used by digit decomposition).
    ///
    /// # Errors
    ///
    /// Returns [`RnsError::LimbOutOfRange`] if the range end exceeds `src`'s limb count.
    pub fn copy_limbs_from(&mut self, src: &Self, range: std::ops::Range<usize>) -> Result<()> {
        if range.end > src.limb_count || range.start > range.end {
            return Err(RnsError::LimbOutOfRange {
                requested: range.end,
                available: src.limb_count,
            });
        }
        self.degree = src.degree;
        self.limb_count = range.len();
        self.representation = src.representation;
        self.data.clear();
        self.data
            .extend_from_slice(&src.data[range.start * src.degree..range.end * src.degree]);
        Ok(())
    }

    /// Appends a limb (e.g. an extension limb produced by ModUp).
    ///
    /// # Panics
    ///
    /// Panics if the limb length differs from the degree.
    pub fn push_limb(&mut self, limb: &[u64]) {
        assert_eq!(limb.len(), self.degree);
        self.data.extend_from_slice(limb);
        self.limb_count += 1;
    }

    /// Drops limbs beyond the first `count` (used by Rescale / ModDown / level drops).
    ///
    /// # Errors
    ///
    /// Returns [`RnsError::LimbOutOfRange`] if `count` exceeds the current limb count.
    pub fn truncate_limbs(&mut self, count: usize) -> Result<()> {
        if count > self.limb_count {
            return Err(RnsError::LimbOutOfRange {
                requested: count,
                available: self.limb_count,
            });
        }
        self.data.truncate(count * self.degree);
        self.limb_count = count;
        Ok(())
    }

    /// Returns a copy restricted to the first `count` limbs.
    ///
    /// # Errors
    ///
    /// Returns [`RnsError::LimbOutOfRange`] if `count` exceeds the current limb count.
    pub fn prefix(&self, count: usize) -> Result<Self> {
        if count > self.limb_count {
            return Err(RnsError::LimbOutOfRange {
                requested: count,
                available: self.limb_count,
            });
        }
        Ok(Self {
            degree: self.degree,
            limb_count: count,
            data: self.data[..count * self.degree].to_vec(),
            representation: self.representation,
        })
    }

    /// Returns a copy of the limbs in `range` (used by key-switch digit decomposition).
    ///
    /// # Errors
    ///
    /// Returns [`RnsError::LimbOutOfRange`] if the range end exceeds the limb count.
    pub fn slice_limbs(&self, range: std::ops::Range<usize>) -> Result<Self> {
        if range.end > self.limb_count || range.start > range.end {
            return Err(RnsError::LimbOutOfRange {
                requested: range.end,
                available: self.limb_count,
            });
        }
        Ok(Self {
            degree: self.degree,
            limb_count: range.len(),
            data: self.data[range.start * self.degree..range.end * self.degree].to_vec(),
            representation: self.representation,
        })
    }

    /// Converts in place to evaluation representation (forward NTT limb-by-limb, fanned out
    /// over the `fab-par` worker pool). No-op if already in evaluation form.
    ///
    /// # Panics
    ///
    /// Panics if the basis has fewer limbs than the polynomial.
    pub fn to_evaluation(&mut self, basis: &RnsBasis) {
        if self.representation == Representation::Evaluation {
            return;
        }
        assert!(basis.len() >= self.limb_count);
        // Counted on the calling thread (before the fan-out) so the tally is exact at any
        // FAB_THREADS setting; see `crate::metering`.
        crate::metering::add_forward(self.limb_count);
        crate::metering::add_bytes(
            crate::metering::bytes::ntt_forward(self.degree).times(self.limb_count as u64),
        );
        fab_par::par_chunks_mut(&mut self.data, self.degree, |i, limb| {
            basis.table(i).forward(limb);
        });
        self.representation = Representation::Evaluation;
    }

    /// Converts in place to coefficient representation (inverse NTT limb-by-limb, fanned out
    /// over the `fab-par` worker pool). No-op if already in coefficient form.
    ///
    /// # Panics
    ///
    /// Panics if the basis has fewer limbs than the polynomial.
    pub fn to_coefficient(&mut self, basis: &RnsBasis) {
        if self.representation == Representation::Coefficient {
            return;
        }
        assert!(basis.len() >= self.limb_count);
        crate::metering::add_inverse(self.limb_count);
        crate::metering::add_bytes(
            crate::metering::bytes::ntt_inverse(self.degree).times(self.limb_count as u64),
        );
        fab_par::par_chunks_mut(&mut self.data, self.degree, |i, limb| {
            basis.table(i).inverse(limb);
        });
        self.representation = Representation::Coefficient;
    }

    /// Component-wise addition (same representation required).
    ///
    /// # Errors
    ///
    /// Returns [`RnsError::Mismatch`] if degrees, limb counts, or representations differ.
    pub fn add(&self, other: &Self, basis: &RnsBasis) -> Result<Self> {
        let mut out = self.clone();
        out.add_assign(other, basis)?;
        Ok(out)
    }

    /// In-place component-wise addition.
    ///
    /// # Errors
    ///
    /// Same as [`RnsPolynomial::add`].
    pub fn add_assign(&mut self, other: &Self, basis: &RnsBasis) -> Result<()> {
        self.check_compatible(other)?;
        let degree = self.degree;
        crate::metering::add_bytes(crate::metering::bytes::pointwise_binary(
            degree,
            self.limb_count,
        ));
        fab_par::par_chunks_mut(&mut self.data, degree, |i, row| {
            let m = basis.modulus(i);
            for (x, &y) in row.iter_mut().zip(other.limb(i)) {
                *x = m.add(*x, y);
            }
        });
        Ok(())
    }

    /// Component-wise subtraction (same representation required).
    ///
    /// # Errors
    ///
    /// Returns [`RnsError::Mismatch`] if degrees, limb counts, or representations differ.
    pub fn sub(&self, other: &Self, basis: &RnsBasis) -> Result<Self> {
        let mut out = self.clone();
        out.sub_assign(other, basis)?;
        Ok(out)
    }

    /// In-place component-wise subtraction.
    ///
    /// # Errors
    ///
    /// Same as [`RnsPolynomial::sub`].
    pub fn sub_assign(&mut self, other: &Self, basis: &RnsBasis) -> Result<()> {
        self.check_compatible(other)?;
        let degree = self.degree;
        crate::metering::add_bytes(crate::metering::bytes::pointwise_binary(
            degree,
            self.limb_count,
        ));
        fab_par::par_chunks_mut(&mut self.data, degree, |i, row| {
            let m = basis.modulus(i);
            for (x, &y) in row.iter_mut().zip(other.limb(i)) {
                *x = m.sub(*x, y);
            }
        });
        Ok(())
    }

    /// Component-wise negation.
    pub fn neg(&self, basis: &RnsBasis) -> Self {
        let mut out = self.clone();
        let degree = out.degree;
        crate::metering::add_bytes(crate::metering::bytes::pointwise_unary(
            degree,
            out.limb_count,
        ));
        fab_par::par_chunks_mut(&mut out.data, degree, |i, row| {
            let m = basis.modulus(i);
            for x in row.iter_mut() {
                *x = m.neg(*x);
            }
        });
        out
    }

    /// Pointwise (Hadamard) multiplication; both operands must be in evaluation representation
    /// so that the product is the negacyclic polynomial product.
    ///
    /// # Errors
    ///
    /// Returns [`RnsError::WrongRepresentation`] if either operand is in coefficient form, or
    /// [`RnsError::Mismatch`] on shape disagreement.
    pub fn mul(&self, other: &Self, basis: &RnsBasis) -> Result<Self> {
        let mut out = self.clone();
        out.mul_assign(other, basis)?;
        Ok(out)
    }

    /// In-place pointwise multiplication (both operands in evaluation form).
    ///
    /// # Errors
    ///
    /// Same as [`RnsPolynomial::mul`].
    pub fn mul_assign(&mut self, other: &Self, basis: &RnsBasis) -> Result<()> {
        if self.representation != Representation::Evaluation
            || other.representation != Representation::Evaluation
        {
            return Err(RnsError::WrongRepresentation {
                expected: "evaluation",
            });
        }
        self.check_compatible(other)?;
        let degree = self.degree;
        crate::metering::add_bytes(crate::metering::bytes::pointwise_binary(
            degree,
            self.limb_count,
        ));
        fab_par::par_chunks_mut(&mut self.data, degree, |i, row| {
            let m = basis.modulus(i);
            for (x, &y) in row.iter_mut().zip(other.limb(i)) {
                *x = m.mul(*x, y);
            }
        });
        Ok(())
    }

    /// Fused accumulation `self += a · b` (pointwise, all three in evaluation form, aligned
    /// limbs); allocates nothing.
    ///
    /// # Errors
    ///
    /// Returns [`RnsError::WrongRepresentation`] unless all operands are in evaluation form,
    /// and [`RnsError::Mismatch`] on shape disagreement.
    pub fn add_mul_assign(&mut self, a: &Self, b: &Self, basis: &RnsBasis) -> Result<()> {
        if self.representation != Representation::Evaluation
            || a.representation != Representation::Evaluation
            || b.representation != Representation::Evaluation
        {
            return Err(RnsError::WrongRepresentation {
                expected: "evaluation",
            });
        }
        self.check_compatible(a)?;
        self.check_compatible(b)?;
        let degree = self.degree;
        crate::metering::add_bytes(crate::metering::bytes::fused_multiply_add(
            degree,
            self.limb_count,
        ));
        fab_par::par_chunks_mut(&mut self.data, degree, |i, row| {
            let m = basis.modulus(i);
            for ((x, &ai), &bi) in row.iter_mut().zip(a.limb(i)).zip(b.limb(i)) {
                *x = m.add(*x, m.reduce_u128(ai as u128 * bi as u128));
            }
        });
        Ok(())
    }

    /// Multiplies every limb by a per-limb scalar.
    ///
    /// # Panics
    ///
    /// Panics if `scalars.len()` differs from the limb count.
    pub fn mul_scalar_per_limb(&self, scalars: &[u64], basis: &RnsBasis) -> Self {
        assert_eq!(scalars.len(), self.limb_count);
        let mut out = Self::zero(self.degree, self.limb_count, self.representation);
        let degree = out.degree;
        crate::metering::add_bytes(crate::metering::bytes::pointwise_unary(
            degree,
            out.limb_count,
        ));
        fab_par::par_chunks_mut(&mut out.data, degree, |i, row| {
            let m = basis.modulus(i);
            let s = m.reduce(scalars[i]);
            m.mul_shoup_row(self.limb(i), s, m.shoup_precompute(s), row);
        });
        out
    }

    /// Fused in-place accumulation `self += src · scalars` with one scalar per limb (Shoup
    /// multiply-accumulate). Only the first `self.limb_count()` limbs of `src` are read, so a
    /// source held at a higher level needs no truncated copy. A per-limb constant times a
    /// polynomial is coefficient-wise in either representation; the two operands only have
    /// to agree on it.
    ///
    /// # Errors
    ///
    /// Returns [`RnsError::Mismatch`] if the degrees or representations differ, `src` has
    /// fewer limbs than `self`, or `scalars.len()` is not the limb count.
    pub fn add_mul_scalar_per_limb(
        &mut self,
        src: &Self,
        scalars: &[u64],
        basis: &RnsBasis,
    ) -> Result<()> {
        if self.degree != src.degree
            || self.representation != src.representation
            || src.limb_count < self.limb_count
            || scalars.len() != self.limb_count
        {
            return Err(RnsError::Mismatch {
                reason: format!(
                    "cannot accumulate {} scalars × {} {} limbs of degree {} into {} {} limbs of degree {}",
                    scalars.len(),
                    src.limb_count,
                    src.representation,
                    src.degree,
                    self.limb_count,
                    self.representation,
                    self.degree
                ),
            });
        }
        let degree = self.degree;
        crate::metering::add_bytes(crate::metering::bytes::scalar_multiply_add(
            degree,
            self.limb_count,
        ));
        fab_par::par_chunks_mut(&mut self.data, degree, |i, row| {
            let m = basis.modulus(i);
            let s = m.reduce(scalars[i]);
            m.add_mul_shoup_row(row, src.limb(i), s, m.shoup_precompute(s));
        });
        Ok(())
    }

    /// Adds the constant polynomial whose value in limb `i` is `scalars[i]`, in place: in
    /// coefficient form only coefficient 0 of each limb changes, in evaluation form every
    /// element of the row does (the NTT of a constant polynomial is that constant in every
    /// position).
    ///
    /// # Panics
    ///
    /// Panics if `scalars.len()` differs from the limb count.
    pub fn add_scalar_per_limb(&mut self, scalars: &[u64], basis: &RnsBasis) {
        assert_eq!(scalars.len(), self.limb_count);
        let degree = self.degree;
        if self.representation == Representation::Coefficient {
            // One word per limb: below the row-pass granularity the byte meter counts at.
            for (i, row) in self.data.chunks_exact_mut(degree).enumerate() {
                let m = basis.modulus(i);
                row[0] = m.add(row[0], m.reduce(scalars[i]));
            }
            return;
        }
        crate::metering::add_bytes(crate::metering::bytes::pointwise_unary(
            degree,
            self.limb_count,
        ));
        fab_par::par_chunks_mut(&mut self.data, degree, |i, row| {
            let m = basis.modulus(i);
            let s = m.reduce(scalars[i]);
            for x in row.iter_mut() {
                *x = m.add(*x, s);
            }
        });
    }

    /// Applies the Galois automorphism `x → x^element`. The polynomial must be in coefficient
    /// representation (the FAB automorph unit also permutes coefficient/slot indices directly).
    ///
    /// # Errors
    ///
    /// Returns [`RnsError::WrongRepresentation`] if in evaluation form, or propagates an invalid
    /// Galois element error.
    pub fn automorphism(&self, element: u64, basis: &RnsBasis) -> Result<Self> {
        let map = AutomorphismMap::new(self.degree, element)?;
        self.automorphism_with_map(&map, basis)
    }

    /// Applies a precomputed automorphism permutation (see [`AutomorphismMap`]); callers that
    /// rotate repeatedly cache the map and skip its `O(N)` construction.
    ///
    /// # Errors
    ///
    /// Returns [`RnsError::WrongRepresentation`] if in evaluation form, or
    /// [`RnsError::Mismatch`] if the map was built for a different degree.
    pub fn automorphism_with_map(&self, map: &AutomorphismMap, basis: &RnsBasis) -> Result<Self> {
        let mut out = Self::zero(self.degree, self.limb_count, Representation::Coefficient);
        self.automorphism_into(map, basis, &mut out)?;
        Ok(out)
    }

    /// Applies a precomputed automorphism permutation writing into `out` (reshaped in place,
    /// reusing its allocation) — the scratch-arena path for hoisted rotation batches.
    ///
    /// # Errors
    ///
    /// Same as [`RnsPolynomial::automorphism_with_map`].
    pub fn automorphism_into(
        &self,
        map: &AutomorphismMap,
        basis: &RnsBasis,
        out: &mut Self,
    ) -> Result<()> {
        if self.representation != Representation::Coefficient {
            return Err(RnsError::WrongRepresentation {
                expected: "coefficient",
            });
        }
        if map.degree() != self.degree {
            return Err(RnsError::Mismatch {
                reason: format!(
                    "automorphism map degree {} vs polynomial degree {}",
                    map.degree(),
                    self.degree
                ),
            });
        }
        // The permutation writes every output index, so the zeroing reset is skipped.
        out.reshape_unspecified(self.degree, self.limb_count, Representation::Coefficient);
        let degree = self.degree;
        crate::metering::add_bytes(crate::metering::bytes::automorphism(
            degree,
            self.limb_count,
        ));
        fab_par::par_chunks_mut(&mut out.data, degree, |i, row| {
            map.apply_into(self.limb(i), basis.modulus(i), row);
        });
        Ok(())
    }

    fn check_compatible(&self, other: &Self) -> Result<()> {
        if self.degree != other.degree {
            return Err(RnsError::Mismatch {
                reason: format!("degree {} vs {}", self.degree, other.degree),
            });
        }
        if self.limb_count != other.limb_count {
            return Err(RnsError::Mismatch {
                reason: format!("limb count {} vs {}", self.limb_count, other.limb_count),
            });
        }
        if self.representation != other.representation {
            return Err(RnsError::Mismatch {
                reason: format!(
                    "representation {} vs {}",
                    self.representation, other.representation
                ),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    fn basis(limbs: usize) -> RnsBasis {
        RnsBasis::generate(64, 30, limbs).unwrap()
    }

    fn random_poly(basis: &RnsBasis, seed: u64) -> RnsPolynomial {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let limbs = basis
            .moduli()
            .iter()
            .map(|m| {
                (0..basis.degree())
                    .map(|_| rng.gen_range(0..m.value()))
                    .collect()
            })
            .collect();
        RnsPolynomial::from_limbs(limbs, Representation::Coefficient)
    }

    #[test]
    fn flat_layout_is_limb_major_with_stride_n() {
        let b = basis(3);
        let p = random_poly(&b, 40);
        let n = b.degree();
        assert_eq!(p.data().len(), 3 * n);
        for i in 0..3 {
            assert_eq!(p.limb(i), &p.data()[i * n..(i + 1) * n]);
        }
        // limbs_iter yields the same rows in order.
        for (i, row) in p.limbs_iter().enumerate() {
            assert_eq!(row, p.limb(i));
        }
    }

    #[test]
    fn flat_roundtrip_preserves_equality() {
        let b = basis(3);
        let p = random_poly(&b, 41);
        let degree = p.degree();
        let repr = p.representation();
        let q = RnsPolynomial::from_flat(degree, p.clone().into_data(), repr);
        assert_eq!(p, q);
        // Row-wise construction and flat construction agree.
        let rows: Vec<Vec<u64>> = p.limbs_iter().map(|r| r.to_vec()).collect();
        assert_eq!(RnsPolynomial::from_limbs(rows, repr), p);
    }

    #[test]
    fn reset_and_copy_from_reuse_the_allocation() {
        let b = basis(2);
        let p = random_poly(&b, 42);
        let mut scratch = RnsPolynomial::zero(b.degree(), 4, Representation::Evaluation);
        let cap_before = scratch.data.capacity();
        scratch.copy_from(&p);
        assert_eq!(scratch, p);
        assert!(scratch.data.capacity() >= cap_before.min(p.data().len()));
        scratch.reset(b.degree(), 2, Representation::Coefficient);
        assert!(scratch.data().iter().all(|&v| v == 0));
        assert_eq!(scratch.limb_count(), 2);
    }

    #[test]
    fn slice_limbs_matches_manual_rows() {
        let b = basis(4);
        let p = random_poly(&b, 43);
        let digit = p.slice_limbs(1..3).unwrap();
        assert_eq!(digit.limb_count(), 2);
        assert_eq!(digit.limb(0), p.limb(1));
        assert_eq!(digit.limb(1), p.limb(2));
        assert!(p.slice_limbs(2..5).is_err());
    }

    #[test]
    fn ntt_roundtrip_preserves_polynomial() {
        let b = basis(3);
        let original = random_poly(&b, 1);
        let mut p = original.clone();
        p.to_evaluation(&b);
        assert_eq!(p.representation(), Representation::Evaluation);
        p.to_coefficient(&b);
        assert_eq!(p, original);
    }

    #[test]
    fn add_sub_roundtrip() {
        let b = basis(3);
        let x = random_poly(&b, 2);
        let y = random_poly(&b, 3);
        let z = x.add(&y, &b).unwrap().sub(&y, &b).unwrap();
        assert_eq!(z, x);
    }

    #[test]
    fn in_place_ops_match_allocating_ops() {
        let b = basis(3);
        let x = random_poly(&b, 30);
        let y = random_poly(&b, 31);
        let mut z = x.clone();
        z.add_assign(&y, &b).unwrap();
        assert_eq!(z, x.add(&y, &b).unwrap());
        z.sub_assign(&y, &b).unwrap();
        assert_eq!(z, x);
        let mut xe = x.clone();
        let mut ye = y.clone();
        xe.to_evaluation(&b);
        ye.to_evaluation(&b);
        let mut ze = xe.clone();
        ze.mul_assign(&ye, &b).unwrap();
        assert_eq!(ze, xe.mul(&ye, &b).unwrap());
    }

    #[test]
    fn add_mul_assign_accumulates_products() {
        let b = basis(2);
        let mut x = random_poly(&b, 32);
        let mut y = random_poly(&b, 33);
        x.to_evaluation(&b);
        y.to_evaluation(&b);
        let mut acc = RnsPolynomial::zero(b.degree(), b.len(), Representation::Evaluation);
        acc.add_mul_assign(&x, &y, &b).unwrap();
        acc.add_mul_assign(&x, &y, &b).unwrap();
        let product = x.mul(&y, &b).unwrap();
        let twice = product.add(&product, &b).unwrap();
        assert_eq!(acc, twice);
    }

    #[test]
    fn add_mul_scalar_per_limb_matches_scale_then_add_on_a_limb_prefix() {
        let b2 = basis(2);
        let b3 = basis(3);
        let acc0 = random_poly(&b2, 36);
        let src = random_poly(&b3, 37);
        let scalars = [b2.modulus(0).value() - 1, 12345];
        for eval in [false, true] {
            let (mut acc, mut src) = (acc0.clone(), src.clone());
            if eval {
                acc.to_evaluation(&b2);
                src.to_evaluation(&b3);
            }
            let expected = acc
                .add(
                    &src.prefix(2).unwrap().mul_scalar_per_limb(&scalars, &b2),
                    &b2,
                )
                .unwrap();
            let before = crate::metering::byte_counts();
            acc.add_mul_scalar_per_limb(&src, &scalars, &b2).unwrap();
            assert_eq!(
                crate::metering::byte_counts().since(&before),
                crate::metering::bytes::scalar_multiply_add(b2.degree(), 2)
            );
            assert_eq!(acc, expected);
        }
        // Shape disagreements are typed errors, not panics.
        let mut acc = acc0.clone();
        let mut src_eval = src.clone();
        src_eval.to_evaluation(&b3);
        assert!(acc
            .add_mul_scalar_per_limb(&src_eval, &scalars, &b2)
            .is_err());
        assert!(acc.add_mul_scalar_per_limb(&src, &[1], &b2).is_err());
        let mut wide = src.clone();
        assert!(wide
            .add_mul_scalar_per_limb(&acc0, &[1, 2, 3], &b3)
            .is_err());
    }

    #[test]
    fn add_scalar_per_limb_adds_the_constant_polynomial_in_either_form() {
        let b = basis(3);
        let x = random_poly(&b, 38);
        let scalars = [7u64, b.modulus(1).value() - 1, 0];
        let mut constant = RnsPolynomial::zero(b.degree(), 3, Representation::Coefficient);
        for (i, &s) in scalars.iter().enumerate() {
            constant.limb_mut(i)[0] = s;
        }
        let mut coeff = x.clone();
        coeff.add_scalar_per_limb(&scalars, &b);
        assert_eq!(coeff, x.add(&constant, &b).unwrap());
        let mut eval = x.clone();
        eval.to_evaluation(&b);
        eval.add_scalar_per_limb(&scalars, &b);
        eval.to_coefficient(&b);
        assert_eq!(eval, coeff);
    }

    #[test]
    fn mul_requires_evaluation_form() {
        let b = basis(2);
        let x = random_poly(&b, 4);
        let y = random_poly(&b, 5);
        assert!(matches!(
            x.mul(&y, &b),
            Err(RnsError::WrongRepresentation { .. })
        ));
    }

    #[test]
    fn mul_matches_schoolbook_in_each_limb() {
        let b = basis(2);
        let mut x = random_poly(&b, 6);
        let mut y = random_poly(&b, 7);
        let x_coeff = x.clone();
        let y_coeff = y.clone();
        x.to_evaluation(&b);
        y.to_evaluation(&b);
        let mut prod = x.mul(&y, &b).unwrap();
        prod.to_coefficient(&b);
        for i in 0..b.len() {
            let expected = b
                .table(i)
                .negacyclic_multiply(x_coeff.limb(i), y_coeff.limb(i));
            assert_eq!(prod.limb(i), &expected[..]);
        }
    }

    #[test]
    fn from_signed_coeffs_reduces_into_each_limb() {
        let b = basis(3);
        let coeffs: Vec<i64> = (0..64).map(|i| if i % 2 == 0 { -i } else { i }).collect();
        let p = RnsPolynomial::from_signed_coeffs(&coeffs, &b, Representation::Coefficient);
        for (i, m) in b.moduli().iter().enumerate() {
            for (j, &c) in coeffs.iter().enumerate() {
                assert_eq!(p.limb(i)[j], m.reduce_i64(c));
            }
        }
    }

    #[test]
    fn automorphism_requires_coefficient_form() {
        let b = basis(2);
        let mut x = random_poly(&b, 8);
        x.to_evaluation(&b);
        assert!(x.automorphism(5, &b).is_err());
        x.to_coefficient(&b);
        assert!(x.automorphism(5, &b).is_ok());
    }

    #[test]
    fn automorphism_with_cached_map_matches_ad_hoc() {
        let b = basis(2);
        let x = random_poly(&b, 9);
        let map = AutomorphismMap::new(b.degree(), 5).unwrap();
        assert_eq!(
            x.automorphism(5, &b).unwrap(),
            x.automorphism_with_map(&map, &b).unwrap()
        );
        let wrong = AutomorphismMap::new(b.degree() * 2, 5).unwrap();
        assert!(x.automorphism_with_map(&wrong, &b).is_err());
    }

    #[test]
    fn mismatched_shapes_are_rejected() {
        let b2 = basis(2);
        let b3 = basis(3);
        let x = random_poly(&b2, 9);
        let y = random_poly(&b3, 10);
        assert!(matches!(x.add(&y, &b3), Err(RnsError::Mismatch { .. })));
        let mut z = random_poly(&b2, 11);
        z.to_evaluation(&b2);
        assert!(x.add(&z, &b2).is_err());
    }

    #[test]
    fn truncate_and_prefix() {
        let b = basis(4);
        let mut x = random_poly(&b, 12);
        let p = x.prefix(2).unwrap();
        assert_eq!(p.limb_count(), 2);
        x.truncate_limbs(3).unwrap();
        assert_eq!(x.limb_count(), 3);
        assert!(x.truncate_limbs(5).is_err());
        assert!(x.prefix(5).is_err());
    }

    #[test]
    fn push_limb_appends_a_row() {
        let b = basis(2);
        let mut x = random_poly(&b, 13);
        let row: Vec<u64> = (0..b.degree() as u64).collect();
        x.push_limb(&row);
        assert_eq!(x.limb_count(), 3);
        assert_eq!(x.limb(2), &row[..]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn prop_add_commutative(seed1 in any::<u64>(), seed2 in any::<u64>()) {
            let b = basis(2);
            let x = random_poly(&b, seed1);
            let y = random_poly(&b, seed2);
            prop_assert_eq!(x.add(&y, &b).unwrap(), y.add(&x, &b).unwrap());
        }

        #[test]
        fn prop_neg_is_additive_inverse(seed in any::<u64>()) {
            let b = basis(2);
            let x = random_poly(&b, seed);
            let z = x.add(&x.neg(&b), &b).unwrap();
            let zero = RnsPolynomial::zero(b.degree(), b.len(), Representation::Coefficient);
            prop_assert_eq!(z, zero);
        }

        #[test]
        fn prop_mul_commutative(seed1 in any::<u64>(), seed2 in any::<u64>()) {
            let b = basis(2);
            let mut x = random_poly(&b, seed1);
            let mut y = random_poly(&b, seed2);
            x.to_evaluation(&b);
            y.to_evaluation(&b);
            prop_assert_eq!(x.mul(&y, &b).unwrap(), y.mul(&x, &b).unwrap());
        }

        #[test]
        fn prop_flat_roundtrip(seed in any::<u64>()) {
            let b = basis(3);
            let p = random_poly(&b, seed);
            let q = RnsPolynomial::from_flat(p.degree(), p.data().to_vec(), p.representation());
            prop_assert_eq!(p, q);
        }
    }
}
