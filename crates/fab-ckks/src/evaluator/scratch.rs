//! The evaluator's scratch arena: a pool of recycled flat limb-major buffers plus the kernel
//! scratch of the key-switch hot path (see the module docs of [`super`]).

use fab_rns::{ops, Representation, RnsError, RnsPolynomial};

/// Reusable flat-buffer pool + kernel scratch shared by the evaluator's hot paths.
#[derive(Debug, Default)]
pub(super) struct Scratch {
    /// Recycled flat limb-major buffers (capacity is retained across leases).
    pool: Vec<Vec<u64>>,
    /// Hoisted-product buffer for the basis-conversion kernels.
    pub(super) convert: ops::ConvertScratch,
    /// Per-digit hoisted-product buffers for the batched (digit-parallel) ModUp.
    pub(super) hoisted: Vec<Vec<u64>>,
}

/// Upper bound on pooled buffers; beyond this, recycled buffers are simply dropped.
const SCRATCH_POOL_LIMIT: usize = 32;

impl Scratch {
    /// Takes the pooled buffer that fits `len` words best: the smallest whose capacity covers
    /// it, else the largest (which then grows once). A last-in-first-out pop would let a
    /// raised-basis buffer leave the arena as a ciphertext part and keep its capacity.
    fn take(&mut self, len: usize) -> Vec<u64> {
        let best = (0..self.pool.len()).min_by_key(|&i| {
            let capacity = self.pool[i].capacity();
            if capacity >= len {
                (false, capacity)
            } else {
                (true, usize::MAX - capacity)
            }
        });
        let mut buf = best.map(|i| self.pool.swap_remove(i)).unwrap_or_default();
        buf.clear();
        buf
    }

    /// Leases a zero-filled polynomial of the given shape from the pool.
    pub(super) fn lease_zero(
        &mut self,
        degree: usize,
        limb_count: usize,
        representation: Representation,
    ) -> RnsPolynomial {
        let mut buf = self.take(degree * limb_count);
        buf.resize(degree * limb_count, 0);
        RnsPolynomial::from_flat(degree, buf, representation)
    }

    /// Leases a polynomial holding a copy of `src`.
    pub(super) fn lease_copy(&mut self, src: &RnsPolynomial) -> RnsPolynomial {
        self.lease_words(src, src.data())
    }

    /// Leases a polynomial holding a copy of the first `limbs` limbs of `src`.
    ///
    /// # Errors
    ///
    /// Returns [`RnsError::LimbOutOfRange`] if `src` holds fewer limbs.
    pub(super) fn lease_prefix(
        &mut self,
        src: &RnsPolynomial,
        limbs: usize,
    ) -> Result<RnsPolynomial, RnsError> {
        if limbs > src.limb_count() {
            return Err(RnsError::LimbOutOfRange {
                requested: limbs,
                available: src.limb_count(),
            });
        }
        Ok(self.lease_words(src, &src.data()[..src.degree() * limbs]))
    }

    /// Leases a polynomial of `like`'s degree and representation holding a copy of `words`.
    fn lease_words(&mut self, like: &RnsPolynomial, words: &[u64]) -> RnsPolynomial {
        let mut buf = self.take(words.len());
        buf.extend_from_slice(words);
        RnsPolynomial::from_flat(like.degree(), buf, like.representation())
    }

    /// Returns a leased polynomial's buffer to the pool.
    pub(super) fn recycle(&mut self, poly: RnsPolynomial) {
        if self.pool.len() < SCRATCH_POOL_LIMIT {
            self.pool.push(poly.into_data());
        }
    }
}
