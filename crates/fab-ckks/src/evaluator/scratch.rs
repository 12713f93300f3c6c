//! The evaluator's scratch arena: a pool of recycled flat limb-major buffers plus the kernel
//! scratch of the key-switch hot path (see the module docs of [`super`]).

use fab_rns::{ops, Representation, RnsPolynomial};

/// Reusable flat-buffer pool + kernel scratch shared by the evaluator's hot paths.
#[derive(Debug, Default)]
pub(super) struct Scratch {
    /// Recycled flat limb-major buffers (capacity is retained across leases).
    pool: Vec<Vec<u64>>,
    /// Hoisted-product buffer for the basis-conversion kernels.
    pub(super) convert: ops::ConvertScratch,
    /// Per-digit hoisted-product buffers for the batched (digit-parallel) ModUp.
    pub(super) hoisted: Vec<Vec<u64>>,
    /// u128 KSKIP accumulator rows for the `b` key component (flat, `R·N`).
    pub(super) acc_b: Vec<u128>,
    /// u128 KSKIP accumulator rows for the `a` key component (flat, `R·N`).
    pub(super) acc_a: Vec<u128>,
}

/// Upper bound on pooled buffers; beyond this, recycled buffers are simply dropped.
const SCRATCH_POOL_LIMIT: usize = 32;

impl Scratch {
    /// Leases a zero-filled polynomial of the given shape from the pool.
    pub(super) fn lease_zero(
        &mut self,
        degree: usize,
        limb_count: usize,
        representation: Representation,
    ) -> RnsPolynomial {
        let mut buf = self.pool.pop().unwrap_or_default();
        buf.clear();
        buf.resize(degree * limb_count, 0);
        RnsPolynomial::from_flat(degree, buf, representation)
    }

    /// Leases a polynomial holding a copy of `src`.
    pub(super) fn lease_copy(&mut self, src: &RnsPolynomial) -> RnsPolynomial {
        let mut buf = self.pool.pop().unwrap_or_default();
        buf.clear();
        buf.extend_from_slice(src.data());
        RnsPolynomial::from_flat(src.degree(), buf, src.representation())
    }

    /// Returns a leased polynomial's buffer to the pool.
    pub(super) fn recycle(&mut self, poly: RnsPolynomial) {
        if self.pool.len() < SCRATCH_POOL_LIMIT {
            self.pool.push(poly.into_data());
        }
    }
}
