//! Requests: small homomorphic programs executed on behalf of a tenant.

use std::sync::Arc;

use fab_ckks::{
    Ciphertext, CkksContext, EvalBackend, Evaluator, ExecBackend, KeyProvider, KeyRef, PlanBackend,
    PlanCiphertext, Result,
};
use fab_trace::OpTrace;

use crate::tenant::TenantId;

/// One operation of a serving program. The surface is deliberately small: every op either
/// needs a switching key (square → relin, rotate/conjugate → Galois) or none (add), which is
/// exactly the structure the key cache and prefetcher care about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeOp {
    /// Squares the ciphertext (multiply + relinearise + rescale). Skipped at level 0, like
    /// every depth-spending op in a level-exhausted pipeline.
    Square,
    /// Rotates the slots left by this many positions. A rotation by a multiple of the slot
    /// count is free and needs no key.
    Rotate(usize),
    /// Conjugates every slot.
    Conjugate,
    /// Adds the ciphertext to itself (no key needed; keeps traces from being key-switch-only).
    AddSelf,
}

/// A serving program: an op list whose key-switch DAG is known before execution, which is
/// what makes trace-driven prefetch possible.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    ops: Vec<ServeOp>,
}

impl Program {
    /// Wraps an explicit op list.
    pub fn new(ops: Vec<ServeOp>) -> Self {
        Self { ops }
    }

    /// The ops in execution order.
    pub fn ops(&self) -> &[ServeOp] {
        &self.ops
    }

    /// Number of ops.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the program is empty.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// A deterministic pseudo-random program of `len` ops drawing rotations from
    /// `rotation_steps` (SplitMix64 over `seed`; no external RNG dependency).
    pub fn random(seed: u64, len: usize, rotation_steps: &[usize]) -> Self {
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let ops = (0..len)
            .map(|_| {
                let r = next();
                match r % 6 {
                    0 => ServeOp::Square,
                    1 => ServeOp::Conjugate,
                    2 => ServeOp::AddSelf,
                    _ if rotation_steps.is_empty() => ServeOp::AddSelf,
                    _ => {
                        let i = (r >> 8) as usize % rotation_steps.len();
                        ServeOp::Rotate(rotation_steps[i])
                    }
                }
            })
            .collect();
        Self { ops }
    }

    /// The one walk over the op list, written against the execute/plan seam: every skip rule
    /// lives here (a square at level 0 is a no-op like every depth-spending op of a
    /// level-exhausted pipeline; the free rotations are the backend's), so execution, the
    /// planned trace and the planned key stream cannot disagree about them.
    fn run<B: EvalBackend>(&self, backend: &B, input: &B::Ct) -> Result<B::Ct> {
        let mut ct = input.clone();
        for op in &self.ops {
            ct = match *op {
                ServeOp::Square if backend.level(&ct) == 0 => ct,
                ServeOp::Square => backend.multiply_rescale(&ct, &ct)?,
                ServeOp::Rotate(steps) => backend.rotate(&ct, steps)?,
                ServeOp::Conjugate => backend.conjugate(&ct)?,
                ServeOp::AddSelf => backend.add(&ct, &ct)?,
            };
        }
        Ok(ct)
    }

    /// The switching keys this program will demand, in execution order (with repeats):
    /// the key stream a [`PlanBackend`] records while it runs the program on a shadow
    /// ciphertext, so the prefetcher's view of the upcoming key-switch DAG is the planner's,
    /// not a second description of the evaluator.
    ///
    /// # Errors
    ///
    /// Same as [`Self::plan`].
    pub fn key_refs(&self, ctx: &Arc<CkksContext>, start_level: usize) -> Result<Vec<KeyRef>> {
        let backend = PlanBackend::new(ctx.clone(), "key stream");
        let shadow = PlanCiphertext::new(start_level, ctx.params().default_scale());
        self.run(&backend, &shadow)?;
        Ok(backend.into_key_refs())
    }

    /// Plans the program on shadow ciphertexts via [`PlanBackend`], producing the analytic
    /// [`OpTrace`] used for FAB cost-model pricing — the same walk as [`Self::execute`], so
    /// recorded and planned traces agree op-for-op.
    ///
    /// # Errors
    ///
    /// Propagates scale/level bookkeeping errors.
    pub fn plan(
        &self,
        ctx: &Arc<CkksContext>,
        start_level: usize,
        scale: f64,
        name: &str,
    ) -> Result<OpTrace> {
        let backend = PlanBackend::new(ctx.clone(), name);
        self.run(&backend, &PlanCiphertext::new(start_level, scale))?;
        Ok(backend.into_trace())
    }

    /// Executes the program on a real ciphertext, asking `provider` for every switching key
    /// at the moment of use. The output is bitwise independent of *where* the provider found
    /// each key (resident, cache hit, prefetch, cold miss).
    ///
    /// # Errors
    ///
    /// Propagates provider errors (missing/corrupt keys) and evaluator errors.
    pub fn execute(
        &self,
        evaluator: &Evaluator,
        provider: &dyn KeyProvider,
        input: &Ciphertext,
    ) -> Result<Ciphertext> {
        self.run(&ExecBackend::new(evaluator, provider), input)
    }
}

/// One queued serving request: a tenant, the program to run, and its encrypted input.
#[derive(Debug, Clone)]
pub struct Request {
    /// The requesting tenant (selects the key store).
    pub tenant: TenantId,
    /// The program to execute.
    pub program: Program,
    /// The encrypted input the program starts from.
    pub input: Ciphertext,
}
