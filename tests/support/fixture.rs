//! The `testing()` fixture the operation-cost checks (`op_accounting.rs`,
//! `ntt_accounting.rs`, `bytes_accounting.rs`) meter their ops on.

use std::sync::Arc;

use fab::ckks::accounting::Tally;
use fab::ckks::linear_transform::LinearTransform;
use fab::prelude::*;
use fab::rns::metering;
use rand::SeedableRng;
use rand_chacha::ChaCha20Rng;

/// Every op is metered at this level of `CkksParams::testing()` (4 limbs of `Q`).
pub const LEVEL: usize = 3;

/// Runs `run` and returns its result with what it charged to this thread's meter.
pub fn metered<T>(run: impl FnOnce() -> T) -> (T, Tally) {
    let before = metering::tally();
    let out = run();
    (out, metering::tally().since(&before))
}

/// A `testing()` context with its key generator, encryptor and evaluator.
pub struct Fixture {
    pub ctx: Arc<CkksContext>,
    pub rng: ChaCha20Rng,
    pub keygen: KeyGenerator,
    encoder: Encoder,
    encryptor: Encryptor,
    pub evaluator: Evaluator,
}

impl Fixture {
    pub fn new(seed: u64) -> Self {
        let ctx = CkksContext::new_arc(CkksParams::testing()).unwrap();
        let mut rng = ChaCha20Rng::seed_from_u64(seed);
        let keygen = KeyGenerator::new(ctx.clone(), SecretKey::generate(&ctx, &mut rng));
        let encryptor = Encryptor::new(ctx.clone(), keygen.public_key(&mut rng));
        Self {
            encoder: Encoder::new(ctx.clone()),
            evaluator: Evaluator::new(ctx.clone()),
            ctx,
            rng,
            keygen,
            encryptor,
        }
    }

    /// `(degree, limbs, special, alpha)`: the shape every formula takes at [`LEVEL`].
    pub fn shape(&self) -> (usize, usize, usize, usize) {
        let params = self.ctx.params();
        (
            self.ctx.degree(),
            LEVEL + 1,
            params.special_limbs(),
            params.alpha(),
        )
    }

    /// `count` sine samples encoded at the default scale and `level`.
    pub fn encode(&self, count: usize, level: usize) -> Plaintext {
        let values: Vec<f64> = (0..count).map(|i| (i as f64 * 0.3).sin()).collect();
        let scale = self.ctx.params().default_scale();
        self.encoder.encode_real(&values, scale, level).unwrap()
    }

    pub fn encrypt(&mut self, count: usize, level: usize) -> Ciphertext {
        let pt = self.encode(count, level);
        self.encryptor.encrypt(&pt, &mut self.rng).unwrap()
    }
}

/// A full-slot transform with the given diagonal offsets.
pub fn banded(slots: usize, offsets: impl IntoIterator<Item = usize>) -> LinearTransform {
    let diagonal = |d: usize| -> Vec<Complex64> {
        (0..slots)
            .map(|i| Complex64::new(((i + d) as f64 * 0.11).sin() * 0.4, 0.02 * d as f64))
            .collect()
    };
    LinearTransform::from_diagonals(
        slots,
        offsets.into_iter().map(|d| (d, diagonal(d))).collect(),
    )
}
