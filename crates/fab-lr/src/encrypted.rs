//! Encrypted logistic-regression training on the `fab-ckks` evaluator.
//!
//! The packing is HELR's (Han et al.): a whole mini-batch shares one ciphertext. With
//! `f = features.next_power_of_two()`, the encrypted weight `w_j` sits at every slot
//! `≡ j (mod f)`. The mini-batch is a plaintext: up to `slots / f` samples per chunk, sample
//! `b`'s features at slots `b·f .. b·f + f`, the chunk repeated across the slot vector. Each
//! row is signed by its label, `z_b = (2y_b − 1)·x_b`, so one iteration needs one sigmoid for
//! the whole chunk and no encrypted label: with `p(−t) = 1 − p(t)` the gradient step is
//! `w ← w + (lr/B)·Σ p(−w·z_b)·z_b`. Only the weights are encrypted; the rows and labels are
//! plaintext. The parameters are scaled down so an iteration runs in seconds in software;
//! the full-size workload is costed by the accelerator model in
//! [`crate::helr_iteration_workload`].

use std::sync::Arc;

use fab_ckks::backend::{EvalBackend, ExecBackend, PlanBackend, PlanCiphertext};
use fab_ckks::bootstrap::BootstrapParams;
use fab_ckks::{
    Bootstrapper, Ciphertext, CkksContext, CkksError, CkksParams, Decryptor, Encoder, Encryptor,
    Evaluator, GaloisKeys, KeyGenerator, KeyProvider, RelinearizationKey, SecretKey,
};
use fab_math::Complex64;
use fab_store::StorageBackend;
use fab_trace::{noop_sink, phase, OpTrace, TraceSink};
use rand::SeedableRng;
use rand_chacha::ChaCha20Rng;

use crate::checkpoint::TrainingCheckpoint;
use crate::plaintext::{SIGMOID_A1, SIGMOID_A3};
use crate::{polynomial_sigmoid, Dataset};

/// Periodic checkpointing policy for a training run: every `every_iterations` completed
/// iterations (and always at the final boundary) the weight state is written atomically and
/// durably to `name` on `backend` via [`TrainingCheckpoint::save_to`]; a resumed run reads
/// it back with [`TrainingCheckpoint::load_from`].
#[derive(Debug)]
pub struct CheckpointPolicy<'a> {
    /// Checkpoint cadence in iterations (≥ 1; 1 checkpoints every boundary).
    pub every_iterations: usize,
    /// Where checkpoints become durable. A real directory is
    /// [`fab_store::FileBackend::open`]`(dir)`.
    pub backend: &'a mut dyn StorageBackend,
    /// The checkpoint's file name on `backend`; `<name>.tmp` is the atomic-write staging
    /// area.
    pub name: &'a str,
}

/// Report of one encrypted training run.
#[derive(Debug, Clone)]
pub struct EncryptedTrainingReport {
    /// Decrypted weights after training (bias last).
    pub weights: Vec<f64>,
    /// Levels the first executed iteration consumed (0 when none ran).
    pub levels_per_iteration: usize,
    /// Training accuracy of the decrypted model on the provided dataset.
    pub training_accuracy: f64,
    /// Number of iterations executed.
    pub iterations: usize,
}

/// Encrypted logistic-regression trainer (scaled-down HELR).
pub struct EncryptedLogisticRegression {
    ctx: Arc<CkksContext>,
    encoder: Encoder,
    encryptor: Encryptor,
    decryptor: Decryptor,
    evaluator: Evaluator,
    rlk: RelinearizationKey,
    gks: GaloisKeys,
    rng: ChaCha20Rng,
    features: usize,
    /// Sparse-slot bootstrapper refreshing the weight ciphertext between iterations
    /// (see [`Self::with_bootstrapping`]); shares the trainer's trace sink.
    bootstrapper: Option<Bootstrapper>,
}

impl EncryptedLogisticRegression {
    /// Sets up keys and helper objects for `features` input dimensions.
    ///
    /// # Errors
    ///
    /// Propagates context/keygen errors.
    pub fn new(ctx: Arc<CkksContext>, features: usize, seed: u64) -> Result<Self, CkksError> {
        Self::with_sink(ctx, features, seed, noop_sink())
    }

    /// Sets up an *instrumented* trainer: every homomorphic operation of [`Self::train`] is
    /// reported to `sink`, phase-marked per pipeline step (`fab_trace::phase::LR_*`).
    ///
    /// # Errors
    ///
    /// Propagates context/keygen errors.
    pub fn with_sink(
        ctx: Arc<CkksContext>,
        features: usize,
        seed: u64,
        sink: Arc<dyn TraceSink>,
    ) -> Result<Self, CkksError> {
        Self::build(ctx, features, None, seed, sink)
    }

    /// Sets up a trainer whose weight ciphertext can be *refreshed between iterations* by a
    /// real sparse-slot bootstrap over `sparse_slots` slots ("a bootstrapping operation after
    /// every iteration", Section 5.5): the bootstrapper shares the trainer's trace sink, so
    /// [`Self::train_with_refresh`] records the serial part of the HELR iteration — sigmoid,
    /// update *and* bootstrap — end to end. `sparse_slots` must be a power of two at least
    /// `features`. The weights repeat every `features.next_power_of_two()` slots, so they are
    /// `sparse_slots`-periodic, the packing the sparse bootstrap takes, and the refresh
    /// returns them repeated across the slot vector, as an iteration reads them.
    ///
    /// # Errors
    ///
    /// Propagates context/keygen/bootstrapper-construction errors.
    pub fn with_bootstrapping(
        ctx: Arc<CkksContext>,
        features: usize,
        sparse_slots: usize,
        seed: u64,
        sink: Arc<dyn TraceSink>,
    ) -> Result<Self, CkksError> {
        Self::build(ctx, features, Some(sparse_slots), seed, sink)
    }

    fn build(
        ctx: Arc<CkksContext>,
        features: usize,
        sparse_slots: Option<usize>,
        seed: u64,
        sink: Arc<dyn TraceSink>,
    ) -> Result<Self, CkksError> {
        let mut rng = ChaCha20Rng::seed_from_u64(seed);
        let sk = SecretKey::generate(&ctx, &mut rng);
        let keygen = KeyGenerator::new(ctx.clone(), sk.clone());
        let pk = keygen.public_key(&mut rng);
        let rlk = keygen.relinearization_key(&mut rng);
        let bootstrapper = match sparse_slots {
            Some(slots) => {
                if slots < features {
                    return Err(CkksError::InvalidInput {
                        reason: format!("sparse window {slots} cannot hold {features} features"),
                    });
                }
                let params = refresh_params(ctx.params(), slots);
                Some(Bootstrapper::with_sink(ctx.clone(), params, sink.clone())?)
            }
            None => None,
        };
        // Rotations by powers of two cover the inner-product sum tree over the full slot
        // vector (every slot beyond the feature window is zero, so the cyclic total equals the
        // inner product and is broadcast to every slot); a bootstrapper adds its own
        // BSGS-decomposed stage offsets, the SubSum ladder and the conjugation key.
        let mut steps = Vec::new();
        let mut s = 1usize;
        while s < ctx.slot_count() {
            steps.push(s);
            s *= 2;
        }
        if let Some(b) = &bootstrapper {
            steps.extend(b.required_rotations());
        }
        let gks = keygen.galois_keys(&steps, bootstrapper.is_some(), &mut rng)?;
        Ok(Self {
            encoder: Encoder::new(ctx.clone()),
            encryptor: Encryptor::new(ctx.clone(), pk),
            decryptor: Decryptor::new(ctx.clone(), sk),
            evaluator: Evaluator::with_sink(ctx.clone(), sink),
            ctx,
            rlk,
            gks,
            rng,
            features,
            bootstrapper,
        })
    }

    /// The scheme context in use.
    pub fn context(&self) -> &Arc<CkksContext> {
        &self.ctx
    }

    /// The evaluator (and through it the trace sink) this trainer executes on.
    pub fn evaluator(&self) -> &Evaluator {
        &self.evaluator
    }

    /// The sparse-slot bootstrapper refreshing the weights, when configured.
    pub fn bootstrapper(&self) -> Option<&Bootstrapper> {
        self.bootstrapper.as_ref()
    }

    /// Trains for `iterations` mini-batch iterations of `batch_size` samples and returns the
    /// decrypted model. Each iteration consumes a fixed number of levels; the caller must
    /// provide enough levels in the context (`iterations × 5 + 1`) — in the full system a
    /// bootstrapping operation would refresh the weights each iteration instead
    /// (Section 5.5).
    ///
    /// # Errors
    ///
    /// Returns [`CkksError::InvalidInput`] for an empty dataset or one whose feature count is
    /// not the trainer's, and propagates scheme errors (including level exhaustion if too
    /// many iterations are requested for the parameter set).
    pub fn train(
        &mut self,
        data: &Dataset,
        iterations: usize,
        batch_size: usize,
        learning_rate: f64,
    ) -> Result<EncryptedTrainingReport, CkksError> {
        self.train_inner(
            data,
            iterations,
            batch_size,
            learning_rate,
            false,
            None,
            None,
        )
    }

    /// Trains like [`Self::train`] but refreshes the weight ciphertext with a real sparse-slot
    /// bootstrap between iterations, so the level budget no longer bounds the iteration count
    /// — the full-system behaviour of Section 5.5, recorded end to end through the shared
    /// trace sink. Requires a trainer built by [`Self::with_bootstrapping`].
    ///
    /// # Errors
    ///
    /// Returns [`CkksError::InvalidInput`] if no bootstrapper is configured, and otherwise as
    /// [`Self::train`].
    pub fn train_with_refresh(
        &mut self,
        data: &Dataset,
        iterations: usize,
        batch_size: usize,
        learning_rate: f64,
    ) -> Result<EncryptedTrainingReport, CkksError> {
        self.require_bootstrapper()?;
        self.train_inner(
            data,
            iterations,
            batch_size,
            learning_rate,
            true,
            None,
            None,
        )
    }

    /// [`Self::train_with_refresh`] with periodic durable checkpoints: after every
    /// `policy.every_iterations` completed iterations (and at the final boundary) the
    /// post-update weight ciphertext is written atomically to `policy.name` on
    /// `policy.backend`, so a killed process loses at most `every_iterations − 1` iterations
    /// of work.
    ///
    /// # Errors
    ///
    /// As [`Self::train_with_refresh`]; checkpoint I/O failures surface as
    /// [`CkksError::Io`] (training state is unaffected — the previous checkpoint,
    /// if any, is still intact).
    pub fn train_with_refresh_checkpointed(
        &mut self,
        data: &Dataset,
        iterations: usize,
        batch_size: usize,
        learning_rate: f64,
        policy: CheckpointPolicy<'_>,
    ) -> Result<EncryptedTrainingReport, CkksError> {
        self.require_bootstrapper()?;
        self.train_inner(
            data,
            iterations,
            batch_size,
            learning_rate,
            true,
            None,
            Some(policy),
        )
    }

    /// Resumes an interrupted [`Self::train_with_refresh_checkpointed`] run from the
    /// checkpoint `policy.name` on `policy.backend` and trains through iteration
    /// `iterations`, continuing to checkpoint under `policy`. A trainer built with the same seed, context and features
    /// reproduces the interrupted run's key material exactly, so the resumed run's final
    /// weights decrypt **bitwise identical** to an uninterrupted run — the property
    /// `tests/checkpoint_resume.rs` pins at every kill boundary.
    ///
    /// # Errors
    ///
    /// [`CkksError::Io`] when the checkpoint is unreadable; [`CkksError::InvalidInput`]
    /// when it claims more iterations than `iterations`; [`CkksError::CorruptSnapshot`]
    /// when its bytes fail validation; otherwise as [`Self::train_with_refresh`].
    pub fn resume_with_refresh_checkpointed(
        &mut self,
        data: &Dataset,
        iterations: usize,
        batch_size: usize,
        learning_rate: f64,
        policy: CheckpointPolicy<'_>,
    ) -> Result<EncryptedTrainingReport, CkksError> {
        self.require_bootstrapper()?;
        let checkpoint = TrainingCheckpoint::load_from(policy.backend, policy.name, &self.ctx)?;
        if checkpoint.iteration > iterations {
            return Err(CkksError::InvalidInput {
                reason: format!(
                    "checkpoint is at iteration {} but only {} were requested",
                    checkpoint.iteration, iterations
                ),
            });
        }
        self.train_inner(
            data,
            iterations,
            batch_size,
            learning_rate,
            true,
            Some(checkpoint),
            Some(policy),
        )
    }

    /// The entry guard of every refreshing trainer: one built by [`Self::with_bootstrapping`].
    fn require_bootstrapper(&self) -> Result<(), CkksError> {
        if self.bootstrapper.is_none() {
            return Err(CkksError::InvalidInput {
                reason: "trainer was built without a bootstrapper (use with_bootstrapping)".into(),
            });
        }
        Ok(())
    }

    #[allow(clippy::too_many_arguments)]
    fn train_inner(
        &mut self,
        data: &Dataset,
        iterations: usize,
        batch_size: usize,
        learning_rate: f64,
        refresh: bool,
        resume_from: Option<TrainingCheckpoint>,
        mut checkpoint: Option<CheckpointPolicy<'_>>,
    ) -> Result<EncryptedTrainingReport, CkksError> {
        if data.is_empty() {
            return Err(CkksError::InvalidInput {
                reason: "cannot train on an empty dataset".into(),
            });
        }
        let scale = self.ctx.params().default_scale();
        let top_level = self.ctx.params().max_level;
        let slots = self.ctx.slot_count();
        if self.features > slots {
            return Err(CkksError::InvalidInput {
                reason: format!(
                    "{} features exceed the {} available slots",
                    self.features, slots
                ),
            });
        }
        if data.feature_count() != self.features {
            return Err(CkksError::InvalidInput {
                reason: format!(
                    "the dataset has {} features, the trainer {}",
                    data.feature_count(),
                    self.features
                ),
            });
        }

        // Checkpoints hold the post-update, *pre-refresh* weights of their boundary, so a
        // resumed run first replays the refresh the straight-through run would have done
        // there (when more iterations follow) — the bitwise-equality invariant depends on
        // both runs refreshing the identical ciphertext.
        let (start_iter, mut ct_weights) = match resume_from {
            Some(cp) => {
                let mut weights = cp.weights;
                if refresh && cp.iteration > 0 && cp.iteration < iterations {
                    weights = self.refresh_weights(&weights, &(&self.rlk, &self.gks))?;
                }
                (cp.iteration, weights)
            }
            None => {
                // Encrypted weight vector, initialised to zero.
                let zero = vec![0.0f64; self.features];
                let fresh = self.encryptor.encrypt(
                    &self.encoder.encode_real(&zero, scale, top_level)?,
                    &mut self.rng,
                )?;
                (0, fresh)
            }
        };

        let batches: Vec<(Vec<Vec<f64>>, Vec<f64>)> = data
            .batches(batch_size)
            .map(|(rows, labels)| (rows.iter().map(|r| r.to_vec()).collect(), labels))
            .collect();
        let keys = (&self.rlk, &self.gks);
        let backend = ExecBackend::new(&self.evaluator, &keys);
        let mut levels_per_iteration = 0;
        for iter in start_iter..iterations {
            let (rows, labels) = &batches[iter % batches.len()];
            let level_before = ct_weights.level();
            ct_weights = train_iteration_with(
                &backend,
                &ct_weights,
                self.features,
                rows,
                labels,
                learning_rate,
            )?;
            if iter == start_iter {
                levels_per_iteration = level_before - ct_weights.level();
            }
            if let Some(policy) = &mut checkpoint {
                let done = iter + 1;
                if done % policy.every_iterations.max(1) == 0 || done == iterations {
                    TrainingCheckpoint {
                        iteration: done,
                        weights: ct_weights.clone(),
                    }
                    .save_to(policy.backend, policy.name, &self.ctx)?;
                }
            }
            if refresh && iter + 1 < iterations {
                ct_weights = self.refresh_weights(&ct_weights, &keys)?;
            }
        }

        // Decrypt the model and evaluate it in the clear.
        let decoded = self
            .encoder
            .decode_real(&self.decryptor.decrypt(&ct_weights)?);
        let mut weights = decoded[..self.features].to_vec();
        weights.push(0.0); // bias not modelled in the encrypted circuit
        let accuracy = plaintext_accuracy(&weights, data);
        Ok(EncryptedTrainingReport {
            weights,
            levels_per_iteration,
            training_accuracy: accuracy,
            iterations,
        })
    }

    /// Runs the refresh on the weight ciphertext: [`exhaust_for_refresh`], then the real
    /// sparse-slot bootstrap.
    fn refresh_weights(
        &self,
        ct: &Ciphertext,
        keys: &dyn KeyProvider,
    ) -> Result<Ciphertext, CkksError> {
        let bootstrapper = self
            .bootstrapper
            .as_ref()
            .expect("refresh_weights requires a bootstrapper");
        let backend = ExecBackend::new(&self.evaluator, keys);
        let exhausted = exhaust_for_refresh(&backend, ct)?;
        bootstrapper.bootstrap_with(&exhausted, keys)
    }
}

/// The bootstrap parameters of a refresh over a `window`-slot sparse packing:
/// [`BootstrapParams::sparse_for_scheme`], with the sub-FFT grouped into at most three stages
/// when the scheme sets none (one stage per butterfly level would spend a level per
/// butterfly, and training needs the budget back).
pub(crate) fn refresh_params(params: &CkksParams, window: usize) -> BootstrapParams {
    let mut bootstrap = BootstrapParams::sparse_for_scheme(params, window);
    if bootstrap.fft_iter == 0 {
        bootstrap.fft_iter = 3.min(window.trailing_zeros().max(1) as usize);
    }
    bootstrap
}

/// The refresh's step before the bootstrap: aligns the weights to the default scale and
/// exhausts the remaining levels. The weights repeat every `features.next_power_of_two()`
/// slots, which divides the bootstrap's window, so they are already the periodic vector the
/// sparse bootstrap takes, and it returns them in the same layout.
pub(crate) fn exhaust_for_refresh<B: EvalBackend>(
    backend: &B,
    weights: &B::Ct,
) -> Result<B::Ct, CkksError> {
    backend.begin_phase(phase::LR_REFRESH);
    let aligned = backend.match_scale(weights, backend.ctx().params().default_scale())?;
    backend.mod_drop_to_level(&aligned, 0)
}

/// One encrypted mini-batch iteration, written once against the execute/plan seam of
/// `fab-ckks` (see `fab_ckks::backend`): under an [`ExecBackend`] it trains on real
/// ciphertexts; under a [`PlanBackend`] it produces the analytic operation trace of the same
/// control flow. Per chunk of samples (see [`BatchLayout`]) it runs the forward product, the
/// aggregation, the sigmoid and the gradient product, each phase-marked; the chunks' gradients
/// are summed over the batch and added to the weights. An iteration spends 5 levels however
/// many samples share a chunk, and every rotation is a left rotation by a power of two below
/// the slot count, so the power-of-two key set covers it.
fn train_iteration_with<B: EvalBackend>(
    backend: &B,
    weights: &B::Ct,
    features: usize,
    rows: &[Vec<f64>],
    labels: &[f64],
    learning_rate: f64,
) -> Result<B::Ct, CkksError> {
    let ctx = backend.ctx();
    let layout = BatchLayout::new(features, rows.len(), ctx.slot_count());
    let signed: Vec<Vec<f64>> = rows
        .iter()
        .zip(labels)
        .map(|(row, &label)| row.iter().map(|x| (2.0 * label - 1.0) * x).collect())
        .collect();
    let step = learning_rate / rows.len() as f64;
    let mask = layout.mask();
    let mut gradient: Option<B::Ct> = None;
    for chunk in signed.chunks(layout.chunk) {
        // Slot b·f + j holds w_j·z_{b,j}.
        backend.begin_phase(phase::LR_FORWARD);
        let prime = ctx.rescale_prime(backend.level(weights)) as f64;
        let prod = backend.multiply_real_slots(weights, &layout.forward(chunk), prime)?;
        let prod = backend.rescale(&prod)?;
        // Slot b·f now holds u_b = w·z_b.
        backend.begin_phase(phase::LR_AGGREGATE);
        let u = rotate_sum_with(backend, &prod, 1, layout.width)?;
        // m ⊙ (p(−u) − ½) = (m ⊙ u)·(−a₃u² − a₁), with the mask m (1 at multiples of f)
        // applied at the depth of u² so it costs no level.
        backend.begin_phase(phase::LR_SIGMOID);
        let u_sq = backend.multiply_rescale(&u, &u)?;
        let prime = ctx.rescale_prime(backend.level(&u)) as f64;
        let masked = backend.rescale(&backend.multiply_real_slots(&u, &mask, prime)?)?;
        let inner = backend.multiply_scalar(&u_sq, Complex64::new(-SIGMOID_A3, 0.0))?;
        let inner = backend.add_scalar(&inner, Complex64::new(-SIGMOID_A1, 0.0))?;
        let masked = backend.mod_drop_to_level(&masked, backend.level(&inner))?;
        let centred = backend.multiply_rescale(&masked, &inner)?;
        // Spread p(−u_b) over the slots b·f − f + 1 ..= b·f and multiply by (lr/B)·z_b laid
        // out to match (see `BatchLayout::gradient`), encoded so the rescaled product lands
        // on the weights' scale and the update spends no level matching scales.
        backend.begin_phase(phase::LR_GRADIENT);
        let spread = rotate_sum_with(backend, &centred, 1, layout.width)?;
        let error = backend.add_scalar(&spread, Complex64::new(0.5, 0.0))?;
        let prime = ctx.rescale_prime(backend.level(&error)) as f64;
        let pt_scale = backend.scale(weights) * prime / backend.scale(&error);
        let contribution =
            backend.multiply_real_slots(&error, &layout.gradient(chunk, step), pt_scale)?;
        let contribution = backend.rescale(&contribution)?;
        gradient = Some(match gradient {
            None => contribution,
            Some(prev) => backend.add(&prev, &contribution)?,
        });
    }
    // Sum the samples of a chunk: every slot ≡ j (mod f) then holds Δw_j. The sum and the
    // update run once per batch, so they open `LR_UPDATE`, where the Table 8 model splits
    // the per-chunk (data-parallel) part from the serial part.
    backend.begin_phase(phase::LR_UPDATE);
    let gradient = gradient.expect("non-empty batch");
    let gradient = rotate_sum_with(backend, &gradient, layout.width, layout.period)?;
    // w ← w + (lr/B)·Σ p(−u_b)·z_b.
    let (w_aligned, g_aligned) = backend.align_for_addition(weights, &gradient)?;
    backend.add(&w_aligned, &g_aligned)
}

/// Where a packed mini-batch sits in the slot vector: sample `b` of a chunk occupies the
/// `width` slots from `b·width`, a chunk holds `chunk` samples (the batch rounded up to a
/// power of two, zero rows as padding, at most `slots / width`), and the chunk repeats with
/// `period = width·chunk` across the slot vector.
struct BatchLayout {
    width: usize,
    chunk: usize,
    period: usize,
    slots: usize,
}

impl BatchLayout {
    fn new(features: usize, batch: usize, slots: usize) -> Self {
        let width = features.next_power_of_two();
        let chunk = batch.next_power_of_two().min(slots / width);
        Self {
            width,
            chunk,
            period: width * chunk,
            slots,
        }
    }

    /// The chunk's rows at the forward layout: slot `b·width + j` holds `rows[b][j]`.
    fn forward(&self, rows: &[Vec<f64>]) -> Vec<f64> {
        self.place(rows, 1.0, |slot| slot / self.width)
    }

    /// `factor` times the chunk's rows at the gradient layout: the aggregation tree leaves
    /// `u_b` at slot `b·width` alone, and a second tree copies it to the `width` slots ending
    /// there, `b·width − width + 1 ..= b·width`. Each of those slots gets the feature of
    /// `rows[b]` that matches its residue mod `width`, so the product is already aligned
    /// with the weights and needs no rotation back.
    fn gradient(&self, rows: &[Vec<f64>], factor: f64) -> Vec<f64> {
        self.place(rows, factor, |slot| slot.div_ceil(self.width) % self.chunk)
    }

    /// 1 at every multiple of `width`, where the aggregation leaves a sample's inner product.
    fn mask(&self) -> Vec<f64> {
        (0..self.slots)
            .map(|slot| if slot % self.width == 0 { 1.0 } else { 0.0 })
            .collect()
    }

    /// `factor·rows[sample(slot mod period)][slot mod width]` in every slot, zero past a row's
    /// end or the chunk's last row.
    fn place(&self, rows: &[Vec<f64>], factor: f64, sample: impl Fn(usize) -> usize) -> Vec<f64> {
        (0..self.slots)
            .map(|slot| {
                rows.get(sample(slot % self.period))
                    .and_then(|row| row.get(slot % self.width))
                    .map_or(0.0, |x| factor * x)
            })
            .collect()
    }
}

/// Rotate-and-add tree over the steps `first, 2·first, …` below `end` (powers of two): slot
/// `i` ends up holding `Σ_k ct[i + k·first]` for `k < end / first`. Each rotation acts on the
/// freshly updated accumulator, so no decomposition sharing is possible — these are full
/// rotations.
fn rotate_sum_with<B: EvalBackend>(
    backend: &B,
    ct: &B::Ct,
    first: usize,
    end: usize,
) -> Result<B::Ct, CkksError> {
    let mut acc = ct.clone();
    let mut step = first;
    while step < end {
        let rotated = backend.rotate(&acc, step)?;
        acc = backend.add(&acc, &rotated)?;
        step *= 2;
    }
    Ok(acc)
}

/// The *analytic* operation trace of one encrypted LR iteration at the given context: the
/// training control flow executed on shadow `(level, scale)` ciphertexts. A recorded real
/// iteration (train via [`EncryptedLogisticRegression::with_sink`]) must agree op-for-op;
/// the crate's tests enforce the equivalence.
///
/// # Errors
///
/// Propagates (shadow) level errors if the parameter set cannot carry an iteration.
pub fn planned_iteration_trace(
    ctx: &Arc<CkksContext>,
    features: usize,
    batch_size: usize,
    learning_rate: f64,
) -> Result<OpTrace, CkksError> {
    let plan = PlanBackend::new(
        ctx.clone(),
        format!("helr iteration predicted(features={features}, batch={batch_size})"),
    );
    let top = ctx.params().max_level;
    plan_iteration(&plan, top, features, batch_size, learning_rate)?;
    Ok(plan.into_trace())
}

/// Plans one iteration of `batch_size` samples from weights at `level` on `plan`.
pub(crate) fn plan_iteration(
    plan: &PlanBackend,
    level: usize,
    features: usize,
    batch_size: usize,
    learning_rate: f64,
) -> Result<PlanCiphertext, CkksError> {
    let weights = PlanCiphertext::new(level, plan.ctx().params().default_scale());
    // Row values are irrelevant to the plan; only the shapes drive the control flow.
    let rows = vec![vec![0.0f64; features]; batch_size];
    let labels = vec![0.0f64; batch_size];
    train_iteration_with(plan, &weights, features, &rows, &labels, learning_rate)
}

fn plaintext_accuracy(weights: &[f64], data: &Dataset) -> f64 {
    let mut correct = 0usize;
    for i in 0..data.len() {
        let (row, label) = data.sample(i);
        let mut z = weights[weights.len() - 1];
        for (w, x) in weights.iter().zip(row) {
            z += w * x;
        }
        let predicted = if polynomial_sigmoid(z.clamp(-8.0, 8.0)) >= 0.5 {
            1.0
        } else {
            0.0
        };
        if (predicted - label).abs() < 0.5 {
            correct += 1;
        }
    }
    correct as f64 / data.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic_mnist_like;
    use fab_trace::HeOp;

    fn context() -> Arc<CkksContext> {
        // A few extra levels over the testing set so two encrypted iterations fit.
        let params = CkksParams::builder()
            .log_n(12)
            .scale_bits(40)
            .first_prime_bits(60)
            .max_level(12)
            .dnum(4)
            .secret_hamming_weight(Some(64))
            .security_bits(0)
            .build()
            .unwrap();
        CkksContext::new_arc(params).unwrap()
    }

    #[test]
    fn encrypted_training_matches_plaintext_training_direction() {
        let features = 16;
        let data = synthetic_mnist_like(64, features, 17);
        let ctx = context();
        let mut encrypted = EncryptedLogisticRegression::new(ctx, features, 3).unwrap();
        let report = encrypted.train(&data, 2, 16, 1.0).unwrap();
        assert_eq!(report.iterations, 2);
        assert_eq!(report.weights.len(), features + 1);
        assert_eq!(report.levels_per_iteration, 5);
        // The learned (decrypted) model must beat chance on the training data.
        assert!(
            report.training_accuracy > 0.6,
            "encrypted model accuracy {}",
            report.training_accuracy
        );

        // Compare against a plaintext run with the same structure: the weight vectors must
        // point in a broadly similar direction (positive cosine similarity).
        let mut plain = crate::LogisticRegressionTrainer::new(
            features,
            crate::TrainingConfig {
                iterations: 2,
                batch_size: 16,
                learning_rate: 1.0,
                nesterov: false,
                polynomial_sigmoid: true,
            },
        );
        plain.train(&data);
        let pw = &plain.weights()[..features];
        let ew = &report.weights[..features];
        let dot: f64 = pw.iter().zip(ew).map(|(a, b)| a * b).sum();
        let norm_p: f64 = pw.iter().map(|a| a * a).sum::<f64>().sqrt();
        let norm_e: f64 = ew.iter().map(|a| a * a).sum::<f64>().sqrt();
        let cosine = dot / (norm_p * norm_e).max(1e-12);
        assert!(
            cosine > 0.5,
            "encrypted and plaintext gradients disagree: cosine {cosine}"
        );
    }

    #[test]
    fn recorded_iteration_matches_planned_trace_exactly() {
        // Closed loop for the HELR workload: really train one encrypted iteration through the
        // instrumented evaluator and compare the recorded op stream with the analytic plan of
        // the same control flow — exact equality, including phases and levels.
        let features = 16;
        let batch = 4;
        let data = synthetic_mnist_like(8, features, 5);
        let ctx = context();
        let sink = fab_trace::RecordingSink::shared("recorded iteration");
        let mut trainer =
            EncryptedLogisticRegression::with_sink(ctx.clone(), features, 7, sink.clone()).unwrap();
        trainer.train(&data, 1, batch, 1.0).unwrap();
        let recorded = sink.take();
        let planned = planned_iteration_trace(&ctx, features, batch, 1.0).unwrap();

        assert_eq!(recorded.phase_labels(), planned.phase_labels());
        for ((rl, rc), (pl, pc)) in recorded
            .phase_counts()
            .iter()
            .zip(planned.phase_counts().iter())
        {
            assert_eq!(rl, pl);
            assert_eq!(rc, pc, "per-phase op counts diverge in {rl}");
        }
        assert_eq!(recorded.ops, planned.ops);
        // The whole batch shares one chunk: four phases once, then the update.
        assert_eq!(recorded.phase_labels().len(), 5);
    }

    #[test]
    fn bootstrapped_training_records_the_serial_part_end_to_end() {
        // Two encrypted iterations with a *real* sparse-slot bootstrap of the weight
        // ciphertext in between: the full serial part of the HELR iteration — sigmoid, update
        // and refresh — lands in one recorded trace, and the embedded bootstrap matches
        // the bootstrapper's planned trace op for op.
        let features = 16;
        let data = synthetic_mnist_like(32, features, 17);
        let ctx = CkksContext::new_arc(CkksParams::bootstrap_testing()).unwrap();
        let sink = fab_trace::RecordingSink::shared("recorded refresh training");
        let mut trainer =
            EncryptedLogisticRegression::with_bootstrapping(ctx, features, 64, 3, sink.clone())
                .unwrap();
        let report = trainer.train_with_refresh(&data, 2, 8, 1.0).unwrap();
        assert_eq!(report.iterations, 2);
        assert_eq!(report.levels_per_iteration, 5);
        // The refreshed model still learned: better than chance on the training data.
        assert!(
            report.training_accuracy > 0.55,
            "accuracy after refreshed training: {}",
            report.training_accuracy
        );

        let recorded = sink.take();
        let labels = recorded.phase_labels();
        // Iteration phases, then the refresh (its level drop + the five bootstrap phases), then
        // the second iteration's phases.
        let refresh_at = labels
            .iter()
            .position(|&l| l == phase::LR_REFRESH)
            .expect("refresh phase recorded");
        assert_eq!(
            &labels[refresh_at..refresh_at + 6],
            &[
                phase::LR_REFRESH,
                fab_trace::phase::MOD_RAISE,
                fab_trace::phase::SUB_SUM,
                fab_trace::phase::COEFF_TO_SLOT,
                fab_trace::phase::EVAL_MOD,
                fab_trace::phase::SLOT_TO_COEFF,
            ]
        );
        assert!(labels[refresh_at + 6..].contains(&phase::LR_FORWARD));
        // The recorded bootstrap equals its plan op for op, phase by phase.
        let predicted = trainer.bootstrapper().unwrap().predicted_trace().unwrap();
        for label in [
            fab_trace::phase::MOD_RAISE,
            fab_trace::phase::SUB_SUM,
            fab_trace::phase::COEFF_TO_SLOT,
            fab_trace::phase::EVAL_MOD,
        ] {
            assert_eq!(
                recorded.phase_ops(label).unwrap(),
                predicted.phase_ops(label).unwrap(),
                "recorded and planned bootstrap diverge in {label}"
            );
        }
        // SLOT_TO_COEFF runs up to the next phase marker in the recorded trace (the second
        // iteration's forward pass), so compare it by prefix.
        let recorded_stc = recorded.phase_ops(fab_trace::phase::SLOT_TO_COEFF).unwrap();
        let predicted_stc = predicted
            .phase_ops(fab_trace::phase::SLOT_TO_COEFF)
            .unwrap();
        assert_eq!(&recorded_stc[..predicted_stc.len()], predicted_stc);
    }

    #[test]
    fn one_iteration_with_refresh_demands_the_planned_keys() {
        // Demanded == planned for the HELR pipeline: one iteration on fresh weights, then the
        // refresh, through a recording provider — the keys it was asked for are the planned
        // iteration's key stream followed by the bootstrapper's, element for element. The
        // weights start at `levels_after_bootstrap()`, as the Table 8 model starts them, so
        // the ops it records are the trace the model prices at this shape. The scheme's ﬀtIter
        // is the refresh's three stages, so that formula counts the stages that are built.
        use crate::recording_keys::RecordingKeys;
        let (features, batch, window) = (16, 2, 64);
        let data = synthetic_mnist_like(batch, features, 17);
        let params = CkksParams {
            fft_iter: 3,
            ..CkksParams::bootstrap_testing()
        };
        let ctx = CkksContext::new_arc(params).unwrap();
        let sink = fab_trace::RecordingSink::shared("recorded iteration + refresh");
        let mut trainer = EncryptedLogisticRegression::with_bootstrapping(
            ctx.clone(),
            features,
            window,
            3,
            sink.clone(),
        )
        .unwrap();
        let (scale, level) = (
            ctx.params().default_scale(),
            ctx.params().levels_after_bootstrap(),
        );
        let zero = trainer
            .encoder
            .encode_real(&[0.0; 16], scale, level)
            .unwrap();
        let weights = trainer.encryptor.encrypt(&zero, &mut trainer.rng).unwrap();
        let (rows, labels) = data.batches(batch).next().unwrap();
        let rows: Vec<Vec<f64>> = rows.iter().map(|r| r.to_vec()).collect();

        let resident = (&trainer.rlk, &trainer.gks);
        let demanded = RecordingKeys::new(&resident);
        let backend = ExecBackend::new(&trainer.evaluator, &demanded);
        let updated =
            train_iteration_with(&backend, &weights, features, &rows, &labels, 1.0).unwrap();
        let plan = PlanBackend::new(ctx.clone(), "planned iteration");
        let shadow = PlanCiphertext::new(weights.level(), weights.scale());
        train_iteration_with(&plan, &shadow, features, &rows, &labels, 1.0).unwrap();
        let planned = plan.into_key_refs();
        assert!(planned.contains(&fab_ckks::KeyRef::Relin));
        assert_eq!(demanded.take(), planned);

        trainer.refresh_weights(&updated, &demanded).unwrap();
        let bootstrapper = trainer.bootstrapper().unwrap();
        assert_eq!(demanded.take(), bootstrapper.predicted_key_refs().unwrap());

        let task = fab_core::baselines::HelrTask {
            features,
            batch_size: batch,
            slots: window,
            ..fab_core::baselines::HELR_TASK
        };
        let (mut modelled, serial) = crate::helr_iteration_workload(ctx.params(), &task);
        modelled.extend(&serial);
        let recorded = sink.take();
        assert_eq!(recorded.phase_labels(), modelled.phase_labels());
        assert_eq!(recorded.ops, modelled.ops);
    }

    #[test]
    #[ignore = "160 refreshed trainings, about two minutes in release; run with --ignored --nocapture"]
    fn refresh_sweep_over_160_seeds_never_fails() {
        // The `helr_refresh` benchmark's shape — 16 features in 64 sparse slots, 32 samples,
        // two iterations of batch 8 with one refresh between them, trainer and data on one
        // seed — over seeds 0..160, printing the seeds whose refresh leaves the EvalMod range
        // and returns weights above 8 in magnitude. There must be none. Which seeds could fail
        // is fixed by the encryption randomness, which the trainer draws after its Galois keys
        // from the same stream.
        let ctx = CkksContext::new_arc(CkksParams::bootstrap_testing()).unwrap();
        let failing: Vec<u64> = (0..160u64)
            .filter(|&seed| {
                let data = synthetic_mnist_like(32, 16, seed);
                let mut trainer = EncryptedLogisticRegression::with_bootstrapping(
                    ctx.clone(),
                    16,
                    64,
                    seed,
                    noop_sink(),
                )
                .unwrap();
                let report = trainer.train_with_refresh(&data, 2, 8, 1.0).unwrap();
                report.weights.iter().any(|w| w.abs() > 8.0)
            })
            .collect();
        println!("seeds whose refresh returns |w| > 8: {failing:?}");
        assert!(failing.is_empty(), "seeds {failing:?} of 0..160 failed");
    }

    /// Trains one packed iteration of `batch` samples on real ciphertexts at `ctx`, from
    /// nonzero weights repeated every `f` slots, and returns the precision in bits of every
    /// decrypted slot against the update computed from the definition, sample by sample:
    /// `w − (lr/B)·Σ_b (p(w·x_b) − y_b)·x_b`. Also pins the recorded trace to the plan and
    /// the plan to its exact counts: `2·log2 f + log2 C` rotations and two ciphertext
    /// multiplies per chunk of `C = min(B', slots/f)` samples.
    fn packed_iteration_precision_bits(
        ctx: Arc<CkksContext>,
        features: usize,
        batch: usize,
    ) -> f64 {
        let (f, slots, lr) = (features.next_power_of_two(), ctx.slot_count(), 0.5);
        let data = synthetic_mnist_like(batch, features, 23);
        let (rows, labels) = data.batches(batch).next().unwrap();
        let rows: Vec<Vec<f64>> = rows.iter().map(|r| r.to_vec()).collect();
        let mut w: Vec<f64> = (0..features)
            .map(|j| 0.8 * (1.7 * j as f64).sin() / (features as f64).sqrt())
            .collect();
        w.resize(f, 0.0);

        let sink = fab_trace::RecordingSink::shared("oracle iteration");
        let mut trainer =
            EncryptedLogisticRegression::with_sink(ctx.clone(), features, 5, sink.clone()).unwrap();
        let (scale, top) = (ctx.params().default_scale(), ctx.params().max_level);
        let repeated: Vec<f64> = (0..slots).map(|i| w[i % f]).collect();
        let pt = trainer.encoder.encode_real(&repeated, scale, top).unwrap();
        let ct = trainer.encryptor.encrypt(&pt, &mut trainer.rng).unwrap();
        let keys = (&trainer.rlk, &trainer.gks);
        let backend = ExecBackend::new(&trainer.evaluator, &keys);
        let updated = train_iteration_with(&backend, &ct, features, &rows, &labels, lr).unwrap();
        let decrypted = trainer
            .encoder
            .decode_real(&trainer.decryptor.decrypt(&updated).unwrap());

        let mut want = w.clone();
        for (row, &y) in rows.iter().zip(&labels) {
            let margin: f64 = row.iter().zip(&w).map(|(x, w)| x * w).sum();
            let error = polynomial_sigmoid(margin) - y;
            for (wj, x) in want.iter_mut().zip(row) {
                *wj -= lr / batch as f64 * error * x;
            }
        }
        let worst = (0..slots)
            .map(|i| (decrypted[i] - want[i % f]).abs())
            .fold(0.0f64, f64::max);

        let recorded = sink.take();
        let planned = planned_iteration_trace(&ctx, features, batch, lr).unwrap();
        assert_eq!(recorded.ops, planned.ops);
        assert_eq!(recorded.phase_labels(), planned.phase_labels());
        let chunk = batch.next_power_of_two().min(slots / f);
        let chunks = batch.div_ceil(chunk);
        let count = |want: fn(&HeOp) -> bool| planned.ops.iter().filter(|op| want(op)).count();
        let log2 = |x: usize| x.trailing_zeros() as usize;
        assert_eq!(
            count(|op| matches!(op, HeOp::Rotate { .. })),
            chunks * 2 * log2(f) + log2(chunk),
            "rotations at f = {f}, B = {batch}"
        );
        assert_eq!(
            count(|op| matches!(op, HeOp::Multiply { .. })),
            2 * chunks,
            "ciphertext multiplies at f = {f}, B = {batch}"
        );
        assert_eq!(ct.level() - updated.level(), 5);
        -worst.log2()
    }

    #[test]
    fn packed_iteration_matches_the_per_sample_update_in_every_slot() {
        // The helr_refresh shape, a padded one (10 features in 16 slots, 5 samples in a
        // chunk of 8) and a chunked one (64 · 12 > 512 slots: chunks of 8 and 4 samples).
        // The shapes reach ≈ 31 bits at a 45-bit scale; the bound leaves 6 bits of margin.
        let ctx = CkksContext::new_arc(CkksParams::bootstrap_testing()).unwrap();
        for (features, batch) in [(16, 8), (10, 5), (40, 12)] {
            let bits = packed_iteration_precision_bits(ctx.clone(), features, batch);
            assert!(
                bits > 25.0,
                "({features}, {batch}): {bits:.1} bits against the per-sample update"
            );
        }
    }

    #[test]
    fn an_empty_dataset_is_rejected_before_any_work() {
        // No batch to index and no sample to score accuracy over, even for zero iterations.
        let empty = Dataset::new(Vec::new(), Vec::new());
        let mut trainer = EncryptedLogisticRegression::new(context(), 16, 3).unwrap();
        for iterations in [2, 0] {
            let result = trainer.train(&empty, iterations, 4, 1.0);
            assert!(matches!(result, Err(CkksError::InvalidInput { .. })));
        }
        let ctx = CkksContext::new_arc(CkksParams::bootstrap_testing()).unwrap();
        let mut refreshing =
            EncryptedLogisticRegression::with_bootstrapping(ctx, 16, 64, 3, noop_sink()).unwrap();
        let result = refreshing.train_with_refresh(&empty, 2, 8, 1.0);
        assert!(matches!(result, Err(CkksError::InvalidInput { .. })));
    }

    #[test]
    fn too_many_features_are_rejected() {
        let ctx = context();
        let slots = ctx.slot_count();
        let mut encrypted = EncryptedLogisticRegression::new(ctx, slots + 1, 3).unwrap();
        let data = synthetic_mnist_like(8, slots + 1, 3);
        assert!(encrypted.train(&data, 1, 4, 1.0).is_err());
    }
}
