//! The one file that names the repository under test.
//!
//! Every call the benchmark makes into `crates/*` goes through here, so an API rename costs
//! an edit to this file and nothing else. The pinned surface is listed in the README; it is
//! deliberately limited to API that ROADMAP keeps (no `*_reference`, `multiply_pr4`,
//! in-memory journal, `fault::CrashPoint` or `FAB_NTT_BLOCK`).
//!
//! The rest of the benchmark sees opaque handles ([`Ct`], [`Scheme`], [`Boot`], [`Helr`],
//! [`Serve`]) and plain numbers.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use fab_ckks::{
    key_set_bytes, BootstrapParams, Bootstrapper, Ciphertext, CkksContext, CkksParams, Decryptor,
    Encoder, Encryptor, Evaluator, GaloisKeys, KeyGenerator, RelinearizationKey,
    ResidentKeyProvider, SecretKey,
};
use fab_core::{FabConfig, OpCostModel};
use fab_lr::{synthetic_mnist_like, Dataset, EncryptedLogisticRegression, EncryptedTrainingReport};
use fab_math::NttTable;
use fab_rns::ops::{ConvertScratch, ModDownPlan, ModUpPlan};
use fab_rns::{metering, Representation, RnsPolynomial};
use fab_serve::{
    DurableJournal, FabServer, Program, Request, RequestOutcome, ServeOp, ServerConfig, TenantId,
};
use fab_store::{FileBackend, StorageBackend, StorageError, SyncPolicy};
use fab_trace::{noop_sink, HeOp, OpTrace, TraceSink};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha20Rng;

use crate::harness::Digest;

/// An encrypted value; opaque outside this file.
pub type Ct = Ciphertext;

type ApiResult<T> = Result<T, String>;

fn text<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

/// The benchmark is single-threaded by definition (the host has two vCPUs; one is left to
/// the kernel and the driver).
pub fn single_thread() {
    fab_par::set_threads(1);
}

// ---------------------------------------------------------------------------- metering

/// `fab_rns::metering` tallies of the calling thread.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Meter {
    pub transforms: u64,
    pub bytes: u64,
}

impl Meter {
    pub fn now() -> Self {
        Self {
            transforms: metering::counts().total(),
            bytes: metering::byte_counts().total(),
        }
    }

    pub fn since(self, earlier: Meter) -> Meter {
        Meter {
            transforms: self.transforms - earlier.transforms,
            bytes: self.bytes - earlier.bytes,
        }
    }
}

/// Forward-transforms a `limbs × n` polynomial through the metered `fab_rns` entry point and
/// returns what the meter charged. Calibration compares it with the closed form.
pub fn metered_known_kernel(log_n: u32, limbs: usize) -> ApiResult<Meter> {
    let n = 1usize << log_n;
    let basis = fab_rns::RnsBasis::generate(n, 40, limbs).map_err(text)?;
    let mut poly = RnsPolynomial::zero(n, limbs, Representation::Coefficient);
    let before = Meter::now();
    poly.to_evaluation(&basis);
    std::hint::black_box(&poly);
    Ok(Meter::now().since(before))
}

// ------------------------------------------------------------------------------ probe

/// One interval stamped by the [`Probe`], in nanoseconds since its origin: a trace-sink
/// phase or a storage-backend call (`bytes` is the payload of an append, else 0).
#[derive(Debug, Clone)]
pub struct Stamp {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub bytes: u64,
}

#[derive(Debug, Default)]
struct ProbeState {
    open: Option<(String, u64)>,
    phases: Vec<Stamp>,
    store: Vec<Stamp>,
    trace: OpTrace,
}

/// Everything a traced unit recorded.
#[derive(Debug, Default)]
pub struct Drained {
    pub phases: Vec<Stamp>,
    pub store: Vec<Stamp>,
    pub log: OpLog,
}

/// The benchmark's measuring instrument on the program's public seams: a
/// `fab_trace::TraceSink` (`begin_phase` stamps the clock and closes the previous phase,
/// `record` appends the op) and the log behind [`TimedBackend`]. Spans therefore come from
/// the benchmark's side of public traits, not from inside the program. While disabled it
/// reports `is_enabled() == false` like `NoopSink`, which is the baseline
/// `trace.overhead_pct` compares against.
#[derive(Debug)]
pub struct Probe {
    origin: Instant,
    enabled: AtomicBool,
    state: Mutex<ProbeState>,
}

impl Probe {
    pub fn new(origin: Instant) -> Arc<Self> {
        Arc::new(Self {
            origin,
            enabled: AtomicBool::new(false),
            state: Mutex::default(),
        })
    }

    pub fn set_enabled(&self, on: bool) {
        // Relaxed: the flag publishes no data; it is flipped between rounds on one thread.
        self.enabled.store(on, Ordering::Relaxed);
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn state(&self) -> std::sync::MutexGuard<'_, ProbeState> {
        self.state.lock().expect("a probe call panicked")
    }

    fn close_open(state: &mut ProbeState, now: u64) {
        if let Some((name, start_ns)) = state.open.take() {
            state.phases.push(Stamp {
                name,
                start_ns,
                end_ns: now,
                bytes: 0,
            });
        }
    }

    /// Closes the open phase: the instrumented call that opened it has returned. (The sink
    /// interface has no end-of-phase event; without this the last phase of a call would run
    /// on into whatever the unit does next.)
    fn end_phase(&self) {
        let now = self.now_ns();
        Self::close_open(&mut self.state(), now);
    }

    /// Hands over everything recorded since the last call.
    pub fn drain(&self) -> Drained {
        let mut state = self.state();
        Drained {
            phases: std::mem::take(&mut state.phases),
            store: std::mem::take(&mut state.store),
            log: OpLog(std::mem::take(&mut state.trace)),
        }
    }
}

// Not every emitter asks `is_enabled` first, so a disabled probe also drops what it is sent.
impl TraceSink for Probe {
    fn record(&self, op: HeOp) {
        if self.is_enabled() {
            self.state().trace.push(op);
        }
    }

    fn begin_phase(&self, label: &str) {
        if !self.is_enabled() {
            return;
        }
        let now = self.now_ns();
        let mut state = self.state();
        Self::close_open(&mut state, now);
        state.open = Some((label.to_string(), now));
        state.trace.mark_phase(label);
    }

    fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }
}

fn end_phase(probe: &Option<Arc<Probe>>) {
    if let Some(probe) = probe {
        probe.end_phase();
    }
}

fn sink_or_noop(probe: &Option<Arc<Probe>>) -> Arc<dyn TraceSink> {
    match probe {
        Some(p) => p.clone(),
        None => noop_sink(),
    }
}

/// The homomorphic ops one unit recorded.
#[derive(Debug, Clone, Default)]
pub struct OpLog(OpTrace);

/// Exact per-unit op counts derived from an [`OpLog`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpTally {
    pub multiplies: u64,
    pub rotations: u64,
    pub key_switches: u64,
}

impl OpLog {
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// FAB `alveo_u280` *simulated* time (ms) for this unit at `set`'s parameters, and the
    /// host time (µs) it took to price it.
    pub fn model_cost(&self, set: ParamSet) -> (f64, f64) {
        let config = FabConfig::alveo_u280();
        let model = OpCostModel::new(config.clone(), set.params());
        let start = Instant::now();
        let cost = model.cost_trace(&self.0);
        let price_us = start.elapsed().as_secs_f64() * 1e6;
        (cost.time_ms(&config), price_us)
    }

    pub fn tally(&self) -> OpTally {
        let c = self.0.counts();
        let rotations = c.rotate + c.rotate_hoisted;
        OpTally {
            multiplies: c.multiply,
            rotations,
            key_switches: c.multiply + rotations + c.conjugate,
        }
    }
}

// ----------------------------------------------------------------------------- scheme

/// Which of the repository's parameter sets a workload runs at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParamSet {
    /// `N = 2^10, L = 29, dnum = 5` — the software bootstrap set.
    BootstrapTesting,
    /// `N = 2^16, L = 23, dnum = 3` — the paper's Table 2.
    FabPaper,
    /// `N = 2^12, L = 6, dnum = 3` — the serving set.
    Testing,
}

impl ParamSet {
    fn params(self) -> CkksParams {
        match self {
            ParamSet::BootstrapTesting => CkksParams::bootstrap_testing(),
            ParamSet::FabPaper => CkksParams::fab_paper(),
            ParamSet::Testing => CkksParams::testing(),
        }
    }

    fn context(self) -> ApiResult<Arc<CkksContext>> {
        CkksContext::new_arc(self.params()).map_err(text)
    }
}

/// Context, keys and the evaluator for one secret key.
pub struct Scheme {
    ctx: Arc<CkksContext>,
    encoder: Encoder,
    encryptor: Encryptor,
    decryptor: Decryptor,
    evaluator: Evaluator,
    keygen: KeyGenerator,
    rlk: RelinearizationKey,
    gks: GaloisKeys,
    rng: ChaCha20Rng,
}

impl Scheme {
    /// Context, secret/public/relinearisation keys; Galois keys are added by
    /// [`Self::add_rotation_keys`] or by [`Boot::new`].
    pub fn new(set: ParamSet, seed: u64, probe: &Option<Arc<Probe>>) -> ApiResult<Self> {
        Ok(Self::in_context(set.context()?, seed, probe))
    }

    /// The same in an existing context (the serving tenants share one).
    fn in_context(ctx: Arc<CkksContext>, seed: u64, probe: &Option<Arc<Probe>>) -> Self {
        let mut rng = ChaCha20Rng::seed_from_u64(seed);
        let sk = SecretKey::generate(&ctx, &mut rng);
        let keygen = KeyGenerator::new(ctx.clone(), sk.clone());
        let pk = keygen.public_key(&mut rng);
        let rlk = keygen.relinearization_key(&mut rng);
        Self {
            encoder: Encoder::new(ctx.clone()),
            encryptor: Encryptor::new(ctx.clone(), pk),
            decryptor: Decryptor::new(ctx.clone(), sk),
            evaluator: Evaluator::with_sink(ctx.clone(), sink_or_noop(probe)),
            gks: GaloisKeys::new(ctx.degree()),
            keygen,
            rlk,
            rng,
            ctx,
        }
    }

    pub fn add_rotation_keys(&mut self, steps: &[usize], conjugation: bool) -> ApiResult<()> {
        self.gks = self
            .keygen
            .galois_keys(steps, conjugation, &mut self.rng)
            .map_err(text)?;
        Ok(())
    }

    pub fn slots(&self) -> usize {
        self.ctx.slot_count()
    }

    pub fn degree(&self) -> usize {
        self.ctx.degree()
    }

    pub fn max_level(&self) -> usize {
        self.ctx.params().max_level
    }

    /// Uniform values in `[-bound, bound]`, one per slot, from the scheme's seeded stream.
    pub fn random_slots(&mut self, bound: f64) -> Vec<f64> {
        (0..self.slots())
            .map(|_| self.rng.gen_range(-bound..bound))
            .collect()
    }

    pub fn encrypt(&mut self, values: &[f64], level: usize) -> ApiResult<Ct> {
        let scale = self.ctx.params().default_scale();
        let pt = self
            .encoder
            .encode_real(values, scale, level)
            .map_err(text)?;
        self.encryptor.encrypt(&pt, &mut self.rng).map_err(text)
    }

    pub fn decrypt(&self, ct: &Ct) -> ApiResult<Vec<f64>> {
        let pt = self.decryptor.decrypt(ct).map_err(text)?;
        Ok(self.encoder.decode_real(&pt))
    }

    pub fn multiply(&self, a: &Ct, b: &Ct) -> ApiResult<Ct> {
        self.evaluator.multiply(a, b, &self.rlk).map_err(text)
    }

    pub fn multiply_rescale(&self, a: &Ct, b: &Ct) -> ApiResult<Ct> {
        self.evaluator
            .multiply_rescale(a, b, &self.rlk)
            .map_err(text)
    }

    pub fn rescale(&self, a: &Ct) -> ApiResult<Ct> {
        self.evaluator.rescale(a).map_err(text)
    }

    pub fn rotate(&self, a: &Ct, steps: usize) -> ApiResult<Ct> {
        self.evaluator.rotate(a, steps, &self.gks).map_err(text)
    }

    pub fn add(&self, a: &Ct, b: &Ct) -> ApiResult<Ct> {
        self.evaluator.add(a, b).map_err(text)
    }

    pub fn rotate_hoisted_batch(&self, a: &Ct, steps: &[usize]) -> ApiResult<Vec<Ct>> {
        self.evaluator
            .rotate_hoisted_batch(a, steps, &self.gks)
            .map_err(text)
    }

    /// One hybrid key switch of `ct`'s second component under the rotation-by-`steps` key.
    pub fn key_switch(&self, ct: &Ct, steps: usize) -> ApiResult<()> {
        let key = self
            .gks
            .rotation_key(steps)
            .ok_or_else(|| format!("no rotation key for step {steps}"))?;
        let switched = self
            .evaluator
            .key_switch(ct.c1(), key, ct.level())
            .map_err(text)?;
        std::hint::black_box(switched);
        Ok(())
    }

    /// One limb row at this scheme's `N` and the `q_0` table, for the NTT rung.
    pub fn ntt_row(&mut self) -> NttRow {
        let table = self.ctx.q_basis().table_arc(0);
        let q = table.modulus().value();
        let data = (0..self.degree())
            .map(|_| self.rng.gen_range(0..q))
            .collect();
        NttRow { table, data }
    }

    /// Top-level ModUp of the first digit and the matching ModDown, for the basis-conversion
    /// rung.
    pub fn basis_conversion(&self, ct: &Ct) -> ApiResult<BasisConversion> {
        let level = ct.level();
        let alpha = self.ctx.params().alpha().min(level + 1);
        let mut digit = ct.c1().slice_limbs(0..alpha).map_err(text)?;
        if digit.is_evaluation() {
            digit.to_coefficient(&self.ctx.q_basis().prefix(alpha).map_err(text)?);
        }
        let up = self.ctx.mod_up_plan(level, 0, alpha).map_err(text)?;
        let down = self.ctx.mod_down_plan(level).map_err(text)?;
        let raised = up.apply(&digit).map_err(text)?;
        Ok(BasisConversion {
            up,
            down,
            digit,
            lowered: RnsPolynomial::zero(self.degree(), 1, Representation::Coefficient),
            raised,
            scratch: ConvertScratch::default(),
        })
    }
}

pub fn ct_level(ct: &Ct) -> usize {
    ct.level()
}

/// Bit pattern of a ciphertext, for "every round did identical work" checks.
pub fn ct_digest(ct: &Ct) -> u64 {
    let mut d = Digest::default();
    d.words(ct.c0().data());
    d.words(ct.c1().data());
    d.words(&[ct.level() as u64, ct.scale().to_bits()]);
    d.finish()
}

/// A single limb row and its NTT table.
pub struct NttRow {
    table: Arc<NttTable>,
    data: Vec<u64>,
}

impl NttRow {
    pub fn forward(&mut self) {
        self.table.forward(&mut self.data);
    }

    pub fn inverse(&mut self) {
        self.table.inverse(&mut self.data);
    }
}

/// Cached ModUp/ModDown plans with their operands.
pub struct BasisConversion {
    up: Arc<ModUpPlan>,
    down: Arc<ModDownPlan>,
    digit: RnsPolynomial,
    raised: RnsPolynomial,
    lowered: RnsPolynomial,
    scratch: ConvertScratch,
}

impl BasisConversion {
    pub fn mod_up(&mut self) -> ApiResult<()> {
        self.up
            .apply_into(&self.digit, &mut self.scratch, &mut self.raised)
            .map_err(text)
    }

    pub fn mod_down(&mut self) -> ApiResult<()> {
        self.down
            .apply_into(&self.raised, &mut self.scratch, &mut self.lowered)
            .map_err(text)
    }
}

// -------------------------------------------------------------------------- bootstrap

/// A fully-packed bootstrapper at the issue's pinned configuration.
pub struct Boot {
    inner: Bootstrapper,
    probe: Option<Arc<Probe>>,
}

impl Boot {
    /// Builds the bootstrapper (`eval_mod_degree 159, k_range 16, fft_iter 3`, dense) and
    /// generates its rotation and conjugation keys into `scheme`.
    pub fn new(scheme: &mut Scheme, probe: &Option<Arc<Probe>>) -> ApiResult<Self> {
        let params = BootstrapParams {
            eval_mod_degree: 159,
            k_range: 16.0,
            fft_iter: 3,
            sparse_slots: None,
        };
        let inner = Bootstrapper::with_sink(scheme.ctx.clone(), params, sink_or_noop(probe))
            .map_err(text)?;
        scheme.add_rotation_keys(&inner.required_rotations(), true)?;
        Ok(Self {
            inner,
            probe: probe.clone(),
        })
    }

    pub fn bootstrap(&self, scheme: &Scheme, ct: &Ct) -> ApiResult<Ct> {
        let refreshed = self.inner.bootstrap(ct, &scheme.rlk, &scheme.gks);
        end_phase(&self.probe);
        refreshed.map_err(text)
    }

    /// Linear-transform stages in CoeffToSlot.
    pub fn coeff_to_slot_stages(&self) -> usize {
        self.inner.stage_counts().0
    }
}

// ------------------------------------------------------------------------------- HELR

/// What one encrypted training run returned.
#[derive(Debug, Clone)]
pub struct Trained {
    pub weights: Vec<f64>,
    pub accuracy: f64,
}

/// The HELR miniature: 16 features in 64 sparse slots, 32 samples, refreshed by a real
/// sparse-slot bootstrap between iterations.
pub struct Helr {
    trainer: EncryptedLogisticRegression,
    data: Dataset,
    probe: Option<Arc<Probe>>,
}

impl Helr {
    const FEATURES: usize = 16;
    const SPARSE_SLOTS: usize = 64;
    const SAMPLES: usize = 32;
    const ITERATIONS: usize = 2;
    const BATCH: usize = 8;
    const LEARNING_RATE: f64 = 1.0;

    pub fn new(seed: u64, probe: &Option<Arc<Probe>>) -> ApiResult<Self> {
        let trainer = EncryptedLogisticRegression::with_bootstrapping(
            ParamSet::BootstrapTesting.context()?,
            Self::FEATURES,
            Self::SPARSE_SLOTS,
            seed,
            sink_or_noop(probe),
        )
        .map_err(text)?;
        Ok(Self {
            trainer,
            data: synthetic_mnist_like(Self::SAMPLES, Self::FEATURES, seed),
            probe: probe.clone(),
        })
    }

    pub fn input_digest(&self) -> u64 {
        let mut d = Digest::default();
        for row in self.data.features() {
            d.floats(row);
        }
        d.floats(self.data.labels());
        d.finish()
    }

    /// Two iterations with one real sparse-slot bootstrap between them.
    pub fn train_with_refresh(&mut self) -> ApiResult<Trained> {
        let report = self.trainer.train_with_refresh(
            &self.data,
            Self::ITERATIONS,
            Self::BATCH,
            Self::LEARNING_RATE,
        );
        end_phase(&self.probe);
        trained(report)
    }

    /// Linear-transform stages in the sparse bootstrapper's CoeffToSlot.
    pub fn coeff_to_slot_stages(&self) -> usize {
        self.trainer
            .bootstrapper()
            .map_or(0, |b| b.stage_counts().0)
    }

    /// The same two iterations spending levels instead of refreshing — the reference that
    /// isolates what the refresh costs in precision.
    pub fn train_without_refresh(&mut self) -> ApiResult<Trained> {
        trained(self.trainer.train(
            &self.data,
            Self::ITERATIONS,
            Self::BATCH,
            Self::LEARNING_RATE,
        ))
    }
}

fn trained(report: fab_ckks::Result<EncryptedTrainingReport>) -> ApiResult<Trained> {
    report
        .map(|r| Trained {
            weights: r.weights,
            accuracy: r.training_accuracy,
        })
        .map_err(text)
}

// ---------------------------------------------------------------------------- storage

/// Wraps a `StorageBackend` and stamps every mutating or syncing call into the probe.
#[derive(Debug)]
struct TimedBackend<B: StorageBackend> {
    inner: B,
    probe: Arc<Probe>,
}

impl<B: StorageBackend> TimedBackend<B> {
    fn timed<T>(
        &mut self,
        name: &str,
        bytes: u64,
        call: impl FnOnce(&mut B) -> Result<T, StorageError>,
    ) -> Result<T, StorageError> {
        if !self.probe.is_enabled() {
            return call(&mut self.inner);
        }
        let start_ns = self.probe.now_ns();
        let out = call(&mut self.inner);
        let end_ns = self.probe.now_ns();
        self.probe.state().store.push(Stamp {
            name: name.to_string(),
            start_ns,
            end_ns,
            bytes,
        });
        out
    }
}

impl<B: StorageBackend> StorageBackend for TimedBackend<B> {
    fn create(&mut self, path: &str) -> Result<(), StorageError> {
        self.timed("store.create", 0, |b| b.create(path))
    }

    fn append(&mut self, path: &str, bytes: &[u8]) -> Result<(), StorageError> {
        self.timed("store.append", bytes.len() as u64, |b| {
            b.append(path, bytes)
        })
    }

    fn flush(&mut self, path: &str) -> Result<(), StorageError> {
        self.timed("store.flush", 0, |b| b.flush(path))
    }

    fn sync(&mut self, path: &str) -> Result<(), StorageError> {
        self.timed("store.sync", 0, |b| b.sync(path))
    }

    fn read(&mut self, path: &str) -> Result<Vec<u8>, StorageError> {
        self.inner.read(path)
    }

    fn exists(&self, path: &str) -> bool {
        self.inner.exists(path)
    }

    fn remove(&mut self, path: &str) -> Result<(), StorageError> {
        self.inner.remove(path)
    }

    fn rename(&mut self, src: &str, dst: &str) -> Result<(), StorageError> {
        self.timed("store.rename", 0, |b| b.rename(src, dst))
    }

    fn sync_dir(&mut self) -> Result<(), StorageError> {
        self.timed("store.sync_dir", 0, |b| b.sync_dir())
    }

    fn list(&self, prefix: &str) -> Vec<String> {
        self.inner.list(prefix)
    }

    fn op_count(&self) -> u64 {
        self.inner.op_count()
    }
}

// ---------------------------------------------------------------------------- serving

struct Tenant {
    scheme: Scheme,
    values: Vec<f64>,
    input: Ct,
}

/// Timing and outcome of one served request, as the server reported it.
#[derive(Debug, Clone, Copy)]
pub struct Served {
    pub queue_ms: f64,
    pub prefetch_ms: f64,
    pub execute_ms: f64,
    pub total_ms: f64,
}

/// Cache counters of the server so far.
#[derive(Debug, Clone, Copy, Default)]
pub struct CacheCounters {
    /// Keys deserialized from the tenant stores: prefetches, demand misses, uncached fetches.
    pub loads: u64,
    pub demand: u64,
    pub evictions: u64,
    pub bytes_fetched: u64,
}

/// What a timed recovery found.
#[derive(Debug, Clone, Copy)]
pub struct Recovered {
    pub ms: f64,
    pub settled: usize,
    pub readmitted: usize,
    pub reexecuted: u64,
}

/// Four tenants behind one `FabServer` with a starved key cache and a durable journal.
pub struct Serve {
    ctx: Arc<CkksContext>,
    tenants: Vec<Tenant>,
    programs: Vec<Program>,
    server: FabServer,
    config: ServerConfig,
    probe: Option<Arc<Probe>>,
    scratch: PathBuf,
    journal_dir: PathBuf,
    journal_seq: u64,
    /// Outputs of the pass in flight, in submission order (`None`: failed or shed). Kept
    /// whole so that hashing them stays outside the timed region.
    outputs: Vec<Option<Ct>>,
}

impl Serve {
    const TENANTS: usize = 4;
    pub const BATCHES: usize = 8;
    const PROGRAM_OPS: usize = 8;
    const ROTATIONS: [usize; 4] = [1, 2, 4, 8];
    const ROTATE_AFTER: u64 = 64;
    const POLICY: SyncPolicy = SyncPolicy::Always;
    /// Requests in one pass.
    pub const REQUESTS: usize = Self::TENANTS * Self::BATCHES;

    /// Tenants, programs and a server journaling to a fresh directory under `scratch`.
    /// With a probe, the evaluator reports to it and the file backend is wrapped in a
    /// [`TimedBackend`].
    pub fn new(seed: u64, scratch: &Path, probe: &Option<Arc<Probe>>) -> ApiResult<Self> {
        let ctx = ParamSet::Testing.context()?;
        let tenants = (0..Self::TENANTS)
            .map(|t| Self::tenant(&ctx, seed, t))
            .collect::<ApiResult<Vec<_>>>()?;
        let programs = (0..Self::REQUESTS)
            .map(|i| {
                let program_seed = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (i as u64 + 1);
                Program::random(program_seed, Self::PROGRAM_OPS, &Self::ROTATIONS)
            })
            .collect();
        let config = ServerConfig {
            cache_budget_bytes: Self::TENANTS
                * key_set_bytes(ctx.params(), Self::ROTATIONS.len() + 1)
                / 4,
            prefetch: true,
            lookahead: 8,
            ..ServerConfig::default()
        };
        let mut serve = Self {
            server: Self::fresh_server(&ctx, &tenants, config, probe),
            ctx,
            tenants,
            programs,
            config,
            probe: probe.clone(),
            scratch: scratch.to_path_buf(),
            journal_dir: PathBuf::new(),
            journal_seq: 0,
            outputs: Vec::new(),
        };
        serve.swap_journal()?;
        Ok(serve)
    }

    fn tenant(ctx: &Arc<CkksContext>, seed: u64, t: usize) -> ApiResult<Tenant> {
        let mut scheme = Scheme::in_context(ctx.clone(), seed ^ ((t as u64 + 1) << 32), &None);
        scheme.add_rotation_keys(&Self::ROTATIONS, true)?;
        // |x| ≤ 1/4 keeps eight ops of doubling and squaring far inside the 2^20 headroom
        // between the scale and the first prime.
        let values = scheme.random_slots(0.25);
        let input = scheme.encrypt(&values, scheme.max_level())?;
        Ok(Tenant {
            scheme,
            values,
            input,
        })
    }

    fn fresh_server(
        ctx: &Arc<CkksContext>,
        tenants: &[Tenant],
        config: ServerConfig,
        probe: &Option<Arc<Probe>>,
    ) -> FabServer {
        let evaluator = Evaluator::with_sink(ctx.clone(), sink_or_noop(probe));
        let mut server = FabServer::new(evaluator, config);
        for (t, tenant) in tenants.iter().enumerate() {
            server.register_tenant(TenantId(t as u32), &tenant.scheme.rlk, &tenant.scheme.gks);
        }
        server
    }

    fn backend(&self, dir: &Path) -> ApiResult<Box<dyn StorageBackend + Send>> {
        let file = FileBackend::open(dir).map_err(text)?;
        Ok(match &self.probe {
            Some(probe) => Box::new(TimedBackend {
                inner: file,
                probe: probe.clone(),
            }),
            None => Box::new(file),
        })
    }

    /// Detaches the journal, deletes its directory and attaches a fresh one. Done between
    /// passes, outside the timed region, so every pass journals into an empty directory.
    pub fn swap_journal(&mut self) -> ApiResult<()> {
        drop(self.server.take_durable_journal());
        if self.journal_seq > 0 {
            std::fs::remove_dir_all(&self.journal_dir).map_err(text)?;
        }
        self.journal_seq += 1;
        self.journal_dir = self.scratch.join(format!("journal-{}", self.journal_seq));
        let journal = DurableJournal::create(
            self.backend(&self.journal_dir)?,
            self.ctx.clone(),
            Self::POLICY,
            Self::ROTATE_AFTER,
        )
        .map_err(text)?;
        self.server.attach_durable_journal(journal);
        Ok(())
    }

    pub fn input_digest(&self) -> u64 {
        let mut d = Digest::default();
        for tenant in &self.tenants {
            d.floats(&tenant.values);
        }
        for program in &self.programs {
            for op in program.ops() {
                d.words(&[match *op {
                    ServeOp::Square => 1,
                    ServeOp::Conjugate => 2,
                    ServeOp::AddSelf => 3,
                    ServeOp::Rotate(steps) => 4 + steps as u64,
                }]);
            }
        }
        d.finish()
    }

    /// Submits batch `b`'s four requests (one per tenant).
    pub fn submit_batch(&mut self, b: usize) {
        for t in 0..Self::TENANTS {
            self.server.submit(Request {
                tenant: TenantId(t as u32),
                program: self.programs[b * Self::TENANTS + t].clone(),
                input: self.tenants[t].input.clone(),
            });
        }
    }

    /// Drains the queue; returns per-request timings of the completed requests and keeps
    /// their outputs for [`Self::take_pass_digest`]. A failed or shed request yields `None`.
    pub fn run(&mut self) -> Vec<Option<Served>> {
        let outcomes = self.server.run();
        end_phase(&self.probe);
        outcomes
            .into_iter()
            .map(|outcome| match outcome {
                RequestOutcome::Completed(served) => {
                    let r = served.report;
                    self.outputs.push(Some(served.output));
                    Some(Served {
                        queue_ms: r.queue_us as f64 / 1e3,
                        prefetch_ms: r.prefetch_us as f64 / 1e3,
                        execute_ms: r.execute_us as f64 / 1e3,
                        total_ms: r.total_us as f64 / 1e3,
                    })
                }
                _ => {
                    self.outputs.push(None);
                    None
                }
            })
            .collect()
    }

    /// Whether a journal write failed (the server latches that as a crash).
    pub fn journal_failed(&self) -> bool {
        self.server.has_crashed()
    }

    /// Digest of the pass's outputs and the number of requests that did not complete;
    /// forgets the outputs.
    pub fn take_pass_digest(&mut self) -> (u64, u64) {
        let mut d = Digest::default();
        let mut missing = Self::REQUESTS.saturating_sub(self.outputs.len()) as u64;
        for output in self.outputs.drain(..) {
            match output {
                Some(ct) => d.words(&[ct_digest(&ct)]),
                None => missing += 1,
            }
        }
        (d.finish(), missing)
    }

    /// Runs every program directly with fully resident keys and returns, per request, the
    /// output digest and the decrypted slots next to the cleartext evaluation.
    pub fn reference(&self) -> ApiResult<Vec<ReferenceOutput>> {
        let evaluator = Evaluator::new(self.ctx.clone());
        let slots = self.ctx.slot_count();
        self.programs
            .iter()
            .enumerate()
            .map(|(i, program)| {
                let tenant = &self.tenants[i % Self::TENANTS];
                let keys = &tenant.scheme;
                let provider = ResidentKeyProvider::new(keys.rlk.clone(), keys.gks.clone());
                let out = program
                    .execute(&evaluator, &provider, &tenant.input)
                    .map_err(text)?;
                let decrypted = tenant.scheme.decrypt(&out)?;
                let mut clear = tenant.values.clone();
                let mut level = tenant.input.level();
                for op in program.ops() {
                    match *op {
                        ServeOp::Square if level > 0 => {
                            clear.iter_mut().for_each(|x| *x *= *x);
                            level -= 1;
                        }
                        ServeOp::Square | ServeOp::Conjugate => {}
                        ServeOp::AddSelf => clear.iter_mut().for_each(|x| *x *= 2.0),
                        ServeOp::Rotate(steps) => clear.rotate_left(steps % slots),
                    }
                }
                Ok(ReferenceOutput {
                    digest: ct_digest(&out),
                    decrypted,
                    clear,
                })
            })
            .collect()
    }

    /// Digest a pass must produce if every output is bitwise equal to the direct execution.
    pub fn expected_pass_digest(reference: &[ReferenceOutput]) -> u64 {
        let mut d = Digest::default();
        for r in reference {
            d.words(&[r.digest]);
        }
        d.finish()
    }

    pub fn cache(&self) -> CacheCounters {
        let s = self.server.cache_stats();
        CacheCounters {
            loads: s.prefetches + s.misses + s.uncached_fetches,
            demand: s.demand_accesses(),
            evictions: s.evictions,
            bytes_fetched: s.bytes_fetched,
        }
    }

    /// Bytes the attached journal holds on disk.
    pub fn journal_bytes(&mut self) -> ApiResult<u64> {
        self.server
            .durable_journal_mut()
            .ok_or("no journal attached")?
            .bytes_on_disk()
            .map_err(text)
    }

    /// Copies the current journal directory and recovers a fresh server from the copy,
    /// timing only `recover_from_store`.
    pub fn timed_recovery(&mut self, copy: usize) -> ApiResult<Recovered> {
        let dir = self.scratch.join(format!("recover-{copy}"));
        std::fs::create_dir_all(&dir).map_err(text)?;
        for entry in std::fs::read_dir(&self.journal_dir).map_err(text)? {
            let entry = entry.map_err(text)?;
            std::fs::copy(entry.path(), dir.join(entry.file_name())).map_err(text)?;
        }
        let backend: Box<dyn StorageBackend + Send> =
            Box::new(FileBackend::open(&dir).map_err(text)?);
        let mut server = Self::fresh_server(&self.ctx, &self.tenants, self.config, &None);
        let start = Instant::now();
        let report = server
            .recover_from_store(backend, Self::POLICY, Self::ROTATE_AFTER)
            .map_err(text)?;
        let ms = start.elapsed().as_secs_f64() * 1e3;
        let settled = report
            .settled
            .iter()
            .filter(|o| o.completed().is_some())
            .count();
        drop(server.take_durable_journal());
        std::fs::remove_dir_all(&dir).map_err(text)?;
        Ok(Recovered {
            ms,
            settled,
            readmitted: report.readmitted.len(),
            reexecuted: server.executions(),
        })
    }
}

/// One request's direct-execution result.
#[derive(Debug, Clone)]
pub struct ReferenceOutput {
    pub digest: u64,
    pub decrypted: Vec<f64>,
    pub clear: Vec<f64>,
}

impl Drop for Serve {
    fn drop(&mut self) {
        // Close the segment files before deleting the directory; errors cannot be reported
        // from here and the run's scratch root is removed again at exit.
        drop(self.server.take_durable_journal());
        let _ = std::fs::remove_dir_all(&self.journal_dir);
    }
}
