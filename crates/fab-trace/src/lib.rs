//! # fab-trace
//!
//! The shared homomorphic-operation vocabulary of the FAB reproduction, plus the
//! trace-recording API that connects the *executing* scheme (`fab-ckks`) to the *costing*
//! accelerator model (`fab-core`).
//!
//! The crate is deliberately tiny and dependency-free: every other crate in the workspace
//! speaks this vocabulary.
//!
//! * [`HeOp`] — one homomorphic operation at a given level (the unit the FAB cost model
//!   charges cycles for).
//! * [`OpTrace`] — a named sequence of operations with optional phase markers; built either
//!   *analytically* (predicted from circuit structure) or *recorded* from a real execution.
//! * [`TraceSink`] — the observer interface an instrumented evaluator emits into. The default
//!   [`NoopSink`] ignores everything; [`RecordingSink`] captures the full ordered trace;
//!   [`CountingSink`] keeps only per-kind tallies (cheap enough to leave on in production).
//!
//! ```
//! use fab_trace::{HeOp, RecordingSink, TraceSink};
//!
//! let sink = RecordingSink::new("demo");
//! sink.begin_phase("warmup");
//! sink.record(HeOp::Multiply { level: 5 });
//! sink.record(HeOp::Rescale { level: 5 });
//! let trace = sink.snapshot();
//! assert_eq!(trace.len(), 2);
//! assert_eq!(trace.counts().multiply, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Well-known phase labels, shared between analytic traces (`fab-core`) and recorded traces
/// (`fab-ckks`/`fab-lr`) so per-phase comparisons line up by construction.
pub mod phase {
    /// ModRaise: re-populating every limb of an exhausted ciphertext.
    pub const MOD_RAISE: &str = "mod_raise";
    /// SubSum: the rotate-and-add projection onto the sparse-packing subring that precedes
    /// CoeffToSlot when bootstrapping sparsely-packed ciphertexts.
    pub const SUB_SUM: &str = "sub_sum";
    /// CoeffToSlot: the homomorphic inverse encoding FFT.
    pub const COEFF_TO_SLOT: &str = "coeff_to_slot";
    /// EvalMod: the scaled-sine polynomial evaluation.
    pub const EVAL_MOD: &str = "eval_mod";
    /// SlotToCoeff: the homomorphic forward encoding FFT.
    pub const SLOT_TO_COEFF: &str = "slot_to_coeff";
    /// HELR: one sample's forward pass (`z = <w, x>` product).
    pub const LR_FORWARD: &str = "lr_forward";
    /// HELR: the rotate-and-add aggregation of the inner product.
    pub const LR_AGGREGATE: &str = "lr_aggregate";
    /// HELR: the polynomial sigmoid.
    pub const LR_SIGMOID: &str = "lr_sigmoid";
    /// HELR: one sample's gradient contribution.
    pub const LR_GRADIENT: &str = "lr_gradient";
    /// HELR: the end-of-iteration weight update.
    pub const LR_UPDATE: &str = "lr_update";
    /// HELR: aligning the weight ciphertext's scale and dropping it to level 0 ahead of its
    /// end-of-iteration sparse bootstrap (the bootstrap itself is phase-marked `MOD_RAISE` …
    /// `SLOT_TO_COEFF`).
    pub const LR_REFRESH: &str = "lr_refresh";
    /// Serving: time a request spends queued before the server picks it up.
    pub const SERVE_QUEUE: &str = "serve_queue";
    /// Serving: warming the evaluation-key cache from the request's planned key-switch DAG.
    pub const SERVE_PREFETCH: &str = "serve_prefetch";
    /// Serving: executing the request's homomorphic program.
    pub const SERVE_EXECUTE: &str = "serve_execute";
    /// Serving: a request failed; ops recorded after this mark belong to no successful
    /// request, so traces still balance when a batch contains failures.
    pub const SERVE_FAILED: &str = "serve_failed";
}

/// One homomorphic operation at a given level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HeOp {
    /// Ciphertext addition (also used for subtraction and plaintext addition, which cost the
    /// same on the FAB datapath).
    Add {
        /// Ciphertext level.
        level: usize,
    },
    /// Plaintext multiplication.
    MultiplyPlain {
        /// Ciphertext level.
        level: usize,
    },
    /// Ciphertext multiplication (tensor + relinearisation).
    Multiply {
        /// Ciphertext level.
        level: usize,
    },
    /// Rescale.
    Rescale {
        /// Ciphertext level before the rescale.
        level: usize,
    },
    /// Rotation with its own key-switch decomposition.
    Rotate {
        /// Ciphertext level.
        level: usize,
    },
    /// Rotation sharing a decomposition with a previous rotation (hoisted).
    RotateHoisted {
        /// Ciphertext level.
        level: usize,
    },
    /// Conjugation.
    Conjugate {
        /// Ciphertext level.
        level: usize,
    },
    /// Raw NTTs (used by ModRaise, which transforms every freshly-populated limb).
    Ntt {
        /// Number of single-limb transforms.
        count: usize,
    },
}

impl HeOp {
    /// The ciphertext level the operation runs at (`None` for raw NTT batches, which are
    /// counted per limb rather than per level).
    pub fn level(&self) -> Option<usize> {
        match *self {
            HeOp::Add { level }
            | HeOp::MultiplyPlain { level }
            | HeOp::Multiply { level }
            | HeOp::Rescale { level }
            | HeOp::Rotate { level }
            | HeOp::RotateHoisted { level }
            | HeOp::Conjugate { level } => Some(level),
            HeOp::Ntt { .. } => None,
        }
    }
}

/// Per-kind operation tallies of a trace (levels erased).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OpCounts {
    /// Ciphertext/plaintext additions.
    pub add: u64,
    /// Plaintext multiplications.
    pub multiply_plain: u64,
    /// Ciphertext multiplications.
    pub multiply: u64,
    /// Rescales.
    pub rescale: u64,
    /// Full rotations.
    pub rotate: u64,
    /// Hoisted rotations.
    pub rotate_hoisted: u64,
    /// Conjugations.
    pub conjugate: u64,
    /// Single-limb NTT transforms (sum of `HeOp::Ntt` counts).
    pub ntt: u64,
}

impl OpCounts {
    /// Adds one operation to the tally.
    pub fn record(&mut self, op: HeOp) {
        match op {
            HeOp::Add { .. } => self.add += 1,
            HeOp::MultiplyPlain { .. } => self.multiply_plain += 1,
            HeOp::Multiply { .. } => self.multiply += 1,
            HeOp::Rescale { .. } => self.rescale += 1,
            HeOp::Rotate { .. } => self.rotate += 1,
            HeOp::RotateHoisted { .. } => self.rotate_hoisted += 1,
            HeOp::Conjugate { .. } => self.conjugate += 1,
            HeOp::Ntt { count } => self.ntt += count as u64,
        }
    }

    /// Total number of operations (NTT batches counted per limb).
    pub fn total(&self) -> u64 {
        self.add
            + self.multiply_plain
            + self.multiply
            + self.rescale
            + self.rotate
            + self.rotate_hoisted
            + self.conjugate
            + self.ntt
    }
}

/// A named sequence of operations, optionally split into labelled phases.
#[derive(Debug, Clone, Default)]
pub struct OpTrace {
    /// Human-readable name of the workload.
    pub name: String,
    /// The operations in execution order.
    pub ops: Vec<HeOp>,
    /// Phase markers: `(label, index of the first op in the phase)`. Ops before the first
    /// marker belong to an implicit unnamed phase.
    marks: Vec<(String, usize)>,
}

impl OpTrace {
    /// Creates an empty trace.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            ops: Vec::new(),
            marks: Vec::new(),
        }
    }

    /// Appends an operation.
    pub fn push(&mut self, op: HeOp) {
        self.ops.push(op);
    }

    /// Appends `count` copies of an operation.
    pub fn push_many(&mut self, op: HeOp, count: usize) {
        for _ in 0..count {
            self.ops.push(op);
        }
    }

    /// Starts a new labelled phase at the current position.
    pub fn mark_phase(&mut self, label: impl Into<String>) {
        self.marks.push((label.into(), self.ops.len()));
    }

    /// Number of operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Per-kind tallies over the whole trace.
    pub fn counts(&self) -> OpCounts {
        let mut counts = OpCounts::default();
        for &op in &self.ops {
            counts.record(op);
        }
        counts
    }

    /// The phase labels in order (empty if the trace was built without markers).
    pub fn phase_labels(&self) -> Vec<&str> {
        self.marks.iter().map(|(label, _)| label.as_str()).collect()
    }

    /// The phases as `(label, ops)` slices: one entry per marker, covering the ops from that
    /// marker up to the next. Ops before the first marker are reported under `""` when any
    /// exist.
    pub fn phase_slices(&self) -> Vec<(&str, &[HeOp])> {
        let mut out = Vec::new();
        let first_marked = self.marks.first().map_or(self.ops.len(), |(_, i)| *i);
        if first_marked > 0 {
            out.push(("", &self.ops[..first_marked]));
        }
        for (k, (label, start)) in self.marks.iter().enumerate() {
            let end = self.marks.get(k + 1).map_or(self.ops.len(), |(_, i)| *i);
            out.push((label.as_str(), &self.ops[*start..end]));
        }
        out
    }

    /// Per-phase tallies over [`Self::phase_slices`].
    pub fn phase_counts(&self) -> Vec<(String, OpCounts)> {
        self.phase_slices()
            .into_iter()
            .map(|(label, ops)| {
                let mut counts = OpCounts::default();
                for &op in ops {
                    counts.record(op);
                }
                (label.to_string(), counts)
            })
            .collect()
    }

    /// The ops of the phase with the given label (first match).
    pub fn phase_ops(&self, label: &str) -> Option<&[HeOp]> {
        let (k, (_, start)) = self
            .marks
            .iter()
            .enumerate()
            .find(|(_, (l, _))| l == label)?;
        let end = self.marks.get(k + 1).map_or(self.ops.len(), |(_, i)| *i);
        Some(&self.ops[*start..end])
    }

    /// Concatenates two traces (the other trace's phase markers are preserved, shifted).
    pub fn extend(&mut self, other: &OpTrace) {
        let offset = self.ops.len();
        for (label, start) in &other.marks {
            self.marks.push((label.clone(), start + offset));
        }
        self.ops.extend_from_slice(&other.ops);
    }
}

/// Observer interface for instrumented homomorphic execution.
///
/// Implementations must be cheap and thread-safe: the evaluator calls [`TraceSink::record`]
/// once per semantic operation from whatever thread executes it.
pub trait TraceSink: Send + Sync + std::fmt::Debug {
    /// Called once per executed homomorphic operation.
    fn record(&self, op: HeOp);

    /// Called when execution enters a named phase (bootstrap stages, training steps, …).
    fn begin_phase(&self, _label: &str) {}

    /// Whether the sink actually consumes events. Emitters may skip building events when this
    /// returns `false`; the default [`NoopSink`] returns `false` so instrumentation in the hot
    /// path reduces to one predictable branch.
    fn is_enabled(&self) -> bool {
        true
    }
}

/// The default sink: ignores every event.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopSink;

impl TraceSink for NoopSink {
    fn record(&self, _op: HeOp) {}

    fn is_enabled(&self) -> bool {
        false
    }
}

/// Records the full ordered operation trace (with phase markers) behind a mutex.
#[derive(Debug, Default)]
pub struct RecordingSink {
    trace: Mutex<OpTrace>,
}

impl RecordingSink {
    /// Creates an empty recording sink; `name` becomes the recorded trace's name.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            trace: Mutex::new(OpTrace::new(name)),
        }
    }

    /// Creates an empty recording sink already wrapped in an [`Arc`] for sharing with an
    /// evaluator.
    pub fn shared(name: impl Into<String>) -> Arc<Self> {
        Arc::new(Self::new(name))
    }

    /// A copy of the trace recorded so far.
    pub fn snapshot(&self) -> OpTrace {
        self.trace.lock().expect("trace mutex poisoned").clone()
    }

    /// Takes the recorded trace out, leaving an empty one with the same name.
    pub fn take(&self) -> OpTrace {
        let mut guard = self.trace.lock().expect("trace mutex poisoned");
        let name = guard.name.clone();
        std::mem::replace(&mut guard, OpTrace::new(name))
    }
}

impl TraceSink for RecordingSink {
    fn record(&self, op: HeOp) {
        self.trace.lock().expect("trace mutex poisoned").push(op);
    }

    fn begin_phase(&self, label: &str) {
        self.trace
            .lock()
            .expect("trace mutex poisoned")
            .mark_phase(label);
    }
}

/// Keeps lock-free per-kind tallies only; suitable for always-on metering.
#[derive(Debug, Default)]
pub struct CountingSink {
    add: AtomicU64,
    multiply_plain: AtomicU64,
    multiply: AtomicU64,
    rescale: AtomicU64,
    rotate: AtomicU64,
    rotate_hoisted: AtomicU64,
    conjugate: AtomicU64,
    ntt: AtomicU64,
}

impl CountingSink {
    /// Creates a zeroed counting sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a zeroed counting sink already wrapped in an [`Arc`].
    pub fn shared() -> Arc<Self> {
        Arc::new(Self::new())
    }

    /// The tallies accumulated so far.
    pub fn counts(&self) -> OpCounts {
        OpCounts {
            add: self.add.load(Ordering::Relaxed),
            multiply_plain: self.multiply_plain.load(Ordering::Relaxed),
            multiply: self.multiply.load(Ordering::Relaxed),
            rescale: self.rescale.load(Ordering::Relaxed),
            rotate: self.rotate.load(Ordering::Relaxed),
            rotate_hoisted: self.rotate_hoisted.load(Ordering::Relaxed),
            conjugate: self.conjugate.load(Ordering::Relaxed),
            ntt: self.ntt.load(Ordering::Relaxed),
        }
    }
}

impl TraceSink for CountingSink {
    fn record(&self, op: HeOp) {
        match op {
            HeOp::Add { .. } => self.add.fetch_add(1, Ordering::Relaxed),
            HeOp::MultiplyPlain { .. } => self.multiply_plain.fetch_add(1, Ordering::Relaxed),
            HeOp::Multiply { .. } => self.multiply.fetch_add(1, Ordering::Relaxed),
            HeOp::Rescale { .. } => self.rescale.fetch_add(1, Ordering::Relaxed),
            HeOp::Rotate { .. } => self.rotate.fetch_add(1, Ordering::Relaxed),
            HeOp::RotateHoisted { .. } => self.rotate_hoisted.fetch_add(1, Ordering::Relaxed),
            HeOp::Conjugate { .. } => self.conjugate.fetch_add(1, Ordering::Relaxed),
            HeOp::Ntt { count } => self.ntt.fetch_add(count as u64, Ordering::Relaxed),
        };
    }
}

/// A fresh no-op sink handle, used as the default by uninstrumented evaluators.
pub fn noop_sink() -> Arc<dyn TraceSink> {
    Arc::new(NoopSink)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_builder_accumulates_ops() {
        let mut trace = OpTrace::new("demo");
        assert!(trace.is_empty());
        trace.push(HeOp::Add { level: 3 });
        trace.push_many(HeOp::Rescale { level: 3 }, 2);
        assert_eq!(trace.len(), 3);
        let mut other = OpTrace::new("other");
        other.push(HeOp::Multiply { level: 2 });
        trace.extend(&other);
        assert_eq!(trace.len(), 4);
    }

    #[test]
    fn counts_tally_per_kind_and_ntt_per_limb() {
        let mut trace = OpTrace::new("counts");
        trace.push(HeOp::Add { level: 1 });
        trace.push(HeOp::Add { level: 2 });
        trace.push(HeOp::Ntt { count: 48 });
        trace.push(HeOp::RotateHoisted { level: 1 });
        let c = trace.counts();
        assert_eq!(c.add, 2);
        assert_eq!(c.ntt, 48);
        assert_eq!(c.rotate_hoisted, 1);
        assert_eq!(c.total(), 51);
    }

    #[test]
    fn phase_counts_split_on_markers() {
        let mut trace = OpTrace::new("phases");
        trace.push(HeOp::Add { level: 1 }); // implicit phase
        trace.mark_phase("a");
        trace.push(HeOp::Multiply { level: 5 });
        trace.push(HeOp::Rescale { level: 5 });
        trace.mark_phase("b");
        trace.push(HeOp::Rotate { level: 4 });
        let phases = trace.phase_counts();
        assert_eq!(phases.len(), 3);
        assert_eq!(phases[0].0, "");
        assert_eq!(phases[0].1.add, 1);
        assert_eq!(phases[1].0, "a");
        assert_eq!(phases[1].1.multiply, 1);
        assert_eq!(phases[1].1.rescale, 1);
        assert_eq!(phases[2].0, "b");
        assert_eq!(phases[2].1.rotate, 1);
        assert_eq!(trace.phase_ops("b").unwrap(), &[HeOp::Rotate { level: 4 }]);
        assert!(trace.phase_ops("missing").is_none());
    }

    #[test]
    fn extend_preserves_and_shifts_phase_markers() {
        let mut a = OpTrace::new("a");
        a.mark_phase("head");
        a.push(HeOp::Add { level: 1 });
        let mut b = OpTrace::new("b");
        b.mark_phase("tail");
        b.push(HeOp::Multiply { level: 2 });
        a.extend(&b);
        assert_eq!(a.phase_labels(), vec!["head", "tail"]);
        assert_eq!(a.phase_ops("tail").unwrap(), &[HeOp::Multiply { level: 2 }]);
    }

    #[test]
    fn recording_sink_captures_order_and_phases() {
        let sink = RecordingSink::new("rec");
        sink.begin_phase("p1");
        sink.record(HeOp::Multiply { level: 7 });
        sink.record(HeOp::Rescale { level: 7 });
        let snap = sink.snapshot();
        assert_eq!(
            snap.ops,
            vec![HeOp::Multiply { level: 7 }, HeOp::Rescale { level: 7 }]
        );
        assert_eq!(snap.phase_labels(), vec!["p1"]);
        let taken = sink.take();
        assert_eq!(taken.len(), 2);
        assert!(sink.snapshot().is_empty());
        assert_eq!(sink.snapshot().name, "rec");
    }

    #[test]
    fn counting_sink_is_cheap_and_accurate() {
        let sink = CountingSink::new();
        for _ in 0..5 {
            sink.record(HeOp::Rotate { level: 3 });
        }
        sink.record(HeOp::Ntt { count: 7 });
        let c = sink.counts();
        assert_eq!(c.rotate, 5);
        assert_eq!(c.ntt, 7);
    }

    #[test]
    fn noop_sink_reports_disabled() {
        let sink = NoopSink;
        assert!(!sink.is_enabled());
        sink.record(HeOp::Add { level: 0 });
        let dynamic: std::sync::Arc<dyn TraceSink> = noop_sink();
        assert!(!dynamic.is_enabled());
    }

    #[test]
    fn he_op_levels() {
        assert_eq!(HeOp::Add { level: 4 }.level(), Some(4));
        assert_eq!(HeOp::Ntt { count: 3 }.level(), None);
    }
}
