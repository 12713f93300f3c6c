//! Test-support recording [`KeyProvider`]: wraps another provider and logs every [`KeyRef`]
//! it is asked for, in order. The *demanded == planned* gates compare that log, element for
//! element, with the key stream `PlanBackend` predicts for the same pipeline — a predicted
//! stream is trusted only after it has been validated against the recorded one. Shared by
//! `#[path]` between the `fab-ckks`, `fab-lr` and `fab-serve` tests.

use std::cell::RefCell;
use std::sync::Arc;

use fab_ckks::{KeyProvider, KeyRef, Result, SwitchingKey};

/// Logs every key `inner` is asked for (answered or not).
pub struct RecordingKeys<'a> {
    inner: &'a dyn KeyProvider,
    asked: RefCell<Vec<KeyRef>>,
}

impl<'a> RecordingKeys<'a> {
    pub fn new(inner: &'a dyn KeyProvider) -> Self {
        Self {
            inner,
            asked: RefCell::default(),
        }
    }

    /// The keys asked for since the last call, in order (clears the log).
    pub fn take(&self) -> Vec<KeyRef> {
        self.asked.take()
    }
}

impl KeyProvider for RecordingKeys<'_> {
    fn key(&self, key: KeyRef) -> Result<Arc<SwitchingKey>> {
        self.asked.borrow_mut().push(key);
        self.inner.key(key)
    }
}
