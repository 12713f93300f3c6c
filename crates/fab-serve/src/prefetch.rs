//! Trace-driven key prefetch — the software analogue of FAB's key-prefetch-overlap.

use fab_ckks::KeyRef;

use crate::cache::EvalKeyCache;
use crate::error::ServeFault;
use crate::tenant::{KeySource, TenantId};

/// Warms the evaluation-key cache from a request's planned key-switch DAG before execution
/// starts, so demand accesses find their keys resident (counted as `prefetch_hits`).
#[derive(Debug, Clone, Copy)]
pub struct Prefetcher {
    lookahead: usize,
}

impl Prefetcher {
    /// A prefetcher warming up to `lookahead` distinct keys per request.
    pub fn new(lookahead: usize) -> Self {
        Self { lookahead }
    }

    /// Maximum distinct keys warmed per request.
    pub fn lookahead(&self) -> usize {
        self.lookahead
    }

    /// Warms the first `lookahead` *distinct* upcoming keys (`upcoming` is the in-order,
    /// with-repeats demand stream from [`crate::Program::key_refs`]). Returns how many keys
    /// are resident after the pass; oversized keys are skipped — prefetch never bypasses the
    /// cache's admission budget.
    ///
    /// # Errors
    ///
    /// Propagates the first fetch fault (absent key, corrupt bytes, transient failure).
    /// Prefetch is opportunistic: the server treats a warm failure as degradation (it
    /// executes without the warm set), not as a request failure — the demand path will
    /// surface the fault with retries if it persists.
    pub fn warm(
        &self,
        cache: &mut EvalKeyCache,
        tenant: TenantId,
        source: &dyn KeySource,
        upcoming: &[KeyRef],
    ) -> std::result::Result<usize, ServeFault> {
        let mut distinct: Vec<KeyRef> = Vec::new();
        for &key in upcoming {
            if distinct.len() >= self.lookahead {
                break;
            }
            if !distinct.contains(&key) {
                distinct.push(key);
            }
        }
        let mut resident = 0;
        for key in distinct {
            if cache.prefetch(tenant, key, source)? {
                resident += 1;
            }
        }
        Ok(resident)
    }
}
