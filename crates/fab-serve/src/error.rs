//! Typed serving failures: per-request attribution and transient/permanent classification.
//!
//! The serving layer's robustness contract is that one tenant's fault never takes down a
//! batch. That requires failures to be *values*, not aborts: [`ServeError`] attributes a
//! fault to the exact `(tenant, request)` pair it belongs to, and [`ServeFault::class`]
//! answers the question an operator's retry policy actually asks — would retrying help?
//! A flaky key fetch ([`ServeFault::KeyFetch`]) or a missed deadline
//! ([`ServeFault::DeadlineExceeded`]) is [`FaultClass::Transient`]; corrupt key bytes,
//! an unknown tenant, or an evaluator rejection will fail identically on retry and are
//! [`FaultClass::Permanent`].

use std::fmt;

use fab_ckks::{CkksError, KeyRef};

use crate::tenant::TenantId;

/// Monotonic per-server request identifier, assigned by [`crate::FabServer::submit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RequestId(pub u64);

impl fmt::Display for RequestId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "request{}", self.0)
    }
}

/// Whether retrying a failed operation could plausibly succeed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultClass {
    /// Retrying may succeed: the cause was flaky (a failed fetch attempt, queue pressure).
    Transient,
    /// Retrying the identical request will fail identically (corrupt bytes, unknown tenant,
    /// a program the evaluator rejects).
    Permanent,
}

/// The cause of a request failure, before tenant/request attribution.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeFault {
    /// No key store is registered for the tenant. Permanent.
    UnknownTenant,
    /// The tenant's store holds no such key. Permanent.
    MissingKey {
        /// The key that was requested.
        key: KeyRef,
        /// The underlying scheme error.
        source: CkksError,
    },
    /// Every allowed fetch attempt failed transiently (flaky transport). Transient: the
    /// bounded retry loop in [`crate::EvalKeyCache`] already backed off `attempts - 1`
    /// times; a later request may find the source healthy again.
    KeyFetch {
        /// The key whose fetch kept failing.
        key: KeyRef,
        /// Fetch attempts consumed (1 + retries).
        attempts: u32,
        /// The last transient failure's description.
        reason: String,
    },
    /// The key bytes failed validation (bad magic/version, truncation, checksum mismatch)
    /// on every allowed attempt; the entry is quarantined in the cache. Permanent.
    CorruptKey {
        /// The key whose blob is corrupt.
        key: KeyRef,
        /// Fetch attempts consumed before giving up.
        attempts: u32,
        /// The typed rejection from [`fab_ckks::SwitchingKey::from_bytes`].
        source: CkksError,
    },
    /// The evaluator rejected the program (level exhausted, scale mismatch, geometry
    /// mismatch, …). Permanent.
    Evaluation {
        /// The underlying scheme error.
        source: CkksError,
    },
    /// The request exceeded its configured deadline before execution began. Transient:
    /// resubmitting under less pressure may meet the deadline.
    DeadlineExceeded {
        /// The configured per-request deadline in microseconds.
        deadline_us: u64,
        /// Elapsed microseconds since submission when the deadline check fired.
        elapsed_us: u64,
    },
    /// A failure settled from a recovered request journal: the crashed process journaled the
    /// fault's classification and rendered description, which is all that survives a crash
    /// (the structured payload is not re-fabricated).
    Replayed {
        /// The original fault's transient/permanent classification.
        class: FaultClass,
        /// The original fault's rendered description.
        description: String,
    },
}

impl ServeFault {
    /// Transient/permanent classification (see [`FaultClass`]).
    pub fn class(&self) -> FaultClass {
        match self {
            ServeFault::KeyFetch { .. } | ServeFault::DeadlineExceeded { .. } => {
                FaultClass::Transient
            }
            ServeFault::UnknownTenant
            | ServeFault::MissingKey { .. }
            | ServeFault::CorruptKey { .. }
            | ServeFault::Evaluation { .. } => FaultClass::Permanent,
            ServeFault::Replayed { class, .. } => *class,
        }
    }

    /// Whether a retry could plausibly succeed.
    pub fn is_transient(&self) -> bool {
        self.class() == FaultClass::Transient
    }

    /// Lowers the fault onto the scheme error channel (the [`fab_ckks::KeyProvider`] trait
    /// returns [`CkksError`]); the provider keeps the rich fault alongside for the server to
    /// reclaim via [`crate::CachedKeyProvider::take_fault`].
    pub(crate) fn to_ckks(&self) -> CkksError {
        match self {
            ServeFault::UnknownTenant => CkksError::MissingKey {
                description: "tenant key store".into(),
            },
            ServeFault::MissingKey { source, .. }
            | ServeFault::CorruptKey { source, .. }
            | ServeFault::Evaluation { source } => source.clone(),
            ServeFault::KeyFetch {
                key,
                attempts,
                reason,
            } => CkksError::MissingKey {
                description: format!("{key} after {attempts} fetch attempts: {reason}"),
            },
            ServeFault::DeadlineExceeded {
                deadline_us,
                elapsed_us,
            } => CkksError::InvalidInput {
                reason: format!("deadline {deadline_us}us exceeded at {elapsed_us}us"),
            },
            ServeFault::Replayed { description, .. } => CkksError::InvalidInput {
                reason: format!("replayed from journal: {description}"),
            },
        }
    }
}

impl fmt::Display for ServeFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeFault::UnknownTenant => write!(f, "unknown tenant"),
            ServeFault::MissingKey { key, source } => {
                write!(f, "missing key {key:?}: {source}")
            }
            ServeFault::KeyFetch {
                key,
                attempts,
                reason,
            } => write!(
                f,
                "fetch of {key:?} failed after {attempts} attempts: {reason}"
            ),
            ServeFault::CorruptKey {
                key,
                attempts,
                source,
            } => write!(
                f,
                "corrupt key {key:?} (quarantined after {attempts} attempts): {source}"
            ),
            ServeFault::Evaluation { source } => write!(f, "evaluation failed: {source}"),
            ServeFault::DeadlineExceeded {
                deadline_us,
                elapsed_us,
            } => write!(
                f,
                "deadline {deadline_us}us exceeded ({elapsed_us}us elapsed)"
            ),
            ServeFault::Replayed { description, .. } => {
                write!(f, "replayed from journal: {description}")
            }
        }
    }
}

/// A request failure with full attribution: *which* request of *which* tenant failed, and
/// [*why*](ServeFault). This is the error carried by [`crate::RequestOutcome::Failed`];
/// [`crate::FabServer::run`] never aborts a batch over one.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeError {
    /// The failing request.
    pub request: RequestId,
    /// The tenant the request belonged to.
    pub tenant: TenantId,
    /// The cause.
    pub fault: ServeFault,
}

impl ServeError {
    /// Transient/permanent classification of the underlying fault.
    pub fn class(&self) -> FaultClass {
        self.fault.class()
    }

    /// Whether a retry could plausibly succeed.
    pub fn is_transient(&self) -> bool {
        self.fault.is_transient()
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let class = match self.class() {
            FaultClass::Transient => "transient",
            FaultClass::Permanent => "permanent",
        };
        write!(
            f,
            "{} of {} failed ({class}): {}",
            self.request, self.tenant, self.fault
        )
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match &self.fault {
            ServeFault::MissingKey { source, .. }
            | ServeFault::CorruptKey { source, .. }
            | ServeFault::Evaluation { source } => Some(source),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_matches_the_retry_contract() {
        let transient = [
            ServeFault::KeyFetch {
                key: KeyRef::Relin,
                attempts: 3,
                reason: "flaky".into(),
            },
            ServeFault::DeadlineExceeded {
                deadline_us: 10,
                elapsed_us: 25,
            },
            ServeFault::Replayed {
                class: FaultClass::Transient,
                description: "fetch of Relin failed".into(),
            },
        ];
        let permanent = [
            ServeFault::UnknownTenant,
            ServeFault::MissingKey {
                key: KeyRef::Galois(3),
                source: CkksError::MissingKey {
                    description: "galois 3".into(),
                },
            },
            ServeFault::CorruptKey {
                key: KeyRef::Relin,
                attempts: 3,
                source: CkksError::CorruptKey {
                    reason: "checksum mismatch".into(),
                },
            },
            ServeFault::Evaluation {
                source: CkksError::LevelExhausted {
                    operation: "multiply",
                },
            },
            ServeFault::Replayed {
                class: FaultClass::Permanent,
                description: "corrupt key".into(),
            },
        ];
        for fault in transient {
            assert!(fault.is_transient(), "{fault}");
        }
        for fault in permanent {
            assert_eq!(fault.class(), FaultClass::Permanent, "{fault}");
        }
    }

    #[test]
    fn display_carries_attribution_and_class() {
        let error = ServeError {
            request: RequestId(7),
            tenant: TenantId(2),
            fault: ServeFault::UnknownTenant,
        };
        let text = error.to_string();
        assert!(text.contains("request7"));
        assert!(text.contains("tenant2"));
        assert!(text.contains("permanent"));
        assert!(std::error::Error::source(&error).is_none());
        let error = ServeError {
            request: RequestId(0),
            tenant: TenantId(0),
            fault: ServeFault::Evaluation {
                source: CkksError::LevelExhausted { operation: "mul" },
            },
        };
        assert!(std::error::Error::source(&error).is_some());
    }
}
