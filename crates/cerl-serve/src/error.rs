//! Typed errors of the serving front-end.
//!
//! [`ServeError`] covers the failures the *front-end* introduces — routing
//! to an unknown domain or shard, a full submission queue, a stopped
//! scheduler — and wraps the engine layer's
//! [`CerlError`] for everything underneath,
//! so one error type flows back to a request handler regardless of where
//! in the stack a request died.

use cerl_core::error::CerlError;
use std::fmt;

/// Error returned by the batching scheduler and shard router.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// The request named a domain the shard map does not route.
    UnknownDomain {
        /// Domain id carried by the request.
        domain: u64,
    },
    /// A shard index outside the fleet was addressed directly.
    UnknownShard {
        /// The offending shard index.
        shard: usize,
        /// Number of shards in the fleet.
        shards: usize,
    },
    /// The bounded submission queue is at capacity; the request was
    /// rejected instead of queued (shed load rather than grow latency
    /// without bound).
    QueueFull {
        /// Configured queue capacity (pending requests).
        capacity: usize,
    },
    /// The scheduler's collector thread has shut down; no more requests
    /// will be served by this scheduler instance.
    SchedulerShutdown,
    /// A scatter-gather request's per-row domain tags do not line up with
    /// its matrix rows.
    DomainTagMismatch {
        /// Rows in the request matrix.
        rows: usize,
        /// Domain tags provided.
        tags: usize,
    },
    /// A fleet restore found a shard map whose declared shard count does
    /// not match the number of replica snapshots provided.
    FleetSizeMismatch {
        /// Shards the embedded topology declares.
        expected: usize,
        /// Replica snapshots actually provided.
        found: usize,
    },
    /// `begin_rebalance` was called while another domain's move is still
    /// in its dual-route window; commit or abort that one first.
    RebalanceInProgress {
        /// Domain of the in-flight rebalance.
        domain: u64,
    },
    /// `commit_rebalance`/`abort_rebalance` was called with no rebalance
    /// begun.
    NoRebalancePending,
    /// A `RebalanceOrchestrator` plan execution was started while another
    /// plan is still running on the same orchestrator.
    PlanInProgress,
    /// An orchestrated rebalance plan was halted: the canary window of the
    /// named move regressed, the in-flight move was aborted, and the
    /// remaining moves were not executed. The fleet is left on the valid
    /// intermediate topology produced by the committed prefix.
    PlanHalted {
        /// Domain whose move was aborted.
        domain: u64,
        /// Moves committed before the halt (the applied prefix).
        committed: usize,
        /// Moves not applied (the aborted one and everything after it).
        remaining: usize,
        /// Human-readable description of the canary regression.
        reason: String,
    },
    /// `begin_add_replica` named a shard that already serves the domain —
    /// a replica-set member cannot be added twice.
    ReplicaAlreadyServing {
        /// Domain whose replica-set already holds the shard.
        domain: u64,
        /// The shard that already serves the domain.
        shard: usize,
    },
    /// `drain_replica` would empty the domain's replica-set; a mapped
    /// domain must always keep at least one serving replica.
    LastReplica {
        /// Domain that would lose its last replica.
        domain: u64,
        /// The sole remaining replica.
        shard: usize,
    },
    /// `restore_replica`/`remove_replica` named a replica that is not in
    /// the draining state (drain it first, or it was already removed).
    ReplicaNotDraining {
        /// Domain the call named.
        domain: u64,
        /// Shard the call named.
        shard: usize,
    },
    /// An orchestrated replica change (`add_replica`/`drain_replica`/
    /// `remove_replica`) was auto-aborted: its canary window regressed
    /// and the change was rolled back (an add was dropped unpublished; a
    /// drain was restored; a remove left the replica draining). The
    /// fleet serves exactly the topology it served before the call.
    ReplicaChangeAborted {
        /// Domain whose replica change was rolled back.
        domain: u64,
        /// The replica shard involved.
        shard: usize,
        /// Which verb was aborted: `"add"`, `"drain"`, or `"remove"`.
        verb: &'static str,
        /// Human-readable description of the canary regression.
        reason: String,
    },
    /// The engine rejected the request (wrong dimension, untrained model,
    /// bad snapshot, ...).
    Engine(CerlError),
}

impl ServeError {
    /// Whether this failure is the **client's fault** — the request
    /// itself was unservable — rather than a failure of the serving
    /// fleet.
    ///
    /// Client faults: an unroutable domain tag, mismatched tag/row
    /// counts, and requests the engine can never serve regardless of
    /// health (wrong covariate width, empty input). Everything else —
    /// queue overflow, scheduler shutdown, rebalance bookkeeping, any
    /// other engine failure — is a serve fault.
    ///
    /// The split exists so a misbehaving network client flooding typed
    /// rejections cannot masquerade as fleet regression:
    /// [`CanaryConfig::verdict`](crate::orchestrator::CanaryConfig::verdict)
    /// judges serve faults only. (The network layer's own client faults —
    /// malformed frames, expired deadlines — are classified by
    /// `cerl-net` before a `ServeError` ever exists.)
    pub fn is_client_fault(&self) -> bool {
        // Exhaustive on purpose (no wildcard arm): adding a `ServeError`
        // variant must force a classification decision here — both the
        // compiler and `cerl-analyze`'s taxonomy rule check it.
        match self {
            ServeError::UnknownDomain { .. } | ServeError::DomainTagMismatch { .. } => true,
            ServeError::Engine(CerlError::DimensionMismatch { .. })
            | ServeError::Engine(CerlError::EmptyInput { .. })
            | ServeError::Engine(CerlError::NonFiniteInput { .. }) => true,
            ServeError::UnknownShard { .. }
            | ServeError::QueueFull { .. }
            | ServeError::SchedulerShutdown
            | ServeError::FleetSizeMismatch { .. }
            | ServeError::RebalanceInProgress { .. }
            | ServeError::NoRebalancePending
            | ServeError::PlanInProgress
            | ServeError::PlanHalted { .. }
            | ServeError::ReplicaAlreadyServing { .. }
            | ServeError::LastReplica { .. }
            | ServeError::ReplicaNotDraining { .. }
            | ServeError::ReplicaChangeAborted { .. }
            | ServeError::Engine(_) => false,
        }
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::UnknownDomain { domain } => {
                write!(f, "no shard is mapped for domain {domain}")
            }
            ServeError::UnknownShard { shard, shards } => {
                write!(
                    f,
                    "shard {shard} does not exist (fleet has {shards} shard(s))"
                )
            }
            ServeError::QueueFull { capacity } => {
                write!(
                    f,
                    "submission queue is full ({capacity} pending requests); retry with backoff"
                )
            }
            ServeError::SchedulerShutdown => {
                write!(f, "batch scheduler has shut down")
            }
            ServeError::DomainTagMismatch { rows, tags } => {
                write!(
                    f,
                    "scatter request has {rows} row(s) but {tags} domain tag(s); every row needs exactly one tag"
                )
            }
            ServeError::FleetSizeMismatch { expected, found } => {
                write!(
                    f,
                    "replica shard map declares {expected} shard(s) but {found} replica snapshot(s) were provided"
                )
            }
            ServeError::RebalanceInProgress { domain } => {
                write!(
                    f,
                    "a rebalance of domain {domain} is already in progress; commit or abort it first"
                )
            }
            ServeError::NoRebalancePending => {
                write!(f, "no rebalance has been begun on this router")
            }
            ServeError::PlanInProgress => {
                write!(
                    f,
                    "another rebalance plan is already executing on this orchestrator"
                )
            }
            ServeError::PlanHalted {
                domain,
                committed,
                remaining,
                reason,
            } => {
                write!(
                    f,
                    "rebalance plan halted at domain {domain}'s move ({committed} move(s) \
                     committed, {remaining} not applied): {reason}"
                )
            }
            ServeError::ReplicaAlreadyServing { domain, shard } => {
                write!(
                    f,
                    "shard {shard} already serves domain {domain}; a replica cannot be added twice"
                )
            }
            ServeError::LastReplica { domain, shard } => {
                write!(
                    f,
                    "shard {shard} is domain {domain}'s last replica; draining it would leave the \
                     domain unserved"
                )
            }
            ServeError::ReplicaNotDraining { domain, shard } => {
                write!(
                    f,
                    "domain {domain} has no draining replica on shard {shard}; drain it first"
                )
            }
            ServeError::ReplicaChangeAborted {
                domain,
                shard,
                verb,
                reason,
            } => {
                write!(
                    f,
                    "replica {verb} of domain {domain} on shard {shard} auto-aborted and rolled \
                     back: {reason}"
                )
            }
            ServeError::Engine(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Engine(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CerlError> for ServeError {
    fn from(e: CerlError) -> Self {
        ServeError::Engine(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        assert!(ServeError::UnknownDomain { domain: 7 }
            .to_string()
            .contains('7'));
        assert!(ServeError::UnknownShard {
            shard: 9,
            shards: 3
        }
        .to_string()
        .contains('9'));
        assert!(ServeError::QueueFull { capacity: 128 }
            .to_string()
            .contains("128"));
        assert!(ServeError::SchedulerShutdown
            .to_string()
            .contains("shut down"));
        let tag = ServeError::DomainTagMismatch { rows: 4, tags: 3 }.to_string();
        assert!(tag.contains('4') && tag.contains('3'));
        let fleet = ServeError::FleetSizeMismatch {
            expected: 3,
            found: 2,
        }
        .to_string();
        assert!(
            fleet.contains("3 shard(s)") && fleet.contains("2 replica snapshot(s)"),
            "{fleet}"
        );
        assert!(ServeError::RebalanceInProgress { domain: 12 }
            .to_string()
            .contains("12"));
        assert!(ServeError::NoRebalancePending
            .to_string()
            .contains("no rebalance"));
        assert!(ServeError::PlanInProgress
            .to_string()
            .contains("already executing"));
        let halted = ServeError::PlanHalted {
            domain: 4,
            committed: 2,
            remaining: 3,
            reason: "error rate 0.40 above 0.10".into(),
        }
        .to_string();
        assert!(
            halted.contains("domain 4")
                && halted.contains("2 move(s)")
                && halted.contains("3 not applied")
                && halted.contains("error rate"),
            "{halted}"
        );
        let already = ServeError::ReplicaAlreadyServing {
            domain: 6,
            shard: 2,
        }
        .to_string();
        assert!(
            already.contains("domain 6") && already.contains("shard 2"),
            "{already}"
        );
        let last = ServeError::LastReplica {
            domain: 6,
            shard: 2,
        }
        .to_string();
        assert!(last.contains("last replica"), "{last}");
        let draining = ServeError::ReplicaNotDraining {
            domain: 6,
            shard: 2,
        }
        .to_string();
        assert!(draining.contains("no draining replica"), "{draining}");
        let aborted = ServeError::ReplicaChangeAborted {
            domain: 6,
            shard: 2,
            verb: "drain",
            reason: "fleet error rate 0.40 above 0.10".into(),
        }
        .to_string();
        assert!(
            aborted.contains("replica drain")
                && aborted.contains("domain 6")
                && aborted.contains("error rate"),
            "{aborted}"
        );
        let e: ServeError = CerlError::NotTrained.into();
        assert!(e.to_string().contains("not observed"));
        assert_eq!(e, ServeError::Engine(CerlError::NotTrained));
    }

    #[test]
    fn fault_classification_separates_client_from_serve() {
        // Client faults: the request was unservable by construction.
        assert!(ServeError::UnknownDomain { domain: 7 }.is_client_fault());
        assert!(ServeError::DomainTagMismatch { rows: 4, tags: 3 }.is_client_fault());
        assert!(ServeError::Engine(CerlError::DimensionMismatch {
            expected: 10,
            found: 3
        })
        .is_client_fault());
        assert!(ServeError::Engine(CerlError::EmptyInput {
            what: "request matrix has no rows"
        })
        .is_client_fault());
        // Serve faults: the fleet failed a well-formed request.
        assert!(!ServeError::QueueFull { capacity: 8 }.is_client_fault());
        assert!(!ServeError::SchedulerShutdown.is_client_fault());
        assert!(!ServeError::Engine(CerlError::NotTrained).is_client_fault());
        assert!(!ServeError::UnknownShard {
            shard: 9,
            shards: 3
        }
        .is_client_fault());
        assert!(!ServeError::NoRebalancePending.is_client_fault());
        // Replica-lifecycle bookkeeping is operator-facing, never the
        // serving client's fault.
        assert!(!ServeError::ReplicaAlreadyServing {
            domain: 6,
            shard: 2
        }
        .is_client_fault());
        assert!(!ServeError::LastReplica {
            domain: 6,
            shard: 2
        }
        .is_client_fault());
        assert!(!ServeError::ReplicaNotDraining {
            domain: 6,
            shard: 2
        }
        .is_client_fault());
        assert!(!ServeError::ReplicaChangeAborted {
            domain: 6,
            shard: 2,
            verb: "add",
            reason: "regressed".into()
        }
        .is_client_fault());
    }
}
