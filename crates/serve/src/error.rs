//! Typed serving errors.
//!
//! Every way a request can fail to produce an estimate is a variant here;
//! the server never panics on a bad request and never drops one silently —
//! each submitted request's ticket resolves to `Ok(answer)` or to one of
//! these errors.

use crowd_rtse_core::QueryError;
use rtse_check::InvariantViolation;
use rtse_data::SlotOfDay;
use rtse_graph::RoadId;
use std::error::Error;
use std::fmt;
use std::time::Duration;

/// Why a request was not answered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// Admission control: the bounded request queue is at capacity.
    /// Back off and retry; [`crate::ServerHandle::pressure`] is the
    /// backpressure signal to watch. Only a request that must queue gets
    /// it: a cache hit is answered inside `submit` and never occupies the
    /// queue.
    QueueFull {
        /// The configured queue capacity that was hit.
        depth: usize,
    },
    /// The request's deadline expired before an answer could be produced.
    /// Shed requests get this typed rejection — never a stale estimate,
    /// never a silent drop.
    DeadlineExceeded {
        /// How far past the deadline the server was when it shed the
        /// request.
        missed_by: Duration,
    },
    /// The server is draining: no new requests are admitted (pending ones
    /// still resolve).
    ShuttingDown,
    /// The query named no roads ([`crowd_rtse_core::SpeedQuery::try_new`]).
    EmptyQuery,
    /// A queried road id is not a road of the served network.
    RoadOutOfRange {
        /// The offending road id.
        road: RoadId,
        /// Roads in the served network.
        num_roads: usize,
    },
    /// The requested slot is not a slot of the day (`0..288`).
    SlotOutOfRange {
        /// The offending slot.
        slot: SlotOfDay,
    },
    /// The serving world is dimensionally inconsistent with the engine's
    /// network (e.g. a truth snapshot or cost vector of the wrong length).
    WorldMismatch {
        /// Which input was inconsistent.
        what: &'static str,
        /// Roads in the served network.
        expected: usize,
        /// Entries actually provided.
        got: usize,
    },
    /// The request's deadline exceeds the server's admissible bound
    /// ([`crate::ServeConfig::deadline_bound`]). Rejected at admission:
    /// a hostile budget must not park a request in the queue past the
    /// freshness the server promises.
    DeadlineOutOfBounds {
        /// The requested latency budget.
        requested: Duration,
        /// The server's bound.
        bound: Duration,
    },
    /// The request's staleness budget exceeds the server's TTL
    /// ([`crate::ServeConfig::staleness_bound`]). Rejected at admission —
    /// not silently clamped — because a loose `max_staleness` in a batch
    /// would otherwise let a cached round *older than the TTL* answer it
    /// (the batch freshness bound is the minimum over its members, and a
    /// lone request is its own batch).
    StalenessOutOfBounds {
        /// The requested staleness budget.
        requested: Duration,
        /// The server's bound (its TTL).
        bound: Duration,
    },
    /// The serve configuration violates its contract
    /// ([`rtse_check::Validate`] on [`crate::ServeConfig`]).
    InvalidConfig(InvariantViolation),
    /// The server dropped the reply channel without answering. This is
    /// defensive: the drain-on-shutdown protocol answers every pending
    /// request, so seeing this indicates a server bug.
    ChannelClosed,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::QueueFull { depth } => {
                write!(f, "request queue full (capacity {depth}); back off and retry")
            }
            ServeError::DeadlineExceeded { missed_by } => {
                write!(f, "deadline exceeded by {missed_by:?}; request shed")
            }
            ServeError::ShuttingDown => write!(f, "server is shutting down"),
            ServeError::EmptyQuery => write!(f, "{}", QueryError::EmptyRoads),
            ServeError::RoadOutOfRange { road, num_roads } => {
                write!(f, "queried road {road} is out of range (network has {num_roads} roads)")
            }
            ServeError::SlotOutOfRange { slot } => {
                write!(f, "slot {} is not a slot of the day (0..288)", slot.0)
            }
            ServeError::WorldMismatch { what, expected, got } => {
                write!(f, "{what} has {got} entries but the network has {expected} roads")
            }
            ServeError::DeadlineOutOfBounds { requested, bound } => {
                write!(f, "deadline {requested:?} exceeds the server's {bound:?} bound")
            }
            ServeError::StalenessOutOfBounds { requested, bound } => {
                write!(f, "max_staleness {requested:?} exceeds the server's {bound:?} TTL")
            }
            ServeError::InvalidConfig(v) => write!(f, "invalid serve config: {v}"),
            ServeError::ChannelClosed => {
                write!(f, "server closed the reply channel without answering")
            }
        }
    }
}

impl Error for ServeError {}

impl From<QueryError> for ServeError {
    fn from(e: QueryError) -> Self {
        match e {
            QueryError::EmptyRoads => ServeError::EmptyQuery,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_failure() {
        let cases: Vec<(ServeError, &str)> = vec![
            (ServeError::QueueFull { depth: 4 }, "capacity 4"),
            (
                ServeError::DeadlineExceeded { missed_by: Duration::from_millis(3) },
                "deadline exceeded",
            ),
            (ServeError::ShuttingDown, "shutting down"),
            (ServeError::EmptyQuery, "no roads"),
            (ServeError::RoadOutOfRange { road: RoadId(9), num_roads: 5 }, "out of range"),
            (ServeError::SlotOutOfRange { slot: SlotOfDay(400) }, "400"),
            (ServeError::WorldMismatch { what: "costs", expected: 5, got: 3 }, "costs"),
            (
                ServeError::DeadlineOutOfBounds {
                    requested: Duration::from_secs(900),
                    bound: Duration::from_secs(60),
                },
                "bound",
            ),
            (
                ServeError::StalenessOutOfBounds {
                    requested: Duration::from_secs(900),
                    bound: Duration::from_secs(60),
                },
                "TTL",
            ),
            (ServeError::ChannelClosed, "without answering"),
        ];
        for (err, needle) in cases {
            let msg = err.to_string();
            assert!(msg.contains(needle), "{msg:?} should contain {needle:?}");
        }
    }

    #[test]
    fn query_error_converts() {
        assert_eq!(ServeError::from(QueryError::EmptyRoads), ServeError::EmptyQuery);
    }
}
