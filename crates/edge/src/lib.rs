//! # rtse-edge — the wire in front of the serving layer
//!
//! `rtse-serve` answers speed queries in-process; this crate puts a TCP
//! socket in front of it, turning the paper's "realtime estimation" into
//! an actual network service:
//!
//! * **Wire protocol** ([`frame`]): length-prefixed binary frames
//!   (magic, version, request id, deadline/staleness budgets, road/slot
//!   payload). The decoder is incremental and fail-closed — every
//!   malformed byte is a typed [`FrameError`], an adversarial length
//!   prefix is rejected before any payload is buffered, and a partial
//!   read at any byte boundary just waits for more bytes.
//! * **Sharded accept loops** ([`server`]): [`EdgeConfig::shards`]
//!   listener threads (on the workspace compute pool), each owning its
//!   accepted connections outright — decode, pre-admission bounds
//!   checks, submit to the serving queue, fan answers back by request
//!   id, idle timeouts. The only cross-thread contention is the serving
//!   queue, which is exactly the backpressure boundary it is meant to be.
//! * **Slot-rollover prewarm** ([`rollover`]): a background thread
//!   builds the *next* 5-minute slot's correlation table and warms its
//!   answer cache before the boundary, so rollover stops being a
//!   recurring latency cliff (EXPERIMENTS.md records before/after).
//! * **Graceful drain**: shutdown resolves every in-flight request on
//!   the wire — answer or typed reject — flushes each connection, and
//!   says goodbye with a typed `GoAway` frame. No accepted request is
//!   dropped answerless.
//!
//! Everything is std-only: sockets from `std::net`, shared state through
//! `rtse-sync`, threads through `rtse-pool`.

pub mod client;
pub mod config;
mod conn;
pub mod error;
pub mod frame;
pub mod rollover;
pub mod server;

pub use client::{ClientError, ClientReply, EdgeClient};
pub use config::{EdgeConfig, PrewarmConfig, MAX_ROADS_PER_QUERY, MAX_SHARDS};
pub use error::EdgeError;
pub use frame::{
    decode_frame, encode_frame, AnswerFrame, DecodeLimits, Frame, FrameError, GoAwayCode,
    GoAwayFrame, QueryFrame, RejectCode, RejectFrame, HEADER_LEN, MAGIC, VERSION,
};
pub use rollover::SlotClock;
pub use server::{edge_serve, EdgeHandle, EdgeMetrics, EdgeMetricsSnapshot, EdgeOutcome};
