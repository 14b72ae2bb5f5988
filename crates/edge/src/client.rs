//! A minimal blocking client for the edge protocol.
//!
//! One connection, one request in flight: `connect → query → reply`.
//! The tests and the README quickstart use this. A client that keeps
//! many requests in flight on one connection (perfbench's open-loop
//! generator, for one) drives the socket with the frame codec directly
//! and matches replies to requests by id.

use crate::frame::{
    decode_frame, encode_frame, AnswerFrame, DecodeLimits, Frame, FrameError, GoAwayFrame,
    QueryFrame, RejectFrame,
};
use std::fmt;
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// What the server said to one query.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientReply {
    /// The estimates.
    Answer(AnswerFrame),
    /// A typed per-request rejection.
    Reject(RejectFrame),
}

/// Why a client call failed without a per-request reply.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure, rendered.
    Io(String),
    /// The server's bytes were not protocol (should never happen against
    /// a real edge; decisive when it does).
    Frame(FrameError),
    /// The server closed the connection with a typed notice.
    GoAway(GoAwayFrame),
    /// The connection ended without a reply.
    Closed,
    /// The reply's request id does not match the query's.
    IdMismatch {
        /// Id the query carried.
        sent: u64,
        /// Id the reply carried.
        got: u64,
    },
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "socket error: {e}"),
            ClientError::Frame(e) => write!(f, "protocol error: {e}"),
            ClientError::GoAway(g) => write!(f, "server closed the connection: {:?}", g.code),
            ClientError::Closed => write!(f, "connection ended without a reply"),
            ClientError::IdMismatch { sent, got } => {
                write!(f, "reply for request {got} but {sent} was asked")
            }
        }
    }
}

impl std::error::Error for ClientError {}

/// One blocking edge connection.
pub struct EdgeClient {
    stream: TcpStream,
    rbuf: Vec<u8>,
    limits: DecodeLimits,
    next_id: u64,
}

impl EdgeClient {
    /// Connects to an edge deployment.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, ClientError> {
        let stream = TcpStream::connect(addr).map_err(|e| ClientError::Io(e.to_string()))?;
        stream.set_nodelay(true).map_err(|e| ClientError::Io(e.to_string()))?;
        Ok(Self {
            stream,
            rbuf: Vec::new(),
            limits: DecodeLimits::for_max_roads(crate::config::MAX_ROADS_PER_QUERY),
            next_id: 1,
        })
    }

    /// Bounds how long [`Self::query`] blocks for the reply.
    pub fn set_reply_timeout(&mut self, timeout: Option<Duration>) -> Result<(), ClientError> {
        self.stream.set_read_timeout(timeout).map_err(|e| ClientError::Io(e.to_string()))
    }

    /// Sends one query and blocks for its reply.
    pub fn query(
        &mut self,
        roads: Vec<u32>,
        slot: u16,
        deadline_ms: Option<u32>,
        max_staleness_ms: Option<u32>,
    ) -> Result<ClientReply, ClientError> {
        let request_id = self.next_id;
        self.next_id += 1;
        let frame =
            Frame::Query(QueryFrame { request_id, deadline_ms, max_staleness_ms, slot, roads });
        let mut wire = Vec::new();
        encode_frame(&frame, &mut wire);
        self.stream.write_all(&wire).map_err(|e| ClientError::Io(e.to_string()))?;
        match self.recv_frame()? {
            Frame::Answer(a) if a.request_id == request_id => Ok(ClientReply::Answer(a)),
            Frame::Reject(r) if r.request_id == request_id => Ok(ClientReply::Reject(r)),
            Frame::Answer(a) => {
                Err(ClientError::IdMismatch { sent: request_id, got: a.request_id })
            }
            Frame::Reject(r) => {
                Err(ClientError::IdMismatch { sent: request_id, got: r.request_id })
            }
            Frame::GoAway(g) => Err(ClientError::GoAway(g)),
            Frame::Query(_) => Err(ClientError::Frame(FrameError::BadType { got: 1 })),
        }
    }

    /// Blocks until one complete frame arrives.
    pub fn recv_frame(&mut self) -> Result<Frame, ClientError> {
        loop {
            match decode_frame(&self.rbuf, self.limits) {
                Ok(Some((frame, consumed))) => {
                    self.rbuf.drain(..consumed);
                    return Ok(frame);
                }
                Ok(None) => {}
                Err(e) => return Err(ClientError::Frame(e)),
            }
            let mut chunk = [0u8; 4096];
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err(ClientError::Closed),
                Ok(n) => self.rbuf.extend_from_slice(chunk.get(..n).unwrap_or(&[])),
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(ClientError::Io(e.to_string())),
            }
        }
    }
}
