//! Minimal blocking client for the wire protocol.
//!
//! [`NetClient`] is the reference peer the integration tests, the
//! bench probe, and the examples use: one synchronous connection that
//! can pipeline many requests before reading any response. It is
//! deliberately plain `std::net` — the interesting concurrency lives
//! on the server's reactor, and a thousand of these across a handful
//! of threads is exactly the hostile herd the stress tests need.

use crate::wire::{
    self, AdminOp, AdminRequest, AdminResponse, FrameReader, Request, Response, Status, WireError,
};
use cerl_math::Matrix;
use std::io::{self, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Client-side failures.
#[derive(Debug)]
pub enum NetError {
    /// Socket-level failure (connect, read, write, or an EOF before a
    /// complete response frame).
    Io(io::Error),
    /// The server's bytes did not decode as a response frame.
    Wire(WireError),
    /// The server answered with an error status.
    Remote {
        /// Status byte from the response.
        status: Status,
        /// Server-provided human-readable detail.
        detail: String,
    },
    /// A response arrived for a different request id than the one a
    /// one-shot [`NetClient::predict`] call was waiting on (mixing
    /// `predict` with pipelined [`NetClient::send_request`]s).
    IdMismatch {
        /// Request id `predict` sent.
        expected: u64,
        /// Request id the response carried.
        found: u64,
    },
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "socket error: {e}"),
            NetError::Wire(e) => write!(f, "protocol error: {e}"),
            NetError::Remote { status, detail } => {
                write!(f, "server rejected request ({status:?}): {detail}")
            }
            NetError::IdMismatch { expected, found } => {
                write!(
                    f,
                    "response for request {found} while waiting on {expected}"
                )
            }
        }
    }
}

impl std::error::Error for NetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NetError::Io(e) => Some(e),
            NetError::Wire(e) => Some(e),
            NetError::Remote { .. } | NetError::IdMismatch { .. } => None,
        }
    }
}

impl From<io::Error> for NetError {
    fn from(e: io::Error) -> Self {
        NetError::Io(e)
    }
}

impl From<WireError> for NetError {
    fn from(e: WireError) -> Self {
        NetError::Wire(e)
    }
}

/// One blocking connection to a [`NetServer`](crate::NetServer).
pub struct NetClient {
    stream: TcpStream,
    reader: FrameReader,
    next_id: u64,
}

impl NetClient {
    /// Connect to a running server.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Self {
            stream,
            reader: FrameReader::new(),
            next_id: 1,
        })
    }

    /// Cap how long [`recv_response`](Self::recv_response) blocks on
    /// the socket (`None` = forever).
    pub fn set_read_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        self.stream.set_read_timeout(timeout)
    }

    /// Write one request frame without waiting for the answer; returns
    /// the request id to correlate the eventual response. Call
    /// repeatedly to pipeline.
    pub fn send_request(
        &mut self,
        tags: &[u64],
        x: &Matrix,
        deadline: Option<Duration>,
    ) -> io::Result<u64> {
        let request_id = self.next_id;
        self.next_id += 1;
        let request = Request {
            request_id,
            deadline_ms: deadline.map_or(0, |d| d.as_millis().clamp(1, u32::MAX as u128) as u32),
            cols: x.cols() as u32,
            tags: tags.to_vec(),
            covariates: x.as_slice().to_vec(),
        };
        let mut frame = Vec::new();
        wire::encode_request(&request, &mut frame);
        self.stream.write_all(&frame)?;
        Ok(request_id)
    }

    /// Write raw bytes straight onto the socket — the hostile-client
    /// hook the robustness tests use to send truncated or corrupt
    /// frames.
    pub fn send_raw(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.stream.write_all(bytes)
    }

    /// Block until the next complete response frame arrives and decode
    /// it. Against a scheduler backend, responses to pipelined requests
    /// arrive in submission order per connection; against a router
    /// backend they may arrive in completion order. Either way, deadline
    /// sheds and wire-fault errors are answered as soon as they happen,
    /// ahead of earlier requests still in flight, so match on
    /// [`Response::request_id`] when in doubt.
    pub fn recv_response(&mut self) -> Result<Response, NetError> {
        let mut buf = [0u8; 16 * 1024];
        loop {
            if let Some(payload) = self.reader.next_frame()? {
                return Ok(wire::decode_response(&payload)?);
            }
            let n = self.stream.read(&mut buf)?;
            if n == 0 {
                return Err(NetError::Io(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed the connection mid-response",
                )));
            }
            // panic-ok: read(2) returned n <= buf.len().
            self.reader.extend(&buf[..n]);
        }
    }

    /// Send one admin frame and block for its response body. Only
    /// meaningful on a connection to the server's **admin** listener
    /// ([`NetServer::admin_addr`](crate::NetServer::admin_addr)); the
    /// serve listener rejects admin frames as malformed.
    pub fn admin(&mut self, op: AdminOp) -> Result<String, NetError> {
        let request_id = self.next_id;
        self.next_id += 1;
        let mut frame = Vec::new();
        wire::encode_admin_request(&AdminRequest { request_id, op }, &mut frame);
        self.stream.write_all(&frame)?;
        let response = self.recv_admin_response()?;
        if response.status == Status::Ok && response.request_id == request_id {
            Ok(response.body)
        } else if response.request_id != request_id {
            Err(NetError::IdMismatch {
                expected: request_id,
                found: response.request_id,
            })
        } else {
            Err(NetError::Remote {
                status: response.status,
                detail: response.body,
            })
        }
    }

    /// Scrape the unified metrics exposition ([`AdminOp::Metrics`]).
    pub fn scrape_metrics(&mut self) -> Result<String, NetError> {
        self.admin(AdminOp::Metrics)
    }

    /// Fetch the `ok:<versions>:<inflight>` health line
    /// ([`AdminOp::Health`]).
    pub fn health(&mut self) -> Result<String, NetError> {
        self.admin(AdminOp::Health)
    }

    /// Fetch recently completed spans and fleet events
    /// ([`AdminOp::TraceDump`]).
    pub fn trace_dump(&mut self) -> Result<String, NetError> {
        self.admin(AdminOp::TraceDump)
    }

    /// Block until the next complete **admin** response frame arrives.
    pub fn recv_admin_response(&mut self) -> Result<AdminResponse, NetError> {
        let mut buf = [0u8; 16 * 1024];
        loop {
            if let Some(payload) = self.reader.next_frame()? {
                return Ok(wire::decode_admin_response(&payload)?);
            }
            let n = self.stream.read(&mut buf)?;
            if n == 0 {
                return Err(NetError::Io(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed the connection mid-response",
                )));
            }
            // panic-ok: read(2) returned n <= buf.len().
            self.reader.extend(&buf[..n]);
        }
    }

    /// Send one request and block for its prediction — the one-shot
    /// convenience path. `tags` carries one domain id per row of `x`.
    pub fn predict(
        &mut self,
        tags: &[u64],
        x: &Matrix,
        deadline: Option<Duration>,
    ) -> Result<Vec<f64>, NetError> {
        let sent = self.send_request(tags, x, deadline)?;
        let response = self.recv_response()?;
        match response {
            Response::Ite { request_id, ite } if request_id == sent => Ok(ite),
            Response::Ite { request_id, .. } => Err(NetError::IdMismatch {
                expected: sent,
                found: request_id,
            }),
            Response::Error { status, detail, .. } => Err(NetError::Remote { status, detail }),
        }
    }
}
