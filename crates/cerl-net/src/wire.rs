//! The length-prefixed binary wire protocol.
//!
//! Every frame on the socket is a `u32` little-endian payload length
//! followed by that many payload bytes. Payloads are versioned and
//! typed; all multi-byte integers and floats are little-endian.
//!
//! **Request** (`kind = 0`, client → server):
//!
//! | field | type | notes |
//! |-------|------|-------|
//! | magic | `u8` | always `0xC3` |
//! | version | `u8` | wire protocol version, currently 1 |
//! | kind | `u8` | 0 = predict request |
//! | flags | `u8` | reserved, must be 0 |
//! | request id | `u64` | echoed verbatim in the response |
//! | deadline | `u32` | milliseconds the client will wait; 0 = none |
//! | rows | `u32` | covariate rows in this request |
//! | cols | `u32` | covariate columns per row |
//! | domain tags | `rows × u64` | per-row domain ids (scatter routing) |
//! | covariates | `rows·cols × f64` | row-major, IEEE-754 bit patterns |
//!
//! **Response** (`kind = 1`, server → client):
//!
//! | field | type | notes |
//! |-------|------|-------|
//! | magic | `u8` | always `0xC3` |
//! | version | `u8` | 1 |
//! | kind | `u8` | 1 = predict response |
//! | status | `u8` | see [`Status`] |
//! | request id | `u64` | copied from the request |
//! | `Ok`: rows | `u32` | predicted ITE count |
//! | `Ok`: ites | `rows × f64` | bitwise identical to in-process inference |
//! | error: detail | `u32` + UTF-8 | human-readable reason |
//!
//! **Admin request** (`kind = 2`, client → server, admin listener only):
//!
//! | field | type | notes |
//! |-------|------|-------|
//! | magic | `u8` | always `0xC3` |
//! | version | `u8` | 1 |
//! | kind | `u8` | 2 = admin request |
//! | op | `u8` | see [`AdminOp`] |
//! | request id | `u64` | echoed verbatim in the response |
//!
//! **Admin response** (`kind = 3`, server → client):
//!
//! | field | type | notes |
//! |-------|------|-------|
//! | magic | `u8` | always `0xC3` |
//! | version | `u8` | 1 |
//! | kind | `u8` | 3 = admin response |
//! | status | `u8` | see [`Status`] |
//! | request id | `u64` | copied from the request |
//! | body | `u32` + UTF-8 | op-specific text (metrics exposition, health line, trace dump) |
//!
//! Admin frames are only decoded on the server's **admin** listener and
//! serve frames only on the serve listener — a predict request sent to
//! the admin port (or vice versa) is rejected as
//! [`WireError::UnknownKind`] before any work is done.
//!
//! Floats travel as raw IEEE-754 bit patterns (`f64::to_bits`), so a
//! prediction served over the socket is **bitwise identical** to the
//! same request answered in-process — the serving stack's core
//! determinism contract extends across the wire.
//!
//! Decoding never panics: every read is bounds-checked and every
//! arithmetic step is `checked_*`, so hostile bytes (fuzzed headers,
//! truncated frames, absurd row counts) surface as typed [`WireError`]s
//! the server answers with [`Status::MalformedRequest`] before closing
//! the connection.

use std::fmt;

/// First byte of every frame payload.
pub const WIRE_MAGIC: u8 = 0xC3;
/// Wire protocol version this build speaks.
pub const WIRE_VERSION: u8 = 1;
/// Hard ceiling on a frame payload (length prefix): a hostile 4 GiB
/// length cannot make the server allocate.
pub const MAX_FRAME_BYTES: usize = 16 << 20;
/// Hard ceiling on rows per request, independent of frame size.
pub const MAX_REQUEST_ROWS: u32 = 65_536;

const KIND_REQUEST: u8 = 0;
const KIND_RESPONSE: u8 = 1;
const KIND_ADMIN_REQUEST: u8 = 2;
const KIND_ADMIN_RESPONSE: u8 = 3;

/// Response status byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Status {
    /// Request served; payload carries the predicted ITEs.
    Ok = 0,
    /// The request bytes or shape were invalid (client fault). The
    /// server closes the connection after this response — framing can
    /// no longer be trusted.
    MalformedRequest = 1,
    /// A domain tag is not routed by the fleet (client fault).
    UnknownDomain = 2,
    /// The request's deadline expired before inference started; the
    /// work was shed without touching the inference pool (client-side
    /// budget, counted as a client fault).
    Deadline = 3,
    /// The serving queue was full; retry with backoff (serve fault).
    Overloaded = 4,
    /// The backend is shutting down (serve fault).
    ShuttingDown = 5,
    /// The backend failed a well-formed request (serve fault).
    ServeFault = 6,
}

impl Status {
    /// Whether this status blames the request, not the fleet — the
    /// wire-level extension of
    /// [`ServeError::is_client_fault`](cerl_serve::ServeError::is_client_fault):
    /// a client flooding malformed frames or impossible deadlines must
    /// not look like a fleet regression to a canary watcher.
    pub fn is_client_fault(self) -> bool {
        // Exhaustive on purpose (no wildcard arm): a new `Status` must
        // be classified here before it compiles — both the compiler and
        // `cerl-analyze`'s taxonomy rule check it.
        match self {
            Status::MalformedRequest | Status::UnknownDomain | Status::Deadline => true,
            Status::Ok | Status::Overloaded | Status::ShuttingDown | Status::ServeFault => false,
        }
    }

    fn from_byte(b: u8) -> Result<Self, WireError> {
        Ok(match b {
            0 => Status::Ok,
            1 => Status::MalformedRequest,
            2 => Status::UnknownDomain,
            3 => Status::Deadline,
            4 => Status::Overloaded,
            5 => Status::ShuttingDown,
            6 => Status::ServeFault,
            other => return Err(WireError::UnknownStatus(other)),
        })
    }
}

/// A decoded prediction request.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Client-chosen correlation id, echoed in the response.
    pub request_id: u64,
    /// Milliseconds the client will wait for the answer (0 = forever).
    /// The clock starts when the server *decodes* the frame.
    pub deadline_ms: u32,
    /// Covariate columns per row.
    pub cols: u32,
    /// Per-row domain tags (`rows` entries).
    pub tags: Vec<u64>,
    /// Row-major covariates (`rows × cols` values).
    pub covariates: Vec<f64>,
}

impl Request {
    /// Rows in this request.
    pub fn rows(&self) -> usize {
        self.tags.len()
    }
}

/// A decoded prediction response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The request was served.
    Ite {
        /// Echo of the request's id.
        request_id: u64,
        /// One predicted ITE per request row, in request row order.
        ite: Vec<f64>,
    },
    /// The request was rejected or shed.
    Error {
        /// Echo of the request's id (0 when the id itself could not be
        /// decoded).
        request_id: u64,
        /// Why (never [`Status::Ok`]).
        status: Status,
        /// Human-readable detail.
        detail: String,
    },
}

impl Response {
    /// The request id this response answers.
    pub fn request_id(&self) -> u64 {
        match self {
            Response::Ite { request_id, .. } | Response::Error { request_id, .. } => *request_id,
        }
    }
}

/// Operation byte of an admin request frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum AdminOp {
    /// Scrape the unified metrics registry; the response body is
    /// Prometheus-style text exposition.
    Metrics = 0,
    /// Liveness probe; the response body is `ok:<versions>:<inflight>`
    /// (same shape as the UDP health datagram reply).
    Health = 1,
    /// Dump recently completed trace spans and orchestration events;
    /// the response body is one line per span/event.
    TraceDump = 2,
}

impl AdminOp {
    fn from_byte(b: u8) -> Result<Self, WireError> {
        Ok(match b {
            0 => AdminOp::Metrics,
            1 => AdminOp::Health,
            2 => AdminOp::TraceDump,
            other => return Err(WireError::UnknownAdminOp(other)),
        })
    }
}

/// A decoded admin request (admin listener only).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdminRequest {
    /// Client-chosen correlation id, echoed in the response.
    pub request_id: u64,
    /// What the client wants.
    pub op: AdminOp,
}

/// A decoded admin response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdminResponse {
    /// Echo of the request's id.
    pub request_id: u64,
    /// [`Status::Ok`] on success; error statuses carry the reason in
    /// the body.
    pub status: Status,
    /// Op-specific UTF-8 text (metrics exposition, health line, trace
    /// dump — or the error detail).
    pub body: String,
}

/// Typed decode failures; hostile bytes end here, never in a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The length prefix exceeds [`MAX_FRAME_BYTES`].
    FrameTooLarge {
        /// Declared payload length.
        declared: usize,
    },
    /// The payload ended before the field being read.
    Truncated {
        /// What was being decoded when bytes ran out.
        reading: &'static str,
    },
    /// First payload byte was not [`WIRE_MAGIC`].
    BadMagic(u8),
    /// The version byte names a protocol this build does not speak.
    UnsupportedVersion(u8),
    /// The kind byte is neither request nor response.
    UnknownKind(u8),
    /// Reserved flag bits were set.
    BadFlags(u8),
    /// The status byte is outside the [`Status`] range.
    UnknownStatus(u8),
    /// The admin op byte is outside the [`AdminOp`] range.
    UnknownAdminOp(u8),
    /// The declared row count exceeds [`MAX_REQUEST_ROWS`].
    RowLimit {
        /// Declared rows.
        rows: u32,
    },
    /// Declared shape and payload length disagree (or overflow).
    SizeMismatch {
        /// Bytes the declared shape requires.
        expected: usize,
        /// Bytes actually present.
        found: usize,
    },
    /// A text field (an error detail or an admin body) is not UTF-8.
    InvalidText {
        /// Which field.
        reading: &'static str,
    },
    /// A well-framed request holds a NaN or infinite covariate. Unlike
    /// the other variants the framing is intact, so only this request is
    /// refused and the connection carries on.
    NonFiniteCovariate {
        /// The refused request's id.
        request_id: u64,
        /// First row holding a non-finite value.
        row: u32,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::FrameTooLarge { declared } => write!(
                f,
                "frame declares {declared} payload bytes (limit {MAX_FRAME_BYTES})"
            ),
            WireError::Truncated { reading } => {
                write!(f, "payload truncated while reading {reading}")
            }
            WireError::BadMagic(b) => write!(f, "bad magic byte {b:#04x} (want {WIRE_MAGIC:#04x})"),
            WireError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported wire version {v} (this build speaks {WIRE_VERSION})"
                )
            }
            WireError::UnknownKind(k) => write!(f, "unknown frame kind {k}"),
            WireError::BadFlags(b) => write!(f, "reserved flag bits set: {b:#04x}"),
            WireError::UnknownStatus(s) => write!(f, "unknown status byte {s}"),
            WireError::UnknownAdminOp(op) => write!(f, "unknown admin op byte {op}"),
            WireError::RowLimit { rows } => {
                write!(f, "request declares {rows} rows (limit {MAX_REQUEST_ROWS})")
            }
            WireError::SizeMismatch { expected, found } => write!(
                f,
                "declared shape needs {expected} payload bytes, found {found}"
            ),
            WireError::InvalidText { reading } => write!(f, "{reading} is not valid UTF-8"),
            WireError::NonFiniteCovariate { request_id, row } => write!(
                f,
                "request {request_id} holds a non-finite covariate in row {row}"
            ),
        }
    }
}

impl std::error::Error for WireError {}

/// Bounds-checked little-endian reader over a frame payload.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn take(&mut self, n: usize, reading: &'static str) -> Result<&'a [u8], WireError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.buf.len())
            .ok_or(WireError::Truncated { reading })?;
        // panic-ok: `end` was validated against `buf.len()` on the line
        // above and `pos <= end` by construction.
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self, reading: &'static str) -> Result<u8, WireError> {
        Ok(self.take(1, reading)?[0])
    }

    fn u32(&mut self, reading: &'static str) -> Result<u32, WireError> {
        let bytes: [u8; 4] = self
            .take(4, reading)?
            .try_into()
            .map_err(|_| WireError::Truncated { reading })?;
        Ok(u32::from_le_bytes(bytes))
    }

    fn u64(&mut self, reading: &'static str) -> Result<u64, WireError> {
        let bytes: [u8; 8] = self
            .take(8, reading)?
            .try_into()
            .map_err(|_| WireError::Truncated { reading })?;
        Ok(u64::from_le_bytes(bytes))
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// The next `len` bytes as text. They must be UTF-8: a lossy decode
    /// would widen each invalid byte into a 3-byte replacement character,
    /// so a frame could make its decoder allocate more than it sent.
    fn text(&mut self, len: usize, reading: &'static str) -> Result<String, WireError> {
        let bytes = self.take(len, reading)?;
        std::str::from_utf8(bytes)
            .map(str::to_owned)
            .map_err(|_| WireError::InvalidText { reading })
    }
}

fn header(cursor: &mut Cursor<'_>, want_kind: u8) -> Result<(), WireError> {
    let magic = cursor.u8("magic")?;
    if magic != WIRE_MAGIC {
        return Err(WireError::BadMagic(magic));
    }
    let version = cursor.u8("version")?;
    if version != WIRE_VERSION {
        return Err(WireError::UnsupportedVersion(version));
    }
    let kind = cursor.u8("kind")?;
    if kind != want_kind {
        return Err(WireError::UnknownKind(kind));
    }
    Ok(())
}

/// Append `request` to `out` as one frame (length prefix included).
pub fn encode_request(request: &Request, out: &mut Vec<u8>) {
    let rows = request.tags.len();
    let payload = 4 + 8 + 4 + 4 + 4 + rows * 8 + request.covariates.len() * 8;
    out.reserve(4 + payload);
    out.extend_from_slice(&(payload as u32).to_le_bytes());
    out.extend_from_slice(&[WIRE_MAGIC, WIRE_VERSION, KIND_REQUEST, 0]);
    out.extend_from_slice(&request.request_id.to_le_bytes());
    out.extend_from_slice(&request.deadline_ms.to_le_bytes());
    out.extend_from_slice(&(rows as u32).to_le_bytes());
    out.extend_from_slice(&request.cols.to_le_bytes());
    for tag in &request.tags {
        out.extend_from_slice(&tag.to_le_bytes());
    }
    for value in &request.covariates {
        out.extend_from_slice(&value.to_bits().to_le_bytes());
    }
}

/// Decode one request payload (the bytes *after* the length prefix).
pub fn decode_request(payload: &[u8]) -> Result<Request, WireError> {
    let mut cursor = Cursor::new(payload);
    header(&mut cursor, KIND_REQUEST)?;
    let flags = cursor.u8("flags")?;
    if flags != 0 {
        return Err(WireError::BadFlags(flags));
    }
    let request_id = cursor.u64("request id")?;
    let deadline_ms = cursor.u32("deadline")?;
    let rows = cursor.u32("row count")?;
    if rows > MAX_REQUEST_ROWS {
        return Err(WireError::RowLimit { rows });
    }
    let cols = cursor.u32("column count")?;
    let body = (rows as usize)
        .checked_mul(8)
        .and_then(|tags| {
            (rows as usize)
                .checked_mul(cols as usize)?
                .checked_mul(8)?
                .checked_add(tags)
        })
        .ok_or(WireError::SizeMismatch {
            expected: usize::MAX,
            found: cursor.remaining(),
        })?;
    if body != cursor.remaining() {
        return Err(WireError::SizeMismatch {
            expected: body,
            found: cursor.remaining(),
        });
    }
    let mut tags = Vec::with_capacity(rows as usize);
    for _ in 0..rows {
        tags.push(cursor.u64("domain tag")?);
    }
    let values = rows as usize * cols as usize;
    let mut covariates = Vec::with_capacity(values);
    let mut non_finite = None;
    for k in 0..values {
        let v = f64::from_bits(cursor.u64("covariate")?);
        if !v.is_finite() && non_finite.is_none() {
            non_finite = Some(k / cols as usize);
        }
        covariates.push(v);
    }
    if let Some(row) = non_finite {
        return Err(WireError::NonFiniteCovariate {
            request_id,
            // The row is below `rows`, a `u32`.
            row: row as u32,
        });
    }
    Ok(Request {
        request_id,
        deadline_ms,
        cols,
        tags,
        covariates,
    })
}

/// Append `response` to `out` as one frame (length prefix included).
pub fn encode_response(response: &Response, out: &mut Vec<u8>) {
    match response {
        Response::Ite { request_id, ite } => {
            let payload = 4 + 8 + 4 + ite.len() * 8;
            out.reserve(4 + payload);
            out.extend_from_slice(&(payload as u32).to_le_bytes());
            out.extend_from_slice(&[WIRE_MAGIC, WIRE_VERSION, KIND_RESPONSE, Status::Ok as u8]);
            out.extend_from_slice(&request_id.to_le_bytes());
            out.extend_from_slice(&(ite.len() as u32).to_le_bytes());
            for value in ite {
                out.extend_from_slice(&value.to_bits().to_le_bytes());
            }
        }
        Response::Error {
            request_id,
            status,
            detail,
        } => {
            let detail = detail.as_bytes();
            let payload = 4 + 8 + 4 + detail.len();
            out.reserve(4 + payload);
            out.extend_from_slice(&(payload as u32).to_le_bytes());
            out.extend_from_slice(&[WIRE_MAGIC, WIRE_VERSION, KIND_RESPONSE, *status as u8]);
            out.extend_from_slice(&request_id.to_le_bytes());
            out.extend_from_slice(&(detail.len() as u32).to_le_bytes());
            out.extend_from_slice(detail);
        }
    }
}

/// Decode one response payload (the bytes *after* the length prefix).
pub fn decode_response(payload: &[u8]) -> Result<Response, WireError> {
    let mut cursor = Cursor::new(payload);
    header(&mut cursor, KIND_RESPONSE)?;
    let status = Status::from_byte(cursor.u8("status")?)?;
    let request_id = cursor.u64("request id")?;
    if status == Status::Ok {
        let rows = cursor.u32("row count")?;
        if rows > MAX_REQUEST_ROWS {
            return Err(WireError::RowLimit { rows });
        }
        let expected = rows as usize * 8;
        if expected != cursor.remaining() {
            return Err(WireError::SizeMismatch {
                expected,
                found: cursor.remaining(),
            });
        }
        let mut ite = Vec::with_capacity(rows as usize);
        for _ in 0..rows {
            ite.push(f64::from_bits(cursor.u64("ite value")?));
        }
        Ok(Response::Ite { request_id, ite })
    } else {
        let len = cursor.u32("detail length")? as usize;
        if len != cursor.remaining() {
            return Err(WireError::SizeMismatch {
                expected: len,
                found: cursor.remaining(),
            });
        }
        let detail = cursor.text(len, "detail")?;
        Ok(Response::Error {
            request_id,
            status,
            detail,
        })
    }
}

/// Append `request` to `out` as one admin frame (length prefix included).
pub fn encode_admin_request(request: &AdminRequest, out: &mut Vec<u8>) {
    let payload = 4 + 8;
    out.reserve(4 + payload);
    out.extend_from_slice(&(payload as u32).to_le_bytes());
    out.extend_from_slice(&[
        WIRE_MAGIC,
        WIRE_VERSION,
        KIND_ADMIN_REQUEST,
        request.op as u8,
    ]);
    out.extend_from_slice(&request.request_id.to_le_bytes());
}

/// Decode one admin request payload (the bytes *after* the length
/// prefix).
pub fn decode_admin_request(payload: &[u8]) -> Result<AdminRequest, WireError> {
    let mut cursor = Cursor::new(payload);
    header(&mut cursor, KIND_ADMIN_REQUEST)?;
    let op = AdminOp::from_byte(cursor.u8("admin op")?)?;
    let request_id = cursor.u64("request id")?;
    if cursor.remaining() != 0 {
        return Err(WireError::SizeMismatch {
            expected: 0,
            found: cursor.remaining(),
        });
    }
    Ok(AdminRequest { request_id, op })
}

/// Append `response` to `out` as one admin frame (length prefix
/// included).
pub fn encode_admin_response(response: &AdminResponse, out: &mut Vec<u8>) {
    let body = response.body.as_bytes();
    let payload = 4 + 8 + 4 + body.len();
    out.reserve(4 + payload);
    out.extend_from_slice(&(payload as u32).to_le_bytes());
    out.extend_from_slice(&[
        WIRE_MAGIC,
        WIRE_VERSION,
        KIND_ADMIN_RESPONSE,
        response.status as u8,
    ]);
    out.extend_from_slice(&response.request_id.to_le_bytes());
    out.extend_from_slice(&(body.len() as u32).to_le_bytes());
    out.extend_from_slice(body);
}

/// Decode one admin response payload (the bytes *after* the length
/// prefix).
pub fn decode_admin_response(payload: &[u8]) -> Result<AdminResponse, WireError> {
    let mut cursor = Cursor::new(payload);
    header(&mut cursor, KIND_ADMIN_RESPONSE)?;
    let status = Status::from_byte(cursor.u8("status")?)?;
    let request_id = cursor.u64("request id")?;
    let len = cursor.u32("body length")? as usize;
    if len != cursor.remaining() {
        return Err(WireError::SizeMismatch {
            expected: len,
            found: cursor.remaining(),
        });
    }
    let body = cursor.text(len, "body")?;
    Ok(AdminResponse {
        request_id,
        status,
        body,
    })
}

/// Incremental frame assembler: feed it raw socket bytes, pull complete
/// payloads. Both the server's per-connection read path and the
/// blocking client use it.
#[derive(Debug, Default)]
pub struct FrameReader {
    buf: Vec<u8>,
    /// Consumed prefix of `buf`; compacted when it outgrows the tail so
    /// a long-lived connection does not grow its buffer forever.
    start: usize,
}

/// Little-endian `u32` length prefix at the head of `bytes`, `None`
/// when fewer than 4 bytes are buffered. A hostile peer controls these
/// bytes, so this must never panic.
fn length_prefix(bytes: &[u8]) -> Option<usize> {
    let head: [u8; 4] = bytes.get(..4)?.try_into().ok()?;
    Some(u32::from_le_bytes(head) as usize)
}

impl FrameReader {
    /// Empty assembler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append raw bytes read from the socket.
    pub fn extend(&mut self, bytes: &[u8]) {
        if self.start > 0 && self.start >= self.buf.len().saturating_sub(self.start) {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet returned as a frame.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Whether a complete frame is buffered (cheap peek, no copy).
    pub fn has_frame(&self) -> bool {
        // panic-ok: `start <= buf.len()` is a struct invariant — it only
        // ever advances past bytes already present in `buf`.
        let avail = &self.buf[self.start..];
        let Some(len) = length_prefix(avail) else {
            return false;
        };
        // An oversized declaration still counts: next_frame must run to
        // report the error.
        len > MAX_FRAME_BYTES || avail.len() >= 4 + len
    }

    /// Pop the next complete payload, `Ok(None)` if more bytes are
    /// needed, or the frame-level error for a hostile length prefix.
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, WireError> {
        // panic-ok: `start <= buf.len()` is a struct invariant — it only
        // ever advances past bytes already present in `buf`.
        let avail = &self.buf[self.start..];
        let Some(len) = length_prefix(avail) else {
            return Ok(None);
        };
        if len > MAX_FRAME_BYTES {
            return Err(WireError::FrameTooLarge { declared: len });
        }
        if avail.len() < 4 + len {
            return Ok(None);
        }
        // panic-ok: `avail.len() >= 4 + len` was checked two lines up.
        let payload = avail[4..4 + len].to_vec();
        self.start += 4 + len;
        if self.start == self.buf.len() {
            self.buf.clear();
            self.start = 0;
        }
        Ok(Some(payload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_request() -> Request {
        Request {
            request_id: 0xDEAD_BEEF_0BAD_F00D,
            deadline_ms: 250,
            cols: 3,
            tags: vec![7, 7, 9],
            covariates: vec![
                0.5,
                -1.25,
                f64::MIN_POSITIVE,
                0.0,
                -0.0,
                3.5,
                1e300,
                -7.0,
                42.0,
            ],
        }
    }

    #[test]
    fn request_roundtrips_bitwise() {
        let request = sample_request();
        let mut frame = Vec::new();
        encode_request(&request, &mut frame);
        let mut reader = FrameReader::new();
        reader.extend(&frame);
        let payload = reader.next_frame().unwrap().unwrap();
        assert_eq!(decode_request(&payload).unwrap(), request);
        assert_eq!(reader.buffered(), 0);
    }

    #[test]
    fn response_roundtrips_both_arms() {
        let ok = Response::Ite {
            request_id: 11,
            ite: vec![1.5, -2.25, f64::NEG_INFINITY],
        };
        let err = Response::Error {
            request_id: 12,
            status: Status::Overloaded,
            detail: "queue full".into(),
        };
        for response in [ok, err] {
            let mut frame = Vec::new();
            encode_response(&response, &mut frame);
            let mut reader = FrameReader::new();
            reader.extend(&frame);
            let payload = reader.next_frame().unwrap().unwrap();
            assert_eq!(decode_response(&payload).unwrap(), response);
        }
    }

    #[test]
    fn every_truncation_of_a_valid_request_is_a_typed_error() {
        let mut frame = Vec::new();
        encode_request(&sample_request(), &mut frame);
        let payload = &frame[4..];
        for cut in 0..payload.len() {
            match decode_request(&payload[..cut]) {
                Err(WireError::Truncated { .. }) | Err(WireError::SizeMismatch { .. }) => {}
                other => panic!("cut at {cut}: expected typed error, got {other:?}"),
            }
        }
    }

    #[test]
    fn hostile_headers_are_rejected_not_panicked_on() {
        let mut frame = Vec::new();
        encode_request(&sample_request(), &mut frame);
        let good = frame[4..].to_vec();

        let mut bad_magic = good.clone();
        bad_magic[0] = 0x00;
        assert_eq!(decode_request(&bad_magic), Err(WireError::BadMagic(0x00)));

        let mut bad_version = good.clone();
        bad_version[1] = 9;
        assert_eq!(
            decode_request(&bad_version),
            Err(WireError::UnsupportedVersion(9))
        );

        let mut bad_kind = good.clone();
        bad_kind[2] = 7;
        assert_eq!(decode_request(&bad_kind), Err(WireError::UnknownKind(7)));

        let mut bad_flags = good.clone();
        bad_flags[3] = 0x80;
        assert_eq!(decode_request(&bad_flags), Err(WireError::BadFlags(0x80)));

        // Absurd row count: rejected before any allocation is sized.
        let mut huge_rows = good.clone();
        huge_rows[16..20].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            decode_request(&huge_rows),
            Err(WireError::RowLimit { rows: u32::MAX })
        );

        // Shape that multiplies past the payload: SizeMismatch, and the
        // expected size is computed with checked arithmetic.
        let mut fat_cols = good;
        fat_cols[20..24].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            decode_request(&fat_cols),
            Err(WireError::SizeMismatch { .. })
        ));

        let mut bad_status = Vec::new();
        encode_response(
            &Response::Error {
                request_id: 1,
                status: Status::ServeFault,
                detail: String::new(),
            },
            &mut bad_status,
        );
        let mut payload = bad_status[4..].to_vec();
        payload[3] = 200;
        assert_eq!(
            decode_response(&payload),
            Err(WireError::UnknownStatus(200))
        );
    }

    #[test]
    fn frame_reader_reassembles_byte_dribbles_and_pipelined_frames() {
        let mut stream = Vec::new();
        let requests: Vec<Request> = (0..5)
            .map(|i| Request {
                request_id: i,
                deadline_ms: 0,
                cols: 2,
                tags: vec![i; 3],
                covariates: vec![i as f64; 6],
            })
            .collect();
        for request in &requests {
            encode_request(request, &mut stream);
        }

        // One byte at a time: frames pop exactly at their boundaries.
        let mut reader = FrameReader::new();
        let mut decoded = Vec::new();
        for byte in &stream {
            reader.extend(std::slice::from_ref(byte));
            while let Some(payload) = reader.next_frame().unwrap() {
                decoded.push(decode_request(&payload).unwrap());
            }
        }
        assert_eq!(decoded, requests);
        assert_eq!(reader.buffered(), 0);

        // All at once: has_frame reports pipelined frames until drained.
        let mut reader = FrameReader::new();
        reader.extend(&stream);
        let mut n = 0;
        while reader.has_frame() {
            reader.next_frame().unwrap().unwrap();
            n += 1;
        }
        assert_eq!(n, requests.len());
    }

    #[test]
    fn frame_reader_rejects_oversized_length_prefix() {
        let mut reader = FrameReader::new();
        reader.extend(&(u32::MAX).to_le_bytes());
        assert!(
            reader.has_frame(),
            "oversized frame must surface, not stall"
        );
        assert_eq!(
            reader.next_frame(),
            Err(WireError::FrameTooLarge {
                declared: u32::MAX as usize
            })
        );
    }

    #[test]
    fn admin_frames_roundtrip_and_stay_off_the_serve_listener() {
        for op in [AdminOp::Metrics, AdminOp::Health, AdminOp::TraceDump] {
            let request = AdminRequest { request_id: 77, op };
            let mut frame = Vec::new();
            encode_admin_request(&request, &mut frame);
            let mut reader = FrameReader::new();
            reader.extend(&frame);
            let payload = reader.next_frame().unwrap().unwrap();
            assert_eq!(decode_admin_request(&payload).unwrap(), request);
            // A predict listener must reject the same payload outright.
            assert_eq!(
                decode_request(&payload),
                Err(WireError::UnknownKind(KIND_ADMIN_REQUEST))
            );
        }
        let response = AdminResponse {
            request_id: 77,
            status: Status::Ok,
            body: "cerl_net_requests_total 5\n".into(),
        };
        let mut frame = Vec::new();
        encode_admin_response(&response, &mut frame);
        let mut reader = FrameReader::new();
        reader.extend(&frame);
        let payload = reader.next_frame().unwrap().unwrap();
        assert_eq!(decode_admin_response(&payload).unwrap(), response);
        assert_eq!(
            decode_response(&payload),
            Err(WireError::UnknownKind(KIND_ADMIN_RESPONSE))
        );
        // And the admin listener rejects predict frames symmetrically.
        let mut predict = Vec::new();
        encode_request(&sample_request(), &mut predict);
        assert_eq!(
            decode_admin_request(&predict[4..]),
            Err(WireError::UnknownKind(KIND_REQUEST))
        );
    }

    #[test]
    fn hostile_admin_bytes_are_typed_errors() {
        let mut frame = Vec::new();
        encode_admin_request(
            &AdminRequest {
                request_id: 3,
                op: AdminOp::Health,
            },
            &mut frame,
        );
        let good = frame[4..].to_vec();
        for cut in 0..good.len() {
            match decode_admin_request(&good[..cut]) {
                Err(WireError::Truncated { .. }) | Err(WireError::SizeMismatch { .. }) => {}
                other => panic!("cut at {cut}: expected typed error, got {other:?}"),
            }
        }
        let mut bad_op = good.clone();
        bad_op[3] = 9;
        assert_eq!(
            decode_admin_request(&bad_op),
            Err(WireError::UnknownAdminOp(9))
        );
        let mut trailing = good;
        trailing.push(0);
        assert!(matches!(
            decode_admin_request(&trailing),
            Err(WireError::SizeMismatch { .. })
        ));
    }

    #[test]
    fn status_fault_classes_match_the_canary_contract() {
        for status in [
            Status::MalformedRequest,
            Status::UnknownDomain,
            Status::Deadline,
        ] {
            assert!(status.is_client_fault(), "{status:?}");
        }
        for status in [
            Status::Ok,
            Status::Overloaded,
            Status::ShuttingDown,
            Status::ServeFault,
        ] {
            assert!(!status.is_client_fault(), "{status:?}");
        }
    }
}
