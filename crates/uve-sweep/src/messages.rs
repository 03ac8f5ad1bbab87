//! The wire protocol of the sweep service: typed messages over
//! length-prefixed frames.
//!
//! Every frame is a little-endian `u32` payload length followed by the
//! payload; the payload is a tag byte followed by the message fields.
//! Integers are fixed-width little-endian, strings are a `u32` length
//! plus UTF-8 bytes, enums are tag bytes. There is no self-description
//! and no versioning beyond [`PROTOCOL_VERSION`] in the hello messages —
//! both ends are built from the same tree.
//!
//! The decoding contract, enforced by the `sweep` conformance engine:
//!
//! - **fixpoint** — `encode(decode(encode(m))) == encode(m)` and
//!   `decode(encode(m)) == m` for every valid message;
//! - **never panics** — any byte sequence, truncated or corrupt, decodes
//!   to `Ok` or a typed [`WireError`], never a panic or an abort; frame
//!   lengths are capped at [`MAX_FRAME`] so a hostile peer cannot force
//!   an unbounded allocation.

use std::io::{Read, Write};

use crate::spec::{PointRow, PointSpec, SweepSpec, SweepStats};
use uve_core::{ExecMode, IndirectPacking};
use uve_isa::MemLevel;
use uve_kernels::Flavor;

/// Protocol version carried by the hello messages; bumped on any codec
/// change so a stale worker fails loudly instead of mis-decoding.
/// Version 2 added [`Msg::Unavailable`] (retryable coordinator-side
/// abandon) and [`Msg::Heartbeat`] (worker liveness during long jobs).
/// Version 3 dropped the exec-mode axis from [`SweepSpec`], changing the
/// [`Msg::SweepRequest`] layout.
pub const PROTOCOL_VERSION: u32 = 3;

/// Upper bound on a frame payload (16 MiB): decoding rejects larger
/// length prefixes before allocating.
pub const MAX_FRAME: usize = 16 << 20;

/// A typed decode failure. Decoding never panics; every malformed input
/// maps to one of these.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The payload ended before the field being read.
    Truncated,
    /// Unknown message or enum tag.
    BadTag(u8),
    /// A string field was not valid UTF-8.
    BadUtf8,
    /// A length prefix exceeded [`MAX_FRAME`] or a collection count was
    /// implausibly large for the remaining payload.
    Oversized(u64),
    /// Decoding finished with payload bytes left over.
    TrailingBytes(usize),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "payload truncated"),
            WireError::BadTag(t) => write!(f, "unknown tag {t}"),
            WireError::BadUtf8 => write!(f, "string field is not UTF-8"),
            WireError::Oversized(n) => write!(f, "length {n} exceeds the frame cap"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing byte(s) after the message"),
        }
    }
}

impl std::error::Error for WireError {}

/// Byte-buffer writer for the fixed-width little-endian wire format.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// A fresh, empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a bool as one byte (0/1).
    pub fn bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Appends a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }
}

/// Bounds-checked reader over a received payload.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader over `buf`, positioned at the start.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a bool byte; any nonzero value is `true`.
    pub fn bool(&mut self) -> Result<bool, WireError> {
        Ok(self.u8()? != 0)
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, WireError> {
        let n = self.u32()? as usize;
        if n > MAX_FRAME {
            return Err(WireError::Oversized(n as u64));
        }
        let b = self.take(n)?;
        String::from_utf8(b.to_vec()).map_err(|_| WireError::BadUtf8)
    }

    /// Reads a collection count, rejecting counts that could not possibly
    /// fit in the remaining payload (each element is ≥ `min_elem` bytes).
    pub fn count(&mut self, min_elem: usize) -> Result<usize, WireError> {
        let n = self.u32()? as usize;
        if n.saturating_mul(min_elem.max(1)) > self.remaining() {
            return Err(WireError::Oversized(n as u64));
        }
        Ok(n)
    }
}

// --- enum tag codecs ---------------------------------------------------

pub(crate) fn put_flavor(w: &mut Writer, f: Flavor) {
    w.u8(match f {
        Flavor::Uve => 0,
        Flavor::Sve => 1,
        Flavor::Neon => 2,
        Flavor::Scalar => 3,
    });
}

pub(crate) fn get_flavor(r: &mut Reader) -> Result<Flavor, WireError> {
    match r.u8()? {
        0 => Ok(Flavor::Uve),
        1 => Ok(Flavor::Sve),
        2 => Ok(Flavor::Neon),
        3 => Ok(Flavor::Scalar),
        t => Err(WireError::BadTag(t)),
    }
}

pub(crate) fn put_level(w: &mut Writer, l: MemLevel) {
    w.u8(match l {
        MemLevel::L1 => 0,
        MemLevel::L2 => 1,
        MemLevel::Mem => 2,
    });
}

pub(crate) fn get_level(r: &mut Reader) -> Result<MemLevel, WireError> {
    match r.u8()? {
        0 => Ok(MemLevel::L1),
        1 => Ok(MemLevel::L2),
        2 => Ok(MemLevel::Mem),
        t => Err(WireError::BadTag(t)),
    }
}

pub(crate) fn put_packing(w: &mut Writer, p: IndirectPacking) {
    w.u8(match p {
        IndirectPacking::Packed => 0,
        IndirectPacking::Unpacked => 1,
    });
}

pub(crate) fn get_packing(r: &mut Reader) -> Result<IndirectPacking, WireError> {
    match r.u8()? {
        0 => Ok(IndirectPacking::Packed),
        1 => Ok(IndirectPacking::Unpacked),
        t => Err(WireError::BadTag(t)),
    }
}

/// Writes [`PointSpec::exec`]: always tag 0, the one execution strategy.
pub(crate) fn put_exec(w: &mut Writer, e: ExecMode) {
    w.u8(match e {
        ExecMode::Interpret => 0,
    });
}

/// Reads [`PointSpec::exec`]. Tag 1, the translated mode of older builds,
/// is rejected like any unknown tag.
pub(crate) fn get_exec(r: &mut Reader) -> Result<ExecMode, WireError> {
    match r.u8()? {
        0 => Ok(ExecMode::Interpret),
        t => Err(WireError::BadTag(t)),
    }
}

// --- messages ----------------------------------------------------------

/// Every message either end of a connection can send.
///
/// Clients send `ClientHello`, then `SweepRequest`/`Ping`/`Shutdown`;
/// the coordinator answers with `Progress`*, then `SweepDone` or `Error`.
/// Workers send `WorkerHello`, then answer each `RunJob` with `JobOk` or
/// `JobErr`.
#[derive(Debug, Clone, PartialEq)]
pub enum Msg {
    /// First frame of a client connection.
    ClientHello {
        /// [`PROTOCOL_VERSION`] of the client build.
        version: u32,
    },
    /// First frame of a worker connection.
    WorkerHello {
        /// [`PROTOCOL_VERSION`] of the worker build.
        version: u32,
        /// Human-readable worker label (diagnostics only).
        name: String,
    },
    /// Client → coordinator: run this sweep grid.
    SweepRequest {
        /// The grid.
        spec: SweepSpec,
    },
    /// Coordinator → client: jobs of the requested sweep finished so far.
    Progress {
        /// Rows filled (cache hits + completed jobs).
        done: u32,
        /// Total rows in the sweep.
        total: u32,
        /// Rows satisfied straight from the result cache.
        cached: u32,
    },
    /// Coordinator → client: the merged sweep, in canonical grid order.
    SweepDone {
        /// Result rows, one per grid point, in [`SweepSpec::points`]
        /// order regardless of completion order.
        rows: Vec<PointRow>,
        /// Operational counters (not part of the determinism contract).
        stats: SweepStats,
    },
    /// Coordinator → client: the sweep (or request) failed.
    Error {
        /// Human-readable reason.
        message: String,
    },
    /// Coordinator → worker: execute one job.
    RunJob {
        /// Content-addressed job key (echoed back in the reply).
        job: u64,
        /// The grid point to evaluate.
        point: PointSpec,
    },
    /// Worker → coordinator: job finished.
    JobOk {
        /// Echoed job key.
        job: u64,
        /// The measured row.
        row: PointRow,
        /// Fresh functional emulations this job cost the worker: 0 when
        /// the worker's one resident trace was already the job's own,
        /// else 1.
        emulations: u32,
    },
    /// Worker → coordinator: job panicked or timed out on this worker.
    JobErr {
        /// Echoed job key.
        job: u64,
        /// Panic message or timeout marker.
        message: String,
    },
    /// Liveness probe.
    Ping,
    /// Probe answer.
    Pong,
    /// Client → coordinator: drain and exit (also coordinator → worker:
    /// disconnect cleanly).
    Shutdown,
    /// Coordinator → client: the sweep was abandoned for an operational
    /// (non-semantic) reason — e.g. the coordinator is shutting down.
    /// Unlike [`Msg::Error`], this is **retryable**: a reconnecting
    /// client resubmits the same sweep and, thanks to content-addressed
    /// rows, pays nothing for the work already done.
    Unavailable {
        /// Human-readable reason.
        message: String,
    },
    /// Worker → coordinator: still alive and working on `job`. Sent
    /// periodically while a job runs so the coordinator can tell a slow
    /// job from a dead worker without waiting out the whole job budget.
    Heartbeat {
        /// The job key being worked on.
        job: u64,
    },
}

impl Msg {
    /// Encodes the message payload (no frame length prefix).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        match self {
            Msg::ClientHello { version } => {
                w.u8(1);
                w.u32(*version);
            }
            Msg::WorkerHello { version, name } => {
                w.u8(2);
                w.u32(*version);
                w.str(name);
            }
            Msg::SweepRequest { spec } => {
                w.u8(3);
                spec.encode(&mut w);
            }
            Msg::Progress {
                done,
                total,
                cached,
            } => {
                w.u8(4);
                w.u32(*done);
                w.u32(*total);
                w.u32(*cached);
            }
            Msg::SweepDone { rows, stats } => {
                w.u8(5);
                w.u32(rows.len() as u32);
                for row in rows {
                    row.encode(&mut w);
                }
                stats.encode(&mut w);
            }
            Msg::Error { message } => {
                w.u8(6);
                w.str(message);
            }
            Msg::RunJob { job, point } => {
                w.u8(7);
                w.u64(*job);
                point.encode(&mut w);
            }
            Msg::JobOk {
                job,
                row,
                emulations,
            } => {
                w.u8(8);
                w.u64(*job);
                row.encode(&mut w);
                w.u32(*emulations);
            }
            Msg::JobErr { job, message } => {
                w.u8(9);
                w.u64(*job);
                w.str(message);
            }
            Msg::Ping => w.u8(10),
            Msg::Pong => w.u8(11),
            Msg::Shutdown => w.u8(12),
            Msg::Unavailable { message } => {
                w.u8(13);
                w.str(message);
            }
            Msg::Heartbeat { job } => {
                w.u8(14);
                w.u64(*job);
            }
        }
        w.into_bytes()
    }

    /// Decodes one message from a full payload.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] on any malformed input — truncated fields,
    /// unknown tags, bad UTF-8, oversized counts, or trailing bytes.
    pub fn decode(payload: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader::new(payload);
        let msg = match r.u8()? {
            1 => Msg::ClientHello { version: r.u32()? },
            2 => Msg::WorkerHello {
                version: r.u32()?,
                name: r.str()?,
            },
            3 => Msg::SweepRequest {
                spec: SweepSpec::decode(&mut r)?,
            },
            4 => Msg::Progress {
                done: r.u32()?,
                total: r.u32()?,
                cached: r.u32()?,
            },
            5 => {
                let n = r.count(PointRow::MIN_WIRE_BYTES)?;
                let mut rows = Vec::with_capacity(n);
                for _ in 0..n {
                    rows.push(PointRow::decode(&mut r)?);
                }
                Msg::SweepDone {
                    rows,
                    stats: SweepStats::decode(&mut r)?,
                }
            }
            6 => Msg::Error { message: r.str()? },
            7 => Msg::RunJob {
                job: r.u64()?,
                point: PointSpec::decode(&mut r)?,
            },
            8 => Msg::JobOk {
                job: r.u64()?,
                row: PointRow::decode(&mut r)?,
                emulations: r.u32()?,
            },
            9 => Msg::JobErr {
                job: r.u64()?,
                message: r.str()?,
            },
            10 => Msg::Ping,
            11 => Msg::Pong,
            12 => Msg::Shutdown,
            13 => Msg::Unavailable { message: r.str()? },
            14 => Msg::Heartbeat { job: r.u64()? },
            t => return Err(WireError::BadTag(t)),
        };
        if r.remaining() != 0 {
            return Err(WireError::TrailingBytes(r.remaining()));
        }
        Ok(msg)
    }
}

// --- framing -----------------------------------------------------------

/// Writes one message as a length-prefixed frame.
///
/// # Errors
///
/// Propagates I/O errors from the underlying stream.
pub fn write_msg<W: Write>(stream: &mut W, msg: &Msg) -> std::io::Result<()> {
    let payload = msg.encode();
    stream.write_all(&(payload.len() as u32).to_le_bytes())?;
    stream.write_all(&payload)?;
    stream.flush()
}

/// Reads one length-prefixed frame and decodes it.
///
/// # Errors
///
/// Returns `Ok(None)` on a clean EOF at a frame boundary; I/O errors and
/// [`WireError`]s (mapped to `InvalidData`) otherwise.
pub fn read_msg<R: Read>(stream: &mut R) -> std::io::Result<Option<Msg>> {
    let mut len = [0u8; 4];
    match stream.read_exact(&mut len) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let n = u32::from_le_bytes(len) as usize;
    if n > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            WireError::Oversized(n as u64),
        ));
    }
    let mut payload = vec![0u8; n];
    stream.read_exact(&mut payload)?;
    Msg::decode(&payload)
        .map(Some)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SweepSpec;

    fn round_trip(msg: &Msg) {
        let bytes = msg.encode();
        let back = Msg::decode(&bytes).expect("decodes");
        assert_eq!(&back, msg);
        assert_eq!(back.encode(), bytes, "re-encode fixpoint");
    }

    #[test]
    fn simple_messages_round_trip() {
        round_trip(&Msg::Ping);
        round_trip(&Msg::Pong);
        round_trip(&Msg::Shutdown);
        round_trip(&Msg::ClientHello { version: 1 });
        round_trip(&Msg::WorkerHello {
            version: 1,
            name: "w0".to_string(),
        });
        round_trip(&Msg::Progress {
            done: 3,
            total: 9,
            cached: 1,
        });
        round_trip(&Msg::Error {
            message: "no such kernel".to_string(),
        });
        round_trip(&Msg::SweepRequest {
            spec: SweepSpec::small_default(),
        });
        round_trip(&Msg::Unavailable {
            message: "coordinator shutting down".to_string(),
        });
        round_trip(&Msg::Heartbeat { job: 0xdead_beef });
    }

    #[test]
    fn truncation_never_panics() {
        let bytes = Msg::SweepRequest {
            spec: SweepSpec::small_default(),
        }
        .encode();
        for cut in 0..bytes.len() {
            assert!(Msg::decode(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = Msg::Ping.encode();
        bytes.push(0);
        assert_eq!(Msg::decode(&bytes), Err(WireError::TrailingBytes(1)));
    }

    #[test]
    fn oversized_counts_are_rejected_before_allocating() {
        // SweepDone claiming u32::MAX rows in a tiny payload.
        let mut w = Writer::new();
        w.u8(5);
        w.u32(u32::MAX);
        assert!(matches!(
            Msg::decode(&w.into_bytes()),
            Err(WireError::Oversized(_) | WireError::Truncated)
        ));
    }

    #[test]
    fn framing_round_trips_and_eof_is_clean() {
        let mut buf = Vec::new();
        write_msg(&mut buf, &Msg::Ping).unwrap();
        write_msg(&mut buf, &Msg::Pong).unwrap();
        let mut cursor = std::io::Cursor::new(buf);
        assert_eq!(read_msg(&mut cursor).unwrap(), Some(Msg::Ping));
        assert_eq!(read_msg(&mut cursor).unwrap(), Some(Msg::Pong));
        assert_eq!(read_msg(&mut cursor).unwrap(), None);
    }
}
