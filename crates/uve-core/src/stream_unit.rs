//! Functional stream management: configuration, consumption, production,
//! control (suspend/resume/stop) and context switching.
//!
//! This is the *architectural* (value-level) half of the Streaming Engine;
//! the cycle-level half lives in [`crate::engine`].

use crate::trace::{ChunkMeta, StreamInstance, StreamTrace, Trace};
use crate::value::VecVal;
use std::cell::RefCell;
use std::fmt;
use uve_isa::{Dir, ElemWidth, MemLevel, VReg};
use uve_mem::{Memory, LINE_BYTES, PAGE_SIZE};
use uve_stream::{
    Behaviour, EndFlags, IndirectBehaviour, IndirectPacking, Param, Pattern, PatternError,
    SavedWalker, StreamMemory, Walker, MAX_DIMS, MAX_MODIFIERS,
};

/// Errors raised by stream operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreamError {
    /// A configuration instruction targeted a register with no open
    /// configuration.
    NoPendingConfig(u8),
    /// A stream operation targeted a register with no active stream.
    NotConfigured(u8),
    /// Reading an output stream or writing an input stream ("a stream
    /// cannot simultaneously operate in both read and write modes",
    /// Fig. 4).
    WrongDirection(u8),
    /// Consuming from an exhausted stream.
    Exhausted(u8),
    /// Operating on a suspended stream.
    Suspended(u8),
    /// An indirect configuration referenced a register without a configured
    /// origin stream.
    NoOrigin(u8),
    /// An internal invariant of the stream unit failed — a model bug,
    /// reported as an error instead of a panic so sweeps and fuzzers can
    /// isolate the offending input.
    Internal(&'static str),
    /// The assembled pattern violated a hardware limit.
    Pattern(PatternError),
    /// A stream element touched a faulting page (Sec. II-C/V: the fault is
    /// precise — the walker has been rolled back to the chunk boundary and
    /// no chunk was emitted, so the consuming instruction can trap, run a
    /// handler, and re-execute).
    PageFault {
        /// Stream register.
        u: u8,
        /// Faulting virtual page number.
        page: u64,
    },
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamError::NoPendingConfig(u) => write!(f, "u{u}: no open stream configuration"),
            StreamError::NotConfigured(u) => write!(f, "u{u}: no active stream"),
            StreamError::WrongDirection(u) => {
                write!(f, "u{u}: stream accessed against its direction")
            }
            StreamError::Exhausted(u) => write!(f, "u{u}: stream exhausted"),
            StreamError::Suspended(u) => write!(f, "u{u}: stream suspended"),
            StreamError::NoOrigin(u) => write!(f, "u{u}: indirect origin not configured"),
            StreamError::Internal(what) => {
                write!(f, "internal stream-unit invariant violated: {what}")
            }
            StreamError::Pattern(e) => write!(f, "invalid stream pattern: {e}"),
            StreamError::PageFault { u, page } => {
                write!(f, "u{u}: stream element faulted on page {page:#x}")
            }
        }
    }
}

impl std::error::Error for StreamError {}

impl From<PatternError> for StreamError {
    fn from(e: PatternError) -> Self {
        StreamError::Pattern(e)
    }
}

/// An in-flight (not yet complete) stream configuration.
#[derive(Debug, Clone)]
struct PendingCfg {
    dir: Dir,
    width: ElemWidth,
    base: u64,
    dims: Vec<DimCfg>,
    cfg_insts: u32,
}

#[derive(Debug, Clone)]
struct DimCfg {
    offset: i64,
    size: u64,
    stride: i64,
    statics: Vec<(Param, Behaviour, i64, u64)>,
    indirects: Vec<(Param, IndirectBehaviour, Pattern)>,
}

/// An active (configured) stream bound to a vector register.
#[derive(Debug, Clone)]
pub struct ActiveStream {
    /// Dynamic instance id (index into the trace's stream table).
    pub instance: StreamInstance,
    /// Stream direction.
    pub dir: Dir,
    /// Element width.
    pub width: ElemWidth,
    /// Memory level the stream operates at.
    pub level: MemLevel,
    walker: Walker,
    flags: EndFlags,
    suspended: bool,
    pattern: Pattern,
}

impl ActiveStream {
    /// Boundary flags of the last consumption/production.
    pub fn flags(&self) -> EndFlags {
        self.flags
    }

    /// `true` once the underlying pattern is exhausted.
    pub fn at_end(&self) -> bool {
        self.walker.is_done()
    }

    /// `true` while suspended.
    pub fn is_suspended(&self) -> bool {
        self.suspended
    }

    /// The configured pattern.
    pub fn pattern(&self) -> &Pattern {
        &self.pattern
    }
}

/// Memory wrapper recording the cache lines touched by indirection-origin
/// loads during chunk generation.
struct RecordingMem<'m> {
    mem: &'m Memory,
    touched: RefCell<Vec<u64>>,
}

impl StreamMemory for RecordingMem<'_> {
    fn load(&self, addr: u64, width: ElemWidth) -> i64 {
        let line = addr / LINE_BYTES;
        let mut t = self.touched.borrow_mut();
        if t.last() != Some(&line) {
            t.push(line);
        }
        self.mem.read_elem(addr, width)
    }
}

/// Result of consuming one input-stream chunk.
#[derive(Debug, Clone)]
pub struct Consumed {
    /// The loaded vector value (invalid lanes padded, feature F5).
    pub value: VecVal,
    /// Index of the chunk within the stream instance.
    pub chunk: u32,
}

/// The functional stream unit: 32 stream slots bound to `u0`–`u31`.
#[derive(Debug, Clone, Default)]
pub struct StreamUnit {
    slots: Vec<Option<ActiveStream>>,
    pending: Vec<Option<PendingCfg>>,
    levels: Vec<MemLevel>,
    /// Last boundary flags per register — survives stream termination so
    /// the `so.b.*` branches after the final consumption still resolve.
    last_flags: Vec<EndFlags>,
    /// Whether the register's last stream ran to completion.
    last_done: Vec<bool>,
    /// Whether a stream was ever configured on the register.
    seen: Vec<bool>,
    /// Chunking mode for indirectly modified streams (packed by default).
    packing: IndirectPacking,
}

impl StreamUnit {
    /// Creates an empty unit.
    pub fn new() -> Self {
        Self::with_default_level(MemLevel::default())
    }

    /// Creates an empty unit whose streams default to the given memory
    /// level (the Fig. 11 sensitivity knob; `so.cfg.mem` still overrides
    /// per register).
    pub fn with_default_level(level: MemLevel) -> Self {
        Self::with_config(level, IndirectPacking::default())
    }

    /// Creates an empty unit with an explicit default memory level and
    /// [`IndirectPacking`] mode for indirectly modified streams.
    pub fn with_config(level: MemLevel, packing: IndirectPacking) -> Self {
        Self {
            slots: vec![None; 32],
            pending: (0..32).map(|_| None).collect(),
            levels: vec![level; 32],
            last_flags: vec![EndFlags::NONE; 32],
            last_done: vec![false; 32],
            seen: vec![false; 32],
            packing,
        }
    }

    /// The configured chunking mode for indirect streams.
    pub fn packing(&self) -> IndirectPacking {
        self.packing
    }

    /// The active stream on `u`, if any.
    pub fn get(&self, u: VReg) -> Option<&ActiveStream> {
        self.slots[u.index()].as_ref()
    }

    /// Number of active streams.
    pub fn active_count(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }

    /// Directs future (and current) streams on `u` at a memory level.
    pub fn set_level(&mut self, u: VReg, level: MemLevel) {
        self.levels[u.index()] = level;
        if let Some(s) = self.slots[u.index()].as_mut() {
            s.level = level;
        }
    }

    /// Begins a stream configuration (`ss.ld`/`ss.st`[`.sta`]); if `done`,
    /// the 1-D configuration completes immediately.
    ///
    /// # Errors
    ///
    /// Propagates pattern-validation failures on completion.
    #[allow(clippy::too_many_arguments)]
    pub fn start(
        &mut self,
        u: VReg,
        dir: Dir,
        width: ElemWidth,
        base: u64,
        size: u64,
        stride: i64,
        done: bool,
        trace: &mut Trace,
    ) -> Result<Option<StreamInstance>, StreamError> {
        let cfg = PendingCfg {
            dir,
            width,
            base,
            dims: vec![DimCfg {
                offset: 0,
                size,
                stride,
                statics: Vec::new(),
                indirects: Vec::new(),
            }],
            cfg_insts: 1,
        };
        self.pending[u.index()] = Some(cfg);
        if done {
            self.finish(u, trace).map(Some)
        } else {
            Ok(None)
        }
    }

    /// Appends an outer dimension (`ss.app`/`ss.end`).
    ///
    /// # Errors
    ///
    /// Fails without an open configuration; propagates validation failures
    /// on completion.
    #[allow(clippy::too_many_arguments)]
    pub fn append_dim(
        &mut self,
        u: VReg,
        offset: i64,
        size: u64,
        stride: i64,
        end: bool,
        trace: &mut Trace,
    ) -> Result<Option<StreamInstance>, StreamError> {
        let cfg = self.pending[u.index()]
            .as_mut()
            .ok_or(StreamError::NoPendingConfig(u.num()))?;
        cfg.dims.push(DimCfg {
            offset,
            size,
            stride,
            statics: Vec::new(),
            indirects: Vec::new(),
        });
        cfg.cfg_insts += 1;
        if end {
            self.finish(u, trace).map(Some)
        } else {
            Ok(None)
        }
    }

    /// Appends a static modifier to the last dimension
    /// (`ss.app.mod`/`ss.end.mod`).
    ///
    /// # Errors
    ///
    /// Fails without an open configuration.
    #[allow(clippy::too_many_arguments)]
    pub fn append_static_mod(
        &mut self,
        u: VReg,
        target: Param,
        behaviour: Behaviour,
        disp: i64,
        count: u64,
        end: bool,
        trace: &mut Trace,
    ) -> Result<Option<StreamInstance>, StreamError> {
        let cfg = self.pending[u.index()]
            .as_mut()
            .ok_or(StreamError::NoPendingConfig(u.num()))?;
        cfg.dims
            .last_mut()
            .ok_or(StreamError::Internal("pending config has no dimensions"))?
            .statics
            .push((target, behaviour, disp, count));
        cfg.cfg_insts += 1;
        if end {
            self.finish(u, trace).map(Some)
        } else {
            Ok(None)
        }
    }

    /// Appends an indirect modifier whose origin is the stream configured on
    /// `origin` (`ss.app.ind`/`ss.end.ind`). The origin's pattern is
    /// captured at configuration time.
    ///
    /// If the pending configuration's outermost dimension is the one the
    /// modifier should bind to from outside (the paper's Fig. 3.B5 single-
    /// descriptor indirect form), a virtual outer dimension sized by the
    /// origin stream length is created.
    ///
    /// # Errors
    ///
    /// Fails without an open configuration or configured origin.
    #[allow(clippy::too_many_arguments)]
    pub fn append_indirect_mod(
        &mut self,
        u: VReg,
        target: Param,
        behaviour: IndirectBehaviour,
        origin: VReg,
        end: bool,
        mem: &Memory,
        trace: &mut Trace,
    ) -> Result<Option<StreamInstance>, StreamError> {
        let origin_pattern = self.slots[origin.index()]
            .as_ref()
            .map(|s| s.pattern.clone())
            .ok_or(StreamError::NoOrigin(origin.num()))?;
        let origin_len = origin_pattern.count(mem);
        let cfg = self.pending[u.index()]
            .as_mut()
            .ok_or(StreamError::NoPendingConfig(u.num()))?;
        if cfg.dims.len() == 1 {
            // Fig. 3.B5 single-descriptor form: bind via a virtual outer
            // dimension iterated once per origin value.
            cfg.dims.push(DimCfg {
                offset: 0,
                size: origin_len,
                stride: 0,
                statics: Vec::new(),
                indirects: vec![(target, behaviour, origin_pattern)],
            });
        } else {
            // Attach to the most recently configured dimension.
            cfg.dims
                .last_mut()
                .ok_or(StreamError::Internal("pending config has no dimensions"))?
                .indirects
                .push((target, behaviour, origin_pattern));
        }
        cfg.cfg_insts += 1;
        if end {
            self.finish(u, trace).map(Some)
        } else {
            Ok(None)
        }
    }

    /// Completes the pending configuration on `u`, replacing any previously
    /// active stream (stream renaming allows this, Sec. IV-A).
    fn finish(&mut self, u: VReg, trace: &mut Trace) -> Result<StreamInstance, StreamError> {
        let cfg = self.pending[u.index()]
            .take()
            .ok_or(StreamError::NoPendingConfig(u.num()))?;
        let mut b = Pattern::builder(cfg.base, cfg.width);
        let mut nmods = 0usize;
        for d in &cfg.dims {
            b = b.dim(d.offset, d.size, d.stride);
            for &(t, bh, disp, count) in &d.statics {
                b = b.static_mod(t, bh, disp, count);
                nmods += 1;
            }
            for (t, bh, origin) in &d.indirects {
                b = b.indirect_mod(*t, *bh, origin.clone());
                nmods += 1;
            }
        }
        let _ = nmods.min(MAX_MODIFIERS).min(MAX_DIMS); // limits enforced by builder
        let pattern = b.build()?;
        let instance = trace.streams.len() as StreamInstance;
        trace.streams.push(StreamTrace {
            u: u.num(),
            dir: cfg.dir,
            level: self.levels[u.index()],
            width: cfg.width,
            chunks: Vec::new(),
            cfg_insts: cfg.cfg_insts,
        });
        self.seen[u.index()] = true;
        self.last_flags[u.index()] = EndFlags::NONE;
        self.last_done[u.index()] = false;
        self.slots[u.index()] = Some(ActiveStream {
            instance,
            dir: cfg.dir,
            width: cfg.width,
            level: self.levels[u.index()],
            walker: Walker::new(&pattern),
            flags: EndFlags::NONE,
            suspended: false,
            pattern,
        });
        Ok(instance)
    }

    /// Consumes one chunk (≤ `vlen_bytes / width` elements) from the input
    /// stream on `u`. Affine chunks never cross a dimension-0 boundary;
    /// indirectly modified streams pack across dimension-0 boundaries when
    /// the unit is configured [`IndirectPacking::Packed`] (the default),
    /// closing only at outer-dimension or stream boundaries.
    ///
    /// # Errors
    ///
    /// Fails on missing/suspended/exhausted streams or direction misuse.
    pub fn consume(
        &mut self,
        u: VReg,
        mem: &Memory,
        vlen_bytes: usize,
        trace: &mut Trace,
    ) -> Result<Consumed, StreamError> {
        self.consume_with(u, mem, vlen_bytes, trace, None)
    }

    /// [`consume`](Self::consume) with an optional page-fault probe.
    ///
    /// The probe is asked about every virtual page a stream element spans;
    /// answering `true` makes the consumption trap *precisely*: the walker
    /// is rolled back (via [`SavedWalker`]) to where this call found it, no
    /// chunk is emitted, no architectural state changes, and
    /// [`StreamError::PageFault`] reports the page so a handler can map it
    /// and the instruction can re-execute. Indirection-origin loads
    /// translate through the engine's origin FIFO and are modelled as
    /// non-faulting.
    ///
    /// # Errors
    ///
    /// As [`consume`](Self::consume), plus [`StreamError::PageFault`].
    pub fn consume_with(
        &mut self,
        u: VReg,
        mem: &Memory,
        vlen_bytes: usize,
        trace: &mut Trace,
        mut fault: Option<&mut dyn FnMut(u64) -> bool>,
    ) -> Result<Consumed, StreamError> {
        let packing = self.packing;
        let s = self.slots[u.index()]
            .as_mut()
            .ok_or(StreamError::NotConfigured(u.num()))?;
        if s.dir != Dir::Load {
            return Err(StreamError::WrongDirection(u.num()));
        }
        if s.suspended {
            return Err(StreamError::Suspended(u.num()));
        }
        let pack = packing == IndirectPacking::Packed && s.pattern.is_indirect();
        // Precise-fault rollback point: committed iteration state at entry.
        let entry = fault
            .as_ref()
            .map(|_| (SavedWalker::capture(&s.walker), s.flags));
        let vl = vlen_bytes / s.width.bytes();
        let rec = RecordingMem {
            mem,
            touched: RefCell::new(Vec::new()),
        };
        let mut value = VecVal::empty(vlen_bytes, s.width);
        let mut lines: Vec<u64> = Vec::new();
        let mut switches = 0u32;
        let mut n = 0usize;
        let wbytes = s.width.bytes() as u64;
        while n < vl {
            let Some(e) = s.walker.next_elem(&rec) else {
                if n == 0 {
                    return Err(StreamError::Exhausted(u.num()));
                }
                break;
            };
            if let Some(probe) = fault.as_mut() {
                if let Some(page) = faulting_page(probe, e.addr, wbytes) {
                    let Some((saved, flags)) = entry.as_ref() else {
                        return Err(StreamError::Internal("fault probe without entry snapshot"));
                    };
                    saved.restore(&mut s.walker, mem);
                    s.flags = *flags;
                    return Err(StreamError::PageFault { u: u.num(), page });
                }
            }
            value.set_int(n, mem.read_elem(e.addr, s.width));
            value.set_lane_valid(n, true);
            let first = e.addr / LINE_BYTES;
            let last = (e.addr + wbytes - 1) / LINE_BYTES;
            for l in first..=last {
                if lines.last() != Some(&l) {
                    lines.push(l);
                }
            }
            switches += e.ends.carry_depth();
            s.flags = e.ends;
            n += 1;
            if e.ends.closes_chunk(pack) {
                break;
            }
        }
        // Indirection-origin lines also travelled through the engine.
        lines.extend(rec.touched.into_inner());
        let flags = s.flags;
        let done = s.walker.is_done();
        let st = &mut trace.streams[s.instance as usize];
        let chunk = st.chunks.len() as u32;
        st.chunks.push(ChunkMeta {
            lines,
            dim_switches: switches,
            valid: n as u32,
        });
        self.last_flags[u.index()] = flags;
        self.last_done[u.index()] = done;
        Ok(Consumed { value, chunk })
    }

    /// Produces `value`'s leading valid lanes into the output stream on `u`,
    /// writing memory and advancing the pattern by exactly that many
    /// elements.
    ///
    /// # Errors
    ///
    /// Fails on missing/suspended streams or direction misuse.
    pub fn produce(
        &mut self,
        u: VReg,
        mem: &mut Memory,
        value: &VecVal,
        trace: &mut Trace,
    ) -> Result<u32, StreamError> {
        self.produce_with(u, mem, value, trace, None)
    }

    /// [`produce`](Self::produce) with an optional page-fault probe (see
    /// [`consume_with`](Self::consume_with)).
    ///
    /// A faulting element traps *before* being written; elements already
    /// stored by this call stay in memory, which is safe because the
    /// rolled-back walker makes re-execution rewrite the same values to the
    /// same addresses (store replay is idempotent), so recovered runs end
    /// bit-identical to fault-free ones.
    ///
    /// # Errors
    ///
    /// As [`produce`](Self::produce), plus [`StreamError::PageFault`].
    pub fn produce_with(
        &mut self,
        u: VReg,
        mem: &mut Memory,
        value: &VecVal,
        trace: &mut Trace,
        mut fault: Option<&mut dyn FnMut(u64) -> bool>,
    ) -> Result<u32, StreamError> {
        let s = self.slots[u.index()]
            .as_mut()
            .ok_or(StreamError::NotConfigured(u.num()))?;
        if s.dir != Dir::Store {
            return Err(StreamError::WrongDirection(u.num()));
        }
        if s.suspended {
            return Err(StreamError::Suspended(u.num()));
        }
        let entry = fault
            .as_ref()
            .map(|_| (SavedWalker::capture(&s.walker), s.flags));
        let value = if value.width() == s.width {
            value.clone()
        } else {
            value.reinterpret(s.width)
        };
        let k = value.valid_prefix();
        let mut lines: Vec<u64> = Vec::new();
        let mut switches = 0u32;
        let mut written = 0u32;
        let wbytes = s.width.bytes() as u64;
        for i in 0..k {
            // Origin loads inside output patterns are rare but legal.
            let rec = RecordingMem {
                mem,
                touched: RefCell::new(Vec::new()),
            };
            let Some(e) = s.walker.next_elem(&rec) else {
                break; // out-of-bounds lanes disabled (padding)
            };
            if let Some(probe) = fault.as_mut() {
                if let Some(page) = faulting_page(probe, e.addr, wbytes) {
                    let Some((saved, flags)) = entry.as_ref() else {
                        return Err(StreamError::Internal("fault probe without entry snapshot"));
                    };
                    saved.restore(&mut s.walker, mem);
                    s.flags = *flags;
                    return Err(StreamError::PageFault { u: u.num(), page });
                }
            }
            lines.extend(rec.touched.into_inner());
            mem.write_elem(e.addr, s.width, value.int(i));
            let first = e.addr / LINE_BYTES;
            let last = (e.addr + wbytes - 1) / LINE_BYTES;
            for l in first..=last {
                if lines.last() != Some(&l) {
                    lines.push(l);
                }
            }
            switches += e.ends.carry_depth();
            s.flags = e.ends;
            written += 1;
            if e.ends.ends_stream() {
                break;
            }
        }
        let flags = s.flags;
        let done = s.walker.is_done();
        let st = &mut trace.streams[s.instance as usize];
        let chunk = st.chunks.len() as u32;
        st.chunks.push(ChunkMeta {
            lines,
            dim_switches: switches,
            valid: written,
        });
        self.last_flags[u.index()] = flags;
        self.last_done[u.index()] = done;
        Ok(chunk)
    }

    /// Stream state observed by the `so.b.*` branches: the boundary flags
    /// of the last consumption/production and whether the pattern has run
    /// to completion. Available even after the stream terminated (the
    /// architectural flags outlive the Stream Table entry); `None` if no
    /// stream was ever configured on `u`.
    pub fn branch_flags(&self, u: VReg) -> Option<(EndFlags, bool)> {
        if let Some(s) = self.slots[u.index()].as_ref() {
            return Some((s.flags, s.walker.is_done()));
        }
        if self.seen[u.index()] {
            return Some((self.last_flags[u.index()], self.last_done[u.index()]));
        }
        None
    }

    /// Suspends the stream on `u` (`ss.suspend`).
    ///
    /// # Errors
    ///
    /// Fails if no stream is configured.
    pub fn suspend(&mut self, u: VReg) -> Result<(), StreamError> {
        let s = self.slots[u.index()]
            .as_mut()
            .ok_or(StreamError::NotConfigured(u.num()))?;
        s.suspended = true;
        Ok(())
    }

    /// Resumes the stream on `u` (`ss.resume`).
    ///
    /// # Errors
    ///
    /// Fails if no stream is configured.
    pub fn resume(&mut self, u: VReg) -> Result<(), StreamError> {
        let s = self.slots[u.index()]
            .as_mut()
            .ok_or(StreamError::NotConfigured(u.num()))?;
        s.suspended = false;
        Ok(())
    }

    /// Terminates and deallocates the stream on `u` (`ss.stop`), returning
    /// its instance id.
    ///
    /// # Errors
    ///
    /// Fails if no stream is configured.
    pub fn stop(&mut self, u: VReg) -> Result<StreamInstance, StreamError> {
        let s = self.slots[u.index()]
            .take()
            .ok_or(StreamError::NotConfigured(u.num()))?;
        Ok(s.instance)
    }

    /// Saves the committed iteration state of every active stream (context
    /// switch, Sec. IV-A). Returns `(register, saved state)` pairs; the
    /// paper's per-stream state size (32 B–400 B) is available via
    /// [`SavedWalker::size_bytes`].
    pub fn save_context(&self) -> Vec<(u8, SavedWalker)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| {
                s.as_ref()
                    .map(|s| (i as u8, SavedWalker::capture(&s.walker)))
            })
            .collect()
    }

    /// Restores previously saved iteration states (pre-fetched buffer data
    /// is lost and re-loaded, as the paper specifies — functionally the
    /// walker simply resumes from the commit point).
    pub fn restore_context(&mut self, saved: &[(u8, SavedWalker)], mem: &Memory) {
        for (u, state) in saved {
            if let Some(s) = self.slots[*u as usize].as_mut() {
                state.restore(&mut s.walker, mem);
            }
        }
    }
}

/// Asks the fault probe about every virtual page spanned by a `wbytes`-wide
/// element at `addr`; returns the first page it reports as faulting.
fn faulting_page<F>(probe: &mut F, addr: u64, wbytes: u64) -> Option<u64>
where
    F: FnMut(u64) -> bool + ?Sized,
{
    let first = addr / PAGE_SIZE;
    let last = (addr + wbytes - 1) / PAGE_SIZE;
    (first..=last).find(|&p| probe(p))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit() -> (StreamUnit, Memory, Trace) {
        (StreamUnit::new(), Memory::new(), Trace::new())
    }

    fn setup_array(mem: &mut Memory, base: u64, n: usize) {
        for i in 0..n {
            mem.write_u32(base + 4 * i as u64, i as u32);
        }
    }

    #[test]
    fn simple_1d_consume() {
        let (mut su, mut mem, mut tr) = unit();
        setup_array(&mut mem, 0x1000, 20);
        su.start(
            VReg::new(0),
            Dir::Load,
            ElemWidth::Word,
            0x1000,
            20,
            1,
            true,
            &mut tr,
        )
        .unwrap();
        let c1 = su.consume(VReg::new(0), &mem, 64, &mut tr).unwrap();
        assert_eq!(c1.value.valid_count(), 16);
        assert_eq!(c1.value.int(0), 0);
        assert_eq!(c1.value.int(15), 15);
        let c2 = su.consume(VReg::new(0), &mem, 64, &mut tr).unwrap();
        assert_eq!(c2.value.valid_count(), 4); // tail padded
        assert_eq!(c2.value.int(0), 16);
        assert!(su.get(VReg::new(0)).unwrap().at_end());
        assert!(matches!(
            su.consume(VReg::new(0), &mem, 64, &mut tr),
            Err(StreamError::Exhausted(0))
        ));
    }

    #[test]
    fn chunk_lines_recorded() {
        let (mut su, mut mem, mut tr) = unit();
        setup_array(&mut mem, 0x1000, 16);
        su.start(
            VReg::new(0),
            Dir::Load,
            ElemWidth::Word,
            0x1000,
            16,
            1,
            true,
            &mut tr,
        )
        .unwrap();
        su.consume(VReg::new(0), &mem, 64, &mut tr).unwrap();
        assert_eq!(tr.streams[0].chunks[0].lines, vec![0x1000 / 64]);
        assert_eq!(tr.streams[0].chunks[0].valid, 16);
    }

    #[test]
    fn output_stream_produce() {
        let (mut su, mut mem, mut tr) = unit();
        su.start(
            VReg::new(2),
            Dir::Store,
            ElemWidth::Word,
            0x2000,
            8,
            1,
            true,
            &mut tr,
        )
        .unwrap();
        let v = VecVal::from_ints(64, ElemWidth::Word, &[9, 8, 7, 6, 5]);
        su.produce(VReg::new(2), &mut mem, &v, &mut tr).unwrap();
        assert_eq!(mem.read_u32(0x2000), 9);
        assert_eq!(mem.read_u32(0x2010), 5);
        // 3 more elements remain.
        assert!(!su.get(VReg::new(2)).unwrap().at_end());
        let v2 = VecVal::from_ints(64, ElemWidth::Word, &[1, 2, 3]);
        su.produce(VReg::new(2), &mut mem, &v2, &mut tr).unwrap();
        assert!(su.get(VReg::new(2)).unwrap().at_end());
    }

    #[test]
    fn direction_enforced() {
        let (mut su, mut mem, mut tr) = unit();
        su.start(
            VReg::new(0),
            Dir::Load,
            ElemWidth::Word,
            0,
            4,
            1,
            true,
            &mut tr,
        )
        .unwrap();
        su.start(
            VReg::new(1),
            Dir::Store,
            ElemWidth::Word,
            0,
            4,
            1,
            true,
            &mut tr,
        )
        .unwrap();
        let v = VecVal::from_ints(64, ElemWidth::Word, &[1]);
        assert!(matches!(
            su.produce(VReg::new(0), &mut mem, &v, &mut tr),
            Err(StreamError::WrongDirection(0))
        ));
        assert!(matches!(
            su.consume(VReg::new(1), &mem, 64, &mut tr),
            Err(StreamError::WrongDirection(1))
        ));
    }

    #[test]
    fn multi_dim_chunks_stop_at_rows() {
        let (mut su, mut mem, mut tr) = unit();
        setup_array(&mut mem, 0, 100);
        // 5 rows of 6 elements in a row-major 5×10 matrix.
        su.start(
            VReg::new(0),
            Dir::Load,
            ElemWidth::Word,
            0,
            6,
            1,
            false,
            &mut tr,
        )
        .unwrap();
        su.append_dim(VReg::new(0), 0, 5, 10, true, &mut tr)
            .unwrap();
        let c = su.consume(VReg::new(0), &mem, 64, &mut tr).unwrap();
        assert_eq!(c.value.valid_count(), 6); // row boundary < VL
        let s = su.get(VReg::new(0)).unwrap();
        assert!(s.flags().ends_dim(0));
        assert!(!s.flags().ends_stream());
        let c2 = su.consume(VReg::new(0), &mem, 64, &mut tr).unwrap();
        assert_eq!(c2.value.int(0), 10); // second row starts at element 10
    }

    #[test]
    fn static_modifier_triangular() {
        let (mut su, mut mem, mut tr) = unit();
        setup_array(&mut mem, 0, 100);
        // Lower-triangular over a 4×4 matrix: row i has i+1 elements.
        su.start(
            VReg::new(0),
            Dir::Load,
            ElemWidth::Word,
            0,
            0,
            1,
            false,
            &mut tr,
        )
        .unwrap();
        su.append_dim(VReg::new(0), 0, 4, 4, false, &mut tr)
            .unwrap();
        su.append_static_mod(
            VReg::new(0),
            Param::Size,
            Behaviour::Add,
            1,
            4,
            true,
            &mut tr,
        )
        .unwrap();
        let mut total = 0;
        while !su.get(VReg::new(0)).unwrap().at_end() {
            let c = su.consume(VReg::new(0), &mem, 64, &mut tr).unwrap();
            total += c.value.valid_count();
        }
        assert_eq!(total, 10); // 1+2+3+4
    }

    #[test]
    fn indirect_stream_via_origin() {
        let (mut su, mut mem, mut tr) = unit();
        // Index table A at 0x100: [3, 0, 2].
        mem.write_i32_slice(0x100, &[3, 0, 2]);
        // Data B at 0x200: [10, 11, 12, 13].
        mem.write_i32_slice(0x200, &[10, 11, 12, 13]);
        // Origin stream on u1 over A.
        su.start(
            VReg::new(1),
            Dir::Load,
            ElemWidth::Word,
            0x100,
            3,
            1,
            true,
            &mut tr,
        )
        .unwrap();
        // Indirect stream on u0: B[A[i]].
        su.start(
            VReg::new(0),
            Dir::Load,
            ElemWidth::Word,
            0x200,
            1,
            0,
            false,
            &mut tr,
        )
        .unwrap();
        su.append_indirect_mod(
            VReg::new(0),
            Param::Offset,
            IndirectBehaviour::SetAdd,
            VReg::new(1),
            true,
            &mem,
            &mut tr,
        )
        .unwrap();
        let mut vals = Vec::new();
        while !su.get(VReg::new(0)).unwrap().at_end() {
            let c = su.consume(VReg::new(0), &mem, 64, &mut tr).unwrap();
            for i in 0..c.value.valid_count() {
                vals.push(c.value.int(i));
            }
        }
        assert_eq!(vals, vec![13, 10, 12]);
        // Origin lines recorded in the indirect stream's chunks.
        let inst = su.get(VReg::new(0)).unwrap().instance as usize;
        assert!(tr.streams[inst]
            .chunks
            .iter()
            .any(|c| c.lines.contains(&(0x100 / 64))));
    }

    #[test]
    fn suspend_resume_stop() {
        let (mut su, mut mem, mut tr) = unit();
        setup_array(&mut mem, 0, 8);
        su.start(
            VReg::new(0),
            Dir::Load,
            ElemWidth::Word,
            0,
            8,
            1,
            true,
            &mut tr,
        )
        .unwrap();
        su.suspend(VReg::new(0)).unwrap();
        assert!(matches!(
            su.consume(VReg::new(0), &mem, 64, &mut tr),
            Err(StreamError::Suspended(0))
        ));
        su.resume(VReg::new(0)).unwrap();
        assert!(su.consume(VReg::new(0), &mem, 64, &mut tr).is_ok());
        let inst = su.stop(VReg::new(0)).unwrap();
        assert_eq!(inst, 0);
        assert!(su.get(VReg::new(0)).is_none());
        assert_eq!(su.active_count(), 0);
    }

    #[test]
    fn reconfiguration_creates_new_instance() {
        let (mut su, _mem, mut tr) = unit();
        su.start(
            VReg::new(0),
            Dir::Load,
            ElemWidth::Word,
            0,
            4,
            1,
            true,
            &mut tr,
        )
        .unwrap();
        su.start(
            VReg::new(0),
            Dir::Load,
            ElemWidth::Word,
            0x40,
            4,
            1,
            true,
            &mut tr,
        )
        .unwrap();
        assert_eq!(tr.streams.len(), 2);
        assert_eq!(su.get(VReg::new(0)).unwrap().instance, 1);
    }

    #[test]
    fn context_save_restore() {
        let (mut su, mut mem, mut tr) = unit();
        setup_array(&mut mem, 0, 32);
        su.start(
            VReg::new(0),
            Dir::Load,
            ElemWidth::Word,
            0,
            32,
            1,
            true,
            &mut tr,
        )
        .unwrap();
        su.consume(VReg::new(0), &mem, 64, &mut tr).unwrap();
        let saved = su.save_context();
        assert_eq!(saved.len(), 1);
        assert_eq!(saved[0].1.size_bytes(), 32); // 1-D state = 32 B
                                                 // Consume more, then roll back.
        su.consume(VReg::new(0), &mem, 64, &mut tr).unwrap();
        su.restore_context(&saved, &mem);
        let c = su.consume(VReg::new(0), &mem, 64, &mut tr).unwrap();
        assert_eq!(c.value.int(0), 16); // resumed after the first chunk
    }

    #[test]
    fn level_configuration_sticks() {
        let (mut su, _mem, mut tr) = unit();
        su.set_level(VReg::new(3), MemLevel::Mem);
        su.start(
            VReg::new(3),
            Dir::Load,
            ElemWidth::Word,
            0,
            4,
            1,
            true,
            &mut tr,
        )
        .unwrap();
        assert_eq!(su.get(VReg::new(3)).unwrap().level, MemLevel::Mem);
        assert_eq!(tr.streams[0].level, MemLevel::Mem);
    }

    #[test]
    fn consume_fault_is_precise_and_retryable() {
        let (mut su, mut mem, mut tr) = unit();
        setup_array(&mut mem, 0x1000, 32);
        su.start(
            VReg::new(0),
            Dir::Load,
            ElemWidth::Word,
            0x1000,
            32,
            1,
            true,
            &mut tr,
        )
        .unwrap();
        let c0 = su.consume(VReg::new(0), &mem, 64, &mut tr).unwrap();
        assert_eq!(c0.value.int(0), 0);
        let flags_before = su.branch_flags(VReg::new(0)).unwrap();
        // The second chunk traps: no chunk emitted, walker rolled back.
        let mut probe = |_p: u64| true;
        let err = su
            .consume_with(VReg::new(0), &mem, 64, &mut tr, Some(&mut probe))
            .unwrap_err();
        assert!(matches!(err, StreamError::PageFault { u: 0, page: 1 }));
        assert_eq!(tr.streams[0].chunks.len(), 1, "no chunk on fault");
        assert_eq!(su.branch_flags(VReg::new(0)).unwrap(), flags_before);
        // After the handler maps the page, the retry resumes precisely.
        let c1 = su.consume(VReg::new(0), &mem, 64, &mut tr).unwrap();
        assert_eq!(c1.value.int(0), 16);
        assert_eq!(c1.chunk, 1);
    }

    #[test]
    fn produce_fault_rolls_back_walker_and_replay_is_idempotent() {
        let (mut su, mut mem, mut tr) = unit();
        // 8 words starting 8 bytes before a page boundary: elements 0–1 on
        // page 1, elements 2–7 on page 2.
        su.start(
            VReg::new(2),
            Dir::Store,
            ElemWidth::Word,
            0x1ff8,
            8,
            1,
            true,
            &mut tr,
        )
        .unwrap();
        let v = VecVal::from_ints(64, ElemWidth::Word, &[10, 11, 12, 13, 14, 15, 16, 17]);
        let mut probe = |p: u64| p == 2;
        let err = su
            .produce_with(VReg::new(2), &mut mem, &v, &mut tr, Some(&mut probe))
            .unwrap_err();
        assert!(matches!(err, StreamError::PageFault { u: 2, page: 2 }));
        assert_eq!(tr.streams[0].chunks.len(), 0, "no chunk on fault");
        assert_eq!(mem.read_u32(0x1ff8), 10, "pre-fault stores persist");
        // Replay after handling rewrites the prefix (idempotent) and
        // finishes the chunk — bit-identical to a fault-free run.
        su.produce(VReg::new(2), &mut mem, &v, &mut tr).unwrap();
        assert_eq!(mem.read_u32(0x1ff8), 10);
        assert_eq!(mem.read_u32(0x2000), 12);
        assert_eq!(mem.read_u32(0x2014), 17);
        assert!(su.get(VReg::new(2)).unwrap().at_end());
    }

    #[test]
    fn missing_config_errors() {
        let (mut su, mem, mut tr) = unit();
        assert!(matches!(
            su.consume(VReg::new(5), &mem, 64, &mut tr),
            Err(StreamError::NotConfigured(5))
        ));
        assert!(matches!(
            su.append_dim(VReg::new(5), 0, 1, 1, false, &mut tr),
            Err(StreamError::NoPendingConfig(5))
        ));
        assert!(matches!(
            su.stop(VReg::new(5)),
            Err(StreamError::NotConfigured(5))
        ));
    }
}
