//! Address generation: walking a [`Pattern`] element by element or in
//! vector-register-sized chunks.

use crate::pattern::{Behaviour, Dim, IndirectBehaviour, Param, Pattern};
use crate::StreamMemory;

/// End-of-dimension flags attached to each generated element.
///
/// Bit `k` is set when the element is the **last of a run of dimension `k`**;
/// [`EndFlags::STREAM`] is set on the final element of the whole stream.
/// These are the conditions tested by the UVE `b.{dim.}end`-family branches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct EndFlags(u16);

impl EndFlags {
    /// Bit marking the end of the entire stream.
    pub const STREAM: u16 = 1 << 15;

    /// No boundary.
    pub const NONE: EndFlags = EndFlags(0);

    /// Creates flags from a raw bitmask.
    pub fn from_bits(bits: u16) -> Self {
        EndFlags(bits)
    }

    /// The raw bitmask.
    pub fn bits(self) -> u16 {
        self.0
    }

    /// `true` if the element ends a run of dimension `k`.
    pub fn ends_dim(self, k: usize) -> bool {
        debug_assert!(k < 15);
        self.0 & (1 << k) != 0
    }

    /// `true` if the element is the last of the stream.
    pub fn ends_stream(self) -> bool {
        self.0 & Self::STREAM != 0
    }

    pub(crate) fn set_dim(&mut self, k: usize) {
        self.0 |= 1 << k;
    }

    pub(crate) fn set_stream(&mut self) {
        self.0 |= Self::STREAM;
    }

    /// Number of dimension boundaries crossed (how deep the carry cascaded);
    /// used by the timing model to charge descriptor-switch cycles.
    pub fn carry_depth(self) -> u32 {
        (self.0 & !Self::STREAM).count_ones()
    }

    /// `true` if the element ends a run of any dimension *above* the
    /// innermost, or the whole stream — the boundaries at which a *packed*
    /// indirect chunk must still close (see [`IndirectPacking`]).
    pub fn ends_outer(self) -> bool {
        self.0 & !1 != 0
    }

    /// `true` if a vector chunk must close after the element: at any
    /// dimension-0 or stream boundary, or, when the stream `packs` (see
    /// [`IndirectPacking`]), only at an outer-dimension or stream
    /// boundary.
    pub fn closes_chunk(self, packs: bool) -> bool {
        if packs {
            self.ends_outer()
        } else {
            self.ends_dim(0) || self.ends_stream()
        }
    }
}

/// How gathered elements of an *indirectly modified* stream are grouped
/// into vector chunks.
///
/// An indirect modifier fires once per iteration of its binding dimension,
/// so the innermost dimension of a gather is typically size-1: under the
/// strict dimension-0 padding rule every chunk would carry a single valid
/// lane, serializing the consuming core to one element per instruction
/// chain. The paper's Streaming Engine evidently packs gathered elements
/// densely, so `Packed` is the default; `Unpacked` keeps the strict rule
/// for A/B comparison.
///
/// Packing only relaxes *dimension-0* boundaries: a packed chunk still
/// closes at the end of any outer dimension (so the `so.b.dimN.end`
/// branches, N ≥ 1, observe the same boundaries) and at the end of the
/// stream. Affine (non-indirect) streams chunk identically in both modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum IndirectPacking {
    /// Pack gathered elements to full vector width across
    /// innermost-dimension boundaries (paper-faithful dense gather).
    #[default]
    Packed,
    /// Close every chunk at a dimension-0 boundary, even for indirect
    /// streams (the pre-packing strict padding rule).
    Unpacked,
}

/// One generated stream element: a byte address plus boundary flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Elem {
    /// Byte address of the element.
    pub addr: u64,
    /// Dimension/stream boundary flags for this element.
    pub ends: EndFlags,
}

/// State of one indirect-modifier origin stream inside a walker.
#[derive(Debug, Clone)]
struct OriginState {
    walker: Box<Walker>,
    /// Number of values consumed so far (for save/restore).
    consumed: u64,
}

/// Per-static-modifier application counter.
#[derive(Debug, Clone, Copy, Default)]
struct ModCounter {
    applied: u64,
}

/// Walks the exact address sequence of a [`Pattern`].
///
/// The walker owns working copies of every descriptor so that modifiers can
/// update offsets/sizes/strides as the pattern iterates; the source
/// [`Pattern`] is never mutated. Indirect patterns additionally read origin
/// values through the [`StreamMemory`] passed to [`next_elem`].
///
/// [`next_elem`]: Walker::next_elem
#[derive(Debug, Clone)]
pub struct Walker {
    base: u64,
    width_bytes: u64,
    /// Statically configured dims (the "original values" referenced by
    /// indirect modifiers).
    dims0: Vec<Dim>,
    /// Working copies, updated by modifiers.
    wdims: Vec<Dim>,
    idx: Vec<u64>,
    /// `static_counters[k][i]`: application count of static modifier `i`
    /// bound to dimension `k`.
    static_counters: Vec<Vec<ModCounter>>,
    /// `origins[k][i]`: origin stream of indirect modifier `i` bound to
    /// dimension `k`.
    origins: Vec<Vec<OriginState>>,
    /// Metadata mirrors of the pattern's modifiers (target/behaviour).
    pattern: Pattern,
    started: bool,
    done: bool,
}

impl Walker {
    /// Creates a walker positioned before the first element of `pattern`.
    pub fn new(pattern: &Pattern) -> Self {
        let n = pattern.ndims();
        let mut static_counters = Vec::with_capacity(n);
        let mut origins = Vec::with_capacity(n);
        for k in 0..n {
            static_counters.push(vec![ModCounter::default(); pattern.static_mods(k).len()]);
            origins.push(
                pattern
                    .indirect_mods(k)
                    .iter()
                    .map(|m| OriginState {
                        walker: Box::new(Walker::new(&m.origin)),
                        consumed: 0,
                    })
                    .collect(),
            );
        }
        Self {
            base: pattern.base(),
            width_bytes: pattern.width().bytes() as u64,
            dims0: pattern.dims().to_vec(),
            wdims: pattern.dims().to_vec(),
            idx: vec![0; n],
            static_counters,
            origins,
            pattern: pattern.clone(),
            started: false,
            done: false,
        }
    }

    /// The pattern this walker iterates.
    pub fn pattern(&self) -> &Pattern {
        &self.pattern
    }

    /// `true` once the pattern is exhausted.
    pub fn is_done(&self) -> bool {
        self.done
    }

    fn ndims(&self) -> usize {
        self.wdims.len()
    }

    /// Applies the modifiers bound to dimension `k` to dimension `k - 1`
    /// (called once per iteration of dimension `k`).
    fn apply_mods<M: StreamMemory + ?Sized>(&mut self, k: usize, mem: &M) {
        debug_assert!(k >= 1);
        for (i, m) in self.pattern.static_mods(k).iter().enumerate() {
            let c = &mut self.static_counters[k][i];
            if c.applied >= m.count {
                continue;
            }
            c.applied += 1;
            let delta = match m.behaviour {
                Behaviour::Add => m.displacement,
                Behaviour::Sub => -m.displacement,
            };
            apply_delta(&mut self.wdims[k - 1], m.target, delta);
        }
        // Split-borrow dance: take origins[k] out, walk, put back.
        let mut origin_states = std::mem::take(&mut self.origins[k]);
        for (i, m) in self.pattern.indirect_mods(k).iter().enumerate() {
            let st = &mut origin_states[i];
            let value = match st.walker.next_elem(mem) {
                Some(e) => mem.load(e.addr, m.origin.width()),
                None => 0,
            };
            st.consumed += 1;
            let original = read_param(&self.dims0[k - 1], m.target);
            let new = match m.behaviour {
                IndirectBehaviour::SetAdd => original.wrapping_add(value),
                IndirectBehaviour::SetSub => original.wrapping_sub(value),
                IndirectBehaviour::SetValue => value,
            };
            set_param(&mut self.wdims[k - 1], m.target, new);
        }
        self.origins[k] = origin_states;
    }

    /// Begins the iteration of dimension `k` currently selected by
    /// `idx[k]`, setting up all inner dimensions. Returns `false` when the
    /// pattern is exhausted.
    fn descend_from<M: StreamMemory + ?Sized>(&mut self, mut k: usize, mem: &M) -> bool {
        loop {
            while k > 0 {
                self.apply_mods(k, mem);
                self.idx[k - 1] = 0;
                if self.wdims[k - 1].size == 0 {
                    break; // empty inner run: advance dim k (or above)
                }
                k -= 1;
            }
            if k == 0 {
                return true;
            }
            match self.next_iteration(k) {
                Some(kk) => k = kk,
                None => {
                    self.done = true;
                    return false;
                }
            }
        }
    }

    /// Advances to the next iteration at dimension `k` or above; returns the
    /// dimension where a new iteration began, or `None` if exhausted.
    fn next_iteration(&mut self, mut k: usize) -> Option<usize> {
        loop {
            if k == self.ndims() {
                return None;
            }
            self.idx[k] += 1;
            if self.idx[k] < self.wdims[k].size {
                return Some(k);
            }
            k += 1;
        }
    }

    fn current_addr(&self) -> u64 {
        let mut sum: i64 = 0;
        for (k, d) in self.wdims.iter().enumerate() {
            sum = sum.wrapping_add(
                d.offset
                    .wrapping_add((self.idx[k] as i64).wrapping_mul(d.stride)),
            );
        }
        self.base
            .wrapping_add((sum as u64).wrapping_mul(self.width_bytes))
    }

    /// Generates the next element of the pattern, or `None` when exhausted.
    ///
    /// `mem` is only read when the pattern is indirect.
    pub fn next_elem<M: StreamMemory + ?Sized>(&mut self, mem: &M) -> Option<Elem> {
        if self.done {
            return None;
        }
        if !self.started {
            self.started = true;
            let top = self.ndims() - 1;
            if self.wdims[top].size == 0 {
                self.done = true;
                return None;
            }
            if !self.descend_from(top, mem) {
                return None;
            }
        }
        let addr = self.current_addr();
        let mut ends = EndFlags::default();
        // Advance to the next element, recording which runs completed.
        self.idx[0] += 1;
        if self.idx[0] >= self.wdims[0].size {
            ends.set_dim(0);
            let mut k = 1;
            let landed = loop {
                if k == self.ndims() {
                    break None;
                }
                self.idx[k] += 1;
                if self.idx[k] < self.wdims[k].size {
                    break Some(k);
                }
                ends.set_dim(k);
                k += 1;
            };
            match landed {
                Some(kk) => {
                    if !self.descend_from(kk, mem) {
                        ends.set_stream();
                    }
                }
                None => {
                    self.done = true;
                    ends.set_stream();
                }
            }
        }
        Some(Elem { addr, ends })
    }

    /// Adapts the walker into a standard [`Iterator`] borrowing `mem`.
    pub fn iter<M: StreamMemory>(self, mem: &M) -> WalkerIter<'_, M> {
        WalkerIter { walker: self, mem }
    }

    pub(crate) fn snapshot_parts(&self) -> SnapshotParts {
        (
            self.wdims.clone(),
            self.idx.clone(),
            self.static_counters
                .iter()
                .map(|v| v.iter().map(|c| c.applied).collect())
                .collect(),
            self.origins
                .iter()
                .map(|v| v.iter().map(|o| o.consumed).collect())
                .collect(),
            self.started,
            self.done,
        )
    }

    pub(crate) fn restore_parts<M: StreamMemory + ?Sized>(
        &mut self,
        parts: SnapshotParts,
        mem: &M,
    ) {
        let (wdims, idx, statics, origins, started, done) = parts;
        self.wdims = wdims;
        self.idx = idx;
        for (k, v) in statics.iter().enumerate() {
            for (i, &applied) in v.iter().enumerate() {
                self.static_counters[k][i].applied = applied;
            }
        }
        // Origin streams are replayed to their consumed position: a stream
        // iteration describes a scalar access, so resuming simply re-walks
        // (the paper: "all pre-fetched data in internal buffers is lost and
        // must be re-loaded").
        for (k, v) in origins.iter().enumerate() {
            for (i, &consumed) in v.iter().enumerate() {
                let pat = self.pattern.indirect_mods(k)[i].origin.clone();
                let mut w = Walker::new(&pat);
                for _ in 0..consumed {
                    w.next_elem(mem);
                }
                self.origins[k][i] = OriginState {
                    walker: Box::new(w),
                    consumed,
                };
            }
        }
        self.started = started;
        self.done = done;
    }
}

fn read_param(d: &Dim, p: Param) -> i64 {
    match p {
        Param::Offset => d.offset,
        Param::Size => d.size as i64,
        Param::Stride => d.stride,
    }
}

fn set_param(d: &mut Dim, p: Param, v: i64) {
    match p {
        Param::Offset => d.offset = v,
        Param::Size => d.size = v.max(0) as u64,
        Param::Stride => d.stride = v,
    }
}

fn apply_delta(d: &mut Dim, p: Param, delta: i64) {
    let v = read_param(d, p).wrapping_add(delta);
    set_param(d, p, v);
}

/// Raw pieces of a walker snapshot: working dims, indices, static-modifier
/// counters, origin positions, started and done flags.
pub(crate) type SnapshotParts = (Vec<Dim>, Vec<u64>, Vec<Vec<u64>>, Vec<Vec<u64>>, bool, bool);

/// Iterator adapter returned by [`Walker::iter`].
#[derive(Debug)]
pub struct WalkerIter<'m, M> {
    walker: Walker,
    mem: &'m M,
}

impl<M: StreamMemory> Iterator for WalkerIter<'_, M> {
    type Item = Elem;

    fn next(&mut self) -> Option<Elem> {
        self.walker.next_elem(self.mem)
    }
}

/// A vector-register-sized group of stream elements.
///
/// For affine streams (and indirect streams under
/// [`IndirectPacking::Unpacked`]) chunks never cross an innermost-dimension
/// boundary: when a dimension-0 run ends before the vector fills, the
/// remaining lanes are invalid (the paper's automatic padding, feature F5).
/// Under [`IndirectPacking::Packed`] an indirect stream packs across
/// dimension-0 boundaries and only closes a chunk at an outer-dimension or
/// stream boundary. `valid` is in `1..=vl` either way.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VecChunk {
    /// Byte addresses of the valid elements, in lane order.
    pub addrs: Vec<u64>,
    /// Number of valid lanes (`addrs.len()`).
    pub valid: usize,
    /// Boundary flags of the *last* element of the chunk; this is the
    /// stream-state the UVE conditional branches observe after consuming the
    /// chunk.
    pub ends: EndFlags,
    /// Number of descriptor-dimension switches performed while generating
    /// this chunk (timing: one extra address-generator cycle each).
    pub dim_switches: u32,
}

/// Groups a [`Walker`]'s elements into [`VecChunk`]s of at most `vl`
/// elements each.
#[derive(Debug, Clone)]
pub struct VectorWalker {
    walker: Walker,
    vl: usize,
    /// `true` when this stream packs across dimension-0 boundaries
    /// (packed mode requested *and* the pattern is indirect).
    pack: bool,
}

impl VectorWalker {
    /// Creates a vector walker producing chunks of at most `vl` elements,
    /// at the default (packed) indirect chunking.
    ///
    /// # Panics
    ///
    /// Panics if `vl == 0`.
    pub fn new(pattern: &Pattern, vl: usize) -> Self {
        Self::with_packing(pattern, vl, IndirectPacking::default())
    }

    /// Creates a vector walker with an explicit [`IndirectPacking`] mode.
    ///
    /// # Panics
    ///
    /// Panics if `vl == 0`.
    pub fn with_packing(pattern: &Pattern, vl: usize, packing: IndirectPacking) -> Self {
        assert!(vl > 0, "vector length must be positive");
        Self {
            walker: Walker::new(pattern),
            vl,
            pack: packing == IndirectPacking::Packed && pattern.is_indirect(),
        }
    }

    /// The maximum lanes per chunk.
    pub fn vl(&self) -> usize {
        self.vl
    }

    /// `true` when chunks of this stream pack across dimension-0
    /// boundaries (packed mode on an indirect pattern).
    pub fn packs(&self) -> bool {
        self.pack
    }

    /// `true` once the pattern is exhausted.
    pub fn is_done(&self) -> bool {
        self.walker.is_done()
    }

    /// Access to the underlying element walker (for save/restore).
    pub fn walker(&self) -> &Walker {
        &self.walker
    }

    /// Mutable access to the underlying element walker (for save/restore).
    pub fn walker_mut(&mut self) -> &mut Walker {
        &mut self.walker
    }

    /// Produces the next chunk, or `None` when the stream is exhausted.
    pub fn next_chunk<M: StreamMemory + ?Sized>(&mut self, mem: &M) -> Option<VecChunk> {
        let mut addrs = Vec::with_capacity(self.vl);
        let mut ends = EndFlags::default();
        let mut dim_switches = 0;
        while addrs.len() < self.vl {
            let e = self.walker.next_elem(mem)?;
            addrs.push(e.addr);
            ends = e.ends;
            dim_switches += e.ends.carry_depth();
            if e.ends.closes_chunk(self.pack) {
                break;
            }
        }
        let valid = addrs.len();
        Some(VecChunk {
            addrs,
            valid,
            ends,
            dim_switches,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::{Behaviour, ElemWidth, IndirectBehaviour, Param};
    use crate::{NoMemory, SliceMemory};

    fn addrs_of(p: &Pattern) -> Vec<u64> {
        Walker::new(p).iter(&NoMemory).map(|e| e.addr).collect()
    }

    #[test]
    fn linear_pattern_addresses() {
        // Fig. 3.B1: for i in 0..N { A[i] }
        let p = Pattern::linear(0x1000, ElemWidth::Word, 5).unwrap();
        assert_eq!(addrs_of(&p), vec![0x1000, 0x1004, 0x1008, 0x100c, 0x1010]);
    }

    #[test]
    fn rectangular_pattern_addresses() {
        // Fig. 3.B2: row-major Nr×Nc scan.
        let (nr, nc) = (3u64, 4u64);
        let p = Pattern::builder(0, ElemWidth::Word)
            .dim(0, nc, 1)
            .dim(0, nr, nc as i64)
            .build()
            .unwrap();
        let expect: Vec<u64> = (0..nr)
            .flat_map(|i| (0..nc).map(move |j| (i * nc + j) * 4))
            .collect();
        assert_eq!(addrs_of(&p), expect);
    }

    #[test]
    fn rectangular_scattered_addresses() {
        // Fig. 3.B3: every other row, every other element of the first d.
        let (nr, nc, d) = (4u64, 6u64, 4u64);
        let p = Pattern::builder(0, ElemWidth::Word)
            .dim(0, d / 2, 2)
            .dim(0, nr / 2, 2 * nc as i64)
            .build()
            .unwrap();
        let mut expect = Vec::new();
        for i in (0..nr).step_by(2) {
            for j in (0..d).step_by(2) {
                expect.push((i * nc + j) * 4);
            }
        }
        assert_eq!(addrs_of(&p), expect);
    }

    #[test]
    fn lower_triangular_addresses() {
        // Fig. 3.B4: row i has i+1 elements.
        let (nr, nc) = (4u64, 4u64);
        let p = Pattern::builder(0, ElemWidth::Word)
            .dim(0, 0, 1)
            .dim(0, nr, nc as i64)
            .static_mod(Param::Size, Behaviour::Add, 1, nr)
            .build()
            .unwrap();
        let mut expect = Vec::new();
        for i in 0..nr {
            for j in 0..=i {
                expect.push((i * nc + j) * 4);
            }
        }
        assert_eq!(addrs_of(&p), expect);
    }

    #[test]
    fn indirect_pattern_addresses() {
        // Fig. 3.B5: B[A[i]] where A = [3, 0, 2, 1].
        let a = SliceMemory::new(vec![3, 0, 2, 1]);
        let origin = Pattern::linear(0, ElemWidth::Word, 4).unwrap();
        let p = Pattern::builder(0x100, ElemWidth::Word)
            .dim(0, 1, 0)
            .indirect_outer(Param::Offset, IndirectBehaviour::SetAdd, origin, 4)
            .build()
            .unwrap();
        let got: Vec<u64> = Walker::new(&p).iter(&a).map(|e| e.addr).collect();
        assert_eq!(got, vec![0x100 + 12, 0x100, 0x100 + 8, 0x100 + 4]);
    }

    #[test]
    fn end_flags_on_2d() {
        let p = Pattern::builder(0, ElemWidth::Word)
            .dim(0, 3, 1)
            .dim(0, 2, 3)
            .build()
            .unwrap();
        let elems: Vec<Elem> = Walker::new(&p).iter(&NoMemory).collect();
        assert_eq!(elems.len(), 6);
        assert!(!elems[0].ends.ends_dim(0));
        assert!(elems[2].ends.ends_dim(0));
        assert!(!elems[2].ends.ends_stream());
        assert!(elems[5].ends.ends_dim(0));
        assert!(elems[5].ends.ends_dim(1));
        assert!(elems[5].ends.ends_stream());
    }

    #[test]
    fn empty_runs_are_skipped() {
        // dim0 size starts at 0 and only the 3rd outer iteration makes it
        // non-empty (displacement 0,0,then grows via count... use Add with
        // count 3 but displacement such that first rows stay empty).
        let p = Pattern::builder(0, ElemWidth::Word)
            .dim(0, 0, 1)
            .dim(0, 3, 4)
            .static_mod(Param::Size, Behaviour::Add, 1, 3)
            .build()
            .unwrap();
        // sizes: 1, 2, 3 → 6 elements
        assert_eq!(addrs_of(&p).len(), 6);
    }

    #[test]
    fn zero_sized_stream_yields_nothing() {
        let p = Pattern::linear(0, ElemWidth::Word, 0).unwrap();
        assert_eq!(addrs_of(&p).len(), 0);
        let mut w = Walker::new(&p);
        assert!(w.next_elem(&NoMemory).is_none());
        assert!(w.is_done());
    }

    #[test]
    fn static_mod_count_limits_applications() {
        // Modifier applies only for the first 2 of 4 outer iterations.
        let p = Pattern::builder(0, ElemWidth::Word)
            .dim(0, 1, 1)
            .dim(0, 4, 10)
            .static_mod(Param::Size, Behaviour::Add, 1, 2)
            .build()
            .unwrap();
        // sizes: 2, 3, 3, 3 → 11 elements
        assert_eq!(addrs_of(&p).len(), 11);
    }

    #[test]
    fn vector_chunks_respect_dim0_boundary() {
        let p = Pattern::builder(0, ElemWidth::Word)
            .dim(0, 5, 1)
            .dim(0, 2, 5)
            .build()
            .unwrap();
        let mut vw = VectorWalker::new(&p, 4);
        let c1 = vw.next_chunk(&NoMemory).unwrap();
        assert_eq!(c1.valid, 4);
        assert!(!c1.ends.ends_dim(0));
        let c2 = vw.next_chunk(&NoMemory).unwrap();
        assert_eq!(c2.valid, 1); // row tail padded
        assert!(c2.ends.ends_dim(0));
        let c3 = vw.next_chunk(&NoMemory).unwrap();
        assert_eq!(c3.valid, 4);
        let c4 = vw.next_chunk(&NoMemory).unwrap();
        assert_eq!(c4.valid, 1);
        assert!(c4.ends.ends_stream());
        assert!(vw.next_chunk(&NoMemory).is_none());
    }

    /// A 2-level MAMR-Ind-shaped gather: rows of `n` single-element
    /// indirect accesses (dim0 size 1, indirect on dim1, dim2 rows).
    fn row_gather(n: u64) -> (Pattern, SliceMemory) {
        let indices: Vec<i64> = (0..n * n).map(|i| ((i * 7) % (n * n)) as i64).collect();
        let mem = SliceMemory::new(indices);
        let origin = Pattern::linear(0, ElemWidth::Word, n * n).unwrap();
        let p = Pattern::builder(0x1_0000, ElemWidth::Word)
            .dim(0, 1, 0)
            .dim(0, n, 0)
            .indirect_mod(Param::Offset, IndirectBehaviour::SetAdd, origin)
            .dim(0, n, 0)
            .build()
            .unwrap();
        (p, mem)
    }

    #[test]
    fn packed_gather_fills_vectors_within_rows() {
        let (p, mem) = row_gather(40); // rows of 40 single-lane accesses
        let unpacked: Vec<VecChunk> = {
            let mut vw = VectorWalker::with_packing(&p, 16, IndirectPacking::Unpacked);
            std::iter::from_fn(|| vw.next_chunk(&mem)).collect()
        };
        let packed: Vec<VecChunk> = {
            let mut vw = VectorWalker::with_packing(&p, 16, IndirectPacking::Packed);
            std::iter::from_fn(|| vw.next_chunk(&mem)).collect()
        };
        // Strict rule: one lane per chunk. Packed: rows of 40 → 16+16+8.
        assert_eq!(unpacked.len(), 40 * 40);
        assert!(unpacked.iter().all(|c| c.valid == 1));
        assert_eq!(packed.len(), 3 * 40);
        let valids: Vec<usize> = packed.iter().take(3).map(|c| c.valid).collect();
        assert_eq!(valids, vec![16, 16, 8]);
        // Same element sequence in the same order.
        let flat_u: Vec<u64> = unpacked.iter().flat_map(|c| c.addrs.clone()).collect();
        let flat_p: Vec<u64> = packed.iter().flat_map(|c| c.addrs.clone()).collect();
        assert_eq!(flat_u, flat_p);
        // Dim-switch cycles are conserved across modes (per-element carry
        // accumulation is mode-independent).
        let sw_u: u32 = unpacked.iter().map(|c| c.dim_switches).sum();
        let sw_p: u32 = packed.iter().map(|c| c.dim_switches).sum();
        assert_eq!(sw_u, sw_p);
        // Packed chunks still close at row (dim-1) boundaries, so the
        // `so.b.dim1.end` branch observes them: every third chunk ends a
        // row, no mid-row chunk does.
        for (i, c) in packed.iter().enumerate() {
            assert_eq!(c.ends.ends_dim(1), i % 3 == 2, "chunk {i}");
        }
        assert!(packed.last().unwrap().ends.ends_stream());
    }

    #[test]
    fn packed_single_descriptor_gather_packs_whole_stream() {
        // Fig. 3.B5 form: the virtual outer dimension is the gather length,
        // so intermediate elements only set bit 0 and the whole gather
        // packs to ⌈n/vl⌉ chunks.
        let a = SliceMemory::new((0..10).map(|i| (9 - i) as i64).collect());
        let origin = Pattern::linear(0, ElemWidth::Word, 10).unwrap();
        let p = Pattern::builder(0x100, ElemWidth::Word)
            .dim(0, 1, 0)
            .indirect_outer(Param::Offset, IndirectBehaviour::SetAdd, origin, 10)
            .build()
            .unwrap();
        let mut vw = VectorWalker::new(&p, 4); // packed is the default
        assert!(vw.packs());
        let c1 = vw.next_chunk(&a).unwrap();
        assert_eq!(c1.valid, 4);
        assert!(!c1.ends.ends_stream());
        let c2 = vw.next_chunk(&a).unwrap();
        let c3 = vw.next_chunk(&a).unwrap();
        assert_eq!((c2.valid, c3.valid), (4, 2));
        assert!(c3.ends.ends_stream());
        assert!(vw.next_chunk(&a).is_none());
    }

    #[test]
    fn packing_mode_is_inert_for_affine_patterns() {
        let p = Pattern::builder(0, ElemWidth::Word)
            .dim(0, 5, 1)
            .dim(0, 2, 5)
            .build()
            .unwrap();
        let mut a = VectorWalker::with_packing(&p, 4, IndirectPacking::Packed);
        let mut b = VectorWalker::with_packing(&p, 4, IndirectPacking::Unpacked);
        assert!(!a.packs());
        loop {
            let (ca, cb) = (a.next_chunk(&NoMemory), b.next_chunk(&NoMemory));
            assert_eq!(ca, cb);
            if ca.is_none() {
                break;
            }
        }
    }

    #[test]
    fn negative_stride_walks_backwards() {
        let p = Pattern::builder(0x100, ElemWidth::Word)
            .dim(0, 4, -1)
            .build()
            .unwrap();
        assert_eq!(addrs_of(&p), vec![0x100, 0xfc, 0xf8, 0xf4]);
    }

    #[test]
    fn offset_shifts_pattern() {
        let p = Pattern::builder(0, ElemWidth::Word)
            .dim(2, 3, 1)
            .build()
            .unwrap();
        assert_eq!(addrs_of(&p), vec![8, 12, 16]);
    }

    #[test]
    fn count_matches_walk() {
        let p = Pattern::builder(0, ElemWidth::Word)
            .dim(0, 0, 1)
            .dim(0, 5, 8)
            .static_mod(Param::Size, Behaviour::Add, 1, 5)
            .build()
            .unwrap();
        assert_eq!(p.count(&NoMemory), 15);
        assert_eq!(p.nominal_len(), 0); // nominal ignores modifiers
    }

    #[test]
    fn indirect_set_value_sets_stride() {
        // stride of dim0 taken from origin values per outer iteration
        let mem = SliceMemory::new(vec![1, 2]);
        let origin = Pattern::linear(0, ElemWidth::Word, 2).unwrap();
        let p = Pattern::builder(0x1000, ElemWidth::Word)
            .dim(0, 3, 1)
            .indirect_outer(Param::Stride, IndirectBehaviour::SetValue, origin, 2)
            .build()
            .unwrap();
        let got: Vec<u64> = Walker::new(&p).iter(&mem).map(|e| e.addr).collect();
        // iter 1: stride 1 → 0x1000,0x1004,0x1008; iter 2: stride 2 →
        // 0x1000,0x1008,0x1010
        assert_eq!(got, vec![0x1000, 0x1004, 0x1008, 0x1000, 0x1008, 0x1010]);
    }

    #[test]
    fn three_dim_pattern() {
        let p = Pattern::builder(0, ElemWidth::Double)
            .dim(0, 2, 1)
            .dim(0, 3, 2)
            .dim(0, 2, 6)
            .build()
            .unwrap();
        let a = addrs_of(&p);
        assert_eq!(a.len(), 12);
        assert_eq!(a[0], 0);
        assert_eq!(a[2], 16); // second mid-dim iteration
        assert_eq!(a[6], 48); // second outer iteration
    }
}
