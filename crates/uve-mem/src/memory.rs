//! Sparse paged functional memory.

use crate::fnv::{fnv1a, FNV_OFFSET, FNV_PRIME};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use uve_stream::{ElemWidth, StreamMemory};

/// Page size of the simulated virtual memory, in bytes.
pub const PAGE_SIZE: u64 = 4096;

/// Multiplicative hasher for page numbers. Page lookups sit on the hottest
/// path of the emulator (every load/store and every stream element goes
/// through one), where SipHash costs more than the access itself; page
/// numbers are small dense integers, so a single odd-constant multiply
/// (Fibonacci hashing) spreads them perfectly well. Deterministic, so map
/// behaviour never varies between runs (iteration order is never observed:
/// [`Memory::content_hash`] sorts pages first).
#[derive(Debug, Clone, Copy, Default)]
pub struct PageHasher(u64);

impl Hasher for PageHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        // 2^64 / phi, the classic Fibonacci-hashing constant.
        self.0 = (self.0 ^ n).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
}

type Page = Box<[u8; PAGE_SIZE as usize]>;
type PageMap = HashMap<u64, Page, BuildHasherDefault<PageHasher>>;

/// Page numbers below this go through the direct (vector-indexed) table;
/// higher ones through the hash map. 1 GiB of address space — everything
/// the bump allocator ([`Memory::alloc`]) ever hands out — resolves with a
/// single predictable index instead of a hash probe. The direct table grows
/// lazily to the highest page touched, so small memories stay small.
const DIRECT_PAGES: u64 = (1 << 30) / PAGE_SIZE;

/// Byte-addressable sparse memory backed by 4 KiB pages.
///
/// Pages are allocated on first touch; reads of untouched memory return
/// zero. All multi-byte accessors are little-endian and may straddle page
/// boundaries.
///
/// ```rust
/// use uve_mem::Memory;
///
/// let mut mem = Memory::new();
/// mem.write_f32(0x1000, 3.5);
/// assert_eq!(mem.read_f32(0x1000), 3.5);
/// assert_eq!(mem.read_u32(0x2000), 0); // untouched
/// ```
#[derive(Debug, Clone, Default)]
pub struct Memory {
    /// Pages below [`DIRECT_PAGES`], indexed by page number.
    direct: Vec<Option<Page>>,
    /// Pages at or above [`DIRECT_PAGES`].
    far: PageMap,
    alloc_cursor: u64,
}

/// Base address of the bump allocator used by [`Memory::alloc`].
const ALLOC_BASE: u64 = 0x10_0000;

impl Memory {
    /// Creates an empty memory.
    pub fn new() -> Self {
        Self {
            direct: Vec::new(),
            far: PageMap::default(),
            alloc_cursor: ALLOC_BASE,
        }
    }

    /// The page holding `num`, if touched.
    #[inline]
    fn page(&self, num: u64) -> Option<&Page> {
        if num < DIRECT_PAGES {
            self.direct.get(num as usize)?.as_ref()
        } else {
            self.far.get(&num)
        }
    }

    /// The page holding `num`, allocated on first touch.
    #[inline]
    fn page_mut(&mut self, num: u64) -> &mut Page {
        if num < DIRECT_PAGES {
            let i = num as usize;
            if i >= self.direct.len() {
                self.direct.resize_with(i + 1, || None);
            }
            self.direct[i].get_or_insert_with(|| Box::new([0; PAGE_SIZE as usize]))
        } else {
            self.far
                .entry(num)
                .or_insert_with(|| Box::new([0; PAGE_SIZE as usize]))
        }
    }

    /// Number of pages touched so far.
    pub fn touched_pages(&self) -> usize {
        self.direct.iter().filter(|p| p.is_some()).count() + self.far.len()
    }

    /// Bump-allocates `bytes` bytes aligned to `align` (a power of two) and
    /// returns the base address. Convenient for placing kernel arrays.
    ///
    /// # Panics
    ///
    /// Panics if `align` is not a power of two.
    pub fn alloc(&mut self, bytes: u64, align: u64) -> u64 {
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        let base = (self.alloc_cursor + align - 1) & !(align - 1);
        self.alloc_cursor = base + bytes;
        base
    }

    /// Reads one byte.
    #[inline]
    pub fn read_u8(&self, addr: u64) -> u8 {
        match self.page(addr / PAGE_SIZE) {
            Some(p) => p[(addr % PAGE_SIZE) as usize],
            None => 0,
        }
    }

    /// Writes one byte.
    #[inline]
    pub fn write_u8(&mut self, addr: u64, v: u8) {
        self.page_mut(addr / PAGE_SIZE)[(addr % PAGE_SIZE) as usize] = v;
    }

    /// Reads `buf.len()` bytes starting at `addr`.
    #[inline]
    pub fn read_bytes(&self, addr: u64, buf: &mut [u8]) {
        let off = (addr % PAGE_SIZE) as usize;
        if off + buf.len() <= PAGE_SIZE as usize {
            // Single-page access: one page lookup for the whole value. This
            // is the overwhelmingly common case and the hot path of every
            // emulated load.
            match self.page(addr / PAGE_SIZE) {
                Some(p) => buf.copy_from_slice(&p[off..off + buf.len()]),
                None => buf.fill(0),
            }
            return;
        }
        for (i, b) in buf.iter_mut().enumerate() {
            *b = self.read_u8(addr + i as u64);
        }
    }

    /// Writes `buf` starting at `addr`.
    #[inline]
    pub fn write_bytes(&mut self, addr: u64, buf: &[u8]) {
        let off = (addr % PAGE_SIZE) as usize;
        if off + buf.len() <= PAGE_SIZE as usize {
            let page = self.page_mut(addr / PAGE_SIZE);
            page[off..off + buf.len()].copy_from_slice(buf);
            return;
        }
        for (i, b) in buf.iter().enumerate() {
            self.write_u8(addr + i as u64, *b);
        }
    }

    /// Reads a little-endian `u16`.
    #[inline]
    pub fn read_u16(&self, addr: u64) -> u16 {
        let mut b = [0; 2];
        self.read_bytes(addr, &mut b);
        u16::from_le_bytes(b)
    }

    /// Reads a little-endian `u32`.
    #[inline]
    pub fn read_u32(&self, addr: u64) -> u32 {
        let mut b = [0; 4];
        self.read_bytes(addr, &mut b);
        u32::from_le_bytes(b)
    }

    /// Reads a little-endian `u64`.
    #[inline]
    pub fn read_u64(&self, addr: u64) -> u64 {
        let mut b = [0; 8];
        self.read_bytes(addr, &mut b);
        u64::from_le_bytes(b)
    }

    /// Writes a little-endian `u16`.
    #[inline]
    pub fn write_u16(&mut self, addr: u64, v: u16) {
        self.write_bytes(addr, &v.to_le_bytes());
    }

    /// Writes a little-endian `u32`.
    #[inline]
    pub fn write_u32(&mut self, addr: u64, v: u32) {
        self.write_bytes(addr, &v.to_le_bytes());
    }

    /// Writes a little-endian `u64`.
    #[inline]
    pub fn write_u64(&mut self, addr: u64, v: u64) {
        self.write_bytes(addr, &v.to_le_bytes());
    }

    /// Reads an `f32`.
    #[inline]
    pub fn read_f32(&self, addr: u64) -> f32 {
        f32::from_bits(self.read_u32(addr))
    }

    /// Writes an `f32`.
    #[inline]
    pub fn write_f32(&mut self, addr: u64, v: f32) {
        self.write_u32(addr, v.to_bits());
    }

    /// Reads an `f64`.
    #[inline]
    pub fn read_f64(&self, addr: u64) -> f64 {
        f64::from_bits(self.read_u64(addr))
    }

    /// Writes an `f64`.
    #[inline]
    pub fn write_f64(&mut self, addr: u64, v: f64) {
        self.write_u64(addr, v.to_bits());
    }

    /// Reads a sign-extended value of the given element width.
    #[inline]
    pub fn read_elem(&self, addr: u64, width: ElemWidth) -> i64 {
        match width {
            ElemWidth::Byte => self.read_u8(addr) as i8 as i64,
            ElemWidth::Half => self.read_u16(addr) as i16 as i64,
            ElemWidth::Word => self.read_u32(addr) as i32 as i64,
            ElemWidth::Double => self.read_u64(addr) as i64,
        }
    }

    /// Writes the low `width` bytes of `v`.
    #[inline]
    pub fn write_elem(&mut self, addr: u64, width: ElemWidth, v: i64) {
        match width {
            ElemWidth::Byte => self.write_u8(addr, v as u8),
            ElemWidth::Half => self.write_u16(addr, v as u16),
            ElemWidth::Word => self.write_u32(addr, v as u32),
            ElemWidth::Double => self.write_u64(addr, v as u64),
        }
    }

    /// Writes an `f32` slice contiguously starting at `addr`.
    pub fn write_f32_slice(&mut self, addr: u64, data: &[f32]) {
        for (i, v) in data.iter().enumerate() {
            self.write_f32(addr + 4 * i as u64, *v);
        }
    }

    /// Reads `n` contiguous `f32` values starting at `addr`.
    pub fn read_f32_slice(&self, addr: u64, n: usize) -> Vec<f32> {
        (0..n).map(|i| self.read_f32(addr + 4 * i as u64)).collect()
    }

    /// Writes an `f64` slice contiguously starting at `addr`.
    pub fn write_f64_slice(&mut self, addr: u64, data: &[f64]) {
        for (i, v) in data.iter().enumerate() {
            self.write_f64(addr + 8 * i as u64, *v);
        }
    }

    /// Reads `n` contiguous `f64` values starting at `addr`.
    pub fn read_f64_slice(&self, addr: u64, n: usize) -> Vec<f64> {
        (0..n).map(|i| self.read_f64(addr + 8 * i as u64)).collect()
    }

    /// Writes an `i32` slice contiguously starting at `addr`.
    pub fn write_i32_slice(&mut self, addr: u64, data: &[i32]) {
        for (i, v) in data.iter().enumerate() {
            self.write_u32(addr + 4 * i as u64, *v as u32);
        }
    }

    /// Reads `n` contiguous `i32` values starting at `addr`.
    pub fn read_i32_slice(&self, addr: u64, n: usize) -> Vec<i32> {
        (0..n)
            .map(|i| self.read_u32(addr + 4 * i as u64) as i32)
            .collect()
    }

    /// A deterministic digest of the full memory contents (pages visited
    /// in sorted order, so the hash is independent of touch order). Two
    /// memories with identical byte contents hash equal; an all-zero page
    /// hashes like an untouched one, so allocation noise doesn't matter.
    pub fn content_hash(&self) -> u64 {
        // Direct pages are stored in page-number order already; far pages
        // (all numerically above them) are sorted before hashing, keeping
        // the walk globally ordered.
        let direct = self
            .direct
            .iter()
            .enumerate()
            .filter_map(|(n, p)| Some((n as u64, p.as_ref()?)));
        let mut far: Vec<(u64, &Page)> = self.far.iter().map(|(n, p)| (*n, p)).collect();
        far.sort_by_key(|(n, _)| *n);
        let mut h = FNV_OFFSET;
        for (num, data) in direct.chain(far) {
            if data.iter().all(|&b| b == 0) {
                continue;
            }
            // The page number goes in as one whole word, not byte by byte.
            h ^= num;
            h = h.wrapping_mul(FNV_PRIME);
            h = fnv1a(h, &data[..]);
        }
        h
    }
}

impl StreamMemory for Memory {
    fn load(&self, addr: u64, width: ElemWidth) -> i64 {
        self.read_elem(addr, width)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_initialized() {
        let m = Memory::new();
        assert_eq!(m.read_u64(0xdead_beef), 0);
        assert_eq!(m.touched_pages(), 0);
    }

    #[test]
    fn rw_roundtrip_all_widths() {
        let mut m = Memory::new();
        m.write_u8(10, 0xab);
        m.write_u16(20, 0xbeef);
        m.write_u32(30, 0xdead_beef);
        m.write_u64(40, 0x0123_4567_89ab_cdef);
        assert_eq!(m.read_u8(10), 0xab);
        assert_eq!(m.read_u16(20), 0xbeef);
        assert_eq!(m.read_u32(30), 0xdead_beef);
        assert_eq!(m.read_u64(40), 0x0123_4567_89ab_cdef);
    }

    #[test]
    fn cross_page_access() {
        let mut m = Memory::new();
        let addr = PAGE_SIZE - 2;
        m.write_u32(addr, 0x1122_3344);
        assert_eq!(m.read_u32(addr), 0x1122_3344);
        assert_eq!(m.touched_pages(), 2);
    }

    #[test]
    fn float_roundtrip() {
        let mut m = Memory::new();
        m.write_f32(0, -1.25);
        m.write_f64(8, std::f64::consts::PI);
        assert_eq!(m.read_f32(0), -1.25);
        assert_eq!(m.read_f64(8), std::f64::consts::PI);
    }

    #[test]
    fn elem_sign_extension() {
        let mut m = Memory::new();
        m.write_u8(0, 0xff);
        m.write_u32(4, 0xffff_ffff);
        assert_eq!(m.read_elem(0, ElemWidth::Byte), -1);
        assert_eq!(m.read_elem(4, ElemWidth::Word), -1);
        assert_eq!(m.read_elem(4, ElemWidth::Half), -1);
    }

    #[test]
    fn alloc_alignment_and_disjointness() {
        let mut m = Memory::new();
        let a = m.alloc(100, 64);
        let b = m.alloc(10, 64);
        assert_eq!(a % 64, 0);
        assert_eq!(b % 64, 0);
        assert!(b >= a + 100);
    }

    #[test]
    fn slice_helpers() {
        let mut m = Memory::new();
        let data = vec![1.0f32, 2.0, 3.0];
        m.write_f32_slice(0x100, &data);
        assert_eq!(m.read_f32_slice(0x100, 3), data);
        let ints = vec![-1i32, 7, 42];
        m.write_i32_slice(0x200, &ints);
        assert_eq!(m.read_i32_slice(0x200, 3), ints);
    }

    #[test]
    fn content_hash_reflects_bytes_not_touch_order() {
        let mut a = Memory::new();
        let mut b = Memory::new();
        a.write_u32(0x1000, 7);
        a.write_u32(0x9000, 9);
        b.write_u32(0x9000, 9);
        b.write_u32(0x1000, 7);
        assert_eq!(a.content_hash(), b.content_hash());
        b.write_u8(0x1000, 8);
        assert_ne!(a.content_hash(), b.content_hash());
        // Touching a page with zeroes doesn't change the digest.
        let empty = Memory::new().content_hash();
        let mut c = Memory::new();
        c.write_u8(0x5000, 0);
        assert_eq!(c.content_hash(), empty);
    }

    #[test]
    fn stream_memory_impl() {
        let mut m = Memory::new();
        m.write_u32(0, 1234);
        assert_eq!(StreamMemory::load(&m, 0, ElemWidth::Word), 1234);
    }
}
