//! Vector and predicate register values for the functional emulator.

use uve_isa::{ElemWidth, VType};

/// Maximum number of lanes any configuration can have (512-bit vector of
/// bytes).
pub const MAX_LANES: usize = 64;

/// A vector register value: raw little-endian bytes plus per-lane validity.
///
/// Lane validity implements the paper's automatic out-of-bounds disabling
/// (feature F5): stream reads shorter than the vector length yield trailing
/// invalid lanes, and operations propagate invalidity.
#[derive(Debug, PartialEq, Eq)]
pub struct VecVal {
    bytes: Vec<u8>,
    /// Element width the lanes were produced at.
    width: ElemWidth,
    /// Per-lane validity (length = bytes.len() / width).
    valid: Vec<bool>,
}

impl Clone for VecVal {
    fn clone(&self) -> Self {
        Self {
            bytes: self.bytes.clone(),
            width: self.width,
            valid: self.valid.clone(),
        }
    }

    /// Copies into `self`'s own buffers, allocating only to grow them.
    fn clone_from(&mut self, source: &Self) {
        self.bytes.clone_from(&source.bytes);
        self.width = source.width;
        self.valid.clone_from(&source.valid);
    }
}

impl VecVal {
    /// Creates an all-invalid value of `vlen_bytes` at the given width.
    pub fn empty(vlen_bytes: usize, width: ElemWidth) -> Self {
        let lanes = vlen_bytes / width.bytes();
        Self {
            bytes: vec![0; vlen_bytes],
            width,
            valid: vec![false; lanes],
        }
    }

    /// Creates a value from lane integers (sign-truncated to `width`), all
    /// valid.
    pub fn from_ints(vlen_bytes: usize, width: ElemWidth, vals: &[i64]) -> Self {
        let mut v = Self::empty(vlen_bytes, width);
        for (i, &x) in vals.iter().enumerate().take(v.lanes()) {
            v.set_int(i, x);
            v.valid[i] = true;
        }
        v
    }

    /// Creates a value from lane floats, all valid.
    pub fn from_floats(vlen_bytes: usize, width: ElemWidth, vals: &[f64]) -> Self {
        let mut v = Self::empty(vlen_bytes, width);
        for (i, &x) in vals.iter().enumerate().take(v.lanes()) {
            v.set_float(i, x);
            v.valid[i] = true;
        }
        v
    }

    /// Number of lanes at this value's width.
    pub fn lanes(&self) -> usize {
        self.valid.len()
    }

    /// The element width.
    pub fn width(&self) -> ElemWidth {
        self.width
    }

    /// The raw bytes.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Lane validity mask.
    pub fn valid(&self) -> &[bool] {
        &self.valid
    }

    /// `true` if lane `i` is valid.
    pub fn lane_valid(&self, i: usize) -> bool {
        self.valid.get(i).copied().unwrap_or(false)
    }

    /// Marks lane `i` (in)valid.
    pub fn set_lane_valid(&mut self, i: usize, v: bool) {
        if i < self.valid.len() {
            self.valid[i] = v;
        }
    }

    /// Number of valid lanes.
    pub fn valid_count(&self) -> usize {
        self.valid.iter().filter(|v| **v).count()
    }

    /// Number of leading valid lanes (the prefix written to output
    /// streams).
    pub fn valid_prefix(&self) -> usize {
        self.valid.iter().take_while(|v| **v).count()
    }

    /// Reinterprets the value at a different width (raw bytes preserved; all
    /// lanes become valid up to the previous valid byte extent).
    pub fn reinterpret(&self, width: ElemWidth) -> VecVal {
        let valid_bytes = self.valid_prefix() * self.width.bytes();
        let lanes = self.bytes.len() / width.bytes();
        let mut v = VecVal {
            bytes: self.bytes.clone(),
            width,
            valid: vec![false; lanes],
        };
        for i in 0..lanes {
            v.valid[i] = (i + 1) * width.bytes() <= valid_bytes;
        }
        v
    }

    /// Reads lane `i` as a sign-extended integer.
    pub fn int(&self, i: usize) -> i64 {
        let w = self.width.bytes();
        let off = i * w;
        let mut buf = [0u8; 8];
        buf[..w].copy_from_slice(&self.bytes[off..off + w]);
        let raw = u64::from_le_bytes(buf);
        match self.width {
            ElemWidth::Byte => raw as u8 as i8 as i64,
            ElemWidth::Half => raw as u16 as i16 as i64,
            ElemWidth::Word => raw as u32 as i32 as i64,
            ElemWidth::Double => raw as i64,
        }
    }

    /// Writes lane `i` from an integer (truncating to the width).
    pub fn set_int(&mut self, i: usize, v: i64) {
        let w = self.width.bytes();
        let off = i * w;
        self.bytes[off..off + w].copy_from_slice(&v.to_le_bytes()[..w]);
    }

    /// Reads lane `i` as a float (`Word` = f32, `Double` = f64).
    ///
    /// # Panics
    ///
    /// Panics for sub-word widths, which have no float interpretation.
    pub fn float(&self, i: usize) -> f64 {
        let w = self.width.bytes();
        let off = i * w;
        match self.width {
            ElemWidth::Word => {
                let mut b = [0u8; 4];
                b.copy_from_slice(&self.bytes[off..off + 4]);
                f32::from_le_bytes(b) as f64
            }
            ElemWidth::Double => {
                let mut b = [0u8; 8];
                b.copy_from_slice(&self.bytes[off..off + 8]);
                f64::from_le_bytes(b)
            }
            _ => panic!("no float interpretation at width {:?}", self.width),
        }
    }

    /// Writes lane `i` from a float.
    ///
    /// # Panics
    ///
    /// Panics for sub-word widths.
    pub fn set_float(&mut self, i: usize, v: f64) {
        let w = self.width.bytes();
        let off = i * w;
        match self.width {
            ElemWidth::Word => {
                self.bytes[off..off + 4].copy_from_slice(&(v as f32).to_le_bytes());
            }
            ElemWidth::Double => {
                self.bytes[off..off + 8].copy_from_slice(&v.to_le_bytes());
            }
            _ => panic!("no float interpretation at width {:?}", self.width),
        }
    }

    /// Reads lane `i` as a generic scalar of the instruction's type.
    pub fn scalar(&self, i: usize, ty: VType) -> Scalar {
        match ty {
            VType::Int => Scalar::Int(self.int(i)),
            VType::Fp => Scalar::Fp(self.float(i)),
        }
    }

    /// Writes lane `i` from a generic scalar.
    pub fn set_scalar(&mut self, i: usize, s: Scalar) {
        match s {
            Scalar::Int(v) => self.set_int(i, v),
            Scalar::Fp(v) => self.set_float(i, v),
        }
    }
}

/// A lane value of either interpretation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Scalar {
    /// Integer lane.
    Int(i64),
    /// Floating-point lane.
    Fp(f64),
}

impl Scalar {
    /// The integer payload.
    ///
    /// # Panics
    ///
    /// Panics if this is a float.
    pub fn as_int(self) -> i64 {
        match self {
            Scalar::Int(v) => v,
            Scalar::Fp(_) => panic!("expected integer lane"),
        }
    }

    /// The float payload.
    ///
    /// # Panics
    ///
    /// Panics if this is an integer.
    pub fn as_fp(self) -> f64 {
        match self {
            Scalar::Fp(v) => v,
            Scalar::Int(_) => panic!("expected float lane"),
        }
    }
}

/// A predicate register value: one boolean per (byte) lane position.
///
/// The effective mask at width `w` uses entry `i` for lane `i`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PredVal {
    lanes: Vec<bool>,
}

impl PredVal {
    /// All-true predicate (the hardwired `p0`).
    pub fn all_true() -> Self {
        Self {
            lanes: vec![true; MAX_LANES],
        }
    }

    /// All-false predicate.
    pub fn all_false() -> Self {
        Self {
            lanes: vec![false; MAX_LANES],
        }
    }

    /// Builds from a boolean slice (padded with false).
    pub fn from_bools(bools: &[bool]) -> Self {
        let mut lanes = vec![false; MAX_LANES];
        lanes[..bools.len().min(MAX_LANES)].copy_from_slice(&bools[..bools.len().min(MAX_LANES)]);
        Self { lanes }
    }

    /// Lane `i`.
    pub fn get(&self, i: usize) -> bool {
        self.lanes.get(i).copied().unwrap_or(false)
    }

    /// Sets lane `i`.
    pub fn set(&mut self, i: usize, v: bool) {
        if i < self.lanes.len() {
            self.lanes[i] = v;
        }
    }

    /// `true` if any of the first `n` lanes is set.
    pub fn any(&self, n: usize) -> bool {
        self.lanes[..n.min(MAX_LANES)].iter().any(|b| *b)
    }

    /// `true` if the first lane is set.
    pub fn first(&self) -> bool {
        self.lanes[0]
    }

    /// Count of set lanes among the first `n`.
    pub fn count(&self, n: usize) -> usize {
        self.lanes[..n.min(MAX_LANES)]
            .iter()
            .filter(|b| **b)
            .count()
    }

    /// Lane-wise NOT over the first `n` lanes.
    pub fn not(&self, n: usize) -> PredVal {
        let mut p = PredVal::all_false();
        for i in 0..n.min(MAX_LANES) {
            p.lanes[i] = !self.lanes[i];
        }
        p
    }

    /// Lane-wise AND.
    pub fn and(&self, other: &PredVal) -> PredVal {
        let mut p = PredVal::all_false();
        for i in 0..MAX_LANES {
            p.lanes[i] = self.lanes[i] && other.lanes[i];
        }
        p
    }

    /// Lane-wise OR.
    pub fn or(&self, other: &PredVal) -> PredVal {
        let mut p = PredVal::all_false();
        for i in 0..MAX_LANES {
            p.lanes[i] = self.lanes[i] || other.lanes[i];
        }
        p
    }
}

impl Default for PredVal {
    fn default() -> Self {
        Self::all_false()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_lane_roundtrip_all_widths() {
        for w in ElemWidth::all() {
            let mut v = VecVal::empty(64, w);
            v.set_int(0, -1);
            v.set_int(1, 42);
            assert_eq!(v.int(0), -1, "{w:?}");
            assert_eq!(v.int(1), 42);
        }
    }

    #[test]
    fn float_lane_roundtrip() {
        let mut v = VecVal::empty(64, ElemWidth::Word);
        v.set_float(3, -2.5);
        assert_eq!(v.float(3), -2.5);
        let mut d = VecVal::empty(64, ElemWidth::Double);
        d.set_float(7, 1e100);
        assert_eq!(d.float(7), 1e100);
    }

    #[test]
    fn lanes_by_width() {
        assert_eq!(VecVal::empty(64, ElemWidth::Word).lanes(), 16);
        assert_eq!(VecVal::empty(64, ElemWidth::Double).lanes(), 8);
        assert_eq!(VecVal::empty(16, ElemWidth::Word).lanes(), 4);
    }

    #[test]
    fn valid_prefix_vs_count() {
        let mut v = VecVal::from_ints(64, ElemWidth::Word, &[1, 2, 3, 4]);
        assert_eq!(v.valid_count(), 4);
        assert_eq!(v.valid_prefix(), 4);
        v.set_lane_valid(1, false);
        assert_eq!(v.valid_count(), 3);
        assert_eq!(v.valid_prefix(), 1);
    }

    #[test]
    fn from_floats_all_valid() {
        let v = VecVal::from_floats(64, ElemWidth::Word, &[1.0; 16]);
        assert_eq!(v.valid_count(), 16);
        assert_eq!(v.float(15), 1.0);
    }

    #[test]
    fn pred_ops() {
        let p = PredVal::from_bools(&[true, false, true]);
        assert!(p.first());
        assert!(p.any(3));
        assert_eq!(p.count(3), 2);
        let n = p.not(3);
        assert!(!n.first());
        assert_eq!(n.count(3), 1);
        let a = p.and(&PredVal::all_true());
        assert_eq!(a.count(3), 2);
        let o = p.or(&n);
        assert_eq!(o.count(3), 3);
    }

    #[test]
    fn scalar_accessors() {
        assert_eq!(Scalar::Int(5).as_int(), 5);
        assert_eq!(Scalar::Fp(2.0).as_fp(), 2.0);
    }

    #[test]
    #[should_panic(expected = "no float interpretation")]
    fn byte_lane_has_no_float() {
        VecVal::empty(64, ElemWidth::Byte).float(0);
    }
}
