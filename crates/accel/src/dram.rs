//! Byte-addressable DRAM model: a bounded address space with sparse backing.
//!
//! The address space is `[0, capacity)` and every access is bounds-checked
//! against it. Only the bytes up to the highest one ever written are backed
//! by memory; everything above reads as zero, exactly like a zero-initialised
//! device. A programmed device therefore holds (and clones) its plan's
//! footprint, not the full modelled capacity.

use crate::error::AccelError;

/// The emulated DRAM.
#[derive(Debug)]
pub struct Dram {
    /// Bytes `[0, data.len())` of the address space; the rest reads as zero.
    data: Vec<u8>,
    /// Logical size of the address space in bytes.
    capacity: u64,
}

impl Clone for Dram {
    /// Copies the resident bytes and keeps the reserved capacity, so a clone
    /// of a programmed device does not reallocate on its first inference.
    fn clone(&self) -> Self {
        let mut data = Vec::with_capacity(self.data.capacity());
        data.extend_from_slice(&self.data);
        Dram {
            data,
            capacity: self.capacity,
        }
    }
}

impl Dram {
    /// Creates a zeroed DRAM of `capacity` bytes. No backing memory is
    /// allocated until the first write.
    #[must_use]
    pub fn new(capacity: u64) -> Self {
        Dram {
            data: Vec::new(),
            capacity,
        }
    }

    /// Capacity in bytes.
    #[must_use]
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Bytes of backing memory currently materialised: one past the highest
    /// byte ever written.
    #[must_use]
    pub fn resident_bytes(&self) -> u64 {
        self.data.len() as u64
    }

    /// Reserves backing for the first `bytes` bytes (clamped to the
    /// capacity), so writes below that bound never reallocate. Contents and
    /// [`Dram::resident_bytes`] are unchanged.
    pub(crate) fn reserve(&mut self, bytes: u64) {
        let want = bytes.min(self.capacity) as usize;
        self.data.reserve(want.saturating_sub(self.data.len()));
    }

    fn check(&self, addr: u64, len: u64) -> Result<(usize, usize), AccelError> {
        match addr.checked_add(len) {
            Some(end) if end <= self.capacity => Ok((addr as usize, end as usize)),
            _ => Err(AccelError::DramOutOfBounds {
                addr,
                len,
                capacity: self.capacity,
            }),
        }
    }

    /// The resident part of the checked range `[a, b)`, plus how many zero
    /// bytes above the backing complete it.
    fn resident(&self, a: usize, b: usize) -> (&[u8], usize) {
        let end = b.min(self.data.len());
        let start = a.min(end);
        (&self.data[start..end], (b - a) - (end - start))
    }

    /// Mutable view of the checked range `[a, b)`, growing the backing with
    /// zeros to cover it. An empty range writes no byte and grows nothing.
    fn backing_mut(&mut self, a: usize, b: usize) -> &mut [u8] {
        if a == b {
            return &mut [];
        }
        if b > self.data.len() {
            self.data.resize(b, 0);
        }
        &mut self.data[a..b]
    }

    /// Reads `len` bytes as i8.
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::DramOutOfBounds`] on a bad range.
    pub fn read_i8(&self, addr: u64, len: u64) -> Result<Vec<i8>, AccelError> {
        let mut out = Vec::new();
        self.read_i8_into(addr, len, &mut out)?;
        Ok(out)
    }

    /// Buffer-reusing [`Dram::read_i8`]: clears `out` and fills it with the
    /// `len` bytes at `addr`. Steady-state readers keep one buffer and never
    /// reallocate once its capacity has grown to the largest read.
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::DramOutOfBounds`] on a bad range.
    pub fn read_i8_into(&self, addr: u64, len: u64, out: &mut Vec<i8>) -> Result<(), AccelError> {
        let (a, b) = self.check(addr, len)?;
        let (head, zeros) = self.resident(a, b);
        out.clear();
        out.extend(head.iter().map(|&v| v as i8));
        out.resize(head.len() + zeros, 0);
        Ok(())
    }

    /// Writes an i8 slice.
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::DramOutOfBounds`] on a bad range.
    pub fn write_i8(&mut self, addr: u64, bytes: &[i8]) -> Result<(), AccelError> {
        let (a, b) = self.check(addr, bytes.len() as u64)?;
        for (dst, &src) in self.backing_mut(a, b).iter_mut().zip(bytes) {
            *dst = src as u8;
        }
        Ok(())
    }

    /// Reads `count` little-endian i32 words.
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::DramOutOfBounds`] on a bad range.
    pub fn read_i32(&self, addr: u64, count: usize) -> Result<Vec<i32>, AccelError> {
        let (a, b) = self.check(addr, count as u64 * 4)?;
        let (head, _) = self.resident(a, b);
        let mut words: Vec<i32> = head
            .chunks(4)
            .map(|c| {
                let mut le = [0u8; 4];
                le[..c.len()].copy_from_slice(c);
                i32::from_le_bytes(le)
            })
            .collect();
        words.resize(count, 0);
        Ok(words)
    }

    /// Writes little-endian i32 words.
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::DramOutOfBounds`] on a bad range.
    pub fn write_i32(&mut self, addr: u64, words: &[i32]) -> Result<(), AccelError> {
        let (a, b) = self.check(addr, words.len() as u64 * 4)?;
        for (dst, w) in self.backing_mut(a, b).chunks_exact_mut(4).zip(words) {
            dst.copy_from_slice(&w.to_le_bytes());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn i8_roundtrip() {
        let mut d = Dram::new(64);
        d.write_i8(8, &[-1, 2, -3]).unwrap();
        assert_eq!(d.read_i8(8, 3).unwrap(), vec![-1, 2, -3]);
    }

    #[test]
    fn i32_roundtrip_little_endian() {
        let mut d = Dram::new(64);
        d.write_i32(0, &[-2, 0x01020304]).unwrap();
        assert_eq!(d.read_i32(0, 2).unwrap(), vec![-2, 0x01020304]);
        // LE byte order check.
        assert_eq!(d.read_i8(4, 1).unwrap(), vec![4]);
    }

    #[test]
    fn bounds_enforced() {
        let mut d = Dram::new(16);
        assert!(d.write_i8(15, &[0, 0]).is_err());
        assert!(d.read_i32(14, 1).is_err());
        assert!(
            d.read_i8(u64::MAX, 2).is_err(),
            "overflowing range must fail"
        );
        let err = d.read_i8(20, 1).unwrap_err();
        assert!(err.to_string().contains("out of bounds"));
    }

    #[test]
    fn backing_grows_to_highest_write_and_reads_zero_above() {
        let mut d = Dram::new(1 << 40);
        assert_eq!(d.resident_bytes(), 0);
        assert_eq!(d.read_i8(1 << 39, 4).unwrap(), vec![0; 4]);
        d.write_i8(10, &[7, 8]).unwrap();
        assert_eq!(d.resident_bytes(), 12);
        // Straddles the backing's end: resident bytes, then zeros.
        assert_eq!(d.read_i8(10, 4).unwrap(), vec![7, 8, 0, 0]);
        assert_eq!(d.read_i32(10, 1).unwrap(), vec![0x0807]);
        d.reserve(4096);
        assert_eq!(d.resident_bytes(), 12, "reserving materialises nothing");
        let clone = d.clone();
        assert_eq!(clone.resident_bytes(), 12);
        assert_eq!(clone.read_i8(10, 2).unwrap(), vec![7, 8]);
    }
}
