//! The DPU's two memories.
//!
//! * [`Wram`] — the 64 KB scratchpad, directly load/store addressable. A
//!   bump allocator mirrors how the real DPU runtime hands out tasklet
//!   buffers; exhausting it is exactly the failure mode that forced the
//!   paper's pool design (§4.2.3).
//! * [`Mram`] — the 64 MB DRAM bank, reachable *only* through DMA transfers
//!   that must be 8-byte aligned and 8..=2048 bytes long (§2.1). Backing
//!   storage grows lazily so simulating thousands of DPUs does not commit
//!   64 MB each.

use crate::error::SimError;

/// Little-endian helpers shared by kernels; the DPU is little-endian.
pub mod le {
    /// Read an `i32` at `off`.
    pub fn read_i32(buf: &[u8], off: usize) -> i32 {
        i32::from_le_bytes(buf[off..off + 4].try_into().expect("4 bytes"))
    }

    /// Write an `i32` at `off`.
    pub fn write_i32(buf: &mut [u8], off: usize, v: i32) {
        buf[off..off + 4].copy_from_slice(&v.to_le_bytes());
    }

    /// Read a `u32` at `off`.
    pub fn read_u32(buf: &[u8], off: usize) -> u32 {
        u32::from_le_bytes(buf[off..off + 4].try_into().expect("4 bytes"))
    }

    /// Write a `u32` at `off`.
    pub fn write_u32(buf: &mut [u8], off: usize, v: u32) {
        buf[off..off + 4].copy_from_slice(&v.to_le_bytes());
    }
}

/// The 64 KB working RAM (scratchpad).
#[derive(Debug, Clone)]
pub struct Wram {
    data: Vec<u8>,
    /// Bump-allocator watermark.
    brk: usize,
}

impl Wram {
    /// A zeroed scratchpad of `size` bytes.
    pub fn new(size: usize) -> Self {
        Self {
            data: vec![0; size],
            brk: 0,
        }
    }

    /// Scratchpad capacity.
    pub fn size(&self) -> usize {
        self.data.len()
    }

    /// Bytes currently allocated by [`Wram::alloc`].
    pub fn allocated(&self) -> usize {
        self.brk
    }

    /// Allocate `len` bytes aligned to `align` (a power of two); returns the
    /// offset. Mirrors the DPU runtime's static buffer placement.
    pub fn alloc(&mut self, len: usize, align: usize) -> Result<usize, SimError> {
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        let start = (self.brk + align - 1) & !(align - 1);
        let end = start.checked_add(len).ok_or(SimError::WramExhausted {
            requested: len,
            available: 0,
        })?;
        if end > self.data.len() {
            return Err(SimError::WramExhausted {
                requested: len,
                available: self.data.len().saturating_sub(start),
            });
        }
        self.brk = end;
        Ok(start)
    }

    /// Release everything allocated (between kernel launches).
    pub fn reset(&mut self) {
        self.brk = 0;
        self.data.fill(0);
    }

    /// Borrow a byte range.
    pub fn slice(&self, offset: usize, len: usize) -> Result<&[u8], SimError> {
        self.check(offset, len)?;
        Ok(&self.data[offset..offset + len])
    }

    /// Mutably borrow a byte range.
    pub fn slice_mut(&mut self, offset: usize, len: usize) -> Result<&mut [u8], SimError> {
        self.check(offset, len)?;
        Ok(&mut self.data[offset..offset + len])
    }

    /// Read an `i32` (kernel load).
    pub fn read_i32(&self, offset: usize) -> Result<i32, SimError> {
        self.check(offset, 4)?;
        Ok(le::read_i32(&self.data, offset))
    }

    /// Write an `i32` (kernel store).
    pub fn write_i32(&mut self, offset: usize, v: i32) -> Result<(), SimError> {
        self.check(offset, 4)?;
        le::write_i32(&mut self.data, offset, v);
        Ok(())
    }

    /// Write a `u8`.
    pub fn write_u8(&mut self, offset: usize, v: u8) -> Result<(), SimError> {
        self.check(offset, 1)?;
        self.data[offset] = v;
        Ok(())
    }

    fn check(&self, offset: usize, len: usize) -> Result<(), SimError> {
        if offset
            .checked_add(len)
            .is_none_or(|end| end > self.data.len())
        {
            return Err(SimError::WramOutOfBounds {
                offset,
                len,
                wram_size: self.data.len(),
            });
        }
        Ok(())
    }
}

/// The 64 MB MRAM bank. Lazily grown: untouched regions cost nothing.
#[derive(Debug, Clone)]
pub struct Mram {
    data: Vec<u8>,
    size: usize,
    /// Armed readback corruption (fault injection): when `Some(seed)`,
    /// every host read has one deterministic bit flipped in the returned
    /// buffer. The stored bytes are untouched; the next host write disarms
    /// (the corruption models a flaky host<->DIMM link, and a fresh image
    /// upload re-trains it).
    corrupt: Option<u64>,
}

impl Mram {
    /// An MRAM bank of `size` logical bytes (zero committed).
    pub fn new(size: usize) -> Self {
        Self {
            data: Vec::new(),
            size,
            corrupt: None,
        }
    }

    /// Arm readback corruption with a deterministic seed (fault injection).
    pub fn arm_corruption(&mut self, seed: u64) {
        self.corrupt = Some(seed);
    }

    /// True when readback corruption is armed.
    pub fn corruption_armed(&self) -> bool {
        self.corrupt.is_some()
    }

    /// Logical bank size.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Bytes actually committed by writes so far.
    pub fn committed(&self) -> usize {
        self.data.len()
    }

    fn check(&self, offset: usize, len: usize) -> Result<(), SimError> {
        if offset.checked_add(len).is_none_or(|end| end > self.size) {
            return Err(SimError::MramOutOfBounds {
                offset,
                len,
                mram_size: self.size,
            });
        }
        Ok(())
    }

    fn ensure(&mut self, end: usize) {
        if self.data.len() < end {
            self.data.resize(end, 0);
        }
    }

    /// Host-side write (the DDR-bus path of §2.1; no DMA rules apply — the
    /// host accesses MRAM directly while the DPU is idle).
    pub fn host_write(&mut self, offset: usize, bytes: &[u8]) -> Result<(), SimError> {
        self.check(offset, bytes.len())?;
        self.corrupt = None;
        self.ensure(offset + bytes.len());
        self.data[offset..offset + bytes.len()].copy_from_slice(bytes);
        Ok(())
    }

    /// In-place patch used by the fault layer to emulate data the *DPU
    /// itself* wrote wrong (silent result corruption): unlike
    /// [`Mram::host_write`] it does **not** disarm armed readback
    /// corruption — the two fault models are independent.
    pub fn patch(&mut self, offset: usize, bytes: &[u8]) -> Result<(), SimError> {
        self.check(offset, bytes.len())?;
        self.ensure(offset + bytes.len());
        self.data[offset..offset + bytes.len()].copy_from_slice(bytes);
        Ok(())
    }

    /// Read the stored bytes exactly as the DPU left them, bypassing the
    /// armed readback-corruption bit flip. The fault layer uses this to
    /// craft silent corruptions from the true record contents.
    pub fn read_raw(&self, offset: usize, len: usize) -> Result<Vec<u8>, SimError> {
        self.check(offset, len)?;
        let mut out = vec![0u8; len];
        let have = self.data.len().saturating_sub(offset).min(len);
        if have > 0 {
            out[..have].copy_from_slice(&self.data[offset..offset + have]);
        }
        Ok(out)
    }

    /// Host-side read. When corruption is armed, one bit of the returned
    /// buffer — chosen deterministically from `(seed, offset)` — is flipped.
    pub fn host_read(&self, offset: usize, len: usize) -> Result<Vec<u8>, SimError> {
        let mut out = self.read_raw(offset, len)?;
        if let Some(seed) = self.corrupt {
            if len > 0 {
                let bit = crate::fault::mix64(seed ^ offset as u64) as usize % (len * 8);
                out[bit / 8] ^= 1 << (bit % 8);
            }
        }
        Ok(out)
    }

    /// Validate the DMA rules for a transfer touching `[offset, offset+len)`.
    pub fn check_dma(&self, offset: usize, len: usize) -> Result<(), SimError> {
        if !(8..=2048).contains(&len) || !len.is_multiple_of(8) {
            return Err(SimError::DmaBadSize { len });
        }
        if !offset.is_multiple_of(8) {
            return Err(SimError::DmaMisaligned { offset });
        }
        self.check(offset, len)
    }

    /// DPU-side DMA read into a caller buffer (used by [`crate::dpu::Dpu`]).
    pub fn dma_read(&self, offset: usize, dst: &mut [u8]) -> Result<(), SimError> {
        self.check_dma(offset, dst.len())?;
        let have = self.data.len().saturating_sub(offset).min(dst.len());
        if have > 0 {
            dst[..have].copy_from_slice(&self.data[offset..offset + have]);
        }
        dst[have..].fill(0);
        Ok(())
    }

    /// DPU-side DMA write from a caller buffer.
    pub fn dma_write(&mut self, offset: usize, src: &[u8]) -> Result<(), SimError> {
        self.check_dma(offset, src.len())?;
        self.ensure(offset + src.len());
        self.data[offset..offset + src.len()].copy_from_slice(src);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DpuConfig;

    fn wram() -> Wram {
        Wram::new(DpuConfig::default().wram_size)
    }

    #[test]
    fn wram_alloc_bumps_and_aligns() {
        let mut w = wram();
        let a = w.alloc(10, 1).unwrap();
        let b = w.alloc(16, 8).unwrap();
        assert_eq!(a, 0);
        assert_eq!(b % 8, 0);
        assert!(b >= 10);
        assert_eq!(w.allocated(), b + 16);
    }

    #[test]
    fn armed_corruption_flips_exactly_one_bit_per_read() {
        let mut m = Mram::new(1 << 20);
        m.host_write(64, &[0xAAu8; 32]).unwrap();
        let clean = m.host_read(64, 32).unwrap();
        m.arm_corruption(0x1234);
        assert!(m.corruption_armed());
        let dirty = m.host_read(64, 32).unwrap();
        let flipped: u32 = clean
            .iter()
            .zip(&dirty)
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        assert_eq!(flipped, 1, "exactly one bit flips");
        // Deterministic: the same read corrupts the same bit.
        assert_eq!(m.host_read(64, 32).unwrap(), dirty);
        // Stored bytes are untouched and a host write disarms.
        m.host_write(0, &[1]).unwrap();
        assert!(!m.corruption_armed());
        assert_eq!(m.host_read(64, 32).unwrap(), clean);
    }

    #[test]
    fn patch_and_read_raw_bypass_armed_corruption() {
        let mut m = Mram::new(1 << 20);
        m.host_write(64, &[0x55u8; 16]).unwrap();
        m.arm_corruption(0xBEEF);
        // read_raw sees the true bytes; host_read sees the flipped ones.
        assert_eq!(m.read_raw(64, 16).unwrap(), vec![0x55u8; 16]);
        assert_ne!(m.host_read(64, 16).unwrap(), vec![0x55u8; 16]);
        // A patch mutates the stored bytes without disarming.
        m.patch(64, &[0x66u8; 4]).unwrap();
        assert!(m.corruption_armed(), "patch must not disarm");
        assert_eq!(m.read_raw(64, 4).unwrap(), vec![0x66u8; 4]);
        // Bounds still apply.
        assert!(m.patch((1 << 20) - 2, &[0; 4]).is_err());
        assert!(m.read_raw(1 << 20, 1).is_err());
    }

    #[test]
    fn wram_alloc_exhaustion_is_reported() {
        let mut w = Wram::new(64);
        w.alloc(60, 1).unwrap();
        let err = w.alloc(16, 1).unwrap_err();
        assert!(matches!(err, SimError::WramExhausted { requested: 16, .. }));
    }

    #[test]
    fn wram_reset_reclaims_and_zeroes() {
        let mut w = Wram::new(64);
        let off = w.alloc(8, 1).unwrap();
        w.write_i32(off, -5).unwrap();
        w.reset();
        assert_eq!(w.allocated(), 0);
        assert_eq!(w.read_i32(off).unwrap(), 0);
    }

    #[test]
    fn wram_bounds_checked() {
        let w = Wram::new(16);
        assert!(matches!(
            w.read_i32(13),
            Err(SimError::WramOutOfBounds { .. })
        ));
        assert!(w.read_i32(12).is_ok());
        assert!(matches!(
            w.slice(8, 9),
            Err(SimError::WramOutOfBounds { .. })
        ));
    }

    #[test]
    fn wram_i32_round_trip() {
        let mut w = Wram::new(32);
        w.write_i32(4, -123456).unwrap();
        assert_eq!(w.read_i32(4).unwrap(), -123456);
        w.write_u8(0, 0xAB).unwrap();
        assert_eq!(w.read_i32(0).unwrap() & 0xFF, 0xAB);
    }

    #[test]
    fn mram_is_lazy() {
        let mut m = Mram::new(64 << 20);
        assert_eq!(m.committed(), 0);
        m.host_write(1024, &[1, 2, 3]).unwrap();
        assert!(m.committed() <= 2048);
        assert_eq!(m.host_read(1024, 3).unwrap(), vec![1, 2, 3]);
        // Reads beyond the committed frontier see zeros.
        assert_eq!(m.host_read(1 << 20, 4).unwrap(), vec![0; 4]);
    }

    #[test]
    fn mram_bounds_checked() {
        let mut m = Mram::new(1024);
        assert!(m.host_write(1020, &[0; 8]).is_err());
        assert!(m.host_read(1024, 1).is_err());
        assert!(m.host_write(1016, &[0; 8]).is_ok());
    }

    #[test]
    fn dma_rules_enforced() {
        let mut m = Mram::new(4096);
        let mut buf8 = [0u8; 8];
        // Size not multiple of 8.
        assert!(matches!(
            m.dma_read(0, &mut [0u8; 12]),
            Err(SimError::DmaBadSize { len: 12 })
        ));
        // Too small / too large.
        assert!(matches!(
            m.dma_read(0, &mut [0u8; 4]),
            Err(SimError::DmaBadSize { .. })
        ));
        assert!(matches!(
            m.dma_read(0, &mut [0u8; 4096]),
            Err(SimError::DmaBadSize { .. })
        ));
        // Misaligned offset.
        assert!(matches!(
            m.dma_read(4, &mut buf8),
            Err(SimError::DmaMisaligned { offset: 4 })
        ));
        // A legal transfer round-trips.
        m.dma_write(8, &[9u8; 16]).unwrap();
        let mut out = [0u8; 16];
        m.dma_read(8, &mut out).unwrap();
        assert_eq!(out, [9u8; 16]);
    }

    #[test]
    fn dma_size_boundaries() {
        let mut m = Mram::new(1 << 20);
        // Zero-length transfers are rejected, not silently ignored.
        assert!(matches!(
            m.dma_read(0, &mut []),
            Err(SimError::DmaBadSize { len: 0 })
        ));
        assert!(matches!(
            m.dma_write(0, &[]),
            Err(SimError::DmaBadSize { len: 0 })
        ));
        // One step past the 2048-byte engine limit.
        assert!(matches!(
            m.dma_read(0, &mut [0u8; 2056]),
            Err(SimError::DmaBadSize { len: 2056 })
        ));
        assert!(matches!(
            m.dma_write(0, &[0u8; 2056]),
            Err(SimError::DmaBadSize { len: 2056 })
        ));
        // 2047 is under the limit but not a multiple of 8.
        assert!(matches!(
            m.dma_write(0, &[0u8; 2047]),
            Err(SimError::DmaBadSize { len: 2047 })
        ));
        // The exact boundaries are legal.
        m.dma_write(0, &[1u8; 2048]).unwrap();
        m.dma_write(0, &[1u8; 8]).unwrap();
        let mut buf = [0u8; 2048];
        m.dma_read(0, &mut buf).unwrap();
    }

    #[test]
    fn dma_read_of_uncommitted_region_is_zeros() {
        let m = Mram::new(4096);
        let mut buf = [7u8; 8];
        m.dma_read(2048, &mut buf).unwrap();
        assert_eq!(buf, [0u8; 8]);
    }
}
