//! In-memory block device.

use crate::device::{check_buf, check_range, BlockDevice, BLOCK_SIZE};
use parking_lot::RwLock;
use rae_vfs::FsResult;

/// An in-memory disk with per-block locking.
///
/// The primary device for tests and benchmarks. Supports whole-image
/// [`MemDisk::snapshot`] / [`MemDisk::from_image`], which crash-recovery
/// tests use to capture "the state on disk at the moment of the crash".
///
/// The disk is sparse: a block is stored only after its first non-zero
/// write, and an unstored block reads as zeros. A mostly empty disk
/// therefore costs memory in proportion to what was written to it, not
/// to its size.
pub struct MemDisk {
    blocks: Vec<RwLock<Option<Box<[u8]>>>>,
}

impl std::fmt::Debug for MemDisk {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemDisk")
            .field("blocks", &self.blocks.len())
            .finish()
    }
}

fn is_zero(data: &[u8]) -> bool {
    data.iter().all(|&b| b == 0)
}

/// The stored form of one block's contents.
fn stored(data: &[u8]) -> RwLock<Option<Box<[u8]>>> {
    RwLock::new((!is_zero(data)).then(|| data.into()))
}

impl MemDisk {
    /// Create a zero-filled disk with `block_count` blocks.
    ///
    /// # Panics
    ///
    /// Panics if `block_count` is zero.
    #[must_use]
    pub fn new(block_count: u64) -> MemDisk {
        assert!(block_count > 0, "a disk needs at least one block");
        let blocks = (0..block_count).map(|_| RwLock::new(None)).collect();
        MemDisk { blocks }
    }

    /// Build a disk from a raw image.
    ///
    /// # Panics
    ///
    /// Panics if the image length is not a positive multiple of
    /// [`BLOCK_SIZE`].
    #[must_use]
    pub fn from_image(image: &[u8]) -> MemDisk {
        assert!(
            !image.is_empty() && image.len().is_multiple_of(BLOCK_SIZE),
            "image length {} is not a positive multiple of {BLOCK_SIZE}",
            image.len()
        );
        let blocks = image.chunks_exact(BLOCK_SIZE).map(stored).collect();
        MemDisk { blocks }
    }

    /// Copy every block of `dev` into a new in-memory disk. The warm
    /// standby snapshots the device this way at quiesced points so its
    /// reads never race the live base's write-back.
    ///
    /// # Errors
    ///
    /// Device read errors.
    pub fn clone_of(dev: &dyn BlockDevice) -> FsResult<MemDisk> {
        let count = dev.block_count();
        let mut blocks = Vec::with_capacity(usize::try_from(count).unwrap_or(0));
        let mut buf = vec![0u8; BLOCK_SIZE];
        for bno in 0..count {
            dev.read_block(bno, &mut buf)?;
            blocks.push(stored(&buf));
        }
        Ok(MemDisk { blocks })
    }

    /// Copy the entire disk contents into one contiguous image.
    #[must_use]
    pub fn snapshot(&self) -> Vec<u8> {
        let mut out = vec![0u8; self.blocks.len() * BLOCK_SIZE];
        for (b, chunk) in self.blocks.iter().zip(out.chunks_exact_mut(BLOCK_SIZE)) {
            if let Some(data) = b.read().as_deref() {
                chunk.copy_from_slice(data);
            }
        }
        out
    }

    /// Apply `f` to block `bno`'s stored contents, storing a zero block
    /// first if it has none.
    fn edit_block(&self, bno: u64, f: impl FnOnce(&mut [u8])) {
        let mut guard = self.blocks[usize::try_from(bno).expect("bno fits usize")].write();
        f(guard.get_or_insert_with(|| vec![0u8; BLOCK_SIZE].into_boxed_slice()));
    }

    /// Overwrite one block without the trait's error path (test helper
    /// for building corrupt images).
    ///
    /// # Panics
    ///
    /// Panics on out-of-range `bno` or misshapen `data`.
    pub fn poke(&self, bno: u64, data: &[u8]) {
        assert_eq!(data.len(), BLOCK_SIZE);
        self.edit_block(bno, |b| b.copy_from_slice(data));
    }

    /// Flip the bit at `(byte_offset, bit)` inside block `bno` — the
    /// smallest possible silent corruption, used by fault campaigns.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range coordinates.
    pub fn flip_bit(&self, bno: u64, byte_offset: usize, bit: u8) {
        assert!(byte_offset < BLOCK_SIZE && bit < 8);
        self.edit_block(bno, |b| b[byte_offset] ^= 1 << bit);
    }
}

impl BlockDevice for MemDisk {
    fn block_count(&self) -> u64 {
        self.blocks.len() as u64
    }

    fn read_block(&self, bno: u64, buf: &mut [u8]) -> FsResult<()> {
        check_buf(buf.len())?;
        check_range(bno, self.block_count())?;
        match self.blocks[bno as usize].read().as_deref() {
            Some(data) => buf.copy_from_slice(data),
            None => buf.fill(0),
        }
        Ok(())
    }

    fn write_block(&self, bno: u64, buf: &[u8]) -> FsResult<()> {
        check_buf(buf.len())?;
        check_range(bno, self.block_count())?;
        let mut guard = self.blocks[bno as usize].write();
        match guard.as_deref_mut() {
            Some(data) => data.copy_from_slice(buf),
            None if is_zero(buf) => {}
            None => *guard = Some(buf.into()),
        }
        Ok(())
    }

    fn flush(&self) -> FsResult<()> {
        Ok(()) // memory is always "durable" for our purposes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rae_vfs::FsError;

    #[test]
    fn read_back_what_was_written() {
        let d = MemDisk::new(4);
        let mut b = vec![7u8; BLOCK_SIZE];
        b[100] = 42;
        d.write_block(2, &b).unwrap();
        let mut r = vec![0u8; BLOCK_SIZE];
        d.read_block(2, &mut r).unwrap();
        assert_eq!(r, b);
    }

    #[test]
    fn fresh_disk_reads_zeroes() {
        let d = MemDisk::new(2);
        let mut r = vec![1u8; BLOCK_SIZE];
        d.read_block(0, &mut r).unwrap();
        assert!(r.iter().all(|&x| x == 0));
    }

    #[test]
    fn out_of_range_is_io_error() {
        let d = MemDisk::new(2);
        let mut r = vec![0u8; BLOCK_SIZE];
        assert!(matches!(
            d.read_block(2, &mut r),
            Err(FsError::IoFailed { .. })
        ));
        assert!(matches!(
            d.write_block(99, &r),
            Err(FsError::IoFailed { .. })
        ));
    }

    #[test]
    fn bad_buffer_is_internal_error() {
        let d = MemDisk::new(1);
        let mut small = vec![0u8; 100];
        assert!(matches!(
            d.read_block(0, &mut small),
            Err(FsError::Internal { .. })
        ));
    }

    #[test]
    fn snapshot_roundtrip() {
        let d = MemDisk::new(3);
        let mut b = vec![0u8; BLOCK_SIZE];
        b[0] = 0xEE;
        d.write_block(1, &b).unwrap();

        let image = d.snapshot();
        assert_eq!(image.len(), 3 * BLOCK_SIZE);
        let d2 = MemDisk::from_image(&image);
        let mut r = vec![0u8; BLOCK_SIZE];
        d2.read_block(1, &mut r).unwrap();
        assert_eq!(r[0], 0xEE);
        assert_eq!(d2.block_count(), 3);
    }

    #[test]
    fn clone_of_is_a_frozen_copy() {
        let d = MemDisk::new(3);
        let mut b = vec![0u8; BLOCK_SIZE];
        b[7] = 0xAB;
        d.write_block(2, &b).unwrap();

        let snap = MemDisk::clone_of(&d).unwrap();
        assert_eq!(snap.block_count(), 3);
        let mut r = vec![0u8; BLOCK_SIZE];
        snap.read_block(2, &mut r).unwrap();
        assert_eq!(r[7], 0xAB);

        // later writes to the original do not reach the snapshot
        b[7] = 0xCD;
        d.write_block(2, &b).unwrap();
        snap.read_block(2, &mut r).unwrap();
        assert_eq!(r[7], 0xAB);
    }

    #[test]
    fn flip_bit_changes_exactly_one_bit() {
        let d = MemDisk::new(1);
        d.flip_bit(0, 10, 3);
        let mut r = vec![0u8; BLOCK_SIZE];
        d.read_block(0, &mut r).unwrap();
        assert_eq!(r[10], 1 << 3);
        assert_eq!(r.iter().map(|b| b.count_ones()).sum::<u32>(), 1);
    }

    #[test]
    fn zero_write_over_a_stored_block_reads_back_zeros() {
        let d = MemDisk::new(2);
        d.write_block(1, &vec![9u8; BLOCK_SIZE]).unwrap();
        d.write_block(1, &vec![0u8; BLOCK_SIZE]).unwrap();
        let mut r = vec![1u8; BLOCK_SIZE];
        d.read_block(1, &mut r).unwrap();
        assert!(r.iter().all(|&x| x == 0));
    }

    #[test]
    fn zero_writes_store_nothing() {
        let d = MemDisk::new(4);
        d.write_block(2, &vec![0u8; BLOCK_SIZE]).unwrap();
        assert!(d.blocks.iter().all(|b| b.read().is_none()));
    }

    #[test]
    fn poke_and_flip_bit_on_never_written_blocks() {
        let d = MemDisk::new(3);
        let mut b = vec![0u8; BLOCK_SIZE];
        b[5] = 0x5A;
        d.poke(0, &b);
        d.flip_bit(2, BLOCK_SIZE - 1, 7);
        let mut r = vec![0u8; BLOCK_SIZE];
        d.read_block(0, &mut r).unwrap();
        assert_eq!(r, b);
        d.read_block(2, &mut r).unwrap();
        assert_eq!(r[BLOCK_SIZE - 1], 0x80);
        assert_eq!(r.iter().map(|b| b.count_ones()).sum::<u32>(), 1);
        d.read_block(1, &mut r).unwrap();
        assert!(r.iter().all(|&x| x == 0), "untouched block stays zero");
    }

    /// Which blocks hold storage, in order.
    fn stored_blocks(d: &MemDisk) -> Vec<bool> {
        d.blocks.iter().map(|b| b.read().is_some()).collect()
    }

    #[test]
    fn copies_keep_a_sparse_disk_exact() {
        let d = MemDisk::new(6);
        d.write_block(1, &vec![0x11u8; BLOCK_SIZE]).unwrap();
        let mut b = vec![0u8; BLOCK_SIZE];
        b[BLOCK_SIZE - 1] = 0x44;
        d.write_block(4, &b).unwrap();
        let image = d.snapshot();

        let via_clone = MemDisk::clone_of(&d).unwrap();
        let via_image = MemDisk::from_image(&image);
        for copy in [&via_clone, &via_image] {
            assert_eq!(copy.snapshot(), image);
            assert_eq!(
                stored_blocks(copy),
                [false, true, false, false, true, false],
                "zero blocks stay unstored"
            );
        }
    }

    #[test]
    fn concurrent_writers_to_distinct_blocks() {
        use std::sync::Arc;
        let d = Arc::new(MemDisk::new(8));
        let mut handles = Vec::new();
        for i in 0..8u64 {
            let d = Arc::clone(&d);
            handles.push(std::thread::spawn(move || {
                let b = vec![i as u8; BLOCK_SIZE];
                for _ in 0..100 {
                    d.write_block(i, &b).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        for i in 0..8u64 {
            let mut r = vec![0u8; BLOCK_SIZE];
            d.read_block(i, &mut r).unwrap();
            assert!(r.iter().all(|&x| x == i as u8));
        }
    }
}
