//! Property tests of the block-device substrate.

use proptest::prelude::*;
use rae_blockdev::{
    BlockDevice, DiskFaultPlan, FaultyDisk, MemDisk, QueueConfig, WritebackQueue, BLOCK_SIZE,
};
use std::sync::Arc;

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, .. ProptestConfig::default() })]

    /// The write-back queue produces exactly the same final image as
    /// direct synchronous writes, for any write sequence (per-block
    /// ordering is the guarantee that makes this hold).
    #[test]
    fn queue_equals_direct_writes(
        writes in proptest::collection::vec((0u64..32, any::<u8>()), 1..200),
        nr_queues in 1usize..5,
    ) {
        let direct = MemDisk::new(32);
        for (bno, fill) in &writes {
            direct.write_block(*bno, &vec![*fill; BLOCK_SIZE]).unwrap();
        }

        let queued_disk = Arc::new(MemDisk::new(32));
        let q = WritebackQueue::new(
            queued_disk.clone(),
            QueueConfig { nr_queues, queue_depth: 8 },
        );
        for (bno, fill) in &writes {
            q.submit(*bno, vec![*fill; BLOCK_SIZE]).unwrap();
        }
        q.barrier(Vec::new()).unwrap();
        prop_assert_eq!(direct.snapshot(), queued_disk.snapshot());
    }

    /// A FaultyDisk with an empty plan is byte-for-byte transparent.
    #[test]
    fn empty_fault_plan_is_transparent(
        writes in proptest::collection::vec((0u64..16, any::<u8>()), 1..60),
    ) {
        let plain = MemDisk::new(16);
        let wrapped = FaultyDisk::new(MemDisk::new(16));
        for (bno, fill) in &writes {
            let buf = vec![*fill; BLOCK_SIZE];
            plain.write_block(*bno, &buf).unwrap();
            wrapped.write_block(*bno, &buf).unwrap();
        }
        let mut a = vec![0u8; BLOCK_SIZE];
        let mut b = vec![0u8; BLOCK_SIZE];
        for bno in 0..16u64 {
            plain.read_block(bno, &mut a).unwrap();
            wrapped.read_block(bno, &mut b).unwrap();
            prop_assert_eq!(&a, &b, "block {}", bno);
        }
        prop_assert_eq!(wrapped.injected_faults(), 0);
    }

    /// Snapshot/from_image round-trips arbitrary content.
    #[test]
    fn snapshot_roundtrip(writes in proptest::collection::vec((0u64..8, any::<u8>()), 0..30)) {
        let d = MemDisk::new(8);
        for (bno, fill) in &writes {
            d.write_block(*bno, &vec![*fill; BLOCK_SIZE]).unwrap();
        }
        let image = d.snapshot();
        let d2 = MemDisk::from_image(&image);
        prop_assert_eq!(d2.snapshot(), image);
    }

    /// Write cut-off: exactly the first `cut` writes land, regardless
    /// of interleaving.
    #[test]
    fn write_cut_is_exact(
        writes in proptest::collection::vec(0u64..16, 1..50),
        cut in 0u64..40,
    ) {
        use rae_blockdev::WriteCutMode;
        let reference = MemDisk::new(16);
        let disk = FaultyDisk::with_plan(
            MemDisk::new(16),
            DiskFaultPlan::new().cut_writes_after(cut, WriteCutMode::SilentDrop),
        );
        for (i, bno) in writes.iter().enumerate() {
            let fill = (i % 251) as u8 + 1;
            let buf = vec![fill; BLOCK_SIZE];
            disk.write_block(*bno, &buf).unwrap();
            if (i as u64) < cut {
                reference.write_block(*bno, &buf).unwrap();
            }
        }
        prop_assert_eq!(disk.inner().snapshot(), reference.snapshot());
    }
}
