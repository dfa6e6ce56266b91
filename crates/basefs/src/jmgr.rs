//! The journal manager: running-transaction commit and checkpointing.
//!
//! Write-ahead rule: dirty metadata reaches the disk *only* as journal
//! records; the home locations are rewritten at checkpoint time.
//!
//! A commit writes each transaction's descriptor and images together
//! with the dirty file data as one write-back batch
//! ([`PageCache::flush_data`]): the writes overlap and land in any
//! order, and one device flush makes them all durable. Only then is the
//! commit block written and flushed. Replay checks every image's CRC
//! and trusts a transaction only once its commit block is present, so
//! the order inside the batch is free, and ordered mode holds:
//! committed metadata never references unwritten data.
//!
//! The journal is append-only and resets at each checkpoint (see
//! `rae_fsformat::journal` for the format rationale).

use crate::pagecache::PageCache;
use rae_fsformat::journal::{self, TxnTag, MAX_TXN_BLOCKS};
use rae_fsformat::{crc::crc32c, Geometry};
use rae_telemetry::{SpanLayer, Telemetry};
use rae_vfs::{FsError, FsResult};
use std::collections::HashMap;
use std::sync::Arc;

#[derive(Debug)]
pub(crate) struct JournalMgr {
    geo: Geometry,
    next_seq: u64,
    /// Next free block, relative to the journal region start (block 0
    /// is the header).
    write_ptr: u64,
    /// Committed-but-not-checkpointed home images (latest per block).
    pending: HashMap<u64, Vec<u8>>,
    commits: u64,
    checkpoints: u64,
    telemetry: Option<Arc<Telemetry>>,
}

impl JournalMgr {
    /// Set up after a mount-time replay left the journal empty with
    /// `next_seq` as its base sequence.
    pub(crate) fn new(geo: Geometry, next_seq: u64) -> JournalMgr {
        JournalMgr {
            geo,
            next_seq,
            write_ptr: 1,
            pending: HashMap::new(),
            commits: 0,
            checkpoints: 0,
            telemetry: None,
        }
    }

    /// Attach a telemetry handle: commits record their wall-clock
    /// duration (the data-and-record batch, the commit block and both
    /// flushes).
    pub(crate) fn set_telemetry(&mut self, telemetry: Option<Arc<Telemetry>>) {
        self.telemetry = telemetry;
    }

    fn capacity(&self) -> u64 {
        self.geo.journal_blocks - 1
    }

    fn max_chunk(&self) -> usize {
        // descriptor + data + commit must fit the record area
        let by_region = self.capacity().saturating_sub(2);
        (MAX_TXN_BLOCKS as u64).min(by_region).max(1) as usize
    }

    /// Number of committed transactions so far.
    pub(crate) fn commits(&self) -> u64 {
        self.commits
    }

    /// Number of checkpoints so far.
    pub(crate) fn checkpoints(&self) -> u64 {
        self.checkpoints
    }

    /// Commit a set of metadata images, together with the cache's dirty
    /// file data. On return the images are durable (recoverable by
    /// replay). On an error before a transaction's commit block, that
    /// transaction leaves no trace here: the journal position, the
    /// sequence, the commit count and the pending images are unchanged.
    pub(crate) fn commit(
        &mut self,
        pages: &PageCache,
        images: Vec<(u64, Vec<u8>)>,
    ) -> FsResult<()> {
        if images.is_empty() {
            return Ok(());
        }
        let t0 = self.telemetry.as_ref().and_then(|t| t.layer_clock());
        let result = self.commit_inner(pages, images);
        if let Some(t) = self.telemetry.as_ref() {
            t.layer_observed(SpanLayer::JournalIo, t0);
        }
        result
    }

    fn commit_inner(&mut self, pages: &PageCache, images: Vec<(u64, Vec<u8>)>) -> FsResult<()> {
        let chunk_size = self.max_chunk();
        let mut rest = images.into_iter().peekable();
        while rest.peek().is_some() {
            let chunk: Vec<(u64, Vec<u8>)> = rest.by_ref().take(chunk_size).collect();
            let needed = chunk.len() as u64 + 2;
            if self.write_ptr + needed > self.geo.journal_blocks {
                self.checkpoint(pages)?;
            }
            if self.write_ptr + needed > self.geo.journal_blocks {
                return Err(FsError::Internal {
                    detail: format!(
                        "transaction of {} blocks cannot fit a {}-block journal",
                        chunk.len(),
                        self.geo.journal_blocks
                    ),
                });
            }
            let seq = self.next_seq;
            let tags: Vec<TxnTag> = chunk
                .iter()
                .map(|(bno, img)| TxnTag {
                    target: *bno,
                    crc: crc32c(img),
                })
                .collect();
            let base = self.geo.journal_start + self.write_ptr;
            let mut records = Vec::with_capacity(chunk.len() + 1);
            records.push((base, journal::encode_descriptor(seq, &tags)));
            records.extend(
                (base + 1..)
                    .zip(&chunk)
                    .map(|(bno, (_, img))| (bno, img.clone())),
            );
            // all record content and ordered data durable before the
            // commit block
            pages.flush_data(records)?;
            let dev = pages.device();
            dev.write_block(base + 1 + chunk.len() as u64, &journal::encode_commit(seq))?;
            dev.flush()?;

            self.write_ptr += needed;
            self.next_seq += 1;
            self.commits += 1;
            self.pending.extend(chunk);
        }
        Ok(())
    }

    /// Write all committed images home as one write-back batch, then
    /// reset the journal.
    pub(crate) fn checkpoint(&mut self, pages: &PageCache) -> FsResult<()> {
        if self.pending.is_empty() && self.write_ptr == 1 {
            return Ok(());
        }
        let mut homes: Vec<(u64, Vec<u8>)> = self
            .pending
            .iter()
            .map(|(&bno, img)| (bno, img.clone()))
            .collect();
        homes.sort_unstable_by_key(|(b, _)| *b);
        pages.flush_data(homes)?;
        journal::reset(pages.device(), &self.geo, self.next_seq)?;
        self.pending.clear();
        self.write_ptr = 1;
        self.checkpoints += 1;
        Ok(())
    }

    /// Forget the committed-but-not-checkpointed image for `bno`.
    ///
    /// Must be called when a block is freed. Once a block is back on
    /// the free list it can be reallocated — possibly as a *data*
    /// block, whose contents bypass the journal in ordered mode — and a
    /// stale pending metadata image would silently overwrite the new
    /// contents at the next checkpoint. Dropping the entry at free time
    /// closes that reuse hazard.
    pub(crate) fn drop_pending(&mut self, bno: u64) {
        self.pending.remove(&bno);
    }

    /// Blocks with committed-but-not-checkpointed images (tests).
    #[cfg(test)]
    pub(crate) fn pending_blocks(&self) -> usize {
        self.pending.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rae_blockdev::{
        BlockDevice, DiskFaultPlan, FaultTarget, FaultyDisk, MemDisk, QueueConfig, TriggerMode,
        BLOCK_SIZE,
    };
    use rae_fsformat::{mkfs, MkfsParams};

    fn setup() -> (Arc<MemDisk>, PageCache, Geometry, JournalMgr) {
        let dev = Arc::new(MemDisk::new(4096));
        let (pc, geo, mgr) = setup_on(dev.clone());
        (dev, pc, geo, mgr)
    }

    fn setup_on<D: BlockDevice + 'static>(dev: Arc<D>) -> (PageCache, Geometry, JournalMgr) {
        let geo = mkfs(dev.as_ref(), MkfsParams::default()).unwrap();
        let pc = PageCache::new(dev, 64, QueueConfig::default());
        (pc, geo, JournalMgr::new(geo, 0))
    }

    fn img(fill: u8) -> Vec<u8> {
        vec![fill; BLOCK_SIZE]
    }

    #[test]
    fn committed_images_replay_after_crash() {
        let (dev, pc, geo, mut mgr) = setup();
        let target = geo.data_start + 5;
        mgr.commit(&pc, vec![(target, img(0xAB))]).unwrap();

        // crash before checkpoint: home location still stale
        let mut raw = img(0);
        dev.read_block(target, &mut raw).unwrap();
        assert_eq!(raw[0], 0);

        // replay applies it
        let report = journal::replay(&dev, &geo).unwrap();
        assert_eq!(report.transactions, 1);
        dev.read_block(target, &mut raw).unwrap();
        assert_eq!(raw[0], 0xAB);
    }

    #[test]
    fn checkpoint_writes_home_and_empties_journal() {
        let (dev, pc, geo, mut mgr) = setup();
        let target = geo.data_start + 9;
        mgr.commit(&pc, vec![(target, img(0x77))]).unwrap();
        mgr.checkpoint(&pc).unwrap();
        assert_eq!(mgr.pending_blocks(), 0);

        let mut raw = img(0);
        dev.read_block(target, &mut raw).unwrap();
        assert_eq!(raw[0], 0x77);
        let report = journal::replay(&dev, &geo).unwrap();
        assert_eq!(report.transactions, 0, "journal empty after checkpoint");
        assert_eq!(report.next_seq, 1, "sequence survives the reset");
    }

    #[test]
    fn multiple_commits_replay_in_order() {
        let (dev, pc, geo, mut mgr) = setup();
        let target = geo.data_start;
        mgr.commit(&pc, vec![(target, img(1))]).unwrap();
        mgr.commit(&pc, vec![(target, img(2))]).unwrap();
        mgr.commit(&pc, vec![(target, img(3))]).unwrap();
        let report = journal::replay(&dev, &geo).unwrap();
        assert_eq!(report.transactions, 3);
        let mut raw = img(0);
        dev.read_block(target, &mut raw).unwrap();
        assert_eq!(raw[0], 3, "last committed image wins");
    }

    #[test]
    fn auto_checkpoint_when_journal_fills() {
        let (dev, pc, geo, mut mgr) = setup();
        // each commit consumes 3 blocks of the 255-block record area
        let mut expected_fill = 0u8;
        for i in 0..200u64 {
            expected_fill = (i % 250) as u8 + 1;
            mgr.commit(&pc, vec![(geo.data_start + 1, img(expected_fill))])
                .unwrap();
        }
        assert!(mgr.checkpoints() > 0, "journal wrapped via checkpoint");
        // final state must still be recoverable
        journal::replay(&dev, &geo).unwrap();
        let mut raw = img(0);
        dev.read_block(geo.data_start + 1, &mut raw).unwrap();
        assert_eq!(raw[0], expected_fill);
    }

    #[test]
    fn oversized_commit_splits_into_transactions() {
        let (dev, pc, geo, mut mgr) = setup();
        // journal record area is 255 blocks; 300 images must split
        let images: Vec<(u64, Vec<u8>)> = (0..300)
            .map(|i| (geo.data_start + 10 + i, img((i % 251) as u8)))
            .collect();
        mgr.commit(&pc, images).unwrap();
        journal::replay(&dev, &geo).unwrap();
        let mut raw = img(0);
        dev.read_block(geo.data_start + 10 + 299, &mut raw).unwrap();
        assert_eq!(raw[0], (299 % 251) as u8);
    }

    #[test]
    fn empty_commit_is_free() {
        let (_dev, pc, _geo, mut mgr) = setup();
        mgr.commit(&pc, vec![]).unwrap();
        assert_eq!(mgr.commits(), 0);
    }

    #[test]
    fn failed_record_write_leaves_no_transaction() {
        let dev = Arc::new(FaultyDisk::new(MemDisk::new(4096)));
        let (pc, geo, mut mgr) = setup_on(dev.clone());
        // the first transaction takes journal blocks 1-3; the second's
        // descriptor, image and commit block go to 4, 5 and 6
        let image_block = geo.journal_start + 5;
        dev.set_plan(
            DiskFaultPlan::new().fail_writes(FaultTarget::Block(image_block), TriggerMode::Nth(1)),
        );
        let (t1, t2) = (geo.data_start + 1, geo.data_start + 2);
        mgr.commit(&pc, vec![(t1, img(0x11))]).unwrap();
        let before = (
            mgr.write_ptr,
            mgr.next_seq,
            mgr.commits(),
            mgr.pending_blocks(),
        );

        let err = mgr.commit(&pc, vec![(t2, img(0x22))]).unwrap_err();
        assert!(matches!(err, FsError::IoFailed { .. }), "{err:?}");
        assert_eq!(dev.injected_faults(), 1);
        let after = (
            mgr.write_ptr,
            mgr.next_seq,
            mgr.commits(),
            mgr.pending_blocks(),
        );
        assert_eq!(after, before, "a failed commit changes nothing");
        let mut raw = img(0);
        dev.read_block(image_block + 1, &mut raw).unwrap();
        assert!(!journal::is_commit(&raw, mgr.next_seq), "no commit block");

        mgr.commit(&pc, vec![(t1, img(0x33))]).unwrap();
        assert_eq!(mgr.commits(), 2);
        let report = journal::replay(&dev, &geo).unwrap();
        assert_eq!(report.transactions, 2, "exactly the successful commits");
        dev.read_block(t1, &mut raw).unwrap();
        assert_eq!(raw[0], 0x33);
        dev.read_block(t2, &mut raw).unwrap();
        assert_eq!(raw[0], 0, "the failed transaction never applies");
    }

    #[test]
    fn drop_pending_prevents_stale_checkpoint_overwrite() {
        let (dev, pc, geo, mut mgr) = setup();
        let target = geo.data_start + 3;
        mgr.commit(&pc, vec![(target, img(0xEE))]).unwrap();
        assert_eq!(mgr.pending_blocks(), 1);

        // the block is freed and reused as file data, which reaches its
        // home location directly (ordered mode)
        mgr.drop_pending(target);
        assert_eq!(mgr.pending_blocks(), 0);
        dev.write_block(target, &img(0x42)).unwrap();

        mgr.checkpoint(&pc).unwrap();
        let mut raw = img(0);
        dev.read_block(target, &mut raw).unwrap();
        assert_eq!(raw[0], 0x42, "checkpoint must not resurrect a freed image");
    }

    #[test]
    fn torn_commit_is_discarded_by_replay() {
        let (dev, pc, geo, mut mgr) = setup();
        let t1 = geo.data_start + 1;
        mgr.commit(&pc, vec![(t1, img(0x11))]).unwrap();

        // hand-write a descriptor for the *next* seq without a commit
        // block (simulating a crash mid-commit)
        let tags = [TxnTag {
            target: t1,
            crc: crc32c(&img(0x22)),
        }];
        let base = geo.journal_start + mgr.write_ptr;
        dev.write_block(base, &journal::encode_descriptor(mgr.next_seq, &tags))
            .unwrap();
        dev.write_block(base + 1, &img(0x22)).unwrap();

        let report = journal::replay(&dev, &geo).unwrap();
        assert_eq!(report.transactions, 1, "only the complete txn applied");
        let mut raw = img(0);
        dev.read_block(t1, &mut raw).unwrap();
        assert_eq!(raw[0], 0x11);
    }
}
