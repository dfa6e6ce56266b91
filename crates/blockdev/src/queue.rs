//! A blk-mq-flavoured asynchronous write-back engine.
//!
//! The base filesystem's page cache hands dirty blocks to a
//! [`WritebackQueue`], which distributes them over several hardware-queue
//! worker threads (requests for the same block always land on the same
//! queue, preserving per-block ordering — as blk-mq does per hctx).
//! Write errors are reported *asynchronously*: they surface at the next
//! [`WritebackQueue::barrier`], exactly like write-back errors surfacing
//! at `fsync` time in Linux. A barrier can carry a batch of writes of
//! its own: each queue writes its share, so the batch's latency
//! overlaps across queues, and one wait and one device flush cover it
//! (how JBD2 submits a transaction's blocks and waits once).

use crate::device::BlockDevice;
use crossbeam::channel::{bounded, Receiver, Sender};
use parking_lot::Mutex;
use rae_vfs::{FsError, FsResult};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Configuration for a [`WritebackQueue`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueConfig {
    /// Number of worker threads (hardware queues).
    pub nr_queues: usize,
    /// Bounded per-queue depth; submission blocks when full
    /// (backpressure, like a full submission ring).
    pub queue_depth: usize,
}

impl Default for QueueConfig {
    fn default() -> QueueConfig {
        QueueConfig {
            nr_queues: 2,
            queue_depth: 256,
        }
    }
}

enum Msg {
    Write {
        bno: u64,
        data: Vec<u8>,
    },
    /// Write this queue's share of a barrier's batch, then acknowledge.
    Barrier {
        writes: Vec<(u64, Vec<u8>)>,
        ack: Sender<()>,
    },
}

/// Multi-queue asynchronous write-back over a shared [`BlockDevice`].
///
/// Dropping the queue drains and joins all workers.
///
/// Error reporting is per-queue (each worker records into its own slot,
/// first error wins), so a failing queue never contends with healthy
/// queues — and cache-miss eviction traffic from concurrent readers
/// never serializes on a global error lock.
pub struct WritebackQueue {
    senders: Vec<Sender<Msg>>,
    workers: Vec<JoinHandle<()>>,
    errors: Vec<Arc<Mutex<Option<FsError>>>>,
    submitted: AtomicU64,
    completed: Arc<AtomicU64>,
    /// `completed` as read after the acks of the last barrier whose
    /// device flush succeeded: every write counted in it is durable.
    flushed: AtomicU64,
    device: Arc<dyn BlockDevice>,
}

impl std::fmt::Debug for WritebackQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WritebackQueue")
            .field("nr_queues", &self.senders.len())
            .field("submitted", &self.submitted.load(Ordering::Relaxed))
            .field("completed", &self.completed.load(Ordering::Relaxed))
            .finish()
    }
}

impl WritebackQueue {
    /// Start workers over `device` with `config`.
    ///
    /// # Panics
    ///
    /// Panics if `config.nr_queues` or `config.queue_depth` is zero.
    #[must_use]
    pub fn new(device: Arc<dyn BlockDevice>, config: QueueConfig) -> WritebackQueue {
        assert!(config.nr_queues > 0 && config.queue_depth > 0);
        let completed = Arc::new(AtomicU64::new(0));
        let mut senders = Vec::with_capacity(config.nr_queues);
        let mut workers = Vec::with_capacity(config.nr_queues);
        let mut errors = Vec::with_capacity(config.nr_queues);

        for qi in 0..config.nr_queues {
            let (tx, rx): (Sender<Msg>, Receiver<Msg>) = bounded(config.queue_depth);
            let dev = Arc::clone(&device);
            let err_slot: Arc<Mutex<Option<FsError>>> = Arc::new(Mutex::new(None));
            let errs = Arc::clone(&err_slot);
            let done = Arc::clone(&completed);
            let handle = std::thread::Builder::new()
                .name(format!("rae-wbq-{qi}"))
                .spawn(move || {
                    let write = |bno: u64, data: &[u8]| {
                        if let Err(e) = dev.write_block(bno, data) {
                            errs.lock().get_or_insert(e);
                        }
                        done.fetch_add(1, Ordering::Release);
                    };
                    for msg in rx {
                        match msg {
                            Msg::Write { bno, data } => write(bno, &data),
                            Msg::Barrier { writes, ack } => {
                                for (bno, data) in writes {
                                    write(bno, &data);
                                }
                                let _ = ack.send(());
                            }
                        }
                    }
                })
                .expect("spawn write-back worker");
            senders.push(tx);
            workers.push(handle);
            errors.push(err_slot);
        }

        WritebackQueue {
            senders,
            workers,
            errors,
            submitted: AtomicU64::new(0),
            completed,
            flushed: AtomicU64::new(0),
            device,
        }
    }

    fn route(&self, bno: u64) -> usize {
        (bno % self.senders.len() as u64) as usize
    }

    /// Queue an asynchronous write of `data` to block `bno`.
    ///
    /// Blocks when the target queue is at depth (backpressure).
    ///
    /// # Errors
    ///
    /// [`FsError::Internal`] if the worker pool has shut down.
    pub fn submit(&self, bno: u64, data: Vec<u8>) -> FsResult<()> {
        self.submitted.fetch_add(1, Ordering::Relaxed);
        self.senders[self.route(bno)]
            .send(Msg::Write { bno, data })
            .map_err(|_| FsError::Internal {
                detail: "write-back queue is shut down".to_string(),
            })
    }

    /// Completion + durability barrier over `writes` and everything
    /// submitted before it.
    ///
    /// Routes each write of the batch to its block's queue (as
    /// [`WritebackQueue::submit`] does, so it never overtakes an earlier
    /// write of the same block), waits for every queue to finish its
    /// share and everything queued ahead of it, flushes the device, and
    /// reports any asynchronous write error that occurred since the last
    /// barrier. The batch's writes land in no particular order.
    ///
    /// When `writes` is empty and every write ever submitted had
    /// completed before the last barrier that flushed successfully,
    /// there is nothing to wait for, report or flush, and the barrier
    /// returns at once. Writes that bypass the queue are not covered:
    /// their callers flush the device themselves.
    ///
    /// # Errors
    ///
    /// The first queued asynchronous write error, or the flush error.
    pub fn barrier(&self, writes: Vec<(u64, Vec<u8>)>) -> FsResult<()> {
        // Acquire pairs with the Release that stores `flushed`: a barrier
        // that returns here happens after the flush covering every write
        if writes.is_empty()
            && self.submitted.load(Ordering::Relaxed) == self.flushed.load(Ordering::Acquire)
        {
            return Ok(());
        }
        self.submitted
            .fetch_add(writes.len() as u64, Ordering::Relaxed);
        let mut shares: Vec<Vec<(u64, Vec<u8>)>> = vec![Vec::new(); self.senders.len()];
        for (bno, data) in writes {
            shares[self.route(bno)].push((bno, data));
        }
        let (ack_tx, ack_rx) = bounded(self.senders.len());
        let mut expected = 0;
        for (s, writes) in self.senders.iter().zip(shares) {
            let ack = ack_tx.clone();
            if s.send(Msg::Barrier { writes, ack }).is_ok() {
                expected += 1;
            }
        }
        drop(ack_tx);
        for _ in 0..expected {
            let _ = ack_rx.recv();
        }
        // read before the error slots: a write counted here recorded its
        // error before its completion, so the check below sees it
        let completed = self.completed();
        for slot in &self.errors {
            if let Some(e) = slot.lock().take() {
                return Err(e);
            }
        }
        self.device.flush()?;
        self.flushed.fetch_max(completed, Ordering::Release);
        Ok(())
    }

    /// Writes submitted since construction.
    #[must_use]
    pub fn submitted(&self) -> u64 {
        self.submitted.load(Ordering::Relaxed)
    }

    /// Writes completed (successfully or not) since construction.
    #[must_use]
    pub fn completed(&self) -> u64 {
        self.completed.load(Ordering::Acquire)
    }
}

impl Drop for WritebackQueue {
    fn drop(&mut self) {
        self.senders.clear(); // close channels; workers drain and exit
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::BLOCK_SIZE;
    use crate::faulty::{DiskFaultPlan, FaultTarget, FaultyDisk, TriggerMode};
    use crate::mem::MemDisk;

    #[test]
    fn writes_land_after_barrier() {
        let disk = Arc::new(MemDisk::new(16));
        let q = WritebackQueue::new(disk.clone(), QueueConfig::default());
        for i in 0..16u64 {
            q.submit(i, vec![i as u8; BLOCK_SIZE]).unwrap();
        }
        q.barrier(Vec::new()).unwrap();
        assert_eq!(q.submitted(), 16);
        assert_eq!(q.completed(), 16);
        for i in 0..16u64 {
            let mut r = vec![0u8; BLOCK_SIZE];
            disk.read_block(i, &mut r).unwrap();
            assert!(r.iter().all(|&b| b == i as u8), "block {i}");
        }
    }

    #[test]
    fn per_block_ordering_last_write_wins() {
        let disk = Arc::new(MemDisk::new(4));
        let q = WritebackQueue::new(
            disk.clone(),
            QueueConfig {
                nr_queues: 4,
                queue_depth: 64,
            },
        );
        for v in 0..100u8 {
            q.submit(2, vec![v; BLOCK_SIZE]).unwrap();
        }
        q.barrier(Vec::new()).unwrap();
        let mut r = vec![0u8; BLOCK_SIZE];
        disk.read_block(2, &mut r).unwrap();
        assert!(r.iter().all(|&b| b == 99));
    }

    #[test]
    fn async_errors_surface_at_barrier() {
        let plan = DiskFaultPlan::new().fail_writes(FaultTarget::Block(3), TriggerMode::Always);
        let disk: Arc<dyn BlockDevice> = Arc::new(FaultyDisk::with_plan(MemDisk::new(8), plan));
        let q = WritebackQueue::new(disk, QueueConfig::default());
        q.submit(3, vec![1; BLOCK_SIZE]).unwrap();
        let err = q.barrier(Vec::new()).unwrap_err();
        assert!(matches!(err, FsError::IoFailed { .. }));
        // error consumed; next barrier is clean
        q.barrier(Vec::new()).unwrap();
    }

    #[test]
    fn barrier_on_idle_queue_is_ok() {
        let disk = Arc::new(MemDisk::new(1));
        let q = WritebackQueue::new(disk, QueueConfig::default());
        q.barrier(Vec::new()).unwrap();
        q.barrier(Vec::new()).unwrap();
    }

    /// Counts device flushes; everything else passes through.
    struct FlushCounter<D> {
        inner: D,
        flushes: AtomicU64,
    }

    impl<D: BlockDevice> FlushCounter<D> {
        fn new(inner: D) -> Arc<FlushCounter<D>> {
            Arc::new(FlushCounter {
                inner,
                flushes: AtomicU64::new(0),
            })
        }

        fn flushes(&self) -> u64 {
            self.flushes.load(Ordering::Relaxed)
        }
    }

    impl<D: BlockDevice> BlockDevice for FlushCounter<D> {
        fn block_count(&self) -> u64 {
            self.inner.block_count()
        }
        fn read_block(&self, bno: u64, buf: &mut [u8]) -> FsResult<()> {
            self.inner.read_block(bno, buf)
        }
        fn write_block(&self, bno: u64, buf: &[u8]) -> FsResult<()> {
            self.inner.write_block(bno, buf)
        }
        fn flush(&self) -> FsResult<()> {
            self.flushes.fetch_add(1, Ordering::Relaxed);
            self.inner.flush()
        }
    }

    #[test]
    fn barrier_without_new_submissions_issues_no_flush() {
        let disk = FlushCounter::new(MemDisk::new(4));
        let q = WritebackQueue::new(disk.clone(), QueueConfig::default());
        q.barrier(Vec::new()).unwrap();
        q.barrier(Vec::new()).unwrap();
        assert_eq!(disk.flushes(), 0, "nothing was ever submitted");
        q.submit(1, vec![3; BLOCK_SIZE]).unwrap();
        q.barrier(Vec::new()).unwrap();
        assert_eq!(disk.flushes(), 1, "a barrier after a submit flushes");
        q.barrier(Vec::new()).unwrap();
        assert_eq!(disk.flushes(), 1, "nothing submitted since the last flush");
        q.submit(2, vec![4; BLOCK_SIZE]).unwrap();
        q.barrier(Vec::new()).unwrap();
        assert_eq!(disk.flushes(), 2);
    }

    #[test]
    fn barrier_batch_lands_behind_earlier_writes_with_one_flush() {
        let disk = FlushCounter::new(MemDisk::new(8));
        let q = WritebackQueue::new(disk.clone(), QueueConfig::default());
        q.submit(2, vec![1; BLOCK_SIZE]).unwrap();
        let batch: Vec<(u64, Vec<u8>)> = (0..8u64)
            .map(|b| (b, vec![b as u8 + 10; BLOCK_SIZE]))
            .collect();
        q.barrier(batch).unwrap();
        assert_eq!(disk.flushes(), 1);
        assert_eq!((q.submitted(), q.completed()), (9, 9));
        for b in 0..8u64 {
            let mut r = vec![0u8; BLOCK_SIZE];
            disk.read_block(b, &mut r).unwrap();
            assert_eq!(r[0], b as u8 + 10, "block {b}: the batch lands last");
        }
        // a batch is work even when nothing else is pending
        q.barrier(vec![(5, vec![7; BLOCK_SIZE])]).unwrap();
        assert_eq!(disk.flushes(), 2);
        q.barrier(Vec::new()).unwrap();
        assert_eq!(disk.flushes(), 2);
    }

    #[test]
    fn async_error_barrier_does_not_count_as_flushed() {
        let plan = DiskFaultPlan::new().fail_writes(FaultTarget::Block(3), TriggerMode::Always);
        let disk = FlushCounter::new(FaultyDisk::with_plan(MemDisk::new(8), plan));
        let q = WritebackQueue::new(disk.clone(), QueueConfig::default());
        q.submit(3, vec![1; BLOCK_SIZE]).unwrap();
        assert!(matches!(
            q.barrier(Vec::new()),
            Err(FsError::IoFailed { .. })
        ));
        assert_eq!(disk.flushes(), 0, "the failed barrier never flushed");
        // the write is complete, but no flush has covered it yet
        q.barrier(Vec::new()).unwrap();
        assert_eq!(disk.flushes(), 1, "the barrier after the error flushes");
        q.barrier(Vec::new()).unwrap();
        assert_eq!(disk.flushes(), 1);
    }

    #[test]
    fn drop_joins_workers() {
        let disk = Arc::new(MemDisk::new(4));
        let q = WritebackQueue::new(disk.clone(), QueueConfig::default());
        q.submit(0, vec![5; BLOCK_SIZE]).unwrap();
        drop(q); // must drain, not deadlock
        let mut r = vec![0u8; BLOCK_SIZE];
        disk.read_block(0, &mut r).unwrap();
        assert_eq!(r[0], 5);
    }

    #[test]
    fn concurrent_submitters() {
        let disk = Arc::new(MemDisk::new(64));
        let q = Arc::new(WritebackQueue::new(
            disk.clone(),
            QueueConfig {
                nr_queues: 3,
                queue_depth: 8,
            },
        ));
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let q = Arc::clone(&q);
            handles.push(std::thread::spawn(move || {
                for i in 0..16u64 {
                    q.submit(t * 16 + i, vec![0xAA; BLOCK_SIZE]).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        q.barrier(Vec::new()).unwrap();
        assert_eq!(q.completed(), 64);
    }
}
