//! Benchmark-side tracing for the traced run: wrappers around the
//! public layer APIs record spans (name, start, end, parent) and call
//! counts in memory; nothing inside the measured crates changes.

use rae_blockdev::{BlockDevice, IoPhase};
use rae_vfs::{DirEntry, Fd, FileStat, FileSystem, FsGeometryInfo, FsResult, OpenFlags, SetAttr};
use std::cell::{Cell, RefCell};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Span names, indexed by [`Name`].
pub const NAMES: [&str; 17] = [
    "blockdev.read",
    "blockdev.write",
    "blockdev.flush",
    "fs.read",
    "fs.open",
    "fs.close",
    "fs.stat",
    "fs.readdir",
    "fs.create",
    "fs.write",
    "fs.fsync",
    "fs.unlink",
    "fs.other",
    "client.call",
    "volume.apply",
    "shadowfs.load",
    "shadowfs.replay",
];

/// Index into [`NAMES`].
pub type Name = usize;
pub const DEV_READ: Name = 0;
pub const DEV_WRITE: Name = 1;
pub const DEV_FLUSH: Name = 2;
/// First filesystem class; classes run `FS_READ..=FS_OTHER`.
pub const FS_READ: Name = 3;
pub const FS_OPEN: Name = 4;
pub const FS_CLOSE: Name = 5;
pub const FS_STAT: Name = 6;
pub const FS_READDIR: Name = 7;
pub const FS_CREATE: Name = 8;
pub const FS_WRITE: Name = 9;
pub const FS_FSYNC: Name = 10;
pub const FS_UNLINK: Name = 11;
pub const FS_OTHER: Name = 12;
pub const CLIENT_CALL: Name = 13;
pub const VOLUME_APPLY: Name = 14;
pub const SHADOW_LOAD: Name = 15;
pub const SHADOW_REPLAY: Name = 16;
pub const FS_CLASSES: usize = FS_OTHER - FS_READ + 1;

/// Spans kept in memory; calls beyond this are still counted.
const SPAN_CAP: usize = 50_000;

#[derive(Debug, Clone, Copy)]
struct Span {
    id: u64,
    parent: u64,
    name: Name,
    start_ns: u64,
    end_ns: u64,
}

struct Recorder {
    epoch: Instant,
    next_id: AtomicU64,
    kept: AtomicUsize,
    spans: Mutex<Vec<Span>>,
    counts: [AtomicU64; NAMES.len()],
}

fn recorder() -> &'static Recorder {
    static R: OnceLock<Recorder> = OnceLock::new();
    R.get_or_init(|| Recorder {
        epoch: Instant::now(),
        next_id: AtomicU64::new(1),
        kept: AtomicUsize::new(0),
        spans: Mutex::new(Vec::new()),
        counts: std::array::from_fn(|_| AtomicU64::new(0)),
    })
}

thread_local! {
    static PARENT: Cell<u64> = const { Cell::new(0) };
    /// Per-class filesystem call durations of this thread (ns).
    static CLASS_NS: RefCell<[Vec<u32>; FS_CLASSES]> = RefCell::new(std::array::from_fn(|_| Vec::new()));
}

/// An open span; the thread's nested calls take it as their parent.
struct SpanGuard {
    id: u64,
    parent: u64,
    name: Name,
    start: Instant,
}

fn begin(name: Name) -> SpanGuard {
    let r = recorder();
    let id = r.next_id.fetch_add(1, Relaxed);
    let parent = PARENT.with(|p| p.replace(id));
    SpanGuard {
        id,
        parent,
        name,
        start: Instant::now(),
    }
}

impl SpanGuard {
    /// Close the span and return its duration.
    fn end(self) -> Duration {
        let end = Instant::now();
        PARENT.with(|p| p.set(self.parent));
        let r = recorder();
        r.counts[self.name].fetch_add(1, Relaxed);
        if r.kept.load(Relaxed) < SPAN_CAP {
            r.kept.fetch_add(1, Relaxed);
            let ns = |t: Instant| t.duration_since(r.epoch).as_nanos() as u64;
            r.spans.lock().expect("span store").push(Span {
                id: self.id,
                parent: self.parent,
                name: self.name,
                start_ns: ns(self.start),
                end_ns: ns(end),
            });
        }
        end - self.start
    }
}

/// Time `f` as a span named `name`.
pub fn timed<T>(name: Name, f: impl FnOnce() -> T) -> (T, Duration) {
    let g = begin(name);
    let out = f();
    (out, g.end())
}

/// Call counts per span name so far.
pub fn counts() -> Vec<(&'static str, u64)> {
    let r = recorder();
    NAMES
        .iter()
        .zip(&r.counts)
        .map(|(n, c)| (*n, c.load(Relaxed)))
        .collect()
}

/// The kept spans as tab-separated `id parent name start_ns end_ns`
/// lines, followed by the per-name call counts.
pub fn dump() -> String {
    let r = recorder();
    let spans = r.spans.lock().expect("span store");
    let mut out = String::from("# id\tparent\tname\tstart_ns\tend_ns\n");
    for s in spans.iter() {
        let _ = writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}",
            s.id, s.parent, NAMES[s.name], s.start_ns, s.end_ns
        );
    }
    out.push_str("# name\tcalls\n");
    for (n, c) in counts() {
        let _ = writeln!(out, "# {n}\t{c}");
    }
    out
}

/// Drain this thread's per-class filesystem call durations.
pub fn take_class_ns() -> [Vec<u32>; FS_CLASSES] {
    CLASS_NS.with(|c| std::mem::replace(&mut *c.borrow_mut(), std::array::from_fn(|_| Vec::new())))
}

/// Counting, timing `BlockDevice` wrapper, placed under the mount.
pub struct TracedDisk {
    inner: Arc<dyn BlockDevice>,
    reads: AtomicU64,
    writes: AtomicU64,
    flushes: AtomicU64,
    read_ns: AtomicU64,
    write_ns: AtomicU64,
}

/// Device activity over a window.
#[derive(Debug, Clone, Copy, Default)]
pub struct DiskCounts {
    pub reads: u64,
    pub writes: u64,
    pub flushes: u64,
    pub read_ns: u64,
    pub write_ns: u64,
}

impl TracedDisk {
    pub fn new(inner: Arc<dyn BlockDevice>) -> TracedDisk {
        TracedDisk {
            inner,
            reads: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            flushes: AtomicU64::new(0),
            read_ns: AtomicU64::new(0),
            write_ns: AtomicU64::new(0),
        }
    }

    pub fn counts(&self) -> DiskCounts {
        DiskCounts {
            reads: self.reads.load(Relaxed),
            writes: self.writes.load(Relaxed),
            flushes: self.flushes.load(Relaxed),
            read_ns: self.read_ns.load(Relaxed),
            write_ns: self.write_ns.load(Relaxed),
        }
    }
}

impl DiskCounts {
    pub fn since(self, before: DiskCounts) -> DiskCounts {
        DiskCounts {
            reads: self.reads - before.reads,
            writes: self.writes - before.writes,
            flushes: self.flushes - before.flushes,
            read_ns: self.read_ns - before.read_ns,
            write_ns: self.write_ns - before.write_ns,
        }
    }

    /// The `blockdev.*` per-layer metrics for `ops` operations that
    /// moved `user_bytes` bytes of payload.
    pub fn metrics(self, ops: u64, user_bytes: u64) -> Vec<(&'static str, f64)> {
        let per = |n: u64| n as f64 / ops.max(1) as f64;
        let mean = |ns: u64, n: u64| if n == 0 { 0.0 } else { ns as f64 / n as f64 };
        let dev_bytes = (self.writes * rae_blockdev::BLOCK_SIZE as u64) as f64;
        vec![
            ("blockdev.reads_per_op", per(self.reads)),
            ("blockdev.writes_per_op", per(self.writes)),
            ("blockdev.flushes_per_op", per(self.flushes)),
            ("blockdev.read_ns", mean(self.read_ns, self.reads)),
            ("blockdev.write_ns", mean(self.write_ns, self.writes)),
            (
                "blockdev.bytes_per_user_byte",
                if user_bytes == 0 {
                    0.0
                } else {
                    dev_bytes / user_bytes as f64
                },
            ),
        ]
    }
}

impl BlockDevice for TracedDisk {
    fn block_count(&self) -> u64 {
        self.inner.block_count()
    }
    fn read_block(&self, bno: u64, buf: &mut [u8]) -> FsResult<()> {
        let (r, d) = timed(DEV_READ, || self.inner.read_block(bno, buf));
        self.reads.fetch_add(1, Relaxed);
        self.read_ns.fetch_add(d.as_nanos() as u64, Relaxed);
        r
    }
    fn write_block(&self, bno: u64, buf: &[u8]) -> FsResult<()> {
        let (r, d) = timed(DEV_WRITE, || self.inner.write_block(bno, buf));
        self.writes.fetch_add(1, Relaxed);
        self.write_ns.fetch_add(d.as_nanos() as u64, Relaxed);
        r
    }
    fn flush(&self) -> FsResult<()> {
        let (r, _) = timed(DEV_FLUSH, || self.inner.flush());
        self.flushes.fetch_add(1, Relaxed);
        r
    }
    fn set_phase(&self, phase: IoPhase) {
        self.inner.set_phase(phase);
    }
}

/// `FileSystem` wrapper timing each call by class into the calling
/// thread's buffers (see [`take_class_ns`]).
pub struct TracedFs<'a>(pub &'a dyn FileSystem);

fn class_call<T>(name: Name, f: impl FnOnce() -> T) -> T {
    let (out, d) = timed(name, f);
    let ns = u32::try_from(d.as_nanos()).unwrap_or(u32::MAX);
    CLASS_NS.with(|c| c.borrow_mut()[name - FS_READ].push(ns));
    out
}

impl FileSystem for TracedFs<'_> {
    fn open(&self, path: &str, flags: OpenFlags) -> FsResult<Fd> {
        let name = if flags.creates() { FS_CREATE } else { FS_OPEN };
        class_call(name, || self.0.open(path, flags))
    }
    fn close(&self, fd: Fd) -> FsResult<()> {
        class_call(FS_CLOSE, || self.0.close(fd))
    }
    fn read(&self, fd: Fd, offset: u64, len: usize) -> FsResult<Vec<u8>> {
        class_call(FS_READ, || self.0.read(fd, offset, len))
    }
    fn write(&self, fd: Fd, offset: u64, data: &[u8]) -> FsResult<usize> {
        class_call(FS_WRITE, || self.0.write(fd, offset, data))
    }
    fn truncate(&self, fd: Fd, size: u64) -> FsResult<()> {
        class_call(FS_OTHER, || self.0.truncate(fd, size))
    }
    fn setattr(&self, path: &str, attr: SetAttr) -> FsResult<()> {
        class_call(FS_OTHER, || self.0.setattr(path, attr))
    }
    fn fsync(&self, fd: Fd) -> FsResult<()> {
        class_call(FS_FSYNC, || self.0.fsync(fd))
    }
    fn sync(&self) -> FsResult<()> {
        class_call(FS_OTHER, || self.0.sync())
    }
    fn mkdir(&self, path: &str) -> FsResult<()> {
        class_call(FS_OTHER, || self.0.mkdir(path))
    }
    fn rmdir(&self, path: &str) -> FsResult<()> {
        class_call(FS_OTHER, || self.0.rmdir(path))
    }
    fn unlink(&self, path: &str) -> FsResult<()> {
        class_call(FS_UNLINK, || self.0.unlink(path))
    }
    fn rename(&self, from: &str, to: &str) -> FsResult<()> {
        class_call(FS_OTHER, || self.0.rename(from, to))
    }
    fn link(&self, existing: &str, new: &str) -> FsResult<()> {
        class_call(FS_OTHER, || self.0.link(existing, new))
    }
    fn symlink(&self, target: &str, linkpath: &str) -> FsResult<()> {
        class_call(FS_OTHER, || self.0.symlink(target, linkpath))
    }
    fn readlink(&self, path: &str) -> FsResult<String> {
        class_call(FS_OTHER, || self.0.readlink(path))
    }
    fn stat(&self, path: &str) -> FsResult<FileStat> {
        class_call(FS_STAT, || self.0.stat(path))
    }
    fn fstat(&self, fd: Fd) -> FsResult<FileStat> {
        class_call(FS_STAT, || self.0.fstat(fd))
    }
    fn readdir(&self, path: &str) -> FsResult<Vec<DirEntry>> {
        class_call(FS_READDIR, || self.0.readdir(path))
    }
    fn statfs(&self) -> FsResult<FsGeometryInfo> {
        class_call(FS_OTHER, || self.0.statfs())
    }
    fn status(&self) -> rae_vfs::FsStatus {
        self.0.status()
    }
}
