//! Shared pieces: seeded generators, device and mount helpers, the
//! correctness gate, sample windows and statistics.

use rae::{RaeConfig, RaeFs};
use rae_basefs::{BaseFs, BaseFsStats};
use rae_blockdev::{BlockDevice, MemDisk};
use rae_fsformat::{mkfs, MkfsParams};
use rae_telemetry::Telemetry;
use rae_vfs::FileSystem;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::trace::TracedDisk;

/// SplitMix64: small, fast and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    /// An independent stream for generator `k` of a run.
    pub fn stream(seed: u64, k: u64) -> Rng {
        let mut r = Rng::new(seed.wrapping_add(k.wrapping_mul(0xD1B5_4A32_D192_ED03)));
        r.next();
        r
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// Uniform in `0..100`, for percentage mixes.
    pub fn pct(&mut self) -> u32 {
        (self.next() % 100) as u32
    }
}

/// Zipfian ranks `0..n` by inverse CDF; rank 0 is the most popular.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, exponent: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|r| {
                acc += 1.0 / (r as f64).powf(exponent);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = (rng.next() >> 11) as f64 / (1u64 << 53) as f64;
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// Geometry of every benchmark device: 64 MiB, 4096 inodes.
pub const DEV_BLOCKS: u64 = 16384;

pub fn mkfs_params(blocks: u64) -> MkfsParams {
    MkfsParams {
        total_blocks: blocks,
        inode_count: 4096,
        journal_blocks: 512,
    }
}

/// A freshly formatted in-memory device.
pub fn fresh_mem(blocks: u64) -> Arc<MemDisk> {
    let dev = Arc::new(MemDisk::new(blocks));
    mkfs(dev.as_ref(), mkfs_params(blocks)).expect("mkfs");
    dev
}

/// Which stack a pass drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stack {
    /// `RaeFs` in its default configuration (telemetry on).
    Rae,
    /// `RaeFs` with its telemetry handle switched off.
    RaeTelemetryOff,
    /// A bare `BaseFs`, no RAE wrapper.
    Bare,
}

/// Everything one pass of a workload is configured by.
#[derive(Debug, Clone)]
pub struct PassCfg {
    pub seed: u64,
    /// Length of the measured window.
    pub secs: f64,
    pub stack: Stack,
    /// Wrap the device and the filesystem in the benchmark's tracing
    /// wrappers.
    pub traced: bool,
    /// Flip one byte of one checked output (self-test of the gate).
    pub corrupt: bool,
}

/// A mounted stack, bare or wrapped.
pub enum Mounted {
    Rae(Box<RaeFs>),
    Bare(Box<BaseFs>),
}

impl Mounted {
    pub fn mount(dev: Arc<dyn BlockDevice>, stack: Stack, config: RaeConfig) -> Mounted {
        match stack {
            Stack::Bare => Mounted::Bare(Box::new(
                BaseFs::mount(dev, config.base).expect("mount base"),
            )),
            Stack::Rae => Mounted::Rae(Box::new(RaeFs::mount(dev, config).expect("mount rae"))),
            Stack::RaeTelemetryOff => {
                let tele = Telemetry::new();
                tele.set_enabled(false);
                let config = RaeConfig {
                    telemetry: Some(tele),
                    ..config
                };
                Mounted::Rae(Box::new(RaeFs::mount(dev, config).expect("mount rae")))
            }
        }
    }

    pub fn fs(&self) -> &dyn FileSystem {
        match self {
            Mounted::Rae(fs) => fs.as_ref(),
            Mounted::Bare(fs) => fs.as_ref(),
        }
    }

    pub fn base(&self) -> &BaseFs {
        match self {
            Mounted::Rae(fs) => fs.base(),
            Mounted::Bare(fs) => fs,
        }
    }

    pub fn rae(&self) -> Option<&RaeFs> {
        match self {
            Mounted::Rae(fs) => Some(fs),
            Mounted::Bare(_) => None,
        }
    }
}

/// Put the tracing wrapper over `dev` when the pass is traced.
pub fn maybe_traced(
    dev: Arc<dyn BlockDevice>,
    traced: bool,
) -> (Arc<dyn BlockDevice>, Option<Arc<TracedDisk>>) {
    if traced {
        let t = Arc::new(TracedDisk::new(dev));
        (t.clone() as Arc<dyn BlockDevice>, Some(t))
    } else {
        (dev, None)
    }
}

/// The correctness gate: every checked output of a pass goes through
/// one of these, one per generator thread.
#[derive(Debug, Default)]
pub struct Gate {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
    /// Corrupt the next checked buffer (gate self-test).
    pub corrupt_next: bool,
}

impl Gate {
    pub fn armed(corrupt: bool) -> Gate {
        Gate {
            corrupt_next: corrupt,
            ..Gate::default()
        }
    }

    /// One attempted operation, failed with `note` when `ok` is false.
    pub fn op(&mut self, ok: bool, note: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(note());
        }
    }

    /// Record a failure of an operation already counted as attempted.
    pub fn fail(&mut self, note: String) {
        self.failed += 1;
        if self.notes.len() < 8 {
            self.notes.push(note);
        }
    }

    /// Check returned bytes against `ok`; counts as part of the
    /// operation that produced them (no extra attempt).
    pub fn bytes(
        &mut self,
        got: &mut [u8],
        ok: impl FnOnce(&[u8]) -> bool,
        what: impl FnOnce() -> String,
    ) {
        if self.corrupt_next && !got.is_empty() {
            self.corrupt_next = false;
            got[got.len() / 2] ^= 0x5A;
        }
        if !ok(got) {
            self.fail(format!("wrong bytes: {}", what()));
        }
    }

    pub fn merge(&mut self, other: Gate) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for n in other.notes {
            if self.notes.len() < 8 {
                self.notes.push(n);
            }
        }
    }
}

/// The measured window: operations count when they complete in it.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    pub start: Instant,
    pub end: Instant,
}

impl Window {
    pub fn open(secs: f64) -> Window {
        let start = Instant::now();
        Window {
            start,
            end: start + Duration::from_secs_f64(secs),
        }
    }

    pub fn secs(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }
}

/// Latency samples (ns) of the operations completed in a window.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    /// Every operation of the mix.
    pub op: Vec<u32>,
    /// The workload's key operation.
    pub key: Vec<u32>,
}

fn ns32(d: Duration) -> u32 {
    u32::try_from(d.as_nanos()).unwrap_or(u32::MAX)
}

impl Samples {
    /// File one operation that ran from `t0` to `t1`; false once the
    /// window has closed.
    pub fn op(&mut self, w: &Window, t0: Instant, t1: Instant) -> bool {
        let open = t1 < w.end;
        if open {
            self.op.push(ns32(t1 - t0));
        }
        open
    }

    pub fn key(&mut self, w: &Window, t0: Instant, t1: Instant) {
        if t1 < w.end {
            self.key.push(ns32(t1 - t0));
        }
    }

    pub fn merge(&mut self, other: Samples) {
        self.op.extend(other.op);
        self.key.extend(other.key);
    }

    /// Mean operation latency in ns.
    pub fn mean_op_ns(&self) -> f64 {
        let sum: u64 = self.op.iter().map(|&v| u64::from(v)).sum();
        sum as f64 / self.op.len().max(1) as f64
    }
}

/// `q`-quantile (0..=1) of unsorted samples, nearest rank; 0 when empty.
pub fn quantile(samples: &mut [u32], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_unstable();
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    f64::from(samples[rank - 1])
}

pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Peak resident set of this process so far, in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Difference of two `BaseFs::stats()` snapshots, as the per-layer
/// cache and journal ratios.
pub fn basefs_ratios(
    before: &BaseFsStats,
    after: &BaseFsStats,
    ops: u64,
) -> Vec<(&'static str, f64)> {
    let d = |a: u64, b: u64| b.saturating_sub(a) as f64;
    let hits = d(before.cache.hits, after.cache.hits);
    let misses = d(before.cache.misses, after.cache.misses);
    let dhits = d(before.dentry_hits, after.dentry_hits);
    let dmiss = d(before.dentry_misses, after.dentry_misses);
    let kops = (ops.max(1)) as f64 / 1000.0;
    let ratio = |a: f64, b: f64| if a + b == 0.0 { 0.0 } else { a / (a + b) };
    vec![
        ("basefs.cache_hit_ratio", ratio(hits, misses)),
        (
            "basefs.evictions_per_kop",
            d(before.cache.evictions, after.cache.evictions) / kops,
        ),
        ("basefs.dentry_hit_ratio", ratio(dhits, dmiss)),
        (
            "basefs.checkpoints_per_kop",
            d(before.journal_checkpoints, after.journal_checkpoints) / kops,
        ),
    ]
}

/// Run `body` on `threads` scoped generator threads, each with its own
/// index, and collect their results in index order.
pub fn on_threads<T: Send>(threads: usize, body: impl Fn(usize) -> T + Sync) -> Vec<T> {
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|k| {
                let body = &body;
                s.spawn(move || body(k))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread"))
            .collect()
    })
}
