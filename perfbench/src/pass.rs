//! One pass of a workload: closed-loop generator threads over a mounted
//! stack for a measured window, with the layer counters read around it.

use crate::common::{basefs_ratios, on_threads, Gate, Mounted, PassCfg, Samples, Window};
use crate::trace::{self, TracedDisk, TracedFs, FS_CLASSES, FS_FSYNC, FS_READ};
use rae_vfs::FileSystem;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A mounted stack plus the workload's own state.
pub struct Env<S> {
    pub m: Mounted,
    /// The tracing wrapper under the mount, in traced passes.
    pub disk: Option<Arc<TracedDisk>>,
    pub state: S,
}

/// What one pass measured.
pub struct Pass {
    /// Wall time of the set-up, in seconds.
    pub setup_s: f64,
    pub samples: Samples,
    /// Length of the measured window.
    pub secs: f64,
    pub gate: Gate,
    /// Per-class filesystem call durations (traced passes only).
    pub class_ns: [Vec<u32>; FS_CLASSES],
    /// Per-layer metrics this pass observed directly.
    pub layer: Vec<(&'static str, f64)>,
}

impl Pass {
    pub fn ops_per_s(&self) -> f64 {
        self.samples.op.len() as f64 / self.secs
    }

    pub fn layer(&self, name: &str) -> f64 {
        self.layer
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.layer.retain(|(n, _)| *n != name);
        self.layer.push((name, value));
    }
}

/// Run `setup` and return its result with its wall time in seconds.
pub fn timed_setup<T>(setup: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = setup();
    (out, t0.elapsed().as_secs_f64())
}

/// What one generator thread hands back.
pub struct ThreadOut {
    pub samples: Samples,
    pub gate: Gate,
    /// Payload bytes the thread wrote.
    pub user_bytes: u64,
}

/// Drive `threads` closed-loop generators over `env` for the window in
/// `cfg`, reading device, base and runtime counters around it.
pub fn measure<S: Sync>(
    cfg: &PassCfg,
    env: &Env<S>,
    threads: usize,
    generator: impl Fn(usize, &dyn FileSystem, &Window, &Env<S>, &mut ThreadOut) + Sync,
) -> Pass {
    let traced_fs = TracedFs(env.m.fs());
    let fs: &dyn FileSystem = if cfg.traced { &traced_fs } else { env.m.fs() };
    let base_before = env.m.base().stats();
    let rae_before = env.m.rae().map(rae::RaeFs::stats);
    let disk_before = env.disk.as_ref().map(|d| d.counts());
    let window = Window::open(cfg.secs);

    // log length and standby lag are sampled from the side in traced
    // passes only: the poll takes the runtime's log lock
    let done = AtomicBool::new(false);
    let log_len_max = AtomicU64::new(0);
    let lag_max = AtomicU64::new(0);
    let outs = std::thread::scope(|s| {
        if let (true, Some(rae)) = (cfg.traced, env.m.rae()) {
            let (done, log_len_max, lag_max) = (&done, &log_len_max, &lag_max);
            s.spawn(move || {
                while !done.load(Relaxed) {
                    let st = rae.stats();
                    log_len_max.fetch_max(st.log_len as u64, Relaxed);
                    lag_max.fetch_max(st.standby_lag, Relaxed);
                    std::thread::sleep(Duration::from_millis(1));
                }
            });
        }
        let outs = on_threads(threads, |k| {
            let _ = trace::take_class_ns();
            let mut out = ThreadOut {
                samples: Samples::default(),
                gate: Gate::armed(cfg.corrupt && k == 0),
                user_bytes: 0,
            };
            generator(k, fs, &window, env, &mut out);
            (out, trace::take_class_ns())
        });
        done.store(true, Relaxed);
        outs
    });

    let mut samples = Samples::default();
    let mut gate = Gate::default();
    let mut class_ns: [Vec<u32>; FS_CLASSES] = std::array::from_fn(|_| Vec::new());
    let mut user_bytes = 0;
    for (out, cls) in outs {
        samples.merge(out.samples);
        gate.merge(out.gate);
        user_bytes += out.user_bytes;
        for (a, b) in class_ns.iter_mut().zip(cls) {
            a.extend(b);
        }
    }
    let ops = samples.op.len() as u64;
    let mut layer = Vec::new();
    if let (Some(d), Some(before)) = (&env.disk, disk_before) {
        layer.extend(d.counts().since(before).metrics(ops, user_bytes));
    }
    let base_after = env.m.base().stats();
    layer.extend(basefs_ratios(&base_before, &base_after, ops));
    let commits = base_after
        .journal_commits
        .saturating_sub(base_before.journal_commits);
    let fsyncs = class_ns[FS_FSYNC - FS_READ].len() as f64;
    layer.push((
        "basefs.fsyncs_per_commit",
        if commits == 0 {
            0.0
        } else {
            fsyncs / commits as f64
        },
    ));
    if let (Some(rae), Some(before)) = (env.m.rae(), rae_before) {
        let after = rae.stats();
        layer.push((
            "core.log_len_max",
            log_len_max.load(Relaxed).max(after.log_len as u64) as f64,
        ));
        layer.push((
            "core.log_trimmed_per_op",
            after.log_trimmed.saturating_sub(before.log_trimmed) as f64 / ops.max(1) as f64,
        ));
        layer.push((
            "core.recoveries",
            after.recoveries.saturating_sub(before.recoveries) as f64,
        ));
        layer.push(("standby.lag_max", lag_max.load(Relaxed) as f64));
    }
    Pass {
        setup_s: 0.0,
        samples,
        secs: window.secs(),
        gate,
        class_ns,
        layer,
    }
}
