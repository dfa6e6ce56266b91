//! `fault_recover_cold` / `fault_recover_warm`: one thread runs cycles
//! of 1,000 unsynced mutations, each followed by one deterministic
//! one-shot injected bug that RAE must mask: a detected error, and
//! every fourth time a panic.
//! The cold variant recovers by contained reboot, shadow load and
//! replay; the warm one by standby drain and hand-off, with the fault
//! fired once the standby has caught up.

use crate::common::{
    fresh_mem, maybe_traced, median, quantile, Gate, Mounted, PassCfg, Rng, Stack, DEV_BLOCKS,
};
use crate::pass::{measure, timed_setup, Env, Pass};
use crate::trace::{self, SHADOW_LOAD, SHADOW_REPLAY};
use rae::{RaeConfig, RecoveryPath, StandbyOpts};
use rae_basefs::{BaseFs, BaseFsConfig};
use rae_blockdev::{BlockDevice, MemDisk};
use rae_faults::{BugSpec, Effect, FaultRegistry, Site, Trigger};
use rae_fsmodel::ModelFs;
use rae_shadowfs::{ShadowFs, ShadowOpts};
use rae_vfs::{Fd, FileSystem, FileType, FsOp, FsResult, OpOutcome, OpRecord, OpenFlags};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Filesystem calls between two faults.
pub const CYCLE_CALLS: usize = 1000;
const POOL: usize = 128;
const FILE_BYTES: usize = 1024;
const BUG_ID: u32 = 9000;
/// Cycles replayed outside the mount to time the shadow layer.
const SHADOW_SAMPLES: usize = 3;

/// One filesystem call of the mutation stream. Files are named by pool
/// index; `Write` and `Close` act on the descriptor the last `Open`
/// returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Call {
    Open {
        idx: u16,
        create: bool,
    },
    Write {
        fill: u8,
    },
    Close,
    Unlink {
        idx: u16,
    },
    Rename {
        from: u16,
        to: u16,
    },
    /// The faulting op's directory, removed again at the next cycle.
    MkdirX,
    RmdirX,
}

fn file(idx: u16) -> String {
    format!("/w/n{idx:03}")
}

/// Generates the mutation stream from the seed and the pool's state.
struct Stream {
    rng: Rng,
    exists: Vec<bool>,
}

impl Stream {
    fn new(seed: u64) -> Stream {
        Stream {
            rng: Rng::stream(seed, 7),
            exists: vec![false; POOL],
        }
    }

    /// The next composite mutation as single calls.
    fn next(&mut self) -> Vec<Call> {
        let idx = self.rng.below(POOL) as u16;
        let fill = self.rng.next() as u8;
        let r = self.rng.pct();
        if !self.exists[idx as usize] || r < 50 {
            let create = !self.exists[idx as usize];
            self.exists[idx as usize] = true;
            return vec![
                Call::Open { idx, create },
                Call::Write { fill },
                Call::Close,
            ];
        }
        let free = (0..POOL as u16)
            .filter(|&i| !self.exists[i as usize])
            .nth(self.rng.below(POOL / 4));
        match free {
            Some(to) if r >= 75 => {
                self.exists[idx as usize] = false;
                self.exists[to as usize] = true;
                vec![Call::Rename { from: idx, to }]
            }
            _ => {
                self.exists[idx as usize] = false;
                vec![Call::Unlink { idx }]
            }
        }
    }
}

/// Apply one call to any `FileSystem`.
fn apply(fs: &dyn FileSystem, call: Call, fd: &mut Option<Fd>) -> FsResult<()> {
    match call {
        Call::Open { idx, create } => {
            let flags = if create {
                OpenFlags::RDWR | OpenFlags::CREATE
            } else {
                OpenFlags::RDWR
            };
            *fd = Some(fs.open(&file(idx), flags)?);
            Ok(())
        }
        Call::Write { fill } => fs
            .write(fd.expect("open fd"), 0, &[fill; FILE_BYTES])
            .map(|_| ()),
        Call::Close => fs.close(fd.take().expect("open fd")),
        Call::Unlink { idx } => fs.unlink(&file(idx)),
        Call::Rename { from, to } => fs.rename(&file(from), &file(to)),
        Call::MkdirX => fs.mkdir("/x"),
        Call::RmdirX => fs.rmdir("/x"),
    }
}

pub struct Faulter {
    faults: FaultRegistry,
    /// Every call issued, in order, for the model replay.
    calls: Mutex<Vec<Call>>,
    injected: AtomicU64,
    /// Wait from a cycle's last mutation until the standby lag was 0 (ms).
    catchup_ms: Mutex<Vec<f64>>,
}

fn config(faults: &FaultRegistry, warm: bool) -> RaeConfig {
    RaeConfig {
        base: BaseFsConfig {
            faults: faults.clone(),
            ..BaseFsConfig::default()
        },
        standby: StandbyOpts {
            enabled: warm,
            ..StandbyOpts::default()
        },
        ..RaeConfig::default()
    }
}

fn setup(cfg: &PassCfg, warm: bool) -> Env<Faulter> {
    let (dev, disk) = maybe_traced(fresh_mem(DEV_BLOCKS), cfg.traced);
    let faults = FaultRegistry::new();
    let m = Mounted::mount(dev, cfg.stack, config(&faults, warm));
    m.fs().mkdir("/w").expect("mkdir");
    m.fs().sync().expect("sync");
    Env {
        m,
        disk,
        state: Faulter {
            faults,
            calls: Mutex::new(Vec::new()),
            injected: AtomicU64::new(0),
            catchup_ms: Mutex::new(Vec::new()),
        },
    }
}

pub fn pass(cfg: &PassCfg, warm: bool) -> Pass {
    let (env, setup_s) = timed_setup(|| setup(cfg, warm));
    let inject = cfg.stack != Stack::Bare;
    let mut p = measure(cfg, &env, 1, |_, fs, w, env, out| {
        let st = &env.state;
        let mut stream = Stream::new(cfg.seed);
        let mut calls = Vec::new();
        let mut fd = None;
        let mut open = true;
        let mut faults = 0u64;
        while open {
            out.gate
                .op(fs.sync().is_ok(), || "cycle barrier sync failed".into());
            let mut cycle = if calls.is_empty() {
                Vec::new()
            } else {
                vec![Call::RmdirX]
            };
            while cycle.len() < CYCLE_CALLS {
                cycle.extend(stream.next());
            }
            for &call in &cycle {
                let t0 = Instant::now();
                let res = apply(fs, call, &mut fd);
                let t1 = Instant::now();
                out.gate.op(res.is_ok(), || format!("{call:?}: {res:?}"));
                if let Call::Write { .. } = call {
                    out.user_bytes += FILE_BYTES as u64;
                }
                open &= out.samples.op(w, t0, t1);
            }
            calls.extend_from_slice(&cycle);
            if let (true, Some(rae)) = (warm, env.m.rae()) {
                let t0 = Instant::now();
                while rae.stats().standby_lag > 0 {
                    std::thread::yield_now();
                }
                st.catchup_ms
                    .lock()
                    .expect("catchup")
                    .push(t0.elapsed().as_secs_f64() * 1e3);
            }
            // a panic's recovery pause spreads wider than a detected
            // error's, so one fault in four is a panic and the median
            // pause stays within one kind
            let effect = if faults % 4 == 3 {
                Effect::Panic
            } else {
                Effect::DetectedError
            };
            faults += 1;
            if inject {
                st.faults.arm(BugSpec::new(
                    BUG_ID,
                    "one-shot",
                    Site::Alloc,
                    Trigger::Always,
                    effect,
                ));
            }
            let t0 = Instant::now();
            let res = fs.mkdir("/x");
            let t1 = Instant::now();
            if inject {
                st.faults.disarm(BUG_ID);
                st.injected.fetch_add(1, Relaxed);
            }
            out.gate.op(res.is_ok(), || {
                format!("faulting mkdir ({effect:?}) not masked: {res:?}")
            });
            calls.push(Call::MkdirX);
            out.samples.key(w, t0, t1);
            open &= out.samples.op(w, t0, t1);
        }
        *st.calls.lock().expect("calls") = calls;
    });
    let calls = std::mem::take(&mut *env.state.calls.lock().expect("calls"));
    let mut gate = Gate::armed(cfg.corrupt);
    if let Some(rae) = env.m.rae() {
        let injected = env.state.injected.load(Relaxed) as f64;
        let recoveries = p.layer("core.recoveries");
        gate.op(recoveries == injected, || {
            format!("{recoveries} recoveries for {injected} injected faults")
        });
        let reports = rae.recovery_reports();
        let want = if warm {
            RecoveryPath::Warm
        } else {
            RecoveryPath::Cold
        };
        let wrong = reports.iter().filter(|r| r.path != want).count();
        gate.op(wrong == 0, || {
            format!("{wrong} recoveries took another path than {want:?}")
        });
        if cfg.traced {
            recovery_layers(&mut p, &reports, warm, &env.state);
        }
    }
    compare_with_model(env.m.fs(), &calls, &mut gate);
    p.gate.merge(gate);
    p.setup_s = setup_s;
    p
}

fn recovery_layers(p: &mut Pass, reports: &[rae::RecoveryReport], warm: bool, st: &Faulter) {
    let ms = |f: &dyn Fn(&rae::RecoveryReport) -> f64| {
        median(&reports.iter().map(f).collect::<Vec<_>>())
    };
    p.set("core.reboot_ms", ms(&|r| r.reboot_time.as_secs_f64() * 1e3));
    p.set(
        "core.shadow_load_ms",
        ms(&|r| r.shadow_load_time.as_secs_f64() * 1e3),
    );
    p.set("core.replay_ms", ms(&|r| r.replay_time.as_secs_f64() * 1e3));
    p.set(
        "core.handoff_ms",
        ms(&|r| r.handoff_time.as_secs_f64() * 1e3),
    );
    let mut pauses = p.samples.key.clone();
    let pause_ms = quantile(&mut pauses, 0.5) / 1e6;
    p.set(
        "core.recover_unaccounted_ms",
        pause_ms - ms(&|r| r.duration.as_secs_f64() * 1e3),
    );
    if warm {
        p.set(
            "standby.catchup_ms",
            median(&st.catchup_ms.lock().expect("catchup")),
        );
        p.set(
            "standby.drained_records",
            ms(&|r| r.records_replayed as f64),
        );
    }
}

/// Replay the issued calls on a `ModelFs` and compare the trees.
fn compare_with_model(fs: &dyn FileSystem, calls: &[Call], gate: &mut Gate) {
    let model = ModelFs::new();
    let mut fd = None;
    model.mkdir("/w").expect("model mkdir");
    for &call in calls {
        if let Err(e) = apply(&model, call, &mut fd) {
            gate.op(false, || format!("model refused {call:?}: {e}"));
        }
    }
    compare_dir(fs, &model, "/", gate);
}

fn compare_dir(fs: &dyn FileSystem, model: &ModelFs, dir: &str, gate: &mut Gate) {
    let names = |f: &dyn FileSystem| -> Vec<String> {
        let mut n: Vec<String> = f
            .readdir(dir)
            .map(|es| {
                es.into_iter()
                    .map(|e| e.name)
                    .filter(|n| n != "." && n != "..")
                    .collect()
            })
            .unwrap_or_default();
        n.sort();
        n
    };
    let (got, want) = (names(fs), names(model));
    gate.op(got == want, || {
        format!("{dir}: entries {got:?}, model {want:?}")
    });
    for name in got.iter().filter(|n| want.contains(n)) {
        let path = if dir == "/" {
            format!("/{name}")
        } else {
            format!("{dir}/{name}")
        };
        match (fs.stat(&path), model.stat(&path)) {
            (Ok(a), Ok(b)) if a.ftype == FileType::Directory && b.ftype == FileType::Directory => {
                compare_dir(fs, model, &path, gate);
            }
            (Ok(a), Ok(b)) if a.ftype == b.ftype && a.size == b.size => {
                let read = |f: &dyn FileSystem| -> Option<Vec<u8>> {
                    let fd = f.open(&path, OpenFlags::RDONLY).ok()?;
                    let d = f.read(fd, 0, a.size as usize).ok();
                    f.close(fd).ok()?;
                    d
                };
                let want = read(model);
                match read(fs) {
                    Some(mut got) => {
                        gate.op(true, String::new);
                        gate.bytes(&mut got, |g| Some(g) == want.as_deref(), || path.clone());
                    }
                    None => gate.op(false, || format!("{path}: unreadable")),
                }
            }
            (a, b) => gate.op(false, || format!("{path}: stat {a:?}, model {b:?}")),
        }
    }
}

/// Time `ShadowFs::load` and `replay_constrained` from outside: on a
/// bare base, save the image at a cycle's start, run the cycle while
/// recording each call as an op-log record, then load a shadow over the
/// saved image and replay the records.
pub fn shadow_layer(seed: u64) -> Vec<(&'static str, f64)> {
    let dev = fresh_mem(DEV_BLOCKS);
    let base = BaseFs::mount(dev.clone() as Arc<dyn BlockDevice>, BaseFsConfig::default())
        .expect("mount base");
    base.mkdir("/w").expect("mkdir");
    let mut stream = Stream::new(seed);
    let (mut load_ms, mut replay_us, mut checks) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..SHADOW_SAMPLES {
        base.sync().expect("sync");
        base.checkpoint().expect("checkpoint");
        let image = Arc::new(MemDisk::clone_of(dev.as_ref()).expect("save image"));
        let mut records = Vec::with_capacity(CYCLE_CALLS + 3);
        let mut fd = None;
        while records.len() < CYCLE_CALLS {
            for call in stream.next() {
                records.push(record(&base, call, &mut fd, records.len() as u64 + 1));
            }
        }
        let (shadow, load) =
            trace::timed(SHADOW_LOAD, || ShadowFs::load(image, ShadowOpts::default()));
        let mut shadow = shadow.expect("shadow load");
        let before = shadow.checks_performed();
        let (replay, d) = trace::timed(SHADOW_REPLAY, || shadow.replay_constrained(&records));
        let report = replay.expect("shadow replay");
        assert!(
            report.is_clean(),
            "shadow replay disagreed: {:?}",
            report.discrepancies
        );
        let n = records.len() as f64;
        load_ms.push(load.as_secs_f64() * 1e3);
        replay_us.push(d.as_secs_f64() * 1e6 / n);
        checks.push((shadow.checks_performed() - before) as f64 / n);
    }
    base.unmount().expect("unmount");
    vec![
        ("shadowfs.load_ms", median(&load_ms)),
        ("shadowfs.replay_us_per_record", median(&replay_us)),
        ("shadowfs.checks_per_record", median(&checks)),
    ]
}

/// Execute `call` on the bare base and return its completed record.
fn record(base: &BaseFs, call: Call, fd: &mut Option<Fd>, seq: u64) -> OpRecord {
    let (op, outcome) = match call {
        Call::Open { idx, create } => {
            let (path, flags) = if create {
                (file(idx), OpenFlags::RDWR | OpenFlags::CREATE)
            } else {
                (file(idx), OpenFlags::RDWR)
            };
            let (f, ino, created) = base.open_ex(&path, flags).expect("open");
            *fd = Some(f);
            let op = if create {
                FsOp::Create { path, flags }
            } else {
                FsOp::Open { path, flags }
            };
            (
                op,
                OpOutcome::Opened {
                    fd: f,
                    ino,
                    created,
                },
            )
        }
        Call::Write { fill } => {
            let f = fd.expect("open fd");
            let n = base.write(f, 0, &[fill; FILE_BYTES]).expect("write");
            (
                FsOp::Write {
                    fd: f,
                    offset: 0,
                    data: vec![fill; FILE_BYTES].into(),
                },
                OpOutcome::Written { n },
            )
        }
        other => {
            let op = match other {
                Call::Close => FsOp::Close {
                    fd: fd.expect("open fd"),
                },
                Call::Unlink { idx } => FsOp::Unlink { path: file(idx) },
                Call::Rename { from, to } => FsOp::Rename {
                    from: file(from),
                    to: file(to),
                },
                Call::MkdirX => FsOp::Mkdir { path: "/x".into() },
                _ => FsOp::Rmdir { path: "/x".into() },
            };
            apply(base, other, fd).expect("mutation");
            (op, OpOutcome::Unit)
        }
    };
    let mut rec = OpRecord::new(seq, op);
    rec.complete(outcome);
    rec
}
