//! `mail_sync`: a varmail-style mix (deliver with fsync, read, unlink,
//! mkdir/rename), one directory per thread, over a device whose writes
//! take 50 µs. Mutations and fsync dominate: op log, stripe locks,
//! group commit, journal and device.

use crate::common::{maybe_traced, mkfs_params, Gate, Mounted, PassCfg, Rng, DEV_BLOCKS};
use crate::pass::{measure, timed_setup, Env, Pass};
use rae::RaeConfig;
use rae_basefs::{BaseFs, BaseFsConfig};
use rae_blockdev::{BlockDevice, DiskFaultPlan, FaultyDisk, MemDisk};
use rae_vfs::{FileSystem, OpenFlags};
use std::sync::{Arc, Mutex};
use std::time::Instant;

const THREADS: usize = 2;
const MAIL_BYTES: usize = 4096;
const WRITE_LATENCY_NS: u64 = 50_000;
const INITIAL_MAILS: u64 = 32;
const MIN_MAILS: usize = 16;
const MAX_MAILS: usize = 256;
const MAX_FOLDERS: usize = 8;

/// A mail a generator delivered and has not unlinked.
#[derive(Debug, Clone)]
struct Mail {
    id: u64,
    /// Every path the mail had since its fsync; the latest rename may
    /// or may not be durable.
    paths: Vec<String>,
    synced: bool,
}

pub struct Spool {
    dev: Arc<FaultyDisk<MemDisk>>,
    /// Live mails of every generator at the end of the pass.
    live: Mutex<Vec<(usize, Mail)>>,
}

fn body(seed: u64, thread: usize, id: u64) -> Vec<u8> {
    let mut r = Rng::stream(seed, (thread as u64 + 1) << 40 | id);
    (0..MAIL_BYTES).map(|_| r.next() as u8).collect()
}

fn setup(cfg: &PassCfg) -> Env<Spool> {
    let mem = MemDisk::new(DEV_BLOCKS);
    rae_fsformat::mkfs(&mem, mkfs_params(DEV_BLOCKS)).expect("mkfs");
    let faulty = Arc::new(FaultyDisk::with_plan(
        mem,
        DiskFaultPlan::new().write_latency_ns(WRITE_LATENCY_NS),
    ));
    let (dev, disk) = maybe_traced(faulty.clone() as Arc<dyn BlockDevice>, cfg.traced);
    let m = Mounted::mount(dev, cfg.stack, RaeConfig::default());
    let fs = m.fs();
    for k in 0..THREADS {
        fs.mkdir(&format!("/t{k}")).expect("mkdir");
        for id in 0..INITIAL_MAILS {
            let fd = fs
                .open(&format!("/t{k}/m{id}"), OpenFlags::RDWR | OpenFlags::CREATE)
                .expect("create");
            fs.write(fd, 0, &body(cfg.seed, k, id)).expect("write");
            fs.close(fd).expect("close");
        }
    }
    fs.sync().expect("sync");
    Env {
        m,
        disk,
        state: Spool {
            dev: faulty,
            live: Mutex::new(Vec::new()),
        },
    }
}

pub fn pass(cfg: &PassCfg) -> Pass {
    let (env, setup_s) = timed_setup(|| setup(cfg));
    let mut p = measure(cfg, &env, THREADS, |k, fs, w, env, out| {
        let mut rng = Rng::stream(cfg.seed, k as u64);
        let mut live: Vec<Mail> = (0..INITIAL_MAILS)
            .map(|id| Mail {
                id,
                paths: vec![format!("/t{k}/m{id}")],
                synced: true,
            })
            .collect();
        let mut next_id = INITIAL_MAILS;
        let mut folders = 0usize;
        loop {
            let r = rng.pct();
            let t0 = Instant::now();
            if (r < 40 || live.len() <= MIN_MAILS) && live.len() < MAX_MAILS {
                // deliver: create, append, fsync, close
                let id = next_id;
                next_id += 1;
                let path = format!("/t{k}/m{id}");
                let data = body(cfg.seed, k, id);
                let t0 = Instant::now();
                let res = fs
                    .open(&path, OpenFlags::RDWR | OpenFlags::CREATE)
                    .and_then(|fd| {
                        fs.write(fd, 0, &data)?;
                        let k0 = Instant::now();
                        fs.fsync(fd)?;
                        out.samples.key(w, k0, Instant::now());
                        fs.close(fd)
                    });
                let t1 = Instant::now();
                out.user_bytes += MAIL_BYTES as u64;
                out.gate
                    .op(res.is_ok(), || format!("deliver {path}: {res:?}"));
                live.push(Mail {
                    id,
                    paths: vec![path],
                    synced: res.is_ok(),
                });
                if !out.samples.op(w, t0, t1) {
                    break;
                }
                continue;
            }
            let i = rng.below(live.len());
            let t1 = if r < 70 {
                let path = live[i].paths.last().expect("path").clone();
                let res = fs.open(&path, OpenFlags::RDONLY).and_then(|fd| {
                    let d = fs.read(fd, 0, MAIL_BYTES);
                    fs.close(fd)?;
                    d
                });
                let t1 = Instant::now();
                out.gate.op(res.is_ok(), || {
                    format!("read {path}: {:?}", res.as_ref().err())
                });
                if let Ok(mut d) = res {
                    let want = body(cfg.seed, k, live[i].id);
                    out.gate
                        .bytes(&mut d, |g| g == want.as_slice(), || path.clone());
                }
                t1
            } else if r < 90 {
                let mail = live.swap_remove(i);
                let path = mail.paths.last().expect("path");
                let res = fs.unlink(path);
                let t1 = Instant::now();
                out.gate
                    .op(res.is_ok(), || format!("unlink {path}: {res:?}"));
                t1
            } else if folders < MAX_FOLDERS {
                let path = format!("/t{k}/f{folders}");
                folders += 1;
                let res = fs.mkdir(&path);
                let t1 = Instant::now();
                out.gate
                    .op(res.is_ok(), || format!("mkdir {path}: {res:?}"));
                t1
            } else {
                let to = format!("/t{k}/f{}/m{}", rng.below(folders), live[i].id);
                let from = live[i].paths.last().expect("path").clone();
                let res = if from == to {
                    Ok(())
                } else {
                    fs.rename(&from, &to)
                };
                let t1 = Instant::now();
                out.gate
                    .op(res.is_ok(), || format!("rename {from} {to}: {res:?}"));
                if res.is_ok() && from != to {
                    live[i].paths.push(to);
                }
                t1
            };
            if !out.samples.op(w, t0, t1) {
                break;
            }
        }
        env.state
            .live
            .lock()
            .expect("live mails")
            .extend(live.into_iter().map(|m| (k, m)));
    });
    check_durable(cfg, &env, &mut p.gate);
    p.setup_s = setup_s;
    p
}

/// Clone the live device without unmounting, mount the copy, and check
/// that every fsynced, not unlinked mail reads back intact and that
/// the copy is fsck-clean after unmount.
fn check_durable(cfg: &PassCfg, env: &Env<Spool>, gate: &mut Gate) {
    let copy = Arc::new(MemDisk::clone_of(env.state.dev.inner()).expect("clone device"));
    let base = match BaseFs::mount(copy.clone(), BaseFsConfig::default()) {
        Ok(b) => b,
        Err(e) => {
            gate.op(false, || format!("mount of the device copy: {e}"));
            return;
        }
    };
    let live = std::mem::take(&mut *env.state.live.lock().expect("live mails"));
    let mut check = Gate::armed(cfg.corrupt);
    for (k, mail) in live.iter().filter(|(_, m)| m.synced) {
        let want = body(cfg.seed, *k, mail.id);
        let found = mail.paths.iter().rev().find_map(|p| {
            let fd = base.open(p, OpenFlags::RDONLY).ok()?;
            let d = base.read(fd, 0, MAIL_BYTES);
            base.close(fd).ok()?;
            d.ok()
        });
        check.op(found.is_some(), || {
            format!("fsynced mail {:?} missing on the copy", mail.paths)
        });
        if let Some(mut d) = found {
            check.bytes(
                &mut d,
                |g| g == want.as_slice(),
                || format!("mail {:?} on the copy", mail.paths),
            );
        }
    }
    let unmounted = base.unmount();
    check.op(unmounted.is_ok(), || {
        format!("unmount of the copy: {unmounted:?}")
    });
    let report = rae_fsformat::fsck(copy.as_ref());
    check.op(matches!(&report, Ok(r) if r.is_clean()), || {
        format!("fsck of the copy: {report:?}")
    });
    gate.merge(check);
}
