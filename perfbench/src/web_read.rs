//! `web_read`: the paper's common case. Two threads run a read-mostly
//! mix over a warmed tree that fits in the page cache, so no call
//! should reach the journal, the device, the shadow or the socket.

use crate::common::{fresh_mem, maybe_traced, Mounted, PassCfg, Rng, DEV_BLOCKS};
use crate::pass::{measure, timed_setup, Env, Pass};
use rae::RaeConfig;
use rae_vfs::OpenFlags;
use std::time::Instant;

const THREADS: usize = 2;
const DIRS: usize = 16;
const PER_DIR: usize = 32;
const FILES: usize = DIRS * PER_DIR;
const FILE_BYTES: usize = 8192;
const READ_BYTES: usize = 4096;

pub struct Tree {
    paths: Vec<String>,
    dirs: Vec<String>,
    contents: Vec<Vec<u8>>,
}

fn tree(seed: u64) -> Tree {
    let dirs: Vec<String> = (0..DIRS).map(|d| format!("/d{d:02}")).collect();
    let paths = (0..FILES)
        .map(|i| format!("{}/f{:03}", dirs[i / PER_DIR], i % PER_DIR))
        .collect();
    let contents = (0..FILES)
        .map(|i| {
            let mut r = Rng::stream(seed, 1 << 20 | i as u64);
            (0..FILE_BYTES).map(|_| r.next() as u8).collect()
        })
        .collect();
    Tree {
        paths,
        dirs,
        contents,
    }
}

fn setup(cfg: &PassCfg) -> Env<Tree> {
    let (dev, disk) = maybe_traced(fresh_mem(DEV_BLOCKS), cfg.traced);
    let m = Mounted::mount(dev, cfg.stack, RaeConfig::default());
    let t = tree(cfg.seed);
    let fs = m.fs();
    for d in &t.dirs {
        fs.mkdir(d).expect("mkdir");
    }
    for (p, c) in t.paths.iter().zip(&t.contents) {
        let fd = fs
            .open(p, OpenFlags::RDWR | OpenFlags::CREATE)
            .expect("create");
        fs.write(fd, 0, c).expect("populate");
        fs.close(fd).expect("close");
    }
    fs.sync().expect("sync");
    // warm the page, inode and dentry caches
    for p in &t.paths {
        let fd = fs.open(p, OpenFlags::RDONLY).expect("open");
        fs.read(fd, 0, FILE_BYTES).expect("warm read");
        fs.close(fd).expect("close");
        fs.stat(p).expect("stat");
    }
    for d in &t.dirs {
        fs.readdir(d).expect("readdir");
    }
    Env { m, disk, state: t }
}

pub fn pass(cfg: &PassCfg) -> Pass {
    let (env, setup_s) = timed_setup(|| setup(cfg));
    let mut p = measure(cfg, &env, THREADS, |k, fs, w, env, out| {
        let t = &env.state;
        let mut rng = Rng::stream(cfg.seed, k as u64);
        loop {
            let r = rng.pct();
            let i = rng.below(FILES);
            let t0 = Instant::now();
            let t1 = if r < 80 {
                let off = rng.below(FILE_BYTES / READ_BYTES) * READ_BYTES;
                let res = fs.open(&t.paths[i], OpenFlags::RDONLY).and_then(|fd| {
                    let data = fs.read(fd, off as u64, READ_BYTES);
                    fs.close(fd)?;
                    data
                });
                let t1 = Instant::now();
                out.samples.key(w, t0, t1);
                match res {
                    Ok(mut d) => {
                        out.gate.op(true, String::new);
                        let want = &t.contents[i][off..off + READ_BYTES];
                        out.gate
                            .bytes(&mut d, |g| g == want, || format!("{}@{off}", t.paths[i]));
                    }
                    Err(e) => out.gate.op(false, || format!("read {}: {e}", t.paths[i])),
                }
                t1
            } else if r < 90 {
                let st = fs.stat(&t.paths[i]);
                let t1 = Instant::now();
                out.gate
                    .op(matches!(&st, Ok(s) if s.size == FILE_BYTES as u64), || {
                        format!("stat {}: {st:?}", t.paths[i])
                    });
                t1
            } else {
                let d = &t.dirs[i / PER_DIR];
                let ents = fs.readdir(d);
                let t1 = Instant::now();
                let n = ents
                    .as_ref()
                    .map_or(0, |e| e.iter().filter(|e| e.name.starts_with('f')).count());
                out.gate.op(n == PER_DIR, || {
                    format!("readdir {d}: {n} files, {:?}", ents.err())
                });
                t1
            };
            if !out.samples.op(w, t0, t1) {
                break;
            }
        }
    });
    p.setup_s = setup_s;
    p
}
