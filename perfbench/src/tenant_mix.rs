//! `tenant_mix`: an in-process `Server` on 127.0.0.1 with 2 workers,
//! driven by 2 connections × 8 logical clients over 2 volumes whose
//! working sets are 2.5× their page caches. Clients pick files by
//! Zipf 0.99 and run 4 KiB reads and writes at random block offsets
//! with some fsync, stat and readdir. The only workload that crosses
//! the socket, the wire codec and the worker pool.

use crate::common::{
    maybe_traced, mkfs_params, on_threads, quantile, Gate, Mounted, PassCfg, Rng, Samples, Window,
    Zipf,
};
use crate::pass::{measure, timed_setup, Env, Pass, ThreadOut};
use crate::trace::{self, CLIENT_CALL, VOLUME_APPLY};
use rae::RaeConfig;
use rae_blockdev::{MemDisk, BLOCK_SIZE};
use rae_server::{
    wire, Client, Request, Response, Server, ServerConfig, VolumeManager, VolumeSpec,
};
use rae_vfs::{Fd, FileSystem, OpenFlags};
use std::sync::Arc;
use std::time::Instant;

const CONNS: usize = 2;
const LOGICAL: usize = 8;
const VOLUMES: usize = 2;
const FILES: usize = 320;
const BLOCKS_PER_FILE: usize = 16;
const FILE_BYTES: usize = BLOCKS_PER_FILE * BLOCK_SIZE;
const VOL_BLOCKS: u64 = 12288;
const ZIPF_EXPONENT: f64 = 0.99;
/// Requests kept from the traced socket pass for the server replay.
const RECORD_CAP: usize = 20_000;

fn path(file: usize) -> String {
    format!("/data/f{file:03}")
}

/// A self-describing block: a header naming the block and the write
/// that produced it (writer 0 is the populate step), then a pattern
/// derived from the header. Any mix-up or torn write shows.
fn block(seed: u64, vol: usize, file: usize, blk: usize, writer: u32, seq: u32) -> Vec<u8> {
    let mut out = Vec::with_capacity(BLOCK_SIZE);
    out.extend_from_slice(&(vol as u16).to_le_bytes());
    out.extend_from_slice(&(file as u16).to_le_bytes());
    out.extend_from_slice(&(blk as u16).to_le_bytes());
    out.extend_from_slice(&(writer as u16).to_le_bytes());
    out.extend_from_slice(&seq.to_le_bytes());
    let mut r = Rng::new(
        seed ^ u64::from_le_bytes(out[..8].try_into().expect("8 bytes")) ^ u64::from(seq) << 32,
    );
    while out.len() < BLOCK_SIZE {
        out.extend_from_slice(&r.next().to_le_bytes());
    }
    out.truncate(BLOCK_SIZE);
    out
}

/// Whether `data` is a block some write of (vol, file, blk) produced.
fn valid_block(seed: u64, vol: usize, file: usize, blk: usize, data: &[u8]) -> bool {
    if data.len() != BLOCK_SIZE {
        return false;
    }
    let h = |i: usize| u16::from_le_bytes([data[i], data[i + 1]]) as usize;
    let seq = u32::from_le_bytes(data[8..12].try_into().expect("4 bytes"));
    (h(0), h(2), h(4)) == (vol, file, blk)
        && data == block(seed, vol, file, blk, h(6) as u32, seq).as_slice()
}

/// Write the working set of volume `vol` and open every file; the
/// returned descriptors are volume-wide, so every client shares them.
fn populate(fs: &dyn FileSystem, seed: u64, vol: usize) -> Vec<Fd> {
    fs.mkdir("/data").expect("mkdir");
    let mut fds = Vec::with_capacity(FILES);
    for f in 0..FILES {
        let fd = fs
            .open(&path(f), OpenFlags::RDWR | OpenFlags::CREATE)
            .expect("create");
        let data: Vec<u8> = (0..BLOCKS_PER_FILE)
            .flat_map(|b| block(seed, vol, f, b, 0, 0))
            .collect();
        fs.write(fd, 0, &data).expect("populate");
        fds.push(fd);
    }
    fs.sync().expect("sync");
    fds
}

/// Where a generator's requests go: over a connection, or straight
/// into a filesystem.
trait Target {
    fn call(&mut self, vol: usize, op: wire::FsOp) -> Result<wire::Reply, String>;
}

struct Wire<'a> {
    client: Client,
    ids: &'a [u32],
    /// Requests issued, including the one that completed after the
    /// window closed.
    calls: u64,
    /// Requests kept for the server replay (traced passes).
    record: Option<Vec<(usize, wire::FsOp)>>,
}

impl Target for Wire<'_> {
    fn call(&mut self, vol: usize, op: wire::FsOp) -> Result<wire::Reply, String> {
        let req = Request::Fs {
            volume: self.ids[vol],
            op,
        };
        self.calls += 1;
        let resp = if let Some(rec) = &mut self.record {
            let (resp, _) = trace::timed(CLIENT_CALL, || self.client.call(&req));
            if rec.len() < RECORD_CAP {
                let Request::Fs { op, .. } = req else {
                    unreachable!()
                };
                rec.push((vol, op));
            }
            resp
        } else {
            self.client.call(&req)
        };
        match resp {
            Ok(Response::Ok(reply)) => Ok(reply),
            Ok(other) => Err(format!("{other:?}")),
            Err(e) => Err(e.to_string()),
        }
    }
}

/// In-process target: the same stream folded onto one mounted volume.
struct Local<'a>(&'a dyn FileSystem);

impl Target for Local<'_> {
    fn call(&mut self, _vol: usize, op: wire::FsOp) -> Result<wire::Reply, String> {
        use wire::{FsOp, Reply};
        let fs = self.0;
        let r = match op {
            FsOp::Read { fd, offset, len } => fs.read(fd, offset, len as usize).map(Reply::Data),
            FsOp::Write { fd, offset, data } => fs
                .write(fd, offset, &data)
                .map(|n| Reply::Written(n as u32)),
            FsOp::Fsync { fd } => fs.fsync(fd).map(|()| Reply::Unit),
            FsOp::Stat { path } => fs.stat(&path).map(Reply::Stat),
            FsOp::Readdir { path } => fs.readdir(&path).map(Reply::Entries),
            other => return Err(format!("not generated: {other:?}")),
        };
        r.map_err(|e| e.to_string())
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Read,
    Write,
    Fsync,
    Stat,
    Readdir,
}

/// One connection's closed loop over the volumes whose descriptors are
/// in `fds`: its logical clients take turns, each with its own
/// generator and write sequence.
fn generate(
    seed: u64,
    conn: usize,
    fds: &[Vec<Fd>],
    target: &mut dyn Target,
    w: &Window,
    out: &mut ThreadOut,
) {
    let ThreadOut {
        samples,
        gate,
        user_bytes,
    } = out;
    let zipf = Zipf::new(FILES, ZIPF_EXPONENT);
    let mut clients: Vec<(Rng, u32)> = (0..LOGICAL)
        .map(|c| (Rng::stream(seed, (conn * LOGICAL + c) as u64), 0))
        .collect();
    'run: loop {
        for (c, (rng, seq)) in clients.iter_mut().enumerate() {
            let writer = (conn * LOGICAL + c + 1) as u32;
            let vol = rng.below(VOLUMES) % fds.len();
            let file = zipf.sample(rng);
            let blk = rng.below(BLOCKS_PER_FILE);
            let fd = fds[vol][file];
            let offset = (blk * BLOCK_SIZE) as u64;
            let class = match rng.pct() {
                0..=64 => Class::Read,
                65..=89 => Class::Write,
                90..=91 => Class::Fsync,
                92..=96 => Class::Stat,
                _ => Class::Readdir,
            };
            let op = match class {
                Class::Read => wire::FsOp::Read {
                    fd,
                    offset,
                    len: BLOCK_SIZE as u32,
                },
                Class::Write => {
                    *seq += 1;
                    *user_bytes += BLOCK_SIZE as u64;
                    wire::FsOp::Write {
                        fd,
                        offset,
                        data: block(seed, vol, file, blk, writer, *seq),
                    }
                }
                Class::Fsync => wire::FsOp::Fsync { fd },
                Class::Stat => wire::FsOp::Stat { path: path(file) },
                Class::Readdir => wire::FsOp::Readdir {
                    path: "/data".into(),
                },
            };
            let t0 = Instant::now();
            let res = target.call(vol, op);
            let t1 = Instant::now();
            let what = || format!("{class:?} on vol {vol} {}@{offset}", path(file));
            match res {
                Err(e) => gate.op(false, || format!("{}: {e}", what())),
                Ok(wire::Reply::Data(mut d)) if class == Class::Read => {
                    samples.key(w, t0, t1);
                    gate.op(true, String::new);
                    gate.bytes(&mut d, |g| valid_block(seed, vol, file, blk, g), what);
                }
                Ok(reply) => {
                    let ok = match (class, &reply) {
                        (Class::Write, wire::Reply::Written(n)) => *n as usize == BLOCK_SIZE,
                        (Class::Fsync, wire::Reply::Unit) => true,
                        (Class::Stat, wire::Reply::Stat(s)) => s.size == FILE_BYTES as u64,
                        (Class::Readdir, wire::Reply::Entries(e)) => {
                            e.iter().filter(|e| e.name.starts_with('f')).count() == FILES
                        }
                        _ => false,
                    };
                    gate.op(ok, || format!("{}: wrong reply {reply:?}", what()));
                }
            }
            if !samples.op(w, t0, t1) {
                break 'run;
            }
        }
    }
}

pub struct Served {
    server: Server,
    fds: Vec<Vec<Fd>>,
}

fn volume_spec(v: usize) -> VolumeSpec {
    let p = mkfs_params(VOL_BLOCKS);
    VolumeSpec {
        name: format!("tenant{v}"),
        blocks: p.total_blocks as u32,
        inodes: p.inode_count,
        journal: p.journal_blocks as u32,
        ..VolumeSpec::default()
    }
}

/// Create and populate both volumes in a fresh manager.
fn volumes(seed: u64) -> (Arc<VolumeManager>, Vec<u32>, Vec<Vec<Fd>>) {
    let manager = Arc::new(VolumeManager::new());
    let mut ids = Vec::new();
    let mut fds = Vec::new();
    for v in 0..VOLUMES {
        let id = manager.create(&volume_spec(v)).expect("create volume");
        fds.push(populate(manager.get(id).expect("volume").fs(), seed, v));
        ids.push(id);
    }
    (manager, ids, fds)
}

fn serve(seed: u64) -> (Served, Vec<u32>) {
    let (manager, ids, fds) = volumes(seed);
    let server = Server::bind(
        "127.0.0.1:0",
        manager,
        &ServerConfig {
            workers: 2,
            queue: 16,
        },
    )
    .expect("bind");
    (Served { server, fds }, ids)
}

/// Close the shared descriptors and shut the server down.
fn teardown(s: Served, ids: &[u32]) -> Result<rae_server::ShutdownReport, String> {
    for (id, fds) in ids.iter().zip(&s.fds) {
        let vol = s.server.manager().get(*id).expect("volume");
        for fd in fds {
            vol.fs().close(*fd).map_err(|e| e.to_string())?;
        }
    }
    s.server.shutdown().map_err(|e| e.to_string())
}

/// The socket pass: the timed run, or the traced socket pass that also
/// records the request stream. Returns the pass, the recorded stream,
/// and the requests the server served per request the clients issued.
fn socket_pass(cfg: &PassCfg) -> (Pass, Vec<(usize, wire::FsOp)>, f64) {
    let ((served, ids), setup_s) = timed_setup(|| serve(cfg.seed));
    let addr = served.server.local_addr();
    let served_before = served.server.requests_served();
    let window = Window::open(cfg.secs);
    let outs = on_threads(CONNS, |conn| {
        let mut out = ThreadOut {
            samples: Samples::default(),
            gate: Gate::armed(cfg.corrupt && conn == 0),
            user_bytes: 0,
        };
        let client = match Client::connect(addr) {
            Ok(c) => c,
            Err(e) => {
                out.gate.op(false, || format!("connect: {e}"));
                return (out, Vec::new(), 0);
            }
        };
        let mut target = Wire {
            client,
            ids: &ids,
            calls: 0,
            record: cfg.traced.then(Vec::new),
        };
        generate(cfg.seed, conn, &served.fds, &mut target, &window, &mut out);
        (out, target.record.unwrap_or_default(), target.calls)
    });
    let requests = served.server.requests_served() - served_before;
    let mut samples = Samples::default();
    let mut gate = Gate::default();
    let mut stream = Vec::new();
    let mut calls = 0;
    for (out, r, c) in outs {
        samples.merge(out.samples);
        gate.merge(out.gate);
        stream.extend(r);
        calls += c;
    }
    let report = teardown(served, &ids);
    gate.op(matches!(&report, Ok(r) if r.all_clean), || {
        format!("shutdown not clean: {report:?}")
    });
    let pass = Pass {
        setup_s,
        samples,
        secs: window.secs(),
        gate,
        class_ns: std::array::from_fn(|_| Vec::new()),
        layer: Vec::new(),
    };
    (pass, stream, requests as f64 / calls.max(1) as f64)
}

pub fn pass(cfg: &PassCfg) -> Pass {
    socket_pass(cfg).0
}

/// The in-process pass over one volume's stack (bare or RAE) on a
/// traced device, for the core, basefs and blockdev layers.
pub fn local_pass(cfg: &PassCfg) -> Pass {
    let mem = Arc::new(MemDisk::new(VOL_BLOCKS));
    rae_fsformat::mkfs(mem.as_ref(), mkfs_params(VOL_BLOCKS)).expect("mkfs");
    let (dev, disk) = maybe_traced(mem, cfg.traced);
    let m = Mounted::mount(dev, cfg.stack, RaeConfig::default());
    let fds = vec![populate(m.fs(), cfg.seed, 0)];
    let env = Env {
        m,
        disk,
        state: fds,
    };
    measure(cfg, &env, CONNS, |conn, fs, w, env, out| {
        generate(cfg.seed, conn, &env.state, &mut Local(fs), w, out);
    })
}

/// The server layers of the traced run: the socket pass's request
/// stream replayed into `Volume::apply` on identically populated
/// volumes, and the wire codec timed on the same stream.
pub fn server_layers(cfg: &PassCfg) -> (Pass, Vec<(&'static str, f64)>) {
    let (pass, stream, requests_per_op) = socket_pass(cfg);
    let (manager, ids, _fds) = volumes(cfg.seed);
    let vols: Vec<_> = ids
        .iter()
        .map(|id| manager.get(*id).expect("volume"))
        .collect();
    let mut apply_ns = Vec::with_capacity(stream.len());
    let mut responses = Vec::with_capacity(stream.len());
    for (vol, op) in &stream {
        let (reply, d) = trace::timed(VOLUME_APPLY, || vols[*vol].apply(op));
        apply_ns.push(d.as_nanos() as u32);
        responses.push(match reply {
            Ok(r) => Response::Ok(r),
            Err(e) => Response::Err(e),
        });
    }
    let (mut enc, mut dec) = (Vec::new(), Vec::new());
    for ((vol, op), resp) in stream.into_iter().zip(&responses) {
        let req = Request::Fs {
            volume: ids[vol],
            op,
        };
        let t0 = Instant::now();
        let (qb, rb) = (req.encode(), resp.encode());
        let t1 = Instant::now();
        let ok = Request::decode(&qb).ok() == Some(req)
            && Response::decode(&rb).ok().as_ref() == Some(resp);
        let t2 = Instant::now();
        assert!(ok, "wire round trip changed a message");
        enc.push((t1 - t0).as_nanos() as u32);
        dec.push((t2 - t1).as_nanos() as u32);
    }
    drop(vols);
    let _ = manager.unmount_all();
    let mut rtt = pass.samples.op.clone();
    let apply = quantile(&mut apply_ns, 0.5);
    let layers = vec![
        ("server.apply_ns", apply),
        ("server.transport_ns", quantile(&mut rtt, 0.5) - apply),
        ("server.encode_ns", quantile(&mut enc, 0.5)),
        ("server.decode_ns", quantile(&mut dec, 0.5)),
        ("server.requests_per_op", requests_per_op),
    ];
    (pass, layers)
}
