//! The repository's benchmark: five closed-loop workloads on the
//! paper's axes, driven against the public API in-process and over
//! loopback, with a traced run that splits each into per-layer metrics.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload web_read --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics` (the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`). The full
//! envelope (repetitions with median, min and max, host facts, git
//! revision, failures) and, for traced runs, the recorded spans are
//! written under `perfbench/out/`, a path fixed at build time.
//! `--corrupt` flips one byte of one checked output, to show the
//! correctness gate failing.

mod common;
mod fault_recover;
mod mail_sync;
mod pass;
mod tenant_mix;
mod trace;
mod web_read;

use common::{median, peak_rss_mib, quantile, PassCfg, Stack};
use pass::Pass;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use trace::{FS_CLASSES, FS_READ, NAMES};

pub const WORKLOADS: [&str; 5] = [
    "web_read",
    "mail_sync",
    "fault_recover_cold",
    "fault_recover_warm",
    "tenant_mix",
];

/// End-to-end metrics, emitted by every untraced run. The key operation
/// is the one each workload exists to time: open+read 4 KiB+close on
/// web_read, fsync on mail_sync, the faulting op (the recovery pause)
/// on fault_recover_*, and the 4 KiB read round trip on tenant_mix.
/// There is no whole-mix median: on a mix of µs and ms operations, such
/// as mail_sync's, it falls in the gap between them and does not repeat.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("op_p99_us", "us"),
    ("key_op_p50_us", "us"),
    ("key_op_p90_us", "us"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics, emitted by every traced run; a layer a workload
/// bypasses reads 0.
pub const PER_LAYER: [(&str, &str); 49] = [
    ("blockdev.reads_per_op", "1/op"),
    ("blockdev.writes_per_op", "1/op"),
    ("blockdev.flushes_per_op", "1/op"),
    ("blockdev.read_ns", "ns"),
    ("blockdev.write_ns", "ns"),
    ("blockdev.bytes_per_user_byte", "ratio"),
    ("basefs.read_ns", "ns"),
    ("basefs.open_ns", "ns"),
    ("basefs.close_ns", "ns"),
    ("basefs.stat_ns", "ns"),
    ("basefs.readdir_ns", "ns"),
    ("basefs.create_ns", "ns"),
    ("basefs.write_ns", "ns"),
    ("basefs.fsync_ns", "ns"),
    ("basefs.unlink_ns", "ns"),
    ("basefs.fsyncs_per_commit", "ratio"),
    ("basefs.cache_hit_ratio", "ratio"),
    ("basefs.evictions_per_kop", "1/kop"),
    ("basefs.dentry_hit_ratio", "ratio"),
    ("basefs.checkpoints_per_kop", "1/kop"),
    ("core.read_tax_ns", "ns"),
    ("core.open_tax_ns", "ns"),
    ("core.close_tax_ns", "ns"),
    ("core.stat_tax_ns", "ns"),
    ("core.create_tax_ns", "ns"),
    ("core.write_tax_ns", "ns"),
    ("core.fsync_tax_ns", "ns"),
    ("core.tax_pct", "%"),
    ("core.log_len_max", "records"),
    ("core.log_trimmed_per_op", "records/op"),
    ("core.recoveries", "count"),
    ("core.reboot_ms", "ms"),
    ("core.shadow_load_ms", "ms"),
    ("core.replay_ms", "ms"),
    ("core.handoff_ms", "ms"),
    ("core.recover_unaccounted_ms", "ms"),
    ("telemetry.tax_ns_per_op", "ns"),
    ("shadowfs.load_ms", "ms"),
    ("shadowfs.replay_us_per_record", "us"),
    ("shadowfs.checks_per_record", "1/record"),
    ("standby.catchup_ms", "ms"),
    ("standby.lag_max", "records"),
    ("standby.drained_records", "records"),
    ("server.apply_ns", "ns"),
    ("server.transport_ns", "ns"),
    ("server.encode_ns", "ns"),
    ("server.decode_ns", "ns"),
    ("server.requests_per_op", "1/op"),
    ("bench.trace_overhead_pct", "%"),
];

/// Repetitions within a timed run; each sets the workload up afresh,
/// so `setup_s` is the median of `REPS` set-ups.
const REPS: usize = 15;

/// One metric: the reported value, and its value in each repetition.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub reps: Vec<f64>,
    /// Samples behind the value (operations, set-ups, ...).
    pub samples: u64,
}

/// The result of one run.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }
}

fn unit_of(table: &[(&'static str, &'static str)], name: &str) -> &'static str {
    table
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .expect("metric in table")
}

fn run_pass(workload: &str, cfg: &PassCfg) -> Pass {
    match workload {
        "web_read" => web_read::pass(cfg),
        "mail_sync" => mail_sync::pass(cfg),
        "fault_recover_cold" => fault_recover::pass(cfg, false),
        "fault_recover_warm" => fault_recover::pass(cfg, true),
        "tenant_mix" => tenant_mix::pass(cfg),
        other => panic!("unknown workload {other}"),
    }
}

/// The untraced run: default configuration, built-in telemetry on, no
/// benchmark spans. The window is cut into `REPS` repetitions, each a
/// fresh instance of the workload (set-up, warm-up, timed window) on
/// inputs drawn from the run's seed, so a run samples several
/// independent states of the stack. `setup_s` and `ops_per_s` are
/// medians over the repetitions; the latency percentiles are taken over
/// the operations of all repetitions together, which leaves even the
/// recovery workloads' few hundred faults with tens of samples beyond
/// the key-op p90.
pub fn timed_run(workload: &str, seed: u64, secs: f64, corrupt: bool) -> Outcome {
    const LATENCIES: [(&str, bool, f64); 3] = [
        ("op_p99_us", false, 0.99),
        ("key_op_p50_us", true, 0.5),
        ("key_op_p90_us", true, 0.9),
    ];
    let (mut setup, mut rate) = (Vec::new(), Vec::new());
    let mut per_rep: Vec<Vec<f64>> = vec![Vec::new(); LATENCIES.len()];
    let mut all = common::Samples::default();
    let mut gate = common::Gate::default();
    for rep in 0..REPS {
        // each repetition draws its own inputs from the run's seed
        let seed = common::Rng::stream(seed, 0x5EED + rep as u64).next();
        let cfg = PassCfg {
            seed,
            secs: secs / REPS as f64,
            stack: Stack::Rae,
            traced: false,
            corrupt: corrupt && rep == 0,
        };
        let mut p = run_pass(workload, &cfg);
        setup.push(p.setup_s);
        rate.push(p.ops_per_s());
        for ((_, key, q), reps) in LATENCIES.iter().zip(&mut per_rep) {
            let s = if *key {
                &mut p.samples.key
            } else {
                &mut p.samples.op
            };
            reps.push(quantile(s, *q) / 1e3);
        }
        all.merge(p.samples);
        gate.merge(p.gate);
    }
    let unit = |name| unit_of(&END_TO_END, name);
    let ops = all.op.len() as u64;
    let mut metrics = vec![
        Metric {
            name: "setup_s",
            unit: unit("setup_s"),
            value: median(&setup),
            samples: REPS as u64,
            reps: setup,
        },
        Metric {
            name: "ops_per_s",
            unit: unit("ops_per_s"),
            value: median(&rate),
            samples: ops,
            reps: rate,
        },
    ];
    for ((name, key, q), reps) in LATENCIES.into_iter().zip(per_rep) {
        let s = if key { &mut all.key } else { &mut all.op };
        let value = quantile(s, q) / 1e3;
        metrics.push(Metric {
            name,
            unit: unit(name),
            value,
            samples: s.len() as u64,
            reps,
        });
    }
    let rss = peak_rss_mib();
    metrics.push(Metric {
        name: "peak_rss_mib",
        unit: unit("peak_rss_mib"),
        value: rss,
        reps: vec![rss],
        samples: 1,
    });
    Outcome {
        attempted: gate.attempted,
        failed: gate.failed,
        failures: gate.notes,
        metrics,
    }
}

fn p50(samples: &[u32]) -> f64 {
    quantile(&mut samples.to_vec(), 0.5)
}

/// The traced run: the same workload through the benchmark's layer
/// wrappers, on RAE and on a bare base, plus untraced and
/// telemetry-off reference passes and the workload's own layer probes.
pub fn traced_run(workload: &str, seed: u64, secs: f64, corrupt: bool) -> Outcome {
    let part = |frac: f64, stack, traced| PassCfg {
        seed,
        secs: secs * frac,
        stack,
        traced,
        corrupt,
    };
    let mut extra = Vec::new();
    let (untraced, rae, bare, tele_off, socket);
    if workload == "tenant_mix" {
        untraced = tenant_mix::pass(&part(0.2, Stack::Rae, false));
        let (socket_pass, server) = tenant_mix::server_layers(&part(0.2, Stack::Rae, true));
        extra.extend(server);
        rae = tenant_mix::local_pass(&part(0.3, Stack::Rae, true));
        bare = tenant_mix::local_pass(&part(0.3, Stack::Bare, true));
        tele_off = None;
        let overhead =
            100.0 * (untraced.ops_per_s() - socket_pass.ops_per_s()) / untraced.ops_per_s();
        extra.push(("bench.trace_overhead_pct", overhead));
        socket = Some(socket_pass);
    } else {
        untraced = run_pass(workload, &part(0.2, Stack::Rae, false));
        rae = run_pass(workload, &part(0.3, Stack::Rae, true));
        bare = run_pass(workload, &part(0.3, Stack::Bare, true));
        tele_off = matches!(workload, "web_read" | "mail_sync")
            .then(|| run_pass(workload, &part(0.2, Stack::RaeTelemetryOff, false)));
        if workload.starts_with("fault_recover") {
            extra.extend(fault_recover::shadow_layer(seed));
        }
        socket = None;
        let overhead = 100.0 * (untraced.ops_per_s() - rae.ops_per_s()) / untraced.ops_per_s();
        extra.push(("bench.trace_overhead_pct", overhead));
    }

    let mut values: Vec<(&'static str, f64)> = PER_LAYER.iter().map(|(n, _)| (*n, 0.0)).collect();
    let mut set = |name: &str, v: f64| {
        let slot = values
            .iter_mut()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("unknown metric {name}"));
        slot.1 = if v.is_finite() { v } else { 0.0 };
    };
    for (n, v) in &rae.layer {
        if !n.starts_with("basefs.") {
            set(n, *v);
        }
    }
    for (n, v) in &bare.layer {
        if n.starts_with("basefs.") {
            set(n, *v);
        }
    }
    for c in 0..FS_CLASSES {
        let class = NAMES[FS_READ + c].trim_start_matches("fs.");
        let (b, r) = (&bare.class_ns[c], &rae.class_ns[c]);
        if class == "other" || b.is_empty() {
            continue;
        }
        set(&format!("basefs.{class}_ns"), p50(b));
        if !r.is_empty()
            && PER_LAYER
                .iter()
                .any(|(n, _)| *n == format!("core.{class}_tax_ns"))
        {
            set(&format!("core.{class}_tax_ns"), p50(r) - p50(b));
        }
    }
    let bare_ns = bare.samples.mean_op_ns();
    set(
        "core.tax_pct",
        100.0 * (rae.samples.mean_op_ns() - bare_ns) / bare_ns,
    );
    if let Some(off) = &tele_off {
        set(
            "telemetry.tax_ns_per_op",
            untraced.samples.mean_op_ns() - off.samples.mean_op_ns(),
        );
    }
    for (n, v) in &extra {
        set(n, *v);
    }

    let mut gate = common::Gate::default();
    for p in [untraced, rae, bare]
        .into_iter()
        .chain(tele_off)
        .chain(socket)
    {
        gate.merge(p.gate);
    }
    let metrics = values
        .into_iter()
        .map(|(name, v)| Metric {
            name,
            unit: unit_of(&PER_LAYER, name),
            value: v,
            reps: vec![v],
            samples: 1,
        })
        .collect();
    Outcome {
        attempted: gate.attempted,
        failed: gate.failed,
        failures: gate.notes,
        metrics,
    }
}

/// A JSON number with all its digits (non-finite values cannot occur
/// in JSON and are written as 0).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The result line: `correct`, `attempted`, `failed` and each metric's
/// value and unit, as one JSON object.
pub fn result_line(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct(),
        o.attempted,
        o.failed,
        metrics.join(", ")
    )
}

fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// The checkout's git revision, read from `.git` without running git;
/// "unknown" outside a git checkout.
fn git_rev() -> String {
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    let Some(r) = head.strip_prefix("ref: ") else {
        return if head.is_empty() {
            "unknown".into()
        } else {
            head.into()
        };
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(r)) {
        return rev.trim().into();
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).unwrap_or_default();
    packed
        .lines()
        .find_map(|l| l.strip_suffix(r).map(|rev| rev.trim().to_string()))
        .unwrap_or_else(|| "unknown".into())
}

/// The full result with its envelope.
fn envelope(workload: &str, seed: u64, secs: f64, traced: bool, o: &Outcome) -> String {
    let cpus = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let mut s = String::from("{\n");
    let _ = writeln!(s, "  \"benchmark\": \"perfbench\",");
    let _ = writeln!(s, "  \"workload\": {},", json_str(workload));
    let _ = writeln!(s, "  \"seed\": {seed},");
    let _ = writeln!(s, "  \"seconds\": {},", num(secs));
    let _ = writeln!(s, "  \"traced\": {traced},");
    let _ = writeln!(s, "  \"git_rev\": {},", json_str(&git_rev()));
    let _ = writeln!(s, "  \"host_cpus\": {cpus},");
    let _ = writeln!(s, "  \"repetitions\": {},", if traced { 1 } else { REPS });
    let _ = writeln!(s, "  \"correct\": {},", o.correct());
    let _ = writeln!(s, "  \"attempted\": {},", o.attempted);
    let _ = writeln!(s, "  \"failed\": {},", o.failed);
    let share = o.failed as f64 / o.attempted.max(1) as f64;
    let _ = writeln!(s, "  \"error_share\": {},", num(share));
    let notes: Vec<String> = o.failures.iter().map(|f| json_str(f)).collect();
    let _ = writeln!(s, "  \"failures\": [{}],", notes.join(", "));
    s.push_str("  \"metrics\": {\n");
    let rows: Vec<String> = o
        .metrics
        .iter()
        .map(|m| {
            let lo = m.reps.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = m.reps.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let reps: Vec<String> = m.reps.iter().map(|v| num(*v)).collect();
            format!(
                "    {}: {{\"unit\": {}, \"value\": {}, \"median\": {}, \"min\": {}, \"max\": {}, \"samples\": {}, \"reps\": [{}]}}",
                json_str(m.name),
                json_str(m.unit),
                num(m.value),
                num(median(&m.reps)),
                num(lo),
                num(hi),
                m.samples,
                reps.join(", ")
            )
        })
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  }\n}\n");
    s
}

struct Args {
    workload: String,
    seed: u64,
    secs: f64,
    traced: bool,
    corrupt: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut secs, mut traced, mut corrupt) =
        (None, None, None, None, false);
    while let Some(a) = args.next() {
        let mut val = || args.next().ok_or(format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => workload = Some(val()?),
            "--seed" => seed = Some(val()?.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                secs = Some(
                    val()?
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => traced = Some(val()? == "1"),
            "--corrupt" => corrupt = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let secs = secs.unwrap_or(10.0);
    if !(secs > 0.0 && secs <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        secs,
        traced: traced.unwrap_or(false),
        corrupt,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\nusage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--corrupt]");
            std::process::exit(2);
        }
    };
    rae_server::quiet_injected_panics();
    let run = if args.traced { traced_run } else { timed_run };
    let outcome = run(&args.workload, args.seed, args.secs, args.corrupt);
    for m in &outcome.metrics {
        eprintln!("{:<32} {:>14.3} {}", m.name, m.value, m.unit);
    }
    for f in &outcome.failures {
        eprintln!("FAILED: {f}");
    }
    let dir = out_dir();
    let stem = format!(
        "{}-seed{}-{}",
        args.workload,
        args.seed,
        if args.traced { "traced" } else { "timed" }
    );
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| {
            std::fs::write(
                dir.join(format!("{stem}.json")),
                envelope(&args.workload, args.seed, args.secs, args.traced, &outcome),
            )
        })
        .and_then(|()| {
            if args.traced {
                std::fs::write(dir.join(format!("{stem}-spans.tsv")), trace::dump())
            } else {
                Ok(())
            }
        });
    if let Err(e) = written {
        eprintln!(
            "perfbench: cannot write the envelope under {}: {e}",
            dir.display()
        );
    }
    println!("{}", result_line(&outcome));
    std::process::exit(i32::from(!outcome.correct()));
}

#[cfg(test)]
mod tests;
