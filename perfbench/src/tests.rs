//! Self-tests of the benchmark: the metric tables agree with
//! `BENCHMARK.json`, every run emits every metric with its unit, and
//! the correctness gate catches one wrong byte on every workload.

use super::*;

/// Short runs keep the self-tests quick; correctness does not depend
/// on the window length. Each repetition of a timed run still sees
/// several faults on the recovery workloads.
const SECS: f64 = 2.0;

fn names_and_units(o: &Outcome) -> Vec<(&'static str, &'static str)> {
    o.metrics.iter().map(|m| (m.name, m.unit)).collect()
}

#[test]
fn benchmark_json_lists_every_workload_and_metric() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let compact: String = json.split_whitespace().collect::<Vec<_>>().join(" ");
    for w in WORKLOADS {
        assert!(
            compact.contains(&format!("{{\"name\": \"{w}\", \"why\":")),
            "workload {w} missing"
        );
    }
    for (n, u) in END_TO_END.iter().chain(&PER_LAYER) {
        assert!(
            compact.contains(&format!("{{\"name\": \"{n}\", \"unit\": \"{u}\"")),
            "metric {n} ({u}) missing"
        );
    }
    let listed = compact.matches("{\"name\": ").count();
    assert_eq!(
        listed,
        WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len(),
        "BENCHMARK.json lists extra names"
    );
}

#[test]
fn every_run_emits_every_metric_with_its_unit() {
    for w in WORKLOADS {
        let timed = timed_run(w, 3, SECS, false);
        assert!(timed.correct(), "{w}: {:?}", timed.failures);
        assert_eq!(names_and_units(&timed), END_TO_END.to_vec(), "{w}");
        for m in &timed.metrics {
            assert!(m.value > 0.0, "{w}: {} is {}", m.name, m.value);
        }
        let traced = traced_run(w, 3, SECS, false);
        assert!(traced.correct(), "{w} traced: {:?}", traced.failures);
        assert_eq!(names_and_units(&traced), PER_LAYER.to_vec(), "{w} traced");
        let line = result_line(&traced);
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": "),
            "{line}"
        );
    }
}

#[test]
fn gate_flags_one_wrong_byte() {
    for w in WORKLOADS {
        let o = timed_run(w, 5, SECS, true);
        assert!(!o.correct(), "{w}: a corrupted byte went unnoticed");
        assert!(
            o.failures.iter().any(|f| f.contains("wrong bytes")),
            "{w}: {:?}",
            o.failures
        );
        assert!(result_line(&o).starts_with("{\"correct\": false, "));
    }
}

fn layer(o: &Outcome, name: &str) -> f64 {
    o.metrics
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.value)
        .expect(name)
}

#[test]
fn web_read_never_reaches_the_device_after_warm_up() {
    let o = traced_run("web_read", 7, SECS, false);
    for n in [
        "blockdev.reads_per_op",
        "blockdev.writes_per_op",
        "blockdev.flushes_per_op",
    ] {
        assert_eq!(layer(&o, n), 0.0, "web_read {n}");
    }
}

#[test]
fn mail_sync_commits_at_most_once_per_fsync() {
    let o = traced_run("mail_sync", 7, SECS, false);
    assert!(layer(&o, "basefs.fsyncs_per_commit") >= 1.0);
}

#[test]
fn every_injected_fault_is_one_recovery() {
    for w in ["fault_recover_cold", "fault_recover_warm"] {
        let o = traced_run(w, 7, SECS, false);
        assert!(o.correct(), "{w}: {:?}", o.failures);
        assert!(layer(&o, "core.recoveries") >= 1.0, "{w}");
    }
}

#[test]
fn tenant_mix_sends_one_request_per_op() {
    let o = traced_run("tenant_mix", 7, SECS, false);
    assert_eq!(layer(&o, "server.requests_per_op"), 1.0);
}
