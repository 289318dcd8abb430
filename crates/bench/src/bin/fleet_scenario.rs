//! Cross-proxy fleet under Zipf-skewed load: shedding on vs off.
//!
//! `fleet_scenario [hours]` — the full experiment (default 4 h query
//! phase over a 12 h warmup, 4 proxies × 3 sensors, Zipf 1.6 skew,
//! 30% downlink loss, a permanent proxy crash one hour in).
//! `fleet_scenario --quick` runs the small fixed-seed CI smoke
//! (2 h query phase / 16 h warmup, 3 proxies × 2 sensors, 28 users at
//! 100 q/h) and exits non-zero
//! unless, under one-hot-proxy skew: shedding-on beats shedding-off on
//! answered-query throughput AND p99 terminal latency, per-proxy
//! completion fairness improves, zero stale-confident answers appear
//! in either arm, and every leak probe reads zero after the proxy
//! crash + re-home cycle.
//! `fleet_scenario --determinism` runs the quick arm twice with the
//! same seed and exits non-zero unless the full telemetry snapshot and
//! the completion set are byte-identical across the two runs.

use presto_bench::experiments::render_json;
use presto_bench::fleet::{determinism_fingerprint, fleet_scenario, FleetScenarioConfig};
use presto_bench::report::{
    exit_on_failures, metric_lines, render_summary, write_bench_json, BenchJson, MetricLine,
};

// Counting allocator: BENCH_fleet.json carries allocations/epoch and the
// peak-RSS proxy. The counters are process-cumulative, so the rows are
// appended here (deltas around the scenario call), never folded into the
// telemetry snapshot the determinism audit compares.
presto_bench::install_counting_alloc!();

fn main() {
    let arg = std::env::args().nth(1);
    if arg.as_deref() == Some("--determinism") {
        determinism_audit();
        return;
    }
    let quick = arg.as_deref() == Some("--quick");
    let cfg = if quick {
        FleetScenarioConfig::quick()
    } else {
        FleetScenarioConfig {
            query_hours: arg.and_then(|a| a.parse().ok()).unwrap_or(4),
            ..FleetScenarioConfig::default()
        }
    };
    let allocs_before = presto_telemetry::alloc::allocation_count();
    let r = fleet_scenario(&cfg);
    let allocs_total = presto_telemetry::alloc::allocation_count() - allocs_before;
    let peak_bytes = presto_telemetry::alloc::peak_bytes();
    print!(
        "{}",
        render_json(
            &format!(
                "fleet scenario — {} proxies × {} sensors, Zipf {:.1}, {} users, {:.0}% loss",
                cfg.proxies,
                cfg.sensors_per_proxy,
                cfg.zipf_s,
                cfg.users,
                cfg.loss * 100.0
            ),
            &r
        )
    );
    // The shared benchmark artifact: stable grep lines on stdout plus
    // the machine-readable BENCH_fleet.json next to the run.
    let mut bench = BenchJson {
        scenario: "fleet".into(),
        throughput_ratio: r.throughput_ratio,
        arms: vec![
            r.shed_on.summarize("shed-on"),
            r.shed_off.summarize("shed-off"),
        ],
        metrics: metric_lines(&r.shed_on.metrics),
        timeline: r.shed_on.timeline.clone(),
        incidents: r.shed_on.incidents.clone(),
    };
    // Allocation-pressure rows (host-dependent, so bench-diff leaves
    // the `alloc.` prefix ungated; CI only asserts they are non-zero).
    let epochs = r
        .shed_on
        .metrics
        .iter()
        .find(|(k, _)| k == "profiler.epochs")
        .map_or(0.0, |(_, v)| *v);
    let allocs_per_epoch = if epochs > 0.0 {
        allocs_total as f64 / epochs
    } else {
        0.0
    };
    for (key, value) in [
        ("alloc.allocations_total", allocs_total as f64),
        ("alloc.allocations_per_epoch", allocs_per_epoch),
        ("alloc.peak_bytes", peak_bytes as f64),
    ] {
        bench.metrics.push(MetricLine {
            key: key.into(),
            value,
        });
    }
    print!("{}", render_summary(&bench));
    let mut failures = Vec::new();
    if let Err(e) = write_bench_json("BENCH_fleet.json", &bench) {
        failures.push(format!("could not write BENCH_fleet.json: {e}"));
    }
    for (label, arm) in [("shed-on", &r.shed_on), ("shed-off", &r.shed_off)] {
        if arm.trace_terminals != arm.submitted || arm.trace_bad > 0 || arm.trace_orphans > 0 {
            failures.push(format!(
                "{label}: trace audit failed ({} terminals for {} submitted, {} malformed, {} orphans)",
                arm.trace_terminals, arm.submitted, arm.trace_bad, arm.trace_orphans
            ));
        }
        if arm.answer_age_missing > 0 {
            failures.push(format!(
                "{label}: {} real answers missing answer_age",
                arm.answer_age_missing
            ));
        }
        if arm.completed != arm.submitted {
            failures.push(format!(
                "{label}: {} of {} queries never terminated",
                arm.submitted - arm.completed,
                arm.submitted
            ));
        }
        if arm.stale_confident > 0 {
            failures.push(format!(
                "{label}: {} stale-confident answers",
                arm.stale_confident
            ));
        }
        let leaks =
            arm.leaked_router + arm.leaked_pipeline + arm.leaked_rpcs + arm.leaked_mesh;
        if leaks > 0 {
            failures.push(format!(
                "{label}: leaked entries after drain (router {}, pipeline {}, rpcs {}, mesh {})",
                arm.leaked_router, arm.leaked_pipeline, arm.leaked_rpcs, arm.leaked_mesh
            ));
        }
        if cfg.crash_hours.is_some() && arm.rehomed < cfg.sensors_per_proxy as u64 {
            failures.push(format!(
                "{label}: proxy crash re-homed only {} sensors",
                arm.rehomed
            ));
        }
        if arm.incidents_unattributed > 0 {
            failures.push(format!(
                "{label}: {} watchdog incidents outside any fault window",
                arm.incidents_unattributed
            ));
        }
    }
    if r.shed_on.timeline.is_empty() || r.shed_on.timeline.iter().any(|s| s.points.is_empty()) {
        failures.push("presto-scope exported an empty timeline or series".into());
    }
    if allocs_per_epoch <= 0.0 || peak_bytes == 0 {
        failures.push("counting allocator reported zero activity".into());
    }
    if r.shed_on.shed.unwrap_or(0) == 0 {
        failures.push("shedding never fired under skew".into());
    }
    if r.shed_on.forwarded_ok == 0 {
        failures.push("no shed query completed with a real answer".into());
    }
    if r.throughput_gain <= 1.0 {
        failures.push(format!(
            "shedding did not raise answered throughput: {:.1} vs {:.1} q/h",
            r.shed_on.throughput_qph, r.shed_off.throughput_qph
        ));
    }
    if r.p99_gain <= 1.0 {
        failures.push(format!(
            "shedding did not cut p99: {:.1} s vs {:.1} s",
            r.shed_on.p99_s, r.shed_off.p99_s
        ));
    }
    if r.shed_on.fairness <= r.shed_off.fairness {
        failures.push(format!(
            "shedding did not improve per-proxy fairness: {:.3} vs {:.3}",
            r.shed_on.fairness, r.shed_off.fairness
        ));
    }
    let mode = if quick { "smoke" } else { "run" };
    exit_on_failures(&format!("fleet-scenario {mode}"), &failures);
    eprintln!(
        "fleet-scenario {} OK — {} queries, shed {}, {:.1} vs {:.1} q/h ({:.2}×), \
         p99 {:.0} s vs {:.0} s, fairness {:.2} vs {:.2}, {} re-homed",
        mode,
        r.shed_on.submitted,
        r.shed_on.shed.unwrap_or(0),
        r.shed_on.throughput_qph,
        r.shed_off.throughput_qph,
        r.throughput_gain,
        r.shed_on.p99_s,
        r.shed_off.p99_s,
        r.shed_on.fairness,
        r.shed_off.fairness,
        r.shed_on.rehomed
    );
}

/// Same-seed double run of the quick shedding arm: the telemetry
/// snapshot and completion set must match byte for byte.
fn determinism_audit() {
    let cfg = FleetScenarioConfig::quick();
    let a = determinism_fingerprint(&cfg, true);
    let b = determinism_fingerprint(&cfg, true);
    let snap_ok = a.snapshot == b.snapshot;
    let comp_ok = a.completions == b.completions;
    println!(
        "determinism audit: snapshot {} bytes ({}), completions {} lines ({})",
        a.snapshot.len(),
        if snap_ok { "identical" } else { "DIVERGED" },
        a.completions.lines().count(),
        if comp_ok { "identical" } else { "DIVERGED" },
    );
    if !snap_ok {
        for (la, lb) in a.snapshot.lines().zip(b.snapshot.lines()) {
            if la != lb {
                eprintln!("snapshot diff:\n  run1: {la}\n  run2: {lb}");
            }
        }
    }
    if !comp_ok {
        let diverged = a
            .completions
            .lines()
            .zip(b.completions.lines())
            .enumerate()
            .find(|(_, (la, lb))| la != lb);
        if let Some((i, (la, lb))) = diverged {
            eprintln!("completion diff at line {i}:\n  run1: {la}\n  run2: {lb}");
        } else {
            eprintln!(
                "completion count diff: {} vs {} lines",
                a.completions.lines().count(),
                b.completions.lines().count()
            );
        }
    }
    if !(snap_ok && comp_ok) {
        eprintln!("fleet determinism audit FAILED");
        std::process::exit(1);
    }
    println!("fleet determinism audit passed");
}
