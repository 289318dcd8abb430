//! Split-brain partition over the fleet mesh: honesty under a
//! healed network cut.
//!
//! `partition_scenario [hours]` — the full experiment (default 2 h
//! query phase over a 16 h warmup, 3 proxies × 2 sensors, 30% downlink
//! loss, the last proxy cut from the mesh 30 min in for 40 min, then
//! healed). `partition_scenario --quick` runs the same fixed-seed
//! configuration as the CI smoke and exits non-zero unless, across the
//! cut + heal cycle: no sensor's home uplink is ever driven by two
//! proxies in one epoch, zero stale-confident answers appear, every
//! real answer carries an explicit serve-time age, the minority proxy
//! fences and is later re-admitted through a quorum-confirmed rebirth,
//! the partitioned arm keeps at least half the no-partition arm's
//! answered throughput, and every leak probe reads zero after drain.

use presto_bench::experiments::render_json;
use presto_bench::partition::{partition_scenario, PartitionScenarioConfig};
use presto_bench::report::{
    exit_on_failures, metric_lines, render_summary, write_bench_json, BenchJson,
};

// Counting allocator: the profiler's per-phase `profiler.*.allocs` rows
// in the BENCH artifact count real allocations.
presto_bench::install_counting_alloc!();

fn main() {
    let arg = std::env::args().nth(1);
    let quick = arg.as_deref() == Some("--quick");
    let cfg = if quick {
        PartitionScenarioConfig::quick()
    } else {
        PartitionScenarioConfig {
            query_hours: arg.and_then(|a| a.parse().ok()).unwrap_or(2),
            ..PartitionScenarioConfig::default()
        }
    };
    let r = partition_scenario(&cfg);
    print!(
        "{}",
        render_json(
            &format!(
                "partition scenario — {} proxies × {} sensors, {:.0}% loss, \
                 proxy {} cut {}–{} min into the phase",
                cfg.proxies,
                cfg.sensors_per_proxy,
                cfg.loss * 100.0,
                r.minority,
                cfg.cut_minutes.0,
                cfg.cut_minutes.0 + cfg.cut_minutes.1
            ),
            &r
        )
    );
    let bench = BenchJson {
        scenario: "partition".into(),
        throughput_ratio: r.throughput_ratio,
        arms: vec![
            r.with_partition.summarize("with-partition"),
            r.without_partition.summarize("no-partition"),
        ],
        metrics: metric_lines(&r.with_partition.metrics),
        timeline: r.with_partition.timeline.clone(),
        incidents: r.with_partition.incidents.clone(),
    };
    print!("{}", render_summary(&bench));
    let mut failures = Vec::new();
    if let Err(e) = write_bench_json("BENCH_partition.json", &bench) {
        failures.push(format!("could not write BENCH_partition.json: {e}"));
    }
    for (label, arm) in [
        ("with-partition", &r.with_partition),
        ("no-partition", &r.without_partition),
    ] {
        if arm.trace_terminals != arm.submitted || arm.trace_bad > 0 || arm.trace_orphans > 0 {
            failures.push(format!(
                "{label}: trace audit failed ({} terminals for {} submitted, {} malformed, {} orphans)",
                arm.trace_terminals, arm.submitted, arm.trace_bad, arm.trace_orphans
            ));
        }
        if arm.recorder_chains_bad > 0 {
            failures.push(format!(
                "{label}: flight recorder lost or malformed {} failed-query cause chains",
                arm.recorder_chains_bad
            ));
        }
        if arm.completed != arm.submitted {
            failures.push(format!(
                "{label}: {} of {} queries never terminated",
                arm.submitted - arm.completed,
                arm.submitted
            ));
        }
        if arm.double_served_epochs > 0 {
            failures.push(format!(
                "{label}: {} epochs with a double-served or mis-owned uplink",
                arm.double_served_epochs
            ));
        }
        if arm.stale_confident > 0 {
            failures.push(format!(
                "{label}: {} stale-confident answers",
                arm.stale_confident
            ));
        }
        if arm.answer_age_missing > 0 {
            failures.push(format!(
                "{label}: {} real answers missing answer_age",
                arm.answer_age_missing
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
    }
    let w = &r.with_partition;
    if w.fenced_epochs == 0 {
        failures.push("minority proxy never fenced during the cut".into());
    }
    if w.deaths_declared != 1 {
        failures.push(format!(
            "expected exactly one quorum death declaration, saw {}",
            w.deaths_declared
        ));
    }
    if w.rejoins != 1 {
        failures.push(format!(
            "heal did not re-admit the minority (rejoins {})",
            w.rejoins
        ));
    }
    if w.rehomed < cfg.sensors_per_proxy as u64 {
        failures.push(format!(
            "declaration re-homed only {} sensors",
            w.rehomed
        ));
    }
    if r.without_partition.fenced_epochs > 0 || r.without_partition.deaths_declared > 0 {
        failures.push("clean arm fenced or declared a proxy".into());
    }
    // presto-scope acceptance: the injected cut must surface as at
    // least one incident blaming the mesh partition, nothing may fire
    // outside a fault window, and the clean arm must stay silent.
    if w.incidents_mesh_attributed == 0 {
        failures.push(format!(
            "no watchdog incident attributed to the mesh cut ({} incidents total)",
            w.incidents.len()
        ));
    }
    for (label, arm) in [
        ("with-partition", &r.with_partition),
        ("no-partition", &r.without_partition),
    ] {
        if arm.incidents_unattributed > 0 {
            failures.push(format!(
                "{label}: {} watchdog incidents outside any fault window",
                arm.incidents_unattributed
            ));
        }
    }
    if !r.without_partition.incidents.is_empty() {
        failures.push(format!(
            "clean arm logged {} watchdog incidents",
            r.without_partition.incidents.len()
        ));
    }
    if w.timeline.is_empty() || w.timeline.iter().any(|s| s.points.is_empty()) {
        failures.push("presto-scope exported an empty timeline or series".into());
    }
    if r.throughput_ratio < 0.5 {
        failures.push(format!(
            "split brain cost more than half the throughput: {:.1} vs {:.1} q/h ({:.2}×)",
            w.throughput_qph, r.without_partition.throughput_qph, r.throughput_ratio
        ));
    }
    let mode = if quick { "smoke" } else { "run" };
    exit_on_failures(&format!("partition-scenario {mode}"), &failures);
    eprintln!(
        "partition-scenario {} OK — {} queries, fenced {} epochs, {} fenced refusals, \
         {} re-homed, rejoined, {:.1} vs {:.1} q/h ({:.2}×), age p50 {:.0} s, \
         {} incidents ({} mesh-attributed)",
        mode,
        w.submitted,
        w.fenced_epochs,
        w.failed_fenced,
        w.rehomed,
        w.throughput_qph,
        r.without_partition.throughput_qph,
        r.throughput_ratio,
        w.answer_age_p50_s,
        w.incidents.len(),
        w.incidents_mesh_attributed
    );
}
