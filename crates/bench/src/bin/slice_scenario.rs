//! Sliced range-query execution vs monolithic pulls under loss.
//!
//! `slice_scenario [hours]` — the full experiment (default 6 h query
//! phase over a 24 h warmup, 8 sensors, 16 users sharing staggered hot
//! windows, 30% downlink loss). `slice_scenario --quick` runs the
//! small fixed-seed CI smoke (2 h / 8 h warmup, 4 sensors, 8 users,
//! same loss) and exits non-zero if the slice cache fails to absorb
//! shared reads (hit rate must beat the monolithic arm's reply cache),
//! answered throughput drops below the monolithic arm, any answer is
//! stale-confident, or anything leaks.

use presto_bench::experiments::render_json;
use presto_bench::report::{
    exit_on_failures, metric_lines, render_summary, write_bench_json, BenchJson,
};
use presto_bench::slice_scenario::{slice_scenario, SliceScenarioConfig};

// Counting allocator: the profiler's per-phase `profiler.*.allocs` rows
// in the BENCH artifact count real allocations.
presto_bench::install_counting_alloc!();

fn main() {
    let arg = std::env::args().nth(1);
    let quick = arg.as_deref() == Some("--quick");
    let cfg = if quick {
        SliceScenarioConfig::quick()
    } else {
        SliceScenarioConfig {
            query_hours: arg.and_then(|a| a.parse().ok()).unwrap_or(6),
            ..SliceScenarioConfig::default()
        }
    };
    let r = slice_scenario(&cfg);
    print!(
        "{}",
        render_json(
            &format!(
                "sliced execution — {} h × {} users over {} sensors, {:.0}% downlink loss",
                cfg.query_hours,
                cfg.users,
                cfg.sensors,
                cfg.loss * 100.0
            ),
            &r
        )
    );
    let bench = BenchJson {
        scenario: "slice".into(),
        throughput_ratio: r.throughput_ratio,
        arms: vec![
            r.sliced.summarize("sliced"),
            r.monolithic.summarize("monolithic"),
        ],
        metrics: metric_lines(&r.sliced.metrics),
        timeline: r.sliced.timeline.clone(),
        incidents: r.sliced.incidents.clone(),
    };
    print!("{}", render_summary(&bench));
    let mut failures = Vec::new();
    if let Err(e) = write_bench_json("BENCH_slice.json", &bench) {
        failures.push(format!("could not write BENCH_slice.json: {e}"));
    }
    for (label, arm) in [("sliced", &r.sliced), ("monolithic", &r.monolithic)] {
        if arm.completed != arm.submitted {
            failures.push(format!(
                "({label}) {} of {} queries never terminated",
                arm.submitted - arm.completed,
                arm.submitted
            ));
        }
        if arm.stale_confident > 0 {
            failures.push(format!(
                "({label}) {} stale-confident answers",
                arm.stale_confident
            ));
        }
        if arm.answer_age_missing > 0 {
            failures.push(format!(
                "({label}) {} Ok answers missing the age stamp",
                arm.answer_age_missing
            ));
        }
        if arm.trace_bad > 0 || arm.trace_orphans > 0 {
            failures.push(format!(
                "({label}) malformed traces: {} bad, {} orphans",
                arm.trace_bad, arm.trace_orphans
            ));
        }
        if arm.leaked_pending > 0 || arm.leaked_rpcs > 0 {
            failures.push(format!(
                "({label}) leaked entries: {} pending queries, {} pending RPCs",
                arm.leaked_pending, arm.leaked_rpcs
            ));
        }
        if !arm.incidents.is_empty() || arm.incidents_unattributed > 0 {
            failures.push(format!(
                "({label}) clean run logged {} watchdog incidents ({} unattributed)",
                arm.incidents.len(),
                arm.incidents_unattributed
            ));
        }
    }
    if r.sliced.timeline.is_empty() || r.sliced.timeline.iter().any(|s| s.points.is_empty()) {
        failures.push("presto-scope exported an empty timeline or series".into());
    }
    if r.sliced.sliced == 0 {
        failures.push("no query took the sliced path".into());
    }
    if r.sliced.cache_hit_rate <= 0.0 {
        failures.push("slice cache never hit".into());
    }
    if r.hit_rate_gain <= 0.0 {
        failures.push(format!(
            "slice hit rate {:.3} did not beat the monolithic reply cache {:.3}",
            r.sliced.cache_hit_rate, r.monolithic.cache_hit_rate
        ));
    }
    if r.throughput_ratio < 1.0 {
        failures.push(format!(
            "sliced throughput {:.1} q/h fell below monolithic {:.1} q/h",
            r.sliced.throughput_qph, r.monolithic.throughput_qph
        ));
    }
    let mode = if quick { "smoke" } else { "run" };
    exit_on_failures(&format!("slice {mode}"), &failures);
    eprintln!(
        "slice {} OK — {} queries, hit rate {:.3} vs {:.3}, throughput ratio {:.2}×",
        mode,
        r.sliced.submitted,
        r.sliced.cache_hit_rate,
        r.monolithic.cache_hit_rate,
        r.throughput_ratio
    );
}
