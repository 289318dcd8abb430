//! Query pipeline vs serialized baseline under downlink loss.
//!
//! `query_pipeline [hours]` — the full experiment (default 6 h query
//! phase over a 24 h warmup, 8 sensors, 16 users, 30% downlink loss),
//! additionally requiring ≥ 8 simultaneously in-flight pulls and
//! pipeline throughput strictly above the serialized-RPC baseline.
//! `query_pipeline --quick` runs the small fixed-seed CI smoke
//! (2 h / 6 h warmup, 4 sensors, 10 users, same 30% loss) and exits
//! non-zero if concurrency (≥ 4 in-flight), termination (p99 finite,
//! zero leaked pending entries), or the throughput win fails.

use presto_bench::experiments::render_json;
use presto_bench::query_pipeline::{query_pipeline, QueryPipelineConfig};
use presto_bench::report::{
    exit_on_failures, render_summary, write_bench_json, ArmSummary, BenchJson,
};

fn main() {
    let arg = std::env::args().nth(1);
    let quick = arg.as_deref() == Some("--quick");
    let cfg = if quick {
        QueryPipelineConfig::quick()
    } else {
        QueryPipelineConfig {
            query_hours: arg.and_then(|a| a.parse().ok()).unwrap_or(6),
            ..QueryPipelineConfig::default()
        }
    };
    let min_in_flight = if quick { 4 } else { 8 };
    let r = query_pipeline(&cfg);
    print!(
        "{}",
        render_json(
            &format!(
                "query pipeline — {} h × {} users over {} sensors, {:.0}% downlink loss",
                cfg.query_hours,
                cfg.users,
                cfg.sensors,
                cfg.loss * 100.0
            ),
            &r
        )
    );
    let bench = BenchJson {
        scenario: "query_pipeline".into(),
        throughput_ratio: r.speedup,
        arms: vec![
            ArmSummary {
                arm: "pipeline".into(),
                submitted: r.submitted,
                answered_ok: r.answered_ok,
                failed: r.failed,
                queries_per_sec: r.pipeline_throughput_qph / 3600.0,
                latency_p50_s: r.pipeline_latency.p50_s,
                latency_p90_s: r.pipeline_latency.p90_s,
                latency_p99_s: r.pipeline_latency.p99_s,
                ..ArmSummary::default()
            },
            ArmSummary {
                arm: "serialized-baseline".into(),
                submitted: r.submitted,
                answered_ok: r.baseline_ok,
                failed: r.baseline_served - r.baseline_ok,
                queries_per_sec: r.baseline_throughput_qph / 3600.0,
                latency_p50_s: r.baseline_latency.p50_s,
                latency_p90_s: r.baseline_latency.p90_s,
                latency_p99_s: r.baseline_latency.p99_s,
                ..ArmSummary::default()
            },
        ],
        metrics: Vec::new(),
        ..BenchJson::default()
    };
    print!("{}", render_summary(&bench));
    let mut failures = Vec::new();
    if let Err(e) = write_bench_json("BENCH_query_pipeline.json", &bench) {
        failures.push(format!("could not write BENCH_query_pipeline.json: {e}"));
    }
    if r.completed != r.submitted {
        failures.push(format!(
            "{} of {} queries never terminated",
            r.submitted - r.completed,
            r.submitted
        ));
    }
    if r.leaked_pending > 0 || r.leaked_rpcs > 0 {
        failures.push(format!(
            "leaked entries: {} pending queries, {} pending RPCs",
            r.leaked_pending, r.leaked_rpcs
        ));
    }
    if r.max_in_flight < min_in_flight {
        failures.push(format!(
            "peak in-flight pulls {} < required {}",
            r.max_in_flight, min_in_flight
        ));
    }
    if !r.pipeline_latency.p99_s.is_finite() || r.pipeline_latency.p99_s <= 0.0 {
        failures.push(format!(
            "p99 latency not finite/real: {}",
            r.pipeline_latency.p99_s
        ));
    }
    if r.pipeline_throughput_qph <= r.baseline_throughput_qph {
        failures.push(format!(
            "pipeline throughput {:.1} q/h did not beat serialized baseline {:.1} q/h",
            r.pipeline_throughput_qph, r.baseline_throughput_qph
        ));
    }
    let mode = if quick { "smoke" } else { "run" };
    exit_on_failures(&format!("query-pipeline {mode}"), &failures);
    eprintln!(
        "query-pipeline {} OK — {} queries, peak {} in-flight, {:.1} vs {:.1} q/h (speedup {:.2}×)",
        mode,
        r.submitted,
        r.max_in_flight,
        r.pipeline_throughput_qph,
        r.baseline_throughput_qph,
        r.speedup
    );
}
