//! `bench-diff` — trajectory regression gate over `BENCH_*.json`.
//!
//! Compares a candidate benchmark artifact against a committed baseline
//! with per-metric tolerance bands. The gated surface is the headline
//! `scenario` / `throughput_ratio` pair, every numeric field of every
//! arm summary, and the flattened `metrics` list; the `timeline` and
//! `incidents` sections are for humans and trend tooling and are not
//! byte-gated (they move with every intentional behavior change).
//!
//! Artifacts are read with [`crate::json::parse`], the same module that
//! renders them. An arm field absent from both sides (a reading that
//! scenario does not take) is not compared; a field the baseline has
//! and the candidate lost is a regression.
//!
//! Band policy, per key (first match wins):
//!
//! * keys matching a **must-stay-zero** invariant (leaks, stale
//!   confidence, unattributed incidents, fenced pumping, malformed
//!   traces) fail on any nonzero candidate reading;
//! * keys matching a **host-dependent** class (`alloc.*`, wall-clock
//!   `profiler.*.micros`) are reported but never gated — they vary
//!   across machines and compiler versions;
//! * **bad-up** keys (failures, drops, retransmits) gate only the
//!   upward direction; **bad-down** keys (completions, answers, hits)
//!   gate only the downward direction; everything else is two-sided.
//!   Per-phase allocation counts (`profiler.<phase>.allocs`) are
//!   bad-up: deterministic for a fixed binary and seed, they are a
//!   ceiling, so an allocation-free phase may drop to zero freely.
//!
//! A reading passes its band when `|candidate - baseline|` is within
//! `max(abs_slack, rel_tol * |baseline|)` in the gated direction.

use crate::json::Json;
use std::collections::BTreeMap;

// ---------------------------------------------------------------------------
// Tolerance bands
// ---------------------------------------------------------------------------

/// Which drift direction a key gates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// Any out-of-band drift is a regression.
    TwoSided,
    /// Only an out-of-band increase is a regression.
    BadUp,
    /// Only an out-of-band decrease is a regression.
    BadDown,
}

/// One key's tolerance band.
#[derive(Clone, Copy, Debug)]
pub struct Band {
    /// Relative tolerance as a fraction of the baseline magnitude.
    pub rel: f64,
    /// Absolute slack (wins for small baselines).
    pub abs: f64,
    /// Gated direction.
    pub direction: Direction,
}

/// Substring classes, first match wins. Keys naming failure/leak-style
/// counters gate upward only; keys naming useful-work counters gate
/// downward only.
const MUST_STAY_ZERO: &[&str] = &[
    "stale_confident",
    "answer_age_missing",
    "leak",
    "fenced_pumping",
    "trace_bad",
    "trace_orphans",
    "incidents_unattributed",
    "double_served",
];

/// Host-dependent rows: reported, never gated.
const UNGATED: &[&str] = &["alloc.", "micros"];

const BAD_UP: &[&str] = &[
    "failed",
    "dropped",
    "retransmit",
    "shed_episodes",
    "deadline",
    "misses",
    "evict",
    "incidents",
    "dead",
];

const BAD_DOWN: &[&str] = &[
    "completed",
    "answered",
    "submitted",
    "hits",
    "hit_rate",
    "throughput",
    "queries_per_sec",
    "terminals",
    "resumed",
    "age_count",
];

/// The band policy for one metric key.
pub fn band_for(key: &str) -> Option<Band> {
    if UNGATED.iter().any(|p| key.contains(p)) {
        return None;
    }
    if MUST_STAY_ZERO.iter().any(|p| key.contains(p)) {
        return Some(Band {
            rel: 0.0,
            abs: 0.0,
            direction: Direction::BadUp,
        });
    }
    let phase_allocs = key.starts_with("profiler.") && key.ends_with(".allocs");
    let direction = if phase_allocs || BAD_UP.iter().any(|p| key.contains(p)) {
        Direction::BadUp
    } else if BAD_DOWN.iter().any(|p| key.contains(p)) {
        Direction::BadDown
    } else {
        Direction::TwoSided
    };
    Some(Band {
        rel: 0.35,
        abs: 8.0,
        direction,
    })
}

/// Checks one reading against its band; `None` means in-band.
fn check(key: &str, baseline: f64, candidate: f64, band: Band) -> Option<String> {
    // Non-finite baselines (emitted as null) only require the candidate
    // to be non-finite too — e.g. an infinite throughput ratio.
    if !baseline.is_finite() || !candidate.is_finite() {
        return if baseline.is_finite() == candidate.is_finite() {
            None
        } else {
            Some(format!(
                "{key}: finiteness changed (baseline {baseline}, candidate {candidate})"
            ))
        };
    }
    let slack = band.abs.max(band.rel * baseline.abs());
    let delta = candidate - baseline;
    let out_of_band = match band.direction {
        Direction::TwoSided => delta.abs() > slack,
        Direction::BadUp => delta > slack,
        Direction::BadDown => delta < -slack,
    };
    if out_of_band {
        Some(format!(
            "{key}: {candidate} drifted out of band from baseline {baseline} \
             (slack {slack:.3}, {:?})",
            band.direction
        ))
    } else {
        None
    }
}

// ---------------------------------------------------------------------------
// Artifact comparison
// ---------------------------------------------------------------------------

/// Comparison outcome.
#[derive(Debug, Default)]
pub struct DiffReport {
    /// Out-of-band readings and structural mismatches.
    pub regressions: Vec<String>,
    /// In-band readings compared.
    pub compared: usize,
    /// Keys present only in the candidate (informational).
    pub added: usize,
}

impl DiffReport {
    /// No regressions found.
    pub fn is_clean(&self) -> bool {
        self.regressions.is_empty()
    }
}

fn metric_map(doc: &Json) -> BTreeMap<String, f64> {
    doc.get("metrics")
        .and_then(Json::as_arr)
        .map(|rows| {
            rows.iter()
                .filter_map(|r| {
                    Some((
                        r.get("key")?.as_str()?.to_string(),
                        r.get("value")?.as_f64()?,
                    ))
                })
                .collect()
        })
        .unwrap_or_default()
}

fn arm_map(doc: &Json) -> BTreeMap<String, Vec<(String, f64)>> {
    doc.get("arms")
        .and_then(Json::as_arr)
        .map(|arms| {
            arms.iter()
                .filter_map(|a| {
                    let name = a.get("arm")?.as_str()?.to_string();
                    let Json::Obj(fields) = a else { return None };
                    let nums = fields
                        .iter()
                        .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?)))
                        .collect();
                    Some((name, nums))
                })
                .collect()
        })
        .unwrap_or_default()
}

/// Compares a candidate artifact against its baseline.
pub fn compare_bench(baseline: &Json, candidate: &Json) -> DiffReport {
    let mut report = DiffReport::default();
    let base_scenario = baseline.get("scenario").and_then(Json::as_str);
    let cand_scenario = candidate.get("scenario").and_then(Json::as_str);
    if base_scenario != cand_scenario {
        report.regressions.push(format!(
            "scenario mismatch: baseline {base_scenario:?}, candidate {cand_scenario:?}"
        ));
        return report;
    }

    let ratio = (
        baseline.get("throughput_ratio").and_then(Json::as_f64),
        candidate.get("throughput_ratio").and_then(Json::as_f64),
    );
    if let (Some(b), Some(c)) = ratio {
        let band = Band {
            rel: 0.25,
            abs: 0.05,
            direction: Direction::BadDown,
        };
        match check("throughput_ratio", b, c, band) {
            Some(msg) => report.regressions.push(msg),
            None => report.compared += 1,
        }
    }

    // Arms, matched by name; every baseline arm and numeric field must
    // survive.
    let base_arms = arm_map(baseline);
    let cand_arms = arm_map(candidate);
    for (name, fields) in &base_arms {
        let Some(cand_fields) = cand_arms.get(name) else {
            report
                .regressions
                .push(format!("arm `{name}` missing from candidate"));
            continue;
        };
        for (field, b) in fields {
            let Some((_, c)) = cand_fields.iter().find(|(k, _)| k == field) else {
                report
                    .regressions
                    .push(format!("arm `{name}` field `{field}` missing from candidate"));
                continue;
            };
            if let Some(band) = band_for(field) {
                match check(&format!("arms.{name}.{field}"), *b, *c, band) {
                    Some(msg) => report.regressions.push(msg),
                    None => report.compared += 1,
                }
            }
        }
    }

    // Flattened metrics.
    let base_metrics = metric_map(baseline);
    let cand_metrics = metric_map(candidate);
    for (key, b) in &base_metrics {
        let Some(band) = band_for(key) else { continue };
        let Some(c) = cand_metrics.get(key) else {
            report
                .regressions
                .push(format!("metric `{key}` missing from candidate"));
            continue;
        };
        match check(&format!("metrics.{key}"), *b, *c, band) {
            Some(msg) => report.regressions.push(msg),
            None => report.compared += 1,
        }
    }
    report.added = cand_metrics
        .keys()
        .filter(|k| !base_metrics.contains_key(*k))
        .count();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse as parse_json;
    use crate::report::{render_bench_json, ArmSummary, BenchJson, MetricLine};

    fn bench(ratio: f64, failed: u64, metrics: &[(&str, f64)]) -> BenchJson {
        BenchJson {
            scenario: "fleet".into(),
            throughput_ratio: ratio,
            arms: vec![ArmSummary {
                arm: "shed-on".into(),
                submitted: 500,
                answered_ok: 480,
                failed,
                ..ArmSummary::default()
            }],
            metrics: metrics
                .iter()
                .map(|(k, v)| MetricLine {
                    key: (*k).into(),
                    value: *v,
                })
                .collect(),
            ..BenchJson::default()
        }
    }

    fn parse(b: &BenchJson) -> Json {
        parse_json(&render_bench_json(b)).expect("emitter output parses")
    }

    #[test]
    fn parser_round_trips_emitter_output() {
        let b = bench(1.5, 20, &[("pipeline.rpcs_issued", 321.0)]);
        let doc = parse(&b);
        assert_eq!(doc.get("scenario").and_then(Json::as_str), Some("fleet"));
        assert_eq!(metric_map(&doc).get("pipeline.rpcs_issued"), Some(&321.0));
        assert_eq!(arm_map(&doc)["shed-on"]
            .iter()
            .find(|(k, _)| k == "submitted")
            .map(|(_, v)| *v), Some(500.0));
    }

    #[test]
    fn parser_handles_escapes_and_null() {
        let doc = parse_json(r#"{"k": "a\"b\\c\nd", "v": null, "t": true}"#).unwrap();
        assert_eq!(doc.get("k").and_then(Json::as_str), Some("a\"b\\c\nd"));
        assert!(doc.get("v").unwrap().as_f64().unwrap().is_nan());
        assert_eq!(doc.get("t"), Some(&Json::Bool(true)));
        assert!(parse_json("{\"k\": }").is_err());
        assert!(parse_json("[1,2] trailing").is_err());
    }

    #[test]
    fn identical_artifacts_diff_clean() {
        let b = bench(1.5, 20, &[("pipeline.rpcs_issued", 321.0)]);
        let report = compare_bench(&parse(&b), &parse(&b));
        assert!(report.is_clean(), "{:?}", report.regressions);
        assert!(report.compared > 5);
    }

    #[test]
    fn direction_aware_bands_catch_the_bad_side_only() {
        let base = bench(1.5, 20, &[("fleet_router.failed_deadline", 20.0)]);
        // Fewer failures: improvement, not a regression.
        let better = bench(1.6, 10, &[("fleet_router.failed_deadline", 5.0)]);
        assert!(compare_bench(&parse(&base), &parse(&better)).is_clean());
        // Failure count doubling past the band: regression.
        let worse = bench(1.5, 60, &[("fleet_router.failed_deadline", 60.0)]);
        let report = compare_bench(&parse(&base), &parse(&worse));
        assert!(!report.is_clean());
        assert!(report
            .regressions
            .iter()
            .any(|r| r.contains("failed_deadline")), "{:?}", report.regressions);
    }

    #[test]
    fn zero_invariants_fail_on_any_nonzero_reading() {
        let base = bench(1.5, 20, &[("fleet.leak_router_open", 0.0)]);
        let leaky = bench(1.5, 20, &[("fleet.leak_router_open", 1.0)]);
        let report = compare_bench(&parse(&base), &parse(&leaky));
        assert!(report
            .regressions
            .iter()
            .any(|r| r.contains("leak_router_open")), "{:?}", report.regressions);
    }

    #[test]
    fn missing_metric_and_ungated_alloc_rows() {
        let base = bench(
            1.5,
            20,
            &[("pipeline.rpcs_issued", 100.0), ("alloc.peak_bytes", 1e9)],
        );
        // Dropping a gated metric is a regression; alloc rows may drift
        // or vanish freely.
        let cand = bench(1.5, 20, &[("pipeline.rpcs_issued", 110.0)]);
        let report = compare_bench(&parse(&base), &parse(&cand));
        assert!(report.is_clean(), "{:?}", report.regressions);
        let gone = bench(1.5, 20, &[("alloc.peak_bytes", 5e12)]);
        let report = compare_bench(&parse(&base), &parse(&gone));
        assert!(report
            .regressions
            .iter()
            .any(|r| r.contains("pipeline.rpcs_issued")), "{:?}", report.regressions);
    }

    #[test]
    fn phase_allocs_are_a_ceiling() {
        let base = bench(1.5, 20, &[("profiler.fleet_scope.allocs", 322_693.0)]);
        // An allocation-free phase dropping to zero is an improvement.
        let freed = bench(1.5, 20, &[("profiler.fleet_scope.allocs", 0.0)]);
        assert!(compare_bench(&parse(&base), &parse(&freed)).is_clean());
        // Growing past the band is a regression.
        let grown = bench(1.5, 20, &[("profiler.fleet_scope.allocs", 500_000.0)]);
        let report = compare_bench(&parse(&base), &parse(&grown));
        assert!(report
            .regressions
            .iter()
            .any(|r| r.contains("fleet_scope.allocs")), "{:?}", report.regressions);
        // Wall-clock phase rows stay ungated.
        assert!(band_for("profiler.fleet_scope.micros").is_none());
    }

    #[test]
    fn throughput_ratio_gates_downward_only() {
        let base = bench(1.5, 20, &[]);
        let faster = bench(3.0, 20, &[]);
        assert!(compare_bench(&parse(&base), &parse(&faster)).is_clean());
        let slower = bench(0.9, 20, &[]);
        let report = compare_bench(&parse(&base), &parse(&slower));
        assert!(report
            .regressions
            .iter()
            .any(|r| r.contains("throughput_ratio")), "{:?}", report.regressions);
    }

    #[test]
    fn absent_arm_fields_gate_only_when_lost() {
        // `shed` absent on both sides: a reading neither run took.
        let base = bench(1.5, 20, &[]);
        assert!(base.arms[0].shed.is_none());
        assert!(compare_bench(&parse(&base), &parse(&base)).is_clean());
        // Present in the baseline, absent from the candidate: lost.
        let mut measured = bench(1.5, 20, &[]);
        measured.arms[0].shed = Some(12);
        let report = compare_bench(&parse(&measured), &parse(&base));
        assert!(
            report
                .regressions
                .iter()
                .any(|r| r.contains("field `shed` missing")),
            "{:?}",
            report.regressions
        );
    }
}
