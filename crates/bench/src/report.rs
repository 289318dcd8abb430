//! Shared scenario summary formatting and the `BENCH_*.json` benchmark
//! artifacts.
//!
//! Every fleet-tier scenario bin funnels its headline numbers through
//! the same two outputs:
//!
//! * [`render_summary`] — stable `key=value` grep lines (`scenario=`,
//!   `arm=`, `throughput_ratio=`) so CI and humans can diff runs
//!   without parsing JSON;
//! * [`write_bench_json`] — a machine-readable artifact
//!   (`BENCH_fleet.json`, `BENCH_partition.json`, …) carrying
//!   queries/sec, latency percentiles, answer-age coverage,
//!   shed/re-home counts, radio bytes, retransmits, energy, and the
//!   full flattened unified-telemetry snapshot.
//!
//! Both render from one [`Json`] value built by [`ToJson`], so the two
//! outputs cannot disagree, and a field an arm does not measure is
//! absent from both.

use crate::json::{Json, ToJson};
use presto_sim::EnergyLedger;
use presto_telemetry::{PrestoScope, Snapshot};

crate::json_row! {
    /// One flattened telemetry reading (`dotted.path`, value).
    #[derive(Clone, Debug)]
    pub struct MetricLine {
        /// Dotted snapshot path (`pipeline.rpcs_issued`, `profiler.epochs`).
        pub key: String,
        /// The reading.
        pub value: f64,
    }
}

crate::json_row! {
    /// One arm's headline numbers in the shared artifact. Every
    /// `Option` field is a reading some scenario cannot take; `None`
    /// leaves it out of the JSON and the summary line, never a 0.
    #[derive(Clone, Debug, Default)]
    pub struct ArmSummary {
        /// Arm label (`shed-on`, `with-partition`, …).
        pub arm: String,
        /// Queries submitted.
        pub submitted: u64,
        /// Terminals with a real (non-Failed) answer.
        pub answered_ok: u64,
        /// Honest failures.
        pub failed: u64,
        /// Arrivals still queued when the phase ended, neither answered
        /// nor failed; absent in scenarios that drain every query.
        pub unserved: Option<u64>,
        /// Answered-query throughput, queries per second.
        pub queries_per_sec: f64,
        /// Terminal-latency percentiles, seconds (failures included).
        pub latency_p50_s: f64,
        /// p90.
        pub latency_p90_s: f64,
        /// p99.
        pub latency_p99_s: f64,
        /// Answers that carried an explicit serve-time age.
        pub answer_age_count: Option<u64>,
        /// Real data-carrying answers *missing* the age stamp (must be 0).
        pub answer_age_missing: Option<u64>,
        /// Answer-age p50, seconds.
        pub answer_age_p50_s: Option<f64>,
        /// Queries shed off hot proxies (fleet-tier scenarios only).
        pub shed: Option<u64>,
        /// Sensors re-homed across proxy deaths (fleet-tier scenarios only).
        pub rehomed: Option<u64>,
        /// Downlink request retransmissions.
        pub retransmits: Option<u64>,
        /// Payload bytes the sensors offered to the MAC.
        pub radio_bytes: Option<u64>,
        /// Total sensor-tier energy, joules.
        pub sensor_energy_j: Option<f64>,
        /// Cache hit rate over archive-range lookups (slice-tier lookups
        /// when sliced execution is on, reply-cache lookups otherwise).
        pub cache_hit_rate: Option<f64>,
        /// Confident answers contradicted by their own window — an Ok
        /// answer with no samples, out-of-window samples, or a coverage
        /// stamp from the future (must be 0).
        pub stale_confident: Option<u64>,
        /// Finished query traces collected.
        pub trace_terminals: Option<u64>,
        /// Traces violating well-formedness (≠1 terminal or non-monotone
        /// timestamps; must be 0).
        pub trace_bad: Option<u64>,
        /// Open (un-terminated) trace logs after the drain (must be 0).
        pub trace_orphans: Option<u64>,
    }
}

crate::json_row! {
    /// One downsampled bin of a presto-scope time series.
    #[derive(Clone, Debug)]
    pub struct TimelinePoint {
        /// Bin start, simulated seconds.
        pub t_s: f64,
        /// Minimum reading folded into the bin.
        pub min: f64,
        /// Maximum reading folded in.
        pub max: f64,
        /// Most recent reading folded in.
        pub last: f64,
        /// Raw readings folded in.
        pub samples: u64,
    }
}

crate::json_row! {
    /// One sampled series' epoch trajectory.
    #[derive(Clone, Debug)]
    pub struct SeriesOut {
        /// Dotted snapshot path (or feed name) the series watched.
        pub path: String,
        /// Downsampled bins, oldest first.
        pub points: Vec<TimelinePoint>,
    }
}

crate::json_row! {
    /// One watchdog incident, with its blame window.
    #[derive(Clone, Debug)]
    pub struct IncidentOut {
        /// Rule family (`stale_confident`, `answer_age_p99`, …).
        pub rule: String,
        /// The watched path.
        pub path: String,
        /// First violating epoch, simulated seconds.
        pub opened_s: f64,
        /// First clean epoch after the episode (`null` while still open).
        pub closed_s: Option<f64> => crate::json::nullable,
        /// Worst offending reading inside the episode.
        pub observed: f64,
        /// The rule's bound.
        pub bound: f64,
        /// Whether any injected fault overlaps the violation window.
        pub attributed: bool,
        /// The `FaultPlan` faults active in the padded violation window.
        pub faults: Vec<String>,
    }
}

crate::json_row! {
    /// The benchmark artifact a scenario bin writes.
    #[derive(Clone, Debug, Default)]
    pub struct BenchJson {
        /// Scenario name (`fleet`, `partition`, `query_pipeline`).
        pub scenario: String,
        /// Headline cross-arm ratio (primary/secondary arm throughput).
        pub throughput_ratio: f64,
        /// Per-arm headline numbers.
        pub arms: Vec<ArmSummary>,
        /// The primary arm's flattened unified-telemetry snapshot.
        pub metrics: Vec<MetricLine>,
        /// The primary arm's presto-scope epoch trajectories.
        pub timeline: Vec<SeriesOut>,
        /// The primary arm's watchdog incident log.
        pub incidents: Vec<IncidentOut>,
    }
}

/// One arm's radio, energy and shedding cost, defined once for every
/// scenario that runs a full deployment.
#[derive(Clone, Copy, Debug)]
pub(crate) struct ArmCost {
    /// Downlink request retransmissions (`downlink.retransmits`).
    pub retransmits: Option<u64>,
    /// Payload bytes the sensors offered to the MAC (`sensor.bytes_sent`).
    pub radio_bytes: Option<u64>,
    /// Total sensor-tier energy from the sensor ledger, joules.
    pub sensor_energy_j: f64,
    /// Queries the fleet router shed (`fleet_router.shed`); `None` when
    /// the deployment has no fleet router.
    pub shed: Option<u64>,
}

/// Reads an arm's [`ArmCost`] from its final telemetry snapshot and its
/// summed sensor energy ledger.
pub(crate) fn arm_cost(snap: &Snapshot, sensors: &EnergyLedger) -> ArmCost {
    let count = |key: &str| snap.get(key).map(|v| v as u64);
    ArmCost {
        retransmits: count("downlink.retransmits"),
        radio_bytes: count("sensor.bytes_sent"),
        sensor_energy_j: sensors.total(),
        shed: count("fleet_router.shed"),
    }
}

/// Exports a scope's ring-buffered series as artifact timelines.
pub fn scope_timeline(scope: &PrestoScope) -> Vec<SeriesOut> {
    scope
        .series()
        .iter()
        .map(|(path, ring)| SeriesOut {
            path: path.clone(),
            points: ring
                .bins()
                .iter()
                .map(|b| TimelinePoint {
                    t_s: b.t.as_secs_f64(),
                    min: b.min,
                    max: b.max,
                    last: b.last,
                    samples: b.samples,
                })
                .collect(),
        })
        .collect()
}

/// Exports a scope's watchdog incident log as artifact rows.
pub fn scope_incidents(scope: &PrestoScope) -> Vec<IncidentOut> {
    scope
        .incidents()
        .iter()
        .map(|i| IncidentOut {
            rule: i.rule.to_string(),
            path: i.path.clone(),
            opened_s: i.opened_at.as_secs_f64(),
            closed_s: i.closed_at.map(|t| t.as_secs_f64()),
            observed: i.observed,
            bound: i.bound,
            attributed: i.attributed,
            faults: i.faults.iter().map(|f| format!("{f:?}")).collect(),
        })
        .collect()
}

/// Turns an arm's flattened snapshot into artifact rows.
pub fn metric_lines(metrics: &[(String, f64)]) -> Vec<MetricLine> {
    metrics
        .iter()
        .map(|(key, value)| MetricLine {
            key: key.clone(),
            value: *value,
        })
        .collect()
}

/// Renders the stable grep lines every scenario bin prints, one per
/// arm with the arm's JSON fields in order, then the headline ratio:
///
/// ```text
/// scenario=fleet arm=shed-on submitted=812 answered_ok=700 ...
/// scenario=fleet throughput_ratio=1.4300
/// ```
pub fn render_summary(b: &BenchJson) -> String {
    let mut out = String::new();
    for arm in &b.arms {
        out.push_str(&format!("scenario={}", b.scenario));
        for (key, value) in arm.to_json().as_obj().unwrap_or_default() {
            let value = match value {
                Json::Str(s) => s.clone(),
                v => v.render(),
            };
            out.push_str(&format!(" {key}={value}"));
        }
        out.push('\n');
    }
    out.push_str(&format!(
        "scenario={} throughput_ratio={:.4}\n",
        b.scenario, b.throughput_ratio
    ));
    out
}

/// Renders the artifact as deterministic JSON text.
pub fn render_bench_json(b: &BenchJson) -> String {
    b.to_json().render() + "\n"
}

/// Prints every failed check under `{label} FAILED:` and exits 1;
/// returns when there are none.
pub fn exit_on_failures(label: &str, failures: &[String]) {
    if failures.is_empty() {
        return;
    }
    eprintln!("{label} FAILED:");
    for f in failures {
        eprintln!("  - {f}");
    }
    std::process::exit(1);
}

/// Writes the artifact as deterministic JSON to `path`.
pub fn write_bench_json(path: &str, b: &BenchJson) -> std::io::Result<()> {
    std::fs::write(path, render_bench_json(b))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_lines_carry_stable_keys() {
        let b = BenchJson {
            scenario: "fleet".into(),
            throughput_ratio: 1.25,
            arms: vec![ArmSummary {
                arm: "shed-on".into(),
                submitted: 10,
                answered_ok: 9,
                ..ArmSummary::default()
            }],
            metrics: vec![MetricLine {
                key: "pipeline.submitted".into(),
                value: 10.0,
            }],
            ..BenchJson::default()
        };
        let s = render_summary(&b);
        assert!(s.contains("scenario=fleet arm=shed-on submitted=10 answered_ok=9"));
        assert!(s.contains("scenario=fleet throughput_ratio=1.2500"));
    }

    fn sample_bench() -> BenchJson {
        BenchJson {
            scenario: "fleet".into(),
            throughput_ratio: f64::INFINITY,
            arms: vec![ArmSummary {
                arm: "shed-on".into(),
                submitted: 10,
                answered_ok: 9,
                queries_per_sec: 0.125,
                ..ArmSummary::default()
            }],
            metrics: vec![MetricLine {
                key: "pipeline.\"odd\\key\"".into(),
                value: f64::NAN,
            }],
            timeline: vec![SeriesOut {
                path: "fleet.pressure_max".into(),
                points: vec![TimelinePoint {
                    t_s: 30.0,
                    min: 1.0,
                    max: 4.5,
                    last: 2.0,
                    samples: 3,
                }],
            }],
            incidents: vec![IncidentOut {
                rule: "pressure_watermark".into(),
                path: "fleet.pressure_max".into(),
                opened_s: 60.0,
                closed_s: None,
                observed: 5.0,
                bound: 4.0,
                attributed: true,
                faults: vec!["MeshPartition { group: [2] }".into()],
            }],
        }
    }

    #[test]
    fn bench_json_emitter_is_valid_and_escaped() {
        let json = render_bench_json(&sample_bench());
        assert!(json.contains("\"scenario\": \"fleet\""), "{json}");
        assert!(json.contains("\"throughput_ratio\": null"), "{json}");
        // Quotes and backslashes in keys survive as JSON escapes.
        assert!(json.contains("pipeline.\\\"odd\\\\key\\\""), "{json}");
        // NaN values render as null, not as a bare token.
        assert!(json.contains("\"value\": null"), "{json}");
        assert!(!json.contains("NaN"), "{json}");
        assert!(json.contains("\"timeline\""), "{json}");
        assert!(json.contains("\"t_s\": 30"), "{json}");
        assert!(json.contains("\"rule\": \"pressure_watermark\""), "{json}");
        assert!(json.contains("\"closed_s\": null"), "{json}");
        assert!(json.contains("\"attributed\": true"), "{json}");
    }

    #[test]
    fn bench_json_emitter_is_byte_deterministic() {
        let b = sample_bench();
        assert_eq!(render_bench_json(&b), render_bench_json(&b));
        // Empty sections still close their brackets.
        let empty = BenchJson::default();
        let json = render_bench_json(&empty);
        assert!(json.contains("\"arms\": []"), "{json}");
        assert!(json.contains("\"incidents\": []"), "{json}");
    }
}
