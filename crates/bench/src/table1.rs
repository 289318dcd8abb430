//! Table 1 reproduction: PRESTO vs the related-system families, measured.
//!
//! The paper's Table 1 is qualitative (which system supports which
//! mechanism); this regeneration keeps those columns and adds the
//! measured consequences — energy, latency, error, PAST answerability —
//! on a common workload, which is the comparison the table implies.

use presto_baselines::{direct, driver::render_table, stream, valuepush, ArchReport, DriverConfig};
use presto_core::run_presto;

crate::json_row! {
    /// Serializable row mirror of [`ArchReport`].
    #[derive(Clone, Debug)]
    pub struct Table1Row {
        /// Architecture label.
        pub architecture: String,
        /// Joules per sensor per day.
        pub energy_j_per_day: f64,
        /// Radio joules per sensor per day.
        pub radio_j_per_day: f64,
        /// Mean NOW latency, ms.
        pub now_latency_ms: f64,
        /// p95 NOW latency, ms.
        pub now_latency_p95_ms: f64,
        /// Mean NOW error.
        pub now_error: f64,
        /// Fraction of PAST queries answered.
        pub past_answered: f64,
        /// Supports PAST queries at all.
        pub supports_past: bool,
        /// Uses prediction.
        pub uses_prediction: bool,
    }
}

impl From<&ArchReport> for Table1Row {
    fn from(r: &ArchReport) -> Self {
        Table1Row {
            architecture: r.label.clone(),
            energy_j_per_day: r.sensor_energy_per_day_j,
            radio_j_per_day: r.radio_energy_per_day_j,
            now_latency_ms: r.now_latency_mean_ms,
            now_latency_p95_ms: r.now_latency_p95_ms,
            now_error: r.now_error_mean,
            past_answered: r.past_answered_fraction,
            supports_past: r.supports_past,
            uses_prediction: r.uses_prediction,
        }
    }
}

/// Runs all five architecture arms on the shared workload.
pub fn generate(cfg: &DriverConfig) -> Vec<ArchReport> {
    vec![
        direct::run(cfg),
        stream::run(cfg, true),
        stream::run(cfg, false),
        valuepush::run(cfg, 1.0),
        run_presto(cfg),
    ]
}

/// Human-readable rendering.
pub fn render(reports: &[ArchReport]) -> String {
    let mut s = String::from("Table 1 — architecture comparison on the shared lab workload\n");
    s.push_str(&render_table(reports));
    s
}

/// Serializable rows.
pub fn rows(reports: &[ArchReport]) -> Vec<Table1Row> {
    reports.iter().map(Table1Row::from).collect()
}

/// The qualitative shape the paper's table asserts, checked against the
/// measured rows: PRESTO must combine streaming-class latency with far
/// better energy, and be the only arm with both PAST support and
/// prediction.
pub fn check_shape(reports: &[ArchReport]) -> Result<(), String> {
    let find = |needle: &str| {
        reports
            .iter()
            .find(|r| r.label.contains(needle))
            .ok_or_else(|| format!("missing row {needle}"))
    };
    let presto = find("PRESTO")?;
    let direct = find("direct")?;
    let stream = find("TinyDB")?;
    let value = find("value-push")?;

    if presto.now_latency_mean_ms >= direct.now_latency_mean_ms / 5.0 {
        return Err(format!(
            "PRESTO latency {} not ≪ direct {}",
            presto.now_latency_mean_ms, direct.now_latency_mean_ms
        ));
    }
    if presto.radio_energy_per_day_j >= stream.radio_energy_per_day_j / 2.0 {
        return Err(format!(
            "PRESTO energy {} not ≪ streaming {}",
            presto.radio_energy_per_day_j, stream.radio_energy_per_day_j
        ));
    }
    if !presto.supports_past || !presto.uses_prediction {
        return Err("PRESTO row lost its qualitative properties".into());
    }
    if value.supports_past {
        return Err("value-push should not support PAST".into());
    }
    if presto.past_answered_fraction < 0.8 {
        return Err(format!(
            "PRESTO PAST answerability too low: {}",
            presto.past_answered_fraction
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_table_has_paper_shape() {
        let cfg = DriverConfig {
            sensors: 3,
            days: 2,
            ..DriverConfig::default()
        };
        let reports = generate(&cfg);
        assert_eq!(reports.len(), 5);
        check_shape(&reports).unwrap();
        let text = render(&reports);
        assert!(text.contains("PRESTO"));
        assert_eq!(rows(&reports).len(), 5);
    }
}
