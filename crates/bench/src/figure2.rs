//! Figure 2 reproduction: total energy cost vs batching interval.
//!
//! Paper series, identical workload for every arm:
//!
//! * Batched Push w/ Wavelet Denoising
//! * Batched Push w/o Compression
//! * Value-Driven Push (Delta = 1)
//! * Value-Driven Push (Delta = 2)
//!
//! X axis: batching interval in minutes, the paper's ×2 ladder
//! `16.5 … 2116`. Y axis: total push energy in joules over the whole
//! trace. The value-driven arms do not batch, so they appear as flat
//! lines — exactly as in the paper.

use presto_baselines::valuepush::{energy_of_policy, PolicyEnergy};
use presto_sensor::PushPolicy;
use presto_sim::SimDuration;
use presto_wavelet::CodecParams;
use presto_workloads::{LabDeployment, LabParams};

/// The paper's batching-interval ladder, minutes.
pub const INTERVALS_MIN: [f64; 8] = [16.5, 33.0, 66.0, 132.0, 264.0, 529.0, 1058.0, 2116.0];

/// Sweep configuration.
#[derive(Clone, Debug)]
pub struct Figure2Config {
    /// Trace duration in days (the Intel Lab trace spans ~36 days).
    pub days: u64,
    /// Workload seed.
    pub seed: u64,
    /// Frame loss probability.
    pub loss: f64,
    /// Workload parameters.
    pub lab: LabParams,
}

impl Default for Figure2Config {
    fn default() -> Self {
        Figure2Config {
            days: 36,
            seed: 2005,
            loss: 0.0,
            lab: LabParams {
                // Rare events excluded: Figure 2 studies steady-state
                // push energy on the temperature trace.
                events_per_day: 0.0,
                ..LabParams::default()
            },
        }
    }
}

crate::json_row! {
    /// One x-axis point of the figure.
    #[derive(Clone, Debug)]
    pub struct Figure2Row {
        /// Batching interval, minutes.
        pub interval_min: f64,
        /// Batched push with wavelet denoising, joules.
        pub batched_wavelet_j: f64,
        /// Batched push without compression, joules.
        pub batched_raw_j: f64,
        /// Value-driven push Δ=1, joules (flat across intervals).
        pub value_delta1_j: f64,
        /// Value-driven push Δ=2, joules (flat across intervals).
        pub value_delta2_j: f64,
    }
}

crate::json_row! {
    /// The full figure: rows plus arm metadata.
    #[derive(Clone, Debug)]
    pub struct Figure2Data {
        /// Per-interval rows.
        pub rows: Vec<Figure2Row>,
        /// Idle-listening energy over the trace (identical across arms).
        pub listen_baseline_j: f64,
        /// Trace length in samples.
        pub samples: usize,
    }
}

/// Runs the sweep.
pub fn generate(cfg: &Figure2Config) -> Figure2Data {
    let trace = LabDeployment::single_sensor_trace(
        cfg.lab.clone(),
        cfg.seed,
        SimDuration::from_days(cfg.days),
    );
    let samples = trace.len();

    let run =
        |policy: PushPolicy| -> PolicyEnergy { energy_of_policy(&trace, policy, cfg.loss, 1) };

    // Value-driven arms are interval-independent: run once.
    let v1 = run(PushPolicy::ValueDriven { delta: 1.0 });
    let v2 = run(PushPolicy::ValueDriven { delta: 2.0 });
    let listen_baseline_j = v1.radio_j - v1.push_j;

    let rows = INTERVALS_MIN
        .iter()
        .map(|&mins| {
            let interval = SimDuration::from_mins_f64(mins);
            let raw = run(PushPolicy::Batched {
                interval,
                compression: None,
            });
            let wav = run(PushPolicy::Batched {
                interval,
                compression: Some(CodecParams::denoising()),
            });
            Figure2Row {
                interval_min: mins,
                batched_wavelet_j: wav.push_j,
                batched_raw_j: raw.push_j,
                value_delta1_j: v1.push_j,
                value_delta2_j: v2.push_j,
            }
        })
        .collect();

    Figure2Data {
        rows,
        listen_baseline_j,
        samples,
    }
}

/// Renders the figure as an aligned text table (the bench binary's
/// human-readable output).
pub fn render(data: &Figure2Data) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "Figure 2 — total push energy (J) over {} samples; idle listening baseline {:.1} J (identical across arms)\n",
        data.samples, data.listen_baseline_j
    ));
    out.push_str(&format!(
        "{:>12} {:>22} {:>22} {:>22} {:>22}\n",
        "interval min",
        "batched+wavelet J",
        "batched raw J",
        "value-driven d=1 J",
        "value-driven d=2 J"
    ));
    for r in &data.rows {
        out.push_str(&format!(
            "{:>12.1} {:>22.1} {:>22.1} {:>22.1} {:>22.1}\n",
            r.interval_min,
            r.batched_wavelet_j,
            r.batched_raw_j,
            r.value_delta1_j,
            r.value_delta2_j
        ));
    }
    out
}

/// Checks the figure's qualitative shape (used by tests and asserted by
/// the binary): batched arms decrease monotonically with interval,
/// wavelet ≤ raw everywhere, value-driven arms flat with Δ=1 > Δ=2, and
/// value-driven lines sit above the batched curves.
pub fn check_shape(data: &Figure2Data) -> Result<(), String> {
    let rows = &data.rows;
    if rows.len() < 2 {
        return Err("not enough rows".into());
    }
    for w in rows.windows(2) {
        if w[1].batched_raw_j > w[0].batched_raw_j * 1.02 {
            return Err(format!(
                "batched raw not decreasing: {} -> {}",
                w[0].batched_raw_j, w[1].batched_raw_j
            ));
        }
        if w[1].batched_wavelet_j > w[0].batched_wavelet_j * 1.02 {
            return Err(format!(
                "batched wavelet not decreasing: {} -> {}",
                w[0].batched_wavelet_j, w[1].batched_wavelet_j
            ));
        }
    }
    for r in rows {
        if r.batched_wavelet_j > r.batched_raw_j {
            return Err(format!(
                "wavelet above raw at {} min: {} vs {}",
                r.interval_min, r.batched_wavelet_j, r.batched_raw_j
            ));
        }
        if r.value_delta1_j <= r.value_delta2_j {
            return Err("delta=1 not above delta=2".into());
        }
        if r.value_delta1_j < r.batched_raw_j {
            return Err(format!(
                "value-driven d=1 below batched raw at {} min",
                r.interval_min
            ));
        }
    }
    // Compression gap should widen with batch size (paper's claim (b)).
    let first_ratio = rows[0].batched_raw_j / rows[0].batched_wavelet_j.max(1e-9);
    let last_ratio =
        rows[rows.len() - 1].batched_raw_j / rows[rows.len() - 1].batched_wavelet_j.max(1e-9);
    if last_ratio < first_ratio {
        return Err(format!(
            "compression gain not widening: {first_ratio:.2} -> {last_ratio:.2}"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_has_paper_shape() {
        // A 6-day sweep is fast enough for CI while preserving the shape.
        let data = generate(&Figure2Config {
            days: 6,
            ..Figure2Config::default()
        });
        check_shape(&data).unwrap();
        assert_eq!(data.rows.len(), INTERVALS_MIN.len());
    }

    #[test]
    fn render_mentions_all_arms() {
        let data = generate(&Figure2Config {
            days: 2,
            ..Figure2Config::default()
        });
        let s = render(&data);
        assert!(s.contains("wavelet"));
        assert!(s.contains("value-driven d=1"));
    }
}
