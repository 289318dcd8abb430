//! The ground-truth answer oracle.
//!
//! Every epoch the harness copies `PrestoSystem::truth` (the value each
//! sensor sampled that epoch) into one flat, preallocated vector, so
//! recording costs no allocation after set-up and adds only a constant
//! to the peak heap. Answers are then checked against it:
//!
//! * NOW answers against the truth at submission, with the fleet
//!   scenario's stale-confidence rule: an answer claiming
//!   `sigma <= tolerance` may not sit more than `tolerance + 0.5` from
//!   the truth (the slack covers the sampling gap between the serving
//!   sample and the submission reading). Queries are submitted at an
//!   epoch start, the instant that epoch's reading is taken, so the
//!   truth at submission is bracketed by that reading and the one
//!   before it; the answer is held to the nearer of the two.
//! * Every sample of a non-Failed PAST answer against the truth at its
//!   timestamp, within the error the answer promises: the query's
//!   tolerance, or the answer's own wider sigma when it advertises one.
//!   Samples must lie inside the window. A sample between two sampling
//!   instants (model output, aged rows) is held to the nearer of the two
//!   readings that bracket it.
//! * Aggregate means against the mean of the truth over the window,
//!   within the answer's sigma plus the same slack.

use presto_core::{StoreQuery, StoreResponse};
use presto_proxy::{AnswerSource, PipelineAnswer, PipelineQuery};
use presto_sim::{SimDuration, SimTime};

/// Per-epoch truth for every sensor.
pub struct TruthLog {
    epoch: SimDuration,
    sensors: usize,
    values: Vec<f64>,
    recorded: usize,
}

/// The verdict on one answer.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Verdict {
    /// Consistent with the truth.
    Ok,
    /// Farther from the truth than the answer promises; carries the
    /// worst error as a multiple of the promised bound.
    Wrong(f64),
}

/// Slack on NOW and aggregate checks (see the module docs).
const SLACK: f64 = 0.5;

impl TruthLog {
    /// Allocates room for `epochs` epochs of `sensors` sensors.
    pub fn new(epoch: SimDuration, sensors: usize, epochs: u64) -> Self {
        TruthLog {
            epoch,
            sensors,
            values: vec![f64::NAN; sensors * epochs as usize],
            recorded: 0,
        }
    }

    /// Records the truth sampled at the epoch starting at `t`.
    pub fn record(&mut self, t: SimTime, truth: &[f64]) {
        let e = (t.as_micros() / self.epoch.as_micros()) as usize;
        let row = &mut self.values[e * self.sensors..(e + 1) * self.sensors];
        row.copy_from_slice(truth);
        self.recorded = self.recorded.max(e + 1);
    }

    /// The truth of `sensor` at the sampling instant `t`, if `t` is on
    /// the sampling grid and recorded.
    pub fn at(&self, sensor: u16, t: SimTime) -> Option<f64> {
        let step = self.epoch.as_micros();
        if !t.as_micros().is_multiple_of(step) {
            return None;
        }
        let e = (t.as_micros() / step) as usize;
        (e < self.recorded).then(|| self.values[e * self.sensors + sensor as usize])
    }

    /// Distance from `value` to the nearer recorded reading of `sensor`
    /// among those at the sampling instants `lo` and `hi`.
    fn nearer(&self, sensor: u16, lo: SimTime, hi: SimTime, value: f64) -> Option<f64> {
        [lo, hi]
            .into_iter()
            .filter_map(|t| self.at(sensor, t))
            .map(|truth| (value - truth).abs())
            .min_by(f64::total_cmp)
    }

    /// Distance from `value` to the truth at `t`: the reading at `t` on
    /// the sampling grid, else the nearer of the two readings around it.
    fn error_at(&self, sensor: u16, t: SimTime, value: f64) -> Option<f64> {
        let step = self.epoch.as_micros();
        let lo = SimTime::from_micros(t.as_micros() / step * step);
        let hi = SimTime::from_micros(t.as_micros().div_ceil(step) * step);
        self.nearer(sensor, lo, hi, value)
    }

    /// Checks a NOW answer submitted at `submitted` (an epoch start,
    /// whose reading must already be recorded).
    pub fn check_now(
        &self,
        sensor: u16,
        submitted: SimTime,
        value: f64,
        sigma: f64,
        tol: f64,
    ) -> Verdict {
        let before =
            SimTime::from_micros(submitted.as_micros().saturating_sub(self.epoch.as_micros()));
        let Some(err) = self.nearer(sensor, before, submitted, value) else {
            return Verdict::Wrong(f64::INFINITY);
        };
        if sigma <= tol && err > tol + SLACK {
            Verdict::Wrong(err / (tol + SLACK))
        } else {
            Verdict::Ok
        }
    }

    /// Checks a non-Failed PAST series over `[from, to]` against the
    /// promised per-sample bound.
    pub fn check_past(
        &self,
        sensor: u16,
        from: SimTime,
        to: SimTime,
        samples: &[(SimTime, f64)],
        bound: f64,
    ) -> Verdict {
        if samples.is_empty() {
            return Verdict::Wrong(f64::INFINITY);
        }
        let mut worst = 0.0f64;
        for &(t, v) in samples {
            if t < from || t > to {
                return Verdict::Wrong(f64::INFINITY);
            }
            let Some(err) = self.error_at(sensor, t, v) else {
                return Verdict::Wrong(f64::INFINITY);
            };
            worst = worst.max(err);
        }
        if worst > bound * (1.0 + 1e-9) + 1e-9 {
            Verdict::Wrong(worst / bound)
        } else {
            Verdict::Ok
        }
    }

    /// Checks an aggregate mean over `[from, to]`.
    pub fn check_mean(
        &self,
        sensor: u16,
        from: SimTime,
        to: SimTime,
        value: f64,
        sigma: f64,
    ) -> Verdict {
        let step = self.epoch.as_micros();
        let first = from.as_micros().div_ceil(step);
        let last = to.as_micros() / step;
        let (mut sum, mut n) = (0.0, 0u64);
        for e in first..=last {
            if let Some(v) = self.at(sensor, SimTime::from_micros(e * step)) {
                sum += v;
                n += 1;
            }
        }
        if n == 0 || !value.is_finite() {
            return Verdict::Ok;
        }
        let err = (value - sum / n as f64).abs();
        let bound = sigma + SLACK;
        if err > bound {
            Verdict::Wrong(err / bound)
        } else {
            Verdict::Ok
        }
    }

    /// Checks a non-Failed pipeline answer (fleet or single system) to a
    /// query submitted at `submitted`; returns the query kind with the
    /// verdict.
    pub fn check_pipeline(
        &self,
        submitted: SimTime,
        query: &PipelineQuery,
        answer: &PipelineAnswer,
    ) -> (&'static str, Verdict) {
        let sensor = query.sensor();
        match (*query, answer) {
            (PipelineQuery::Now { tolerance, .. }, PipelineAnswer::Scalar(a)) => (
                "now",
                self.check_now(sensor, submitted, a.value, a.sigma, tolerance),
            ),
            (
                PipelineQuery::Past {
                    from,
                    to,
                    tolerance,
                    ..
                },
                PipelineAnswer::Series(a),
            ) => (
                past_kind(a.source),
                self.check_past(sensor, from, to, &a.samples, tolerance),
            ),
            (PipelineQuery::Aggregate { from, to, .. }, PipelineAnswer::Scalar(a)) => (
                "aggregate",
                self.check_mean(sensor, from, to, a.value, a.sigma),
            ),
            _ => ("shape", Verdict::Wrong(f64::INFINITY)),
        }
    }

    /// Checks a non-Failed blocking store answer to a query run at
    /// `now`, over a deployment of `sensors` sensors.
    pub fn check_store(
        &self,
        sensors: usize,
        now: SimTime,
        q: &StoreQuery,
        r: &StoreResponse,
    ) -> (&'static str, Verdict) {
        match *q {
            StoreQuery::Now { sensor, tolerance } => {
                let v = r.value.unwrap_or(f64::NAN);
                ("now", self.check_now(sensor, now, v, r.sigma, tolerance))
            }
            StoreQuery::Past {
                sensor,
                from,
                to,
                tolerance,
            } => {
                let bound = tolerance.max(r.sigma);
                (
                    past_kind(r.source),
                    self.check_past(sensor, from, to, &r.series, bound),
                )
            }
            StoreQuery::Events { from, to } => {
                let ok = r.events.windows(2).all(|w| w[0] <= w[1])
                    && r.events.iter().all(|&(t, s, ty)| {
                        t >= from
                            && t <= to
                            && (s as usize) < sensors
                            && ty == presto_core::system::RARE_EVENT_TYPE
                    });
                (
                    "events",
                    if ok {
                        Verdict::Ok
                    } else {
                        Verdict::Wrong(f64::INFINITY)
                    },
                )
            }
            StoreQuery::Aggregate {
                sensor, from, to, ..
            } => {
                let v = r.value.unwrap_or(f64::NAN);
                ("aggregate", self.check_mean(sensor, from, to, v, r.sigma))
            }
        }
    }
}

/// PAST verdicts are filed by the answer's provenance, so a defect in
/// one serving path shows apart from the others.
fn past_kind(source: AnswerSource) -> &'static str {
    match source {
        AnswerSource::Pulled => "past_pulled",
        AnswerSource::CacheHit => "past_cached",
        _ => "past_extrapolated",
    }
}
