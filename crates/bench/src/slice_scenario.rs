//! The sliced-execution experiment: many users hammering a shared hot
//! archive window through one proxy under downlink loss.
//!
//! Two identically seeded deployments run the same seeded multi-user
//! workload (PAST windows drawn from a small set of staggered,
//! overlapping hot windows, plus background NOW traffic):
//!
//! * **sliced** — archive-range queries split into time-aligned slices
//!   served through the two-tier slice cache; overlapping windows from
//!   different users share slices, so most radio work is absorbed by
//!   the cache and a narrower window completes radio-free;
//! * **monolithic** — the same arrivals with slicing off: the exact
//!   match reply cache only absorbs byte-identical repeat windows, so
//!   overlapping-but-unequal windows each pay their own pull.
//!
//! Both arms run the same horizon plus the same drain window. The
//! report carries each arm's cache hit rate (slice tiers vs reply
//! cache), answered throughput, the stale-confident probe (an Ok
//! answer contradicted by its own window — must be zero), and the
//! trace/age coverage counters the CI smoke asserts on.

use crate::report::{
    arm_cost, scope_incidents, scope_timeline, ArmSummary, IncidentOut, SeriesOut,
};
use presto_core::{PipelineAnswer, PrestoSystem, StoreQuery, SystemConfig};
use presto_fleet::FEED_STALE_CONFIDENT;
use presto_net::LossProcess;
use presto_proxy::{AnswerSource, SliceConfig};
use presto_sim::metrics::Summary;
use presto_sim::{SimDuration, SimTime};
use presto_telemetry::scope::WD_STALE_CONFIDENT;
use presto_telemetry::{CompletionCause, ScopeConfig, SeriesSpec, WatchdogRule};

/// Experiment parameters.
#[derive(Clone, Debug)]
pub struct SliceScenarioConfig {
    /// Warmup (archive build) before the query phase, hours. The hot
    /// windows all lie inside this archived span, so every slice they
    /// touch is complete (cacheable) from the first pull.
    pub warmup_hours: u64,
    /// Query-phase length, hours.
    pub query_hours: u64,
    /// Master seed.
    pub seed: u64,
    /// Sensors under the single proxy.
    pub sensors: usize,
    /// Downlink loss (Bernoulli, request and reply paths).
    pub loss: f64,
    /// Concurrent users.
    pub users: usize,
    /// Mean queries per user per hour.
    pub queries_per_user_per_hour: f64,
    /// PAST-query tolerance (shared across users, so overlapping
    /// windows share slice keys).
    pub tolerance: f64,
}

impl Default for SliceScenarioConfig {
    fn default() -> Self {
        SliceScenarioConfig {
            warmup_hours: 24,
            query_hours: 6,
            seed: 2005,
            sensors: 8,
            loss: 0.3,
            users: 16,
            queries_per_user_per_hour: 60.0,
            tolerance: 0.2,
        }
    }
}

impl SliceScenarioConfig {
    /// The small fixed-seed configuration the CI smoke runs.
    pub fn quick() -> Self {
        SliceScenarioConfig {
            warmup_hours: 8,
            query_hours: 2,
            sensors: 4,
            users: 8,
            ..SliceScenarioConfig::default()
        }
    }
}

crate::json_row! {
    /// One arm's results.
    #[derive(Clone, Debug)]
    pub struct SliceArmReport {
        /// Queries emitted by the workload.
        pub submitted: u64,
        /// Terminals observed (must equal `submitted`).
        pub completed: u64,
        /// Terminals with a real (non-Failed) answer.
        pub answered_ok: u64,
        /// Honest failures.
        pub failed: u64,
        /// Completions that never touched the radio (fast paths + caches).
        pub completed_cached: u64,
        /// PAST submissions that took the sliced path.
        pub sliced: u64,
        /// Pull RPCs issued (slice sub-pulls included).
        pub rpcs_issued: u64,
        /// Archive-range cache hit rate: slice-tier lookups when slicing
        /// is on, reply-cache lookups otherwise.
        pub cache_hit_rate: f64,
        /// Slice-tier counters (all zero in the monolithic arm).
        pub slice_lookups: u64,
        /// L1 (RAM-tier) hits.
        pub slice_l1_hits: u64,
        /// L2 (spill-tier) hits, each promoting back to L1.
        pub slice_l2_hits: u64,
        /// L2→L1 promotions.
        pub slice_promotions: u64,
        /// Ok answers contradicted by their own window (must be 0).
        pub stale_confident: u64,
        /// Real answers missing the serve-time age stamp (must be 0).
        pub answer_age_missing: u64,
        /// Real answers carrying the age stamp.
        pub answer_age_count: u64,
        /// Answer-age p50, seconds.
        pub answer_age_p50_s: f64,
        /// Answered-query throughput over the phase, queries/hour.
        pub throughput_qph: f64,
        /// Terminal-latency percentiles, seconds (failures included).
        pub p50_s: f64,
        /// p90.
        pub p90_s: f64,
        /// p99.
        pub p99_s: f64,
        /// Finished query traces collected.
        pub trace_terminals: u64,
        /// Traces with ≠1 terminal or non-monotone timestamps (must be 0).
        pub trace_bad: u64,
        /// Open trace logs after the drain window (must be 0).
        pub trace_orphans: u64,
        /// Downlink request retransmissions.
        pub retransmits: Option<u64>,
        /// Payload bytes the sensors offered to the MAC.
        pub radio_bytes: Option<u64>,
        /// Total sensor-tier energy, joules.
        pub sensor_energy_j: f64,
        /// Queries the fleet router shed (`fleet_router.shed`); `None`
        /// here, where one proxy runs without a fleet router.
        pub shed: Option<u64>,
        /// Leak probes after the drain window (both must be zero).
        pub leaked_pending: u64,
        /// Leaked pending-RPC table entries.
        pub leaked_rpcs: u64,
        /// The flattened unified-telemetry snapshot.
        pub metrics: Vec<(String, f64)>,
        /// presto-scope epoch trajectories (the BENCH timeline section).
        pub timeline: Vec<SeriesOut>,
        /// Watchdog incident log (clean slice runs must keep this empty).
        pub incidents: Vec<IncidentOut>,
        /// Incidents no injected fault explains (must be zero).
        pub incidents_unattributed: u64,
    }
}

impl SliceArmReport {
    /// This arm's row in the shared benchmark artifact.
    pub fn summarize(&self, arm: &str) -> ArmSummary {
        ArmSummary {
            arm: arm.to_string(),
            submitted: self.submitted,
            answered_ok: self.answered_ok,
            failed: self.failed,
            queries_per_sec: self.throughput_qph / 3600.0,
            latency_p50_s: self.p50_s,
            latency_p90_s: self.p90_s,
            latency_p99_s: self.p99_s,
            answer_age_count: Some(self.answer_age_count),
            answer_age_missing: Some(self.answer_age_missing),
            answer_age_p50_s: Some(self.answer_age_p50_s),
            shed: self.shed,
            rehomed: None,
            retransmits: self.retransmits,
            radio_bytes: self.radio_bytes,
            sensor_energy_j: Some(self.sensor_energy_j),
            cache_hit_rate: Some(self.cache_hit_rate),
            stale_confident: Some(self.stale_confident),
            trace_terminals: Some(self.trace_terminals),
            trace_bad: Some(self.trace_bad),
            trace_orphans: Some(self.trace_orphans),
        }
    }
}

crate::json_row! {
    /// Scenario result: both arms plus the headline comparisons.
    #[derive(Clone, Debug)]
    pub struct SliceScenarioReport {
        /// Configured downlink loss.
        pub configured_loss: f64,
        /// Sliced execution on.
        pub sliced: SliceArmReport,
        /// Same seed, slicing off.
        pub monolithic: SliceArmReport,
        /// `sliced.throughput / monolithic.throughput` (must be ≥ 1: slice
        /// reuse cannot cost answered throughput).
        pub throughput_ratio: f64,
        /// `sliced.cache_hit_rate - monolithic.cache_hit_rate` (must be
        /// positive: slice sharing absorbs reads exact-match never could).
        pub hit_rate_gain: f64,
    }
}

/// Deterministic splitmix64 step, the workload's only randomness.
fn mix(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The shared hot windows: 2 h 4 min spans (three 1-hour slices each)
/// staggered 30 min apart, all inside the archived warmup. Adjacent
/// stagger positions overlap by over 1.5 h, so different windows share
/// slices without sharing reply-cache keys.
fn hot_window(slot: u64) -> (SimTime, SimTime) {
    let from = SimTime::from_hours(1) + SimDuration::from_mins(30) * slot;
    (from, from + SimDuration::from_mins(124))
}

fn system(cfg: &SliceScenarioConfig, sliced: bool) -> PrestoSystem {
    let mut sys_cfg = SystemConfig {
        proxies: 1,
        sensors_per_proxy: cfg.sensors,
        seed: cfg.seed,
        lab: presto_workloads::LabParams {
            events_per_day: 0.0,
            ..presto_workloads::LabParams::default()
        },
        ..SystemConfig::default()
    };
    // Force the pull path so the comparison measures the caches, not
    // the coverage fast path, and trace so age coverage is auditable.
    sys_cfg.proxy.past_coverage_hit = f64::INFINITY;
    sys_cfg.proxy.pipeline.trace = true;
    // A single-system scope: fleet paths don't exist here, so the
    // timeline watches the pipeline/slice work rates and the recorder,
    // and the one watchdog is the driver-fed stale-confident probe.
    sys_cfg.scope = ScopeConfig {
        enabled: true,
        series: vec![
            SeriesSpec::delta("pipeline.rpcs_issued"),
            SeriesSpec::delta("pipeline.sliced"),
            SeriesSpec::delta("slice.lookups"),
            SeriesSpec::level("trace.recorder_len"),
        ],
        rules: vec![WatchdogRule::still(WD_STALE_CONFIDENT, FEED_STALE_CONFIDENT)],
        ..ScopeConfig::default()
    };
    if sliced {
        sys_cfg.proxy.pipeline.slice = Some(SliceConfig::default());
    }
    if cfg.loss > 0.0 {
        sys_cfg.reliability.downlink.request_loss = LossProcess::Bernoulli(cfg.loss);
        sys_cfg.reliability.downlink.reply_loss = LossProcess::Bernoulli(cfg.loss);
    }
    PrestoSystem::new(sys_cfg)
}

/// An Ok answer contradicted by its own query window: empty series,
/// out-of-window samples, or a coverage stamp from the future.
fn is_stale_confident(c: &presto_proxy::CompletedQuery) -> bool {
    match (&c.query, &c.answer) {
        (presto_proxy::PipelineQuery::Past { from, to, .. }, PipelineAnswer::Series(a)) => {
            a.source != AnswerSource::Failed
                && (a.samples.is_empty()
                    || a.samples.iter().any(|&(t, _)| t < *from || t > *to))
        }
        (_, PipelineAnswer::Scalar(a)) => {
            a.source != AnswerSource::Failed
                && a.data_through.is_some_and(|d| d > c.completed_at)
        }
        _ => false,
    }
}

fn run_arm(cfg: &SliceScenarioConfig, sliced: bool) -> SliceArmReport {
    let epoch = SystemConfig::default().lab.epoch;
    let query_epochs = SimDuration::from_hours(cfg.query_hours).div_duration(epoch);
    let deadline = SystemConfig::default().proxy.pipeline.deadline;
    let drain_epochs = deadline.div_duration(epoch) + 4;
    let phase_hours = (query_epochs + drain_epochs) as f64 * epoch.as_secs_f64() / 3600.0;
    // Per-epoch arrival probability for one user.
    let p_arrival = cfg.queries_per_user_per_hour * epoch.as_secs_f64() / 3600.0;
    let stagger_slots = 4u64;

    let mut sys = system(cfg, sliced);
    sys.run(SimDuration::from_hours(cfg.warmup_hours));

    let mut rng = cfg.seed ^ 0x5711CE;
    let mut submitted = 0u64;
    let mut completed = 0u64;
    let mut answered_ok = 0u64;
    let mut failed = 0u64;
    let mut stale_confident = 0u64;
    let mut trace_terminals = 0u64;
    let mut trace_bad = 0u64;
    let mut answer_age_missing = 0u64;
    let mut latencies = Summary::new();
    let mut ages = Summary::new();

    for e in 0..query_epochs + drain_epochs {
        if e < query_epochs {
            for _user in 0..cfg.users {
                let r = mix(&mut rng);
                if (r % 10_000) as f64 >= p_arrival * 10_000.0 {
                    continue;
                }
                let sensor = (mix(&mut rng) % cfg.sensors as u64) as u16;
                let q = if mix(&mut rng).is_multiple_of(5) {
                    StoreQuery::Now {
                        sensor,
                        tolerance: cfg.tolerance,
                    }
                } else {
                    let (from, to) = hot_window(mix(&mut rng) % stagger_slots);
                    StoreQuery::Past {
                        sensor,
                        from,
                        to,
                        tolerance: cfg.tolerance,
                    }
                };
                if sys.submit_query(q).is_some() {
                    submitted += 1;
                }
            }
        }
        sys.scope_mut().feed(FEED_STALE_CONFIDENT, stale_confident as f64);
        sys.step_epoch();
        for (_, c) in sys.take_completed_queries() {
            completed += 1;
            latencies.record(c.answer.latency().as_secs_f64());
            let is_failed = match &c.answer {
                PipelineAnswer::Scalar(a) => a.source == AnswerSource::Failed,
                PipelineAnswer::Series(a) => a.source == AnswerSource::Failed,
            };
            if is_failed {
                failed += 1;
            } else {
                answered_ok += 1;
            }
            if is_stale_confident(&c) {
                stale_confident += 1;
            }
        }
        for tr in sys.proxies[0].pipeline_mut().tracer_mut().take_finished() {
            trace_terminals += 1;
            if tr.terminal_count() != 1 || !tr.is_monotone() {
                trace_bad += 1;
            }
            match tr.answer_age() {
                Some(age) => ages.record(age.as_secs_f64()),
                None if tr.cause() == Some(CompletionCause::Ok) => answer_age_missing += 1,
                None => {}
            }
        }
    }

    let ps = sys.pipeline_stats();
    let ss = sys.slice_cache_stats();
    let cache = sys.proxies[0].pipeline().reply_cache();
    let cache_hit_rate = if sliced {
        ss.hit_rate()
    } else {
        let total = cache.hits() + cache.misses();
        if total == 0 {
            0.0
        } else {
            cache.hits() as f64 / total as f64
        }
    };
    let snap = sys.telemetry_snapshot();
    let cost = arm_cost(&snap, &sys.sensor_ledger_total());
    SliceArmReport {
        submitted,
        completed,
        answered_ok,
        failed,
        completed_cached: ps.completed_fast + ps.completed_cached,
        sliced: ps.sliced,
        rpcs_issued: ps.rpcs_issued,
        cache_hit_rate,
        slice_lookups: ss.lookups,
        slice_l1_hits: ss.l1_hits,
        slice_l2_hits: ss.l2_hits,
        slice_promotions: ss.promotions,
        stale_confident,
        answer_age_missing,
        answer_age_count: ages.count() as u64,
        answer_age_p50_s: ages.median(),
        throughput_qph: answered_ok as f64 / phase_hours,
        p50_s: latencies.median(),
        p90_s: latencies.quantile(0.90),
        p99_s: latencies.quantile(0.99),
        trace_terminals,
        trace_bad,
        trace_orphans: sys.proxies[0].pipeline().tracer().open_count() as u64,
        retransmits: cost.retransmits,
        radio_bytes: cost.radio_bytes,
        sensor_energy_j: cost.sensor_energy_j,
        shed: cost.shed,
        leaked_pending: sys.pipeline_pending_total() as u64,
        leaked_rpcs: sys.async_in_flight_total() as u64,
        metrics: snap.flatten(),
        timeline: scope_timeline(sys.scope()),
        incidents: scope_incidents(sys.scope()),
        incidents_unattributed: sys.scope().unattributed_incidents() as u64,
    }
}

/// Runs both arms over the identical seeded workload.
pub fn slice_scenario(cfg: &SliceScenarioConfig) -> SliceScenarioReport {
    let sliced = run_arm(cfg, true);
    let monolithic = run_arm(cfg, false);
    let throughput_ratio = if monolithic.throughput_qph > 0.0 {
        sliced.throughput_qph / monolithic.throughput_qph
    } else {
        f64::INFINITY
    };
    let hit_rate_gain = sliced.cache_hit_rate - monolithic.cache_hit_rate;
    SliceScenarioReport {
        configured_loss: cfg.loss,
        sliced,
        monolithic,
        throughput_ratio,
        hit_rate_gain,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_slice_cache_absorbs_shared_hot_reads() {
        let r = slice_scenario(&SliceScenarioConfig::quick());
        for (label, arm) in [("sliced", &r.sliced), ("monolithic", &r.monolithic)] {
            assert!(arm.submitted > 50, "({label}) workload too small: {arm:?}");
            assert_eq!(
                arm.completed, arm.submitted,
                "({label}) every query must terminate"
            );
            assert_eq!(arm.stale_confident, 0, "({label}) {arm:?}");
            assert_eq!(arm.answer_age_missing, 0, "({label}) {arm:?}");
            assert_eq!(arm.trace_bad, 0, "({label}) {arm:?}");
            assert_eq!(arm.trace_orphans, 0, "({label}) {arm:?}");
            assert_eq!(arm.leaked_pending, 0, "({label}) {arm:?}");
            assert_eq!(arm.leaked_rpcs, 0, "({label}) {arm:?}");
            assert!(
                arm.incidents.is_empty(),
                "({label}) clean run must log zero incidents: {:?}",
                arm.incidents
            );
            assert_eq!(arm.incidents_unattributed, 0, "({label}) {arm:?}");
            assert!(
                arm.timeline.iter().any(|s| s.path == "slice.lookups"
                    || s.path == "pipeline.rpcs_issued"),
                "({label}) timeline missing the work-rate series"
            );
            assert!(
                arm.timeline.iter().all(|s| !s.points.is_empty()),
                "({label}) scope series with no points"
            );
            let metric = |key: &str| arm.metrics.iter().find(|(k, _)| k == key).map(|(_, v)| *v);
            assert_eq!(
                arm.radio_bytes.map(|b| b as f64),
                metric("sensor.bytes_sent"),
                "({label}) radio bytes must be the snapshot's sensor.bytes_sent"
            );
            assert!(
                arm.radio_bytes.is_some_and(|b| b > 0),
                "({label}) no radio bytes measured"
            );
            assert!(arm.sensor_energy_j > 0.0, "({label}) no sensor energy measured");
            assert_eq!(arm.shed, None, "({label}) a single proxy sheds nothing");
        }
        // The slice tiers' own counters in the exported snapshot: live,
        // and every lookup ends in exactly one of L1 hit, L2 hit or miss.
        let metric = |key: &str| {
            r.sliced
                .metrics
                .iter()
                .find(|(k, _)| k == key)
                .map_or(0.0, |(_, v)| *v)
        };
        assert!(metric("slice.lookups") > 0.0, "slice-tier counters absent");
        assert_eq!(
            metric("slice.lookups"),
            metric("slice.l1_hits") + metric("slice.l2_hits") + metric("slice.misses"),
            "slice tier accounting does not balance"
        );
        assert!(r.sliced.sliced > 0, "hot windows must take the sliced path");
        assert!(
            r.sliced.slice_l1_hits + r.sliced.slice_l2_hits <= r.sliced.slice_lookups,
            "tier hits cannot exceed lookups: {:?}",
            r.sliced
        );
        assert!(
            r.sliced.slice_promotions <= r.sliced.slice_l2_hits,
            "every promotion starts as an L2 hit: {:?}",
            r.sliced
        );
        assert!(
            r.hit_rate_gain > 0.0,
            "slice sharing must beat exact-match caching: {r:?}"
        );
        assert!(
            r.throughput_ratio >= 1.0,
            "slice reuse must not cost answered throughput: {r:?}"
        );
    }
}
