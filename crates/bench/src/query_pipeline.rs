//! The query-pipeline experiment: one proxy absorbing heavy multi-user
//! query traffic under downlink loss.
//!
//! Two identically seeded deployments run the same seeded multi-user
//! workload (NOW / PAST / aggregate arrivals with shared hot windows):
//!
//! * **pipeline** — queries enter the proxy's asynchronous pipeline;
//!   precision misses enqueue and overlap across epochs, identical
//!   windows coalesce into one pull, repeat spans come from the shared
//!   pull-reply cache, and every completion (or honest deadline
//!   failure) is recorded with its per-query latency;
//! * **serialized baseline** — the same arrivals served through the
//!   blocking `UnifiedStore` path one at a time: each RPC's entire
//!   attempt/timeout schedule occupies the proxy, so later queries
//!   queue behind it (the pre-pipeline behavior).
//!
//! Both drivers run the same horizon plus the same drain window, so
//! throughput compares answered-query counts over equal wall-clock.
//! The report carries p50/p90/p95/p99 latency for both, the pipeline's
//! peak in-flight pull count, coalescing and reply-cache counters, and
//! the leak probes the CI smoke asserts on.

use std::collections::VecDeque;

use presto_core::{PipelineAnswer, PrestoSystem, StoreQuery, SystemConfig, UnifiedStore};
use presto_net::LossProcess;
use presto_proxy::AnswerSource;
use presto_sim::metrics::Summary;
use presto_sim::{QueryArrival, QueryKind, QueryLoad, QueryLoadConfig, SimDuration, SimTime};

use crate::report::ArmSummary;

/// Experiment parameters.
#[derive(Clone, Debug)]
pub struct QueryPipelineConfig {
    /// Warmup (archive + model build) before the query phase, hours.
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
    /// Query tolerance (tight, so precision misses force pulls).
    pub tolerance: f64,
}

impl Default for QueryPipelineConfig {
    fn default() -> Self {
        QueryPipelineConfig {
            warmup_hours: 24,
            query_hours: 6,
            seed: 2005,
            sensors: 8,
            loss: 0.3,
            users: 16,
            queries_per_user_per_hour: 60.0,
            tolerance: 0.05,
        }
    }
}

impl QueryPipelineConfig {
    /// The small fixed-seed configuration the CI smoke runs.
    pub fn quick() -> Self {
        QueryPipelineConfig {
            warmup_hours: 6,
            query_hours: 2,
            sensors: 4,
            users: 10,
            ..QueryPipelineConfig::default()
        }
    }
}

crate::json_row! {
    /// Latency percentiles in seconds.
    #[derive(Clone, Copy, Debug, Default)]
    pub struct LatencyProfile {
        /// Median.
        pub p50_s: f64,
        /// 90th percentile.
        pub p90_s: f64,
        /// 95th percentile.
        pub p95_s: f64,
        /// 99th percentile.
        pub p99_s: f64,
        /// Mean.
        pub mean_s: f64,
    }
}

impl LatencyProfile {
    fn of(s: &Summary) -> Self {
        LatencyProfile {
            p50_s: s.median(),
            p90_s: s.quantile(0.90),
            p95_s: s.p95(),
            p99_s: s.quantile(0.99),
            mean_s: s.mean(),
        }
    }
}

crate::json_row! {
    /// Experiment result.
    #[derive(Clone, Debug)]
    pub struct QueryPipelineReport {
        /// Configured downlink loss.
        pub configured_loss: f64,
        /// Queries emitted by the workload.
        pub submitted: u64,
        /// Pipeline: queries completed (any outcome).
        pub completed: u64,
        /// Pipeline: completions with a real answer (non-Failed).
        pub answered_ok: u64,
        /// Pipeline: honest deadline failures.
        pub failed: u64,
        /// Completions straight from cache/model fast paths.
        pub completed_fast: u64,
        /// Completions from the shared pull-reply cache (no radio).
        pub completed_cached: u64,
        /// Queries that coalesced onto an in-flight pull.
        pub coalesced: u64,
        /// Pull RPCs issued by the pipeline.
        pub rpcs_issued: u64,
        /// Peak simultaneously in-flight pulls at the proxy.
        pub max_in_flight: u64,
        /// Shared-cache hit / miss counters.
        pub reply_cache_hits: u64,
        /// Lookups that went to the radio.
        pub reply_cache_misses: u64,
        /// Leak probes after the drain window (must both be zero).
        pub leaked_pending: u64,
        /// Leaked pending-RPC table entries after the drain window.
        pub leaked_rpcs: u64,
        /// Pipeline answered-query throughput over the phase, queries/hour.
        pub pipeline_throughput_qph: f64,
        /// Pipeline per-query latency percentiles.
        pub pipeline_latency: LatencyProfile,
        /// Baseline: queries served within the same phase.
        pub baseline_served: u64,
        /// Baseline: served with a real answer.
        pub baseline_ok: u64,
        /// Baseline: arrivals still queued when the phase ended.
        pub baseline_unserved: u64,
        /// Baseline throughput over the same phase, queries/hour.
        pub baseline_throughput_qph: f64,
        /// Baseline per-query latency percentiles (queue wait + RPC).
        pub baseline_latency: LatencyProfile,
        /// `pipeline_throughput_qph / baseline_throughput_qph`.
        pub speedup: f64,
    }
}

impl QueryPipelineReport {
    /// Both arms' rows in the shared benchmark artifact. The pipeline
    /// drains every query; the serialized baseline can end its phase
    /// with arrivals still queued, reported as `unserved`.
    pub fn arms(&self) -> Vec<ArmSummary> {
        vec![
            ArmSummary {
                arm: "pipeline".into(),
                submitted: self.submitted,
                answered_ok: self.answered_ok,
                failed: self.failed,
                queries_per_sec: self.pipeline_throughput_qph / 3600.0,
                latency_p50_s: self.pipeline_latency.p50_s,
                latency_p90_s: self.pipeline_latency.p90_s,
                latency_p99_s: self.pipeline_latency.p99_s,
                ..ArmSummary::default()
            },
            ArmSummary {
                arm: "serialized-baseline".into(),
                submitted: self.submitted,
                answered_ok: self.baseline_ok,
                failed: self.baseline_served - self.baseline_ok,
                unserved: Some(self.baseline_unserved),
                queries_per_sec: self.baseline_throughput_qph / 3600.0,
                latency_p50_s: self.baseline_latency.p50_s,
                latency_p90_s: self.baseline_latency.p90_s,
                latency_p99_s: self.baseline_latency.p99_s,
                ..ArmSummary::default()
            },
        ]
    }
}

fn system(cfg: &QueryPipelineConfig) -> PrestoSystem {
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
    if cfg.loss > 0.0 {
        sys_cfg.reliability.downlink.request_loss = LossProcess::Bernoulli(cfg.loss);
        sys_cfg.reliability.downlink.reply_loss = LossProcess::Bernoulli(cfg.loss);
    }
    PrestoSystem::new(sys_cfg)
}

fn load(cfg: &QueryPipelineConfig) -> QueryLoad {
    QueryLoad::new(
        QueryLoadConfig {
            users: cfg.users,
            queries_per_user_per_hour: cfg.queries_per_user_per_hour,
            max_age: SimDuration::from_hours(cfg.warmup_hours.min(12)),
            tolerances: vec![cfg.tolerance],
            seed: cfg.seed ^ 0x51_0AD,
            ..QueryLoadConfig::default()
        },
        cfg.sensors,
    )
}

fn to_store_query(a: &QueryArrival, tolerance: f64) -> StoreQuery {
    let sensor = a.sensor_slot as u16;
    match a.kind {
        QueryKind::Now => StoreQuery::Now { sensor, tolerance },
        QueryKind::Past => StoreQuery::Past {
            sensor,
            from: a.from,
            to: a.to,
            tolerance: a.tolerance,
        },
        QueryKind::Aggregate => StoreQuery::Aggregate {
            sensor,
            from: a.from,
            to: a.to,
            op: presto_sensor::AggregateOp::Mean,
        },
    }
}

/// Runs the experiment.
pub fn query_pipeline(cfg: &QueryPipelineConfig) -> QueryPipelineReport {
    let epoch = SystemConfig::default().lab.epoch;
    let query_epochs = SimDuration::from_hours(cfg.query_hours).div_duration(epoch);
    // Drain: one pipeline deadline past the last arrival, plus slack.
    let deadline = SystemConfig::default().proxy.pipeline.deadline;
    let drain_epochs = deadline.div_duration(epoch) + 4;
    let phase_hours =
        (query_epochs + drain_epochs) as f64 * epoch.as_secs_f64() / 3600.0;

    // ── pipeline run ────────────────────────────────────────────────
    let mut sys = system(cfg);
    sys.run(SimDuration::from_hours(cfg.warmup_hours));
    let mut gen = load(cfg);
    let mut latencies = Summary::new();
    let mut submitted = 0u64;
    let mut completed = 0u64;
    let mut answered_ok = 0u64;
    for e in 0..query_epochs + drain_epochs {
        if e < query_epochs {
            let t = sys.now();
            for a in gen.step(t, epoch) {
                if sys.submit_query(to_store_query(&a, cfg.tolerance)).is_some() {
                    submitted += 1;
                }
            }
        }
        sys.step_epoch();
        for (_, c) in sys.take_completed_queries() {
            completed += 1;
            // The answer's latency is already end-to-end: pull and
            // deadline completions fold the submit→complete wait in.
            latencies.record(c.answer.latency().as_secs_f64());
            let failed = match &c.answer {
                PipelineAnswer::Scalar(a) => a.source == AnswerSource::Failed,
                PipelineAnswer::Series(a) => a.source == AnswerSource::Failed,
            };
            if !failed {
                answered_ok += 1;
            }
        }
    }
    let ps = sys.pipeline_stats();
    let cache = sys.proxies[0].pipeline().reply_cache();
    let (cache_hits, cache_misses) = (cache.hits(), cache.misses());
    let leaked_pending = sys.pipeline_pending_total() as u64;
    let leaked_rpcs = sys.async_in_flight_total() as u64;

    // ── serialized baseline ─────────────────────────────────────────
    // Identical deployment and workload; each query's blocking RPC
    // occupies the proxy for its full latency, so later arrivals queue.
    let mut base = system(cfg);
    base.run(SimDuration::from_hours(cfg.warmup_hours));
    let mut base_gen = load(cfg);
    let mut fifo: VecDeque<(SimTime, StoreQuery)> = VecDeque::new();
    let mut base_lat = Summary::new();
    let mut base_served = 0u64;
    let mut base_ok = 0u64;
    let mut server_free_at = base.now();
    for e in 0..query_epochs + drain_epochs {
        let t = base.now();
        if e < query_epochs {
            for a in base_gen.step(t, epoch) {
                fifo.push_back((t, to_store_query(&a, cfg.tolerance)));
            }
        }
        while let Some(&(arrived, q)) = fifo.front() {
            if server_free_at > t {
                break;
            }
            fifo.pop_front();
            let r = UnifiedStore::new(&mut base).query(q);
            let done_at = server_free_at.max(t) + r.latency;
            server_free_at = done_at;
            base_lat.record((done_at - arrived).as_secs_f64());
            base_served += 1;
            if r.source != AnswerSource::Failed {
                base_ok += 1;
            }
        }
        base.step_epoch();
    }

    let pipeline_throughput_qph = answered_ok as f64 / phase_hours;
    let baseline_throughput_qph = base_ok as f64 / phase_hours;
    QueryPipelineReport {
        configured_loss: cfg.loss,
        submitted,
        completed,
        answered_ok,
        failed: ps.failed,
        completed_fast: ps.completed_fast,
        completed_cached: ps.completed_cached,
        coalesced: ps.coalesced,
        rpcs_issued: ps.rpcs_issued,
        max_in_flight: ps.max_in_flight,
        reply_cache_hits: cache_hits,
        reply_cache_misses: cache_misses,
        leaked_pending,
        leaked_rpcs,
        pipeline_throughput_qph,
        pipeline_latency: LatencyProfile::of(&latencies),
        baseline_served: base_served,
        baseline_ok: base_ok,
        baseline_unserved: fifo.len() as u64,
        baseline_throughput_qph,
        baseline_latency: LatencyProfile::of(&base_lat),
        speedup: if baseline_throughput_qph > 0.0 {
            pipeline_throughput_qph / baseline_throughput_qph
        } else {
            f64::INFINITY
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_pipeline_beats_serialized_baseline_under_loss() {
        let r = query_pipeline(&QueryPipelineConfig::quick());
        assert!(r.submitted > 50, "workload too small: {r:?}");
        assert_eq!(
            r.completed, r.submitted,
            "every query must terminate: {r:?}"
        );
        assert_eq!(r.leaked_pending, 0, "leaked pending queries: {r:?}");
        assert_eq!(r.leaked_rpcs, 0, "leaked pending-RPC entries: {r:?}");
        assert!(
            r.max_in_flight >= 4,
            "expected overlapping in-flight pulls: {r:?}"
        );
        assert!(
            r.pipeline_latency.p99_s.is_finite() && r.pipeline_latency.p99_s > 0.0,
            "p99 must be finite and real: {r:?}"
        );
        for l in [r.pipeline_latency, r.baseline_latency] {
            assert!(
                l.p50_s <= l.p90_s && l.p90_s <= l.p95_s && l.p95_s <= l.p99_s,
                "percentiles out of order: {l:?}"
            );
        }
        assert!(
            r.pipeline_throughput_qph > r.baseline_throughput_qph,
            "pipeline must beat the serialized baseline: {r:?}"
        );
        assert!(r.coalesced > 0, "hot windows never coalesced: {r:?}");
    }

    #[test]
    fn quick_arms_account_for_every_query() {
        let r = query_pipeline(&QueryPipelineConfig::quick());
        let arms = r.arms();
        assert_eq!(arms.len(), 2);
        for a in &arms {
            assert_eq!(
                a.answered_ok + a.failed + a.unserved.unwrap_or(0),
                a.submitted,
                "arm {} leaves queries unaccounted: {a:?}",
                a.arm
            );
        }
        // The serialized baseline cannot keep up, so its queue is
        // measured, not folded into a silent zero.
        assert!(arms[1].unserved.is_some_and(|n| n > 0), "{:?}", arms[1]);
        assert_eq!(arms[0].unserved, None, "the pipeline drains");
    }
}
