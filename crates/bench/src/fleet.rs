//! The fleet-scenario experiment: skewed multi-proxy load, query
//! shedding on vs off, and a proxy crash + re-home cycle.
//!
//! Two identically seeded fleets run the same Zipf-skewed multi-user
//! workload (one hot proxy absorbing most of the traffic) through the
//! same lossy downlinks, inter-link mesh, and proxy-crash schedule.
//! The only difference is the router's shed switch:
//!
//! * **shedding off** — every query is served where it enters; the hot
//!   proxy's per-epoch attempt budget saturates, its queue grows, and
//!   late queries fail honestly at their deadlines;
//! * **shedding on** — the admission controller reads per-proxy
//!   pressure and forwards archive-range queries from the hot proxy to
//!   cool peers, which pull the sensors over cross-proxy channels.
//!
//! The report compares answered-query throughput, p99 terminal
//! latency (honest failures included at deadline + grace — the latency
//! a user actually experiences), per-proxy completion fairness, and
//! the stale-confident count (answers claiming tight sigma while far
//! from the live truth — must be zero: shedding may slow an answer,
//! never silently wrong one). Leak probes must read clean after the
//! drain window, across the crash + re-home cycle included.

use crate::report::{
    arm_cost, scope_incidents, scope_timeline, ArmSummary, IncidentOut, SeriesOut,
};
use presto_core::SystemConfig;
use presto_fleet::{fleet_scope_config, FleetConfig, FleetDeployment, FleetScopeBounds, FEED_STALE_CONFIDENT};
use presto_net::LossProcess;
use presto_proxy::{PipelineAnswer, PipelineQuery, QueryClass};
use presto_sim::metrics::Summary;
use presto_sim::{
    FaultPlan, FleetLoadConfig, FleetQueryLoad, QueryLoadConfig, SimDuration, SimTime,
};

/// Scenario parameters.
#[derive(Clone, Debug)]
pub struct FleetScenarioConfig {
    /// Warmup (archive + model build) before the query phase, hours.
    pub warmup_hours: u64,
    /// Query-phase length, hours.
    pub query_hours: u64,
    /// Master seed.
    pub seed: u64,
    /// Proxies in the fleet.
    pub proxies: usize,
    /// Sensors per proxy.
    pub sensors_per_proxy: usize,
    /// Downlink loss (Bernoulli, request and reply paths).
    pub loss: f64,
    /// Concurrent users.
    pub users: usize,
    /// Mean queries per user per hour.
    pub queries_per_user_per_hour: f64,
    /// Zipf skew over proxies (proxy 0 hottest).
    pub zipf_s: f64,
    /// Query tolerance (tight, so precision misses force pulls).
    pub tolerance: f64,
    /// Crash window for the last proxy, hours into the query phase
    /// (`None` disables; the sensors re-home and stay re-homed).
    pub crash_hours: Option<(u64, u64)>,
}

impl Default for FleetScenarioConfig {
    fn default() -> Self {
        FleetScenarioConfig {
            warmup_hours: 12,
            query_hours: 4,
            seed: 2005,
            proxies: 4,
            sensors_per_proxy: 3,
            loss: 0.3,
            users: 32,
            queries_per_user_per_hour: 120.0,
            zipf_s: 1.6,
            tolerance: 0.05,
            crash_hours: Some((1, 1000)),
        }
    }
}

impl FleetScenarioConfig {
    /// The small fixed-seed configuration the CI smoke runs.
    pub fn quick() -> Self {
        FleetScenarioConfig {
            warmup_hours: 16,
            query_hours: 2,
            proxies: 3,
            sensors_per_proxy: 2,
            users: 28,
            queries_per_user_per_hour: 100.0,
            ..FleetScenarioConfig::default()
        }
    }
}

crate::json_row! {
    /// One arm's (shedding on or off) measurements.
    #[derive(Clone, Debug)]
    pub struct FleetArmReport {
        /// Queries submitted.
        pub submitted: u64,
        /// Terminals observed (every submitted query must terminate).
        pub completed: u64,
        /// Terminals with a real (non-Failed) answer.
        pub answered_ok: u64,
        /// Honest failures (router + pipeline deadlines, entry death).
        pub failed: u64,
        /// Queries shed from hot proxies (`fleet_router.shed`).
        pub shed: Option<u64>,
        /// Pipeline completions straight from radio-free fast paths.
        pub completed_fast: u64,
        /// Pipeline completions from matched pull replies.
        pub completed_pull: u64,
        /// Pull RPCs issued across proxies.
        pub rpcs_issued: u64,
        /// Shed/resumed queries that completed with a real answer.
        pub forwarded_ok: u64,
        /// Answered-query throughput over the phase, queries/hour.
        pub throughput_qph: f64,
        /// Terminal-latency p50, seconds (failures included at
        /// deadline + grace).
        pub p50_s: f64,
        /// Terminal-latency p99, seconds.
        pub p99_s: f64,
        /// Per-proxy answered fraction, by entry proxy.
        pub per_proxy_answer_rate: Vec<f64>,
        /// min / max of `per_proxy_answer_rate` (1.0 = perfectly fair).
        pub fairness: f64,
        /// Answers claiming sigma ≤ tolerance while far from the live
        /// truth (must be zero).
        pub stale_confident: u64,
        /// Sensors re-homed after the proxy crash.
        pub rehomed: u64,
        /// Inter-link messages dropped after retransmission exhaustion.
        pub mesh_dropped: u64,
        /// Leak probes after the drain window (all must be zero).
        pub leaked_router: u64,
        /// Leaked pending pipeline queries.
        pub leaked_pipeline: u64,
        /// Leaked pending-RPC entries (home + cross-proxy channels).
        pub leaked_rpcs: u64,
        /// Leaked in-flight mesh messages.
        pub leaked_mesh: u64,
        /// Terminal-latency p90, seconds.
        pub p90_s: f64,
        /// Real answers carrying an explicit serve-time age.
        pub answer_age_count: u64,
        /// Real data-carrying answers missing the age stamp (must be 0).
        pub answer_age_missing: u64,
        /// Answer-age p50, seconds.
        pub answer_age_p50_s: f64,
        /// Finished query traces collected from the router tracer.
        pub trace_terminals: u64,
        /// Traces with ≠1 terminal or non-monotone timestamps (must be 0).
        pub trace_bad: u64,
        /// Open trace logs (router + pipelines) after drain (must be 0).
        pub trace_orphans: u64,
        /// Downlink request retransmissions (home channels).
        pub retransmits: Option<u64>,
        /// Payload bytes the sensors offered to the MAC.
        pub radio_bytes: Option<u64>,
        /// Total sensor-tier energy, joules.
        pub sensor_energy_j: f64,
        /// The flattened unified-telemetry snapshot (the BENCH artifact
        /// rows).
        pub metrics: Vec<(String, f64)>,
        /// presto-scope epoch trajectories (the BENCH timeline section).
        pub timeline: Vec<SeriesOut>,
        /// Watchdog incident log, with fault attribution.
        pub incidents: Vec<IncidentOut>,
        /// Incidents no injected fault explains (must be zero — every
        /// violation in this scenario is the crash schedule's doing).
        pub incidents_unattributed: u64,
    }
}

impl FleetArmReport {
    /// This arm's row in the shared benchmark artifact.
    pub fn summarize(&self, arm: &str) -> ArmSummary {
        ArmSummary {
            arm: arm.to_string(),
            submitted: self.submitted,
            answered_ok: self.answered_ok,
            failed: self.failed,
            unserved: None,
            queries_per_sec: self.throughput_qph / 3600.0,
            latency_p50_s: self.p50_s,
            latency_p90_s: self.p90_s,
            latency_p99_s: self.p99_s,
            answer_age_count: Some(self.answer_age_count),
            answer_age_missing: Some(self.answer_age_missing),
            answer_age_p50_s: Some(self.answer_age_p50_s),
            shed: self.shed,
            rehomed: Some(self.rehomed),
            retransmits: self.retransmits,
            radio_bytes: self.radio_bytes,
            sensor_energy_j: Some(self.sensor_energy_j),
            cache_hit_rate: None,
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
    pub struct FleetScenarioReport {
        /// Configured downlink loss.
        pub configured_loss: f64,
        /// Zipf exponent.
        pub zipf_s: f64,
        /// Shedding on.
        pub shed_on: FleetArmReport,
        /// Shedding off.
        pub shed_off: FleetArmReport,
        /// `shed_on.throughput / shed_off.throughput`.
        pub throughput_gain: f64,
        /// The shared-artifact alias for [`FleetScenarioReport::throughput_gain`]
        /// — every scenario report emits `throughput_ratio` under the same
        /// key.
        pub throughput_ratio: f64,
        /// `shed_off.p99 / shed_on.p99`.
        pub p99_gain: f64,
    }
}

fn fleet(cfg: &FleetScenarioConfig, shed: bool) -> FleetDeployment {
    let mut sys_cfg = SystemConfig {
        proxies: cfg.proxies,
        sensors_per_proxy: cfg.sensors_per_proxy,
        seed: cfg.seed,
        lab: presto_workloads::LabParams {
            events_per_day: 0.0,
            // The quiet regime where model-driven silence actually
            // holds: with the default heavy-tailed jitter the sensors
            // push nearly every epoch, the proxy caches densify, and
            // every query completes radio-free — no pipeline pressure,
            // nothing to shed. Quiet sensors keep the caches sparse so
            // tight-tolerance queries genuinely pull.
            jitter_sigma: 0.08,
            heavy_prob: 0.0,
            field_sigma: 0.05,
            ..presto_workloads::LabParams::default()
        },
        ..SystemConfig::default()
    };
    if cfg.loss > 0.0 {
        sys_cfg.reliability.downlink.request_loss = LossProcess::Bernoulli(cfg.loss);
        sys_cfg.reliability.downlink.reply_loss = LossProcess::Bernoulli(cfg.loss);
    }
    // A tight per-epoch attempt budget is the contended resource the
    // deployment tier arbitrates: one proxy can push ~4 lossy pulls
    // per epoch through it, so the Zipf-hot proxy saturates while its
    // peers idle — exactly the imbalance shedding exists to absorb.
    sys_cfg.proxy.pipeline.epoch_attempt_budget = 8;
    // Full trace spans: the router traces by default; turning the
    // pipeline tracer on too gets per-RPC attempt/retransmit/defer
    // events spliced into every fleet trace for the BENCH artifact.
    sys_cfg.proxy.pipeline.trace = true;
    // The standard fleet scope: epoch time-series sampling plus the
    // SLO watchdogs, so every run exports a trajectory and any
    // violation lands in the incident log with the faults to blame.
    sys_cfg.scope = fleet_scope_config(&FleetScopeBounds::default());
    // A bounded summary cache (the paper's "cache of summary
    // information"): the queryable age band below is deliberately
    // larger than this, so the workload's working set does not fit and
    // distinct archive windows genuinely pull instead of re-reading
    // spans earlier pulls densified. Large enough for model training
    // (min_history 500).
    sys_cfg.proxy.cache_capacity = 700;
    if let Some((from_h, to_h)) = cfg.crash_hours {
        let start = SimTime::from_hours(cfg.warmup_hours + from_h);
        let end = SimTime::from_hours(cfg.warmup_hours + to_h);
        sys_cfg.faults = FaultPlan::none().with_proxy_crash(cfg.proxies - 1, start, end);
    }
    let mut fc = FleetConfig {
        system: sys_cfg,
        ..FleetConfig::default()
    };
    fc.router.shed_enabled = shed;
    // Latency classes: the tight-tolerance archive class gets the full
    // default deadline; a loose NOW class trades deadline for budget.
    fc.router.latency_classes = vec![
        QueryClass {
            rate_per_hour: cfg.users as f64 * cfg.queries_per_user_per_hour,
            latency_bound: SimDuration::from_mins(10),
            tolerance: cfg.tolerance,
        },
        QueryClass {
            rate_per_hour: 10.0,
            latency_bound: SimDuration::from_mins(4),
            tolerance: 1.5,
        },
    ];
    FleetDeployment::new(fc)
}

fn load(cfg: &FleetScenarioConfig) -> FleetQueryLoad {
    FleetQueryLoad::new(
        FleetLoadConfig {
            load: QueryLoadConfig {
                users: cfg.users,
                queries_per_user_per_hour: cfg.queries_per_user_per_hour,
                // Windows stay inside the model-era (quiet) span: the
                // pre-model warmup hours pushed every sample, so
                // windows reaching that far back would hit dense cache
                // instead of pulling.
                window_min: SimDuration::from_mins(10),
                window_max: SimDuration::from_mins(30),
                max_age: SimDuration::from_hours(cfg.warmup_hours.saturating_sub(8).max(2)),
                // Mostly-distinct windows: dashboard-style hot windows
                // coalesce into one pull and carry no load, so the
                // skew stress comes from the uniform draws.
                hot_fraction: 0.1,
                tolerances: vec![cfg.tolerance],
                seed: cfg.seed ^ 0xF1_EE7,
                ..QueryLoadConfig::default()
            },
            groups: cfg.proxies,
            zipf_s: cfg.zipf_s,
        },
        cfg.sensors_per_proxy,
    )
}

fn run_arm(cfg: &FleetScenarioConfig, shed: bool) -> FleetArmReport {
    let epoch = SystemConfig::default().lab.epoch;
    let warmup_epochs = SimDuration::from_hours(cfg.warmup_hours).div_duration(epoch);
    let query_epochs = SimDuration::from_hours(cfg.query_hours).div_duration(epoch);
    // Drain: the longest per-query deadline plus the router grace.
    let drain_epochs = SimDuration::from_mins(14).div_duration(epoch) + 4;
    let phase_hours = (query_epochs + drain_epochs) as f64 * epoch.as_secs_f64() / 3600.0;

    let mut fleet = fleet(cfg, shed);
    for _ in 0..warmup_epochs {
        fleet.step_epoch();
    }
    let mut gen = load(cfg);
    let mut submitted = 0u64;
    let mut per_proxy_submitted = vec![0u64; cfg.proxies];
    let mut per_proxy_ok = vec![0u64; cfg.proxies];
    let mut latencies = Summary::new();
    let mut ages = Summary::new();
    let mut answered_ok = 0u64;
    let mut failed = 0u64;
    let mut forwarded_ok = 0u64;
    let mut stale_confident = 0u64;
    let mut completed = 0u64;
    let mut answer_age_missing = 0u64;
    let mut trace_terminals = 0u64;
    let mut trace_bad = 0u64;

    // NOW queries answer "the value when you asked" (the pipeline's
    // value-identity contract anchors at submission), so the
    // stale-confidence oracle is the truth at submission time.
    let mut truth_at_submit: std::collections::BTreeMap<u64, f64> =
        std::collections::BTreeMap::new();
    for e in 0..query_epochs + drain_epochs {
        if e < query_epochs {
            let t = fleet.now();
            let truth_now = fleet.system.truth.clone();
            for a in gen.step(t, epoch) {
                let gid = fleet.arrival_gid(&a);
                let ticket = fleet.submit_arrival(&a);
                if a.arrival.kind == presto_sim::QueryKind::Now {
                    truth_at_submit.insert(ticket, truth_now[gid as usize]);
                }
                submitted += 1;
                per_proxy_submitted[a.group.min(cfg.proxies - 1)] += 1;
            }
        }
        // The stale-confidence probe is driver-side knowledge (it needs
        // ground truth), so it reaches the watchdog as a feed; growth
        // in the cumulative count is a violation.
        fleet
            .system
            .scope_mut()
            .feed(FEED_STALE_CONFIDENT, stale_confident as f64);
        fleet.step_epoch();
        for c in fleet.take_completed() {
            completed += 1;
            latencies.record((c.completed_at - c.submitted_at).as_secs_f64());
            // Drop the oracle entry on every terminal (failed NOW
            // queries included) so the map tracks only open tickets.
            let submit_truth = truth_at_submit.remove(&c.ticket);
            let ok = c.answer.source() != presto_proxy::AnswerSource::Failed;
            if ok {
                answered_ok += 1;
                per_proxy_ok[c.entry] += 1;
                if c.forwarded {
                    forwarded_ok += 1;
                }
                match c.answer_age {
                    Some(age) => ages.record(age.as_secs_f64()),
                    // Aggregates over empty ranges honestly carry no
                    // age; anything else must be stamped.
                    None => {
                        let empty_aggregate = matches!(
                            (&c.query, &c.answer),
                            (PipelineQuery::Aggregate { .. }, PipelineAnswer::Scalar(a))
                                if a.sigma.is_infinite()
                        );
                        if !empty_aggregate {
                            answer_age_missing += 1;
                        }
                    }
                }
                // Stale-confidence probe on NOW answers: an answer
                // claiming sigma within the tolerance must sit near
                // the truth at submission (generous slack for the
                // sampling gap between the serving sample and the
                // submission reading — the metric hunts
                // confidently-wrong answers, which err at the signal
                // scale).
                if let (PipelineQuery::Now { tolerance, .. }, PipelineAnswer::Scalar(ans)) =
                    (&c.query, &c.answer)
                {
                    if let Some(truth) = submit_truth {
                        let err = (ans.value - truth).abs();
                        if ans.sigma <= *tolerance && err > tolerance + 0.5 {
                            stale_confident += 1;
                        }
                    }
                }
            } else {
                failed += 1;
            }
        }
        // Drain finished traces each epoch (bounded FIFO) and audit
        // well-formedness as they stream out.
        for tr in fleet.router.tracer_mut().take_finished() {
            trace_terminals += 1;
            if tr.terminal_count() != 1 || !tr.is_monotone() {
                trace_bad += 1;
            }
        }
    }

    let rates: Vec<f64> = (0..cfg.proxies)
        .map(|p| {
            if per_proxy_submitted[p] == 0 {
                1.0
            } else {
                per_proxy_ok[p] as f64 / per_proxy_submitted[p] as f64
            }
        })
        .collect();
    // Fairness compares *surviving* entry proxies: a crashed proxy's
    // users lose their connection in both arms identically (honest
    // failures no router policy can serve), so including it would
    // only mask the hot-vs-cold imbalance shedding addresses.
    let crashed = cfg.crash_hours.map(|_| cfg.proxies - 1);
    let fairness = {
        let surviving = rates
            .iter()
            .enumerate()
            .filter(|&(p, _)| Some(p) != crashed)
            .map(|(_, &r)| r);
        let (mut lo, mut hi) = (f64::INFINITY, 0.0f64);
        for r in surviving {
            lo = lo.min(r);
            hi = hi.max(r);
        }
        if hi > 0.0 {
            lo / hi
        } else {
            1.0
        }
    };
    let leaks = fleet.leaks();
    let ps = fleet.system.pipeline_stats();
    let snap = fleet.telemetry_snapshot();
    let cost = arm_cost(&snap, &fleet.system.sensor_ledger_total());
    let trace_orphans = fleet.router.tracer().open_count() as u64
        + (0..cfg.proxies)
            .map(|p| fleet.system.proxies[p].pipeline().tracer().open_count() as u64)
            .sum::<u64>();
    FleetArmReport {
        submitted,
        completed,
        answered_ok,
        failed,
        shed: cost.shed,
        completed_fast: ps.completed_fast,
        completed_pull: ps.completed_pull,
        rpcs_issued: ps.rpcs_issued,
        forwarded_ok,
        throughput_qph: answered_ok as f64 / phase_hours,
        p50_s: latencies.median(),
        p99_s: latencies.quantile(0.99),
        per_proxy_answer_rate: rates,
        fairness,
        stale_confident,
        rehomed: fleet.rehomed_sensors(),
        mesh_dropped: fleet.mesh.stats().dropped,
        leaked_router: leaks.router_open as u64,
        leaked_pipeline: leaks.pipeline_pending as u64,
        leaked_rpcs: leaks.rpcs_in_flight as u64,
        leaked_mesh: leaks.mesh_in_flight as u64,
        p90_s: latencies.quantile(0.90),
        answer_age_count: ages.count() as u64,
        answer_age_missing,
        answer_age_p50_s: ages.median(),
        trace_terminals,
        trace_bad,
        trace_orphans,
        retransmits: cost.retransmits,
        radio_bytes: cost.radio_bytes,
        sensor_energy_j: cost.sensor_energy_j,
        metrics: snap.flatten(),
        timeline: scope_timeline(fleet.system.scope()),
        incidents: scope_incidents(fleet.system.scope()),
        incidents_unattributed: fleet.system.scope().unattributed_incidents() as u64,
    }
}

/// One same-seed arm reduced to byte-comparable artifacts: the dynamic
/// half of the determinism story (the static half is `presto-lint`'s D1
/// pass — see ANALYSIS.md). Two runs with the same config must produce
/// identical strings, byte for byte; any divergence means something
/// outside the seeded RNGs (iteration order, wall-clock, uninitialized
/// state) leaked into behavior.
pub struct DeterminismFingerprint {
    /// `Snapshot::render()` of the final unified telemetry tree — every
    /// counter, gauge, and histogram bucket in sorted dotted-path order.
    pub snapshot: String,
    /// One `Debug` line per completion, in completion order: ticket,
    /// query, routing (entry/served_by/forwarded), the full answer
    /// (values, sigma, provenance, data_through), and both timestamps.
    pub completions: String,
}

/// Drives one arm exactly like the scenario does and fingerprints it.
pub fn determinism_fingerprint(cfg: &FleetScenarioConfig, shed: bool) -> DeterminismFingerprint {
    use std::fmt::Write as _;
    let epoch = SystemConfig::default().lab.epoch;
    let warmup_epochs = SimDuration::from_hours(cfg.warmup_hours).div_duration(epoch);
    let query_epochs = SimDuration::from_hours(cfg.query_hours).div_duration(epoch);
    let drain_epochs = SimDuration::from_mins(14).div_duration(epoch) + 4;

    let mut fleet = fleet(cfg, shed);
    for _ in 0..warmup_epochs {
        fleet.step_epoch();
    }
    let mut gen = load(cfg);
    let mut completions = String::new();
    for e in 0..query_epochs + drain_epochs {
        if e < query_epochs {
            let t = fleet.now();
            for a in gen.step(t, epoch) {
                fleet.submit_arrival(&a);
            }
        }
        fleet.step_epoch();
        for c in fleet.take_completed() {
            let _ = writeln!(completions, "{c:?}");
        }
    }
    // The profiler section is host wall-clock phase timing — the same
    // telemetry-timer carve-out the static D2 allowlist grants
    // `crates/telemetry/src/profiler.rs` — so it is excluded from the
    // byte-identity check; everything else in the tree must match.
    let snapshot = fleet
        .telemetry_snapshot()
        .render()
        .lines()
        .filter(|l| !l.starts_with("profiler."))
        .fold(String::new(), |mut out, l| {
            out.push_str(l);
            out.push('\n');
            out
        });
    DeterminismFingerprint {
        snapshot,
        completions,
    }
}

/// Runs both arms.
pub fn fleet_scenario(cfg: &FleetScenarioConfig) -> FleetScenarioReport {
    let shed_on = run_arm(cfg, true);
    let shed_off = run_arm(cfg, false);
    let throughput_gain = if shed_off.throughput_qph > 0.0 {
        shed_on.throughput_qph / shed_off.throughput_qph
    } else {
        f64::INFINITY
    };
    let p99_gain = if shed_on.p99_s > 0.0 {
        shed_off.p99_s / shed_on.p99_s
    } else {
        f64::INFINITY
    };
    FleetScenarioReport {
        configured_loss: cfg.loss,
        zipf_s: cfg.zipf_s,
        shed_on,
        shed_off,
        throughput_gain,
        throughput_ratio: throughput_gain,
        p99_gain,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_shedding_beats_no_shedding_under_skew() {
        let r = fleet_scenario(&FleetScenarioConfig::quick());
        for (label, arm) in [("on", &r.shed_on), ("off", &r.shed_off)] {
            assert!(arm.submitted > 200, "workload too small ({label}): {arm:?}");
            assert_eq!(
                arm.completed, arm.submitted,
                "every query must terminate ({label}): {arm:?}"
            );
            assert_eq!(arm.stale_confident, 0, "stale-confident answers ({label}): {arm:?}");
            assert_eq!(arm.leaked_router, 0, "({label}) {arm:?}");
            assert_eq!(arm.leaked_pipeline, 0, "({label}) {arm:?}");
            assert_eq!(arm.leaked_rpcs, 0, "({label}) {arm:?}");
            assert_eq!(arm.leaked_mesh, 0, "({label}) {arm:?}");
            assert!(arm.rehomed >= 2, "crash must re-home sensors ({label}): {arm:?}");
            assert_eq!(
                arm.trace_terminals, arm.submitted,
                "every query yields exactly one finished trace ({label})"
            );
            assert_eq!(arm.trace_bad, 0, "malformed traces ({label})");
            assert_eq!(arm.trace_orphans, 0, "orphan traces after drain ({label})");
            assert_eq!(arm.answer_age_missing, 0, "unstamped answers ({label})");
            assert!(arm.answer_age_count > 0, "no answer carried an age ({label})");
            assert!(
                arm.metrics.iter().any(|(k, v)| k == "pipeline.rpcs_issued" && *v > 0.0),
                "telemetry snapshot missing pipeline counters ({label})"
            );
            assert_eq!(
                arm.incidents_unattributed, 0,
                "incidents outside fault windows ({label}): {:?}",
                arm.incidents
            );
            assert!(
                arm.timeline
                    .iter()
                    .any(|s| s.path == "fleet.pressure_max" && !s.points.is_empty()),
                "scope timeline missing the pressure trajectory ({label})"
            );
            assert!(
                arm.timeline.iter().all(|s| !s.points.is_empty()),
                "scope series with no points ({label})"
            );
        }
        assert!(
            r.shed_on.shed.is_some_and(|s| s > 0),
            "hot proxy never shed: {:?}",
            r.shed_on
        );
        assert!(
            r.shed_on.forwarded_ok > 0,
            "no shed query answered: {:?}",
            r.shed_on
        );
        assert_eq!(r.shed_off.shed, Some(0));
        assert!(
            r.throughput_gain > 1.0,
            "shedding must raise answered throughput: {r:?}"
        );
        assert!(r.p99_gain > 1.0, "shedding must cut p99: {r:?}");
        assert!(
            r.shed_on.fairness > r.shed_off.fairness,
            "shedding must improve per-proxy fairness: on {} off {}",
            r.shed_on.fairness,
            r.shed_off.fairness
        );
    }
}
