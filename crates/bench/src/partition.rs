//! The partition-scenario experiment: split-brain fault injection over
//! the fleet, with and without the partition, on one seed.
//!
//! Mid-phase, the mesh links around one proxy are cut (its downlinks
//! stay up — the sensors keep talking to it) and later healed. The
//! quorum membership must fence the minority proxy (it stops accepting
//! queries and stops driving radio), the majority must declare it dead
//! once the threshold passes and re-home its sensors, and the heal
//! must re-admit it through a quorum-confirmed rebirth plus an
//! archive-backed re-sync — all without ever serving a sensor's home
//! uplink from two proxies in one epoch, without a single
//! stale-confident answer, and with an explicit `answer_age` stamped
//! on every real answer. The no-partition arm on the same seed bounds
//! the throughput cost: a split brain may slow the fleet, never
//! corrupt it.

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
pub struct PartitionScenarioConfig {
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
    /// Query tolerance.
    pub tolerance: f64,
    /// Partition window, minutes into the query phase: the last proxy
    /// is cut from the mesh over `[start, start + len)`.
    pub cut_minutes: (u64, u64),
}

impl Default for PartitionScenarioConfig {
    fn default() -> Self {
        PartitionScenarioConfig {
            warmup_hours: 16,
            query_hours: 2,
            seed: 2005,
            proxies: 3,
            sensors_per_proxy: 2,
            loss: 0.3,
            users: 28,
            queries_per_user_per_hour: 100.0,
            zipf_s: 1.6,
            tolerance: 0.05,
            cut_minutes: (30, 40),
        }
    }
}

impl PartitionScenarioConfig {
    /// The small fixed-seed configuration the CI smoke runs.
    pub fn quick() -> Self {
        PartitionScenarioConfig::default()
    }
}

crate::json_row! {
    /// One arm's (partition injected or not) measurements.
    #[derive(Clone, Debug)]
    pub struct PartitionArmReport {
        /// Queries submitted.
        pub submitted: u64,
        /// Terminals observed (every submitted query must terminate).
        pub completed: u64,
        /// Terminals with a real (non-Failed) answer.
        pub answered_ok: u64,
        /// Honest failures.
        pub failed: u64,
        /// Admissions refused because the entry or serving proxy was
        /// fenced (minority side of the split).
        pub failed_fenced: u64,
        /// Epochs in which the minority proxy was fenced.
        pub fenced_epochs: u64,
        /// Epochs in which any sensor's home uplink was driven by two
        /// proxies, by a non-owner, or by a fenced/declared-dead proxy
        /// (must be zero — the single-owner invariant).
        pub double_served_epochs: u64,
        /// Quorum death declarations.
        pub deaths_declared: u64,
        /// Quorum-confirmed rebirths (the heal re-admitting the minority).
        pub rejoins: u64,
        /// Sensors re-homed off the declared proxy.
        pub rehomed: u64,
        /// Answers claiming tight sigma while far from the live truth
        /// (must be zero).
        pub stale_confident: u64,
        /// Real answers missing the explicit `answer_age` stamp (must be
        /// zero).
        pub answer_age_missing: u64,
        /// Median age of real answers at serve time, seconds.
        pub answer_age_p50_s: f64,
        /// Answered-query throughput over the phase, queries/hour.
        pub throughput_qph: f64,
        /// Terminal-latency p99, seconds (failures included).
        pub p99_s: f64,
        /// Leak probes after the drain window (all must be zero).
        pub leaked_router: u64,
        /// Leaked pending pipeline queries.
        pub leaked_pipeline: u64,
        /// Leaked pending-RPC entries.
        pub leaked_rpcs: u64,
        /// Leaked in-flight mesh messages.
        pub leaked_mesh: u64,
        /// Terminal-latency p50 / p90, seconds.
        pub p50_s: f64,
        /// p90.
        pub p90_s: f64,
        /// Finished query traces collected from the router tracer.
        pub trace_terminals: u64,
        /// Traces with ≠1 terminal or non-monotone timestamps (must be 0).
        pub trace_bad: u64,
        /// Open trace logs (router + pipelines) after drain (must be 0).
        pub trace_orphans: u64,
        /// Failed / fenced terminals whose full cause chain the flight
        /// recorder reproduces (begins `Submitted`, exactly one terminal,
        /// matching cause).
        pub recorder_chains_ok: u64,
        /// Failed terminals the recorder lost or retained malformed (must
        /// be 0 — the post-mortem guarantee).
        pub recorder_chains_bad: u64,
        /// Downlink request retransmissions (home channels).
        pub retransmits: Option<u64>,
        /// Payload bytes the sensors offered to the MAC.
        pub radio_bytes: Option<u64>,
        /// Total sensor-tier energy, joules.
        pub sensor_energy_j: f64,
        /// Queries the fleet router shed (`fleet_router.shed`).
        pub shed: Option<u64>,
        /// The flattened unified-telemetry snapshot (the BENCH artifact
        /// rows).
        pub metrics: Vec<(String, f64)>,
        /// presto-scope epoch trajectories (the BENCH timeline section).
        pub timeline: Vec<SeriesOut>,
        /// Watchdog incident log, with fault attribution.
        pub incidents: Vec<IncidentOut>,
        /// Incidents no injected fault explains (must be zero in both
        /// arms: outside the cut window the fleet is healthy).
        pub incidents_unattributed: u64,
        /// Incidents whose blame window names the injected mesh partition
        /// (the partitioned arm must log at least one).
        pub incidents_mesh_attributed: u64,
    }
}

impl PartitionArmReport {
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
            answer_age_count: Some(self.answered_ok - self.answer_age_missing),
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
    /// Scenario result: both arms plus the headline comparison.
    #[derive(Clone, Debug)]
    pub struct PartitionScenarioReport {
        /// Configured downlink loss.
        pub configured_loss: f64,
        /// The partitioned proxy.
        pub minority: usize,
        /// Partition injected.
        pub with_partition: PartitionArmReport,
        /// Same seed, no partition.
        pub without_partition: PartitionArmReport,
        /// `with.throughput / without.throughput` — the availability cost
        /// of the split brain (bounded below by the CI smoke).
        pub throughput_ratio: f64,
    }
}

fn fleet(cfg: &PartitionScenarioConfig, partition: bool) -> FleetDeployment {
    let minority = cfg.proxies - 1;
    let mut sys_cfg = SystemConfig {
        proxies: cfg.proxies,
        sensors_per_proxy: cfg.sensors_per_proxy,
        seed: cfg.seed,
        lab: presto_workloads::LabParams {
            events_per_day: 0.0,
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
    sys_cfg.proxy.pipeline.epoch_attempt_budget = 8;
    sys_cfg.proxy.cache_capacity = 700;
    // The standard fleet scope: the fenced-admission watchdog is what
    // turns the injected cut into an attributed incident. This workload
    // serves PAST windows across the whole warmup archive, so answers
    // legitimately carry hours of age — the p99 bound only has to catch
    // serving data older than the archive itself.
    sys_cfg.scope = fleet_scope_config(&FleetScopeBounds {
        answer_age_p99_us: (cfg.warmup_hours + cfg.query_hours + 8) as f64 * 3600.0 * 1e6,
        ..FleetScopeBounds::default()
    });
    // Full trace spans: per-RPC pipeline events spliced into every
    // fleet trace, and the flight recorder retaining each failed /
    // fenced query's cause chain for the post-mortem checks below.
    sys_cfg.proxy.pipeline.trace = true;
    if partition {
        let (start_m, len_m) = cfg.cut_minutes;
        let from = SimTime::from_hours(cfg.warmup_hours) + SimDuration::from_mins(start_m);
        let to = from + SimDuration::from_mins(len_m);
        sys_cfg.faults = FaultPlan::none().with_mesh_partition(vec![minority], from, to);
    }
    let mut fc = FleetConfig {
        system: sys_cfg,
        ..FleetConfig::default()
    };
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

fn load(cfg: &PartitionScenarioConfig) -> FleetQueryLoad {
    FleetQueryLoad::new(
        FleetLoadConfig {
            load: QueryLoadConfig {
                users: cfg.users,
                queries_per_user_per_hour: cfg.queries_per_user_per_hour,
                window_min: SimDuration::from_mins(10),
                window_max: SimDuration::from_mins(30),
                max_age: SimDuration::from_hours(cfg.warmup_hours.saturating_sub(8).max(2)),
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

fn run_arm(cfg: &PartitionScenarioConfig, partition: bool) -> PartitionArmReport {
    let minority = cfg.proxies - 1;
    let epoch = SystemConfig::default().lab.epoch;
    let warmup_epochs = SimDuration::from_hours(cfg.warmup_hours).div_duration(epoch);
    let query_epochs = SimDuration::from_hours(cfg.query_hours).div_duration(epoch);
    let drain_epochs = SimDuration::from_mins(14).div_duration(epoch) + 4;
    let phase_hours = (query_epochs + drain_epochs) as f64 * epoch.as_secs_f64() / 3600.0;

    let mut fleet = fleet(cfg, partition);
    for _ in 0..warmup_epochs {
        fleet.step_epoch();
    }
    let mut gen = load(cfg);
    let mut submitted = 0u64;
    let mut latencies = Summary::new();
    let mut ages = Summary::new();
    let mut answered_ok = 0u64;
    let mut failed = 0u64;
    let mut completed = 0u64;
    let mut stale_confident = 0u64;
    let mut answer_age_missing = 0u64;
    let mut fenced_epochs = 0u64;
    let mut double_served_epochs = 0u64;
    let mut trace_terminals = 0u64;
    let mut trace_bad = 0u64;
    let mut failed_tickets: Vec<u64> = Vec::new();

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
            }
        }
        // Driver-side probe feed: the watchdog flags any growth in the
        // cumulative stale-confident count.
        fleet
            .system
            .scope_mut()
            .feed(FEED_STALE_CONFIDENT, stale_confident as f64);
        fleet.step_epoch();
        if fleet.is_fenced(minority) {
            fenced_epochs += 1;
        }
        // Single-owner audit: one home driver per sensor, always the
        // current owner, never a fenced or declared-dead proxy.
        {
            let assignment = fleet.system.assignment();
            let mut home_seen = vec![false; assignment.len()];
            let mut violated = false;
            for &(p, gid, via_foreign) in fleet.pump_log() {
                if fleet.is_fenced(p) || fleet.membership().is_declared_dead(p) {
                    violated = true;
                }
                if !via_foreign {
                    if assignment[gid as usize] != p || home_seen[gid as usize] {
                        violated = true;
                    }
                    home_seen[gid as usize] = true;
                }
            }
            if violated {
                double_served_epochs += 1;
            }
        }
        for c in fleet.take_completed() {
            completed += 1;
            latencies.record((c.completed_at - c.submitted_at).as_secs_f64());
            let submit_truth = truth_at_submit.remove(&c.ticket);
            let ok = c.answer.source() != presto_proxy::AnswerSource::Failed;
            if ok {
                answered_ok += 1;
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
                failed_tickets.push(c.ticket);
            }
        }
        for tr in fleet.router.tracer_mut().take_finished() {
            trace_terminals += 1;
            if tr.terminal_count() != 1 || !tr.is_monotone() {
                trace_bad += 1;
            }
        }
    }

    // Post-mortem guarantee: the flight recorder reproduces the full
    // cause chain — from `Submitted` to the one terminal — for every
    // failed or fenced query.
    let mut recorder_chains_ok = 0u64;
    let mut recorder_chains_bad = 0u64;
    {
        use presto_telemetry::SpanEvent;
        let rec = fleet.router.tracer().recorder();
        for &ticket in &failed_tickets {
            let well_formed = rec.find(ticket).is_some_and(|tr| {
                tr.events.first().map(|e| &e.event) == Some(&SpanEvent::Submitted)
                    && tr.terminal_count() == 1
                    && tr.is_monotone()
                    && tr.cause().is_some_and(|c| {
                        c != presto_telemetry::CompletionCause::Ok
                    })
            });
            if well_formed {
                recorder_chains_ok += 1;
            } else {
                recorder_chains_bad += 1;
            }
        }
    }

    let leaks = fleet.leaks();
    let ms = fleet.membership().stats();
    let snap = fleet.telemetry_snapshot();
    let cost = arm_cost(&snap, &fleet.system.sensor_ledger_total());
    let trace_orphans = fleet.router.tracer().open_count() as u64
        + (0..cfg.proxies)
            .map(|p| fleet.system.proxies[p].pipeline().tracer().open_count() as u64)
            .sum::<u64>();
    let incidents = scope_incidents(fleet.system.scope());
    PartitionArmReport {
        submitted,
        completed,
        answered_ok,
        failed,
        failed_fenced: fleet.router.stats().failed_fenced,
        fenced_epochs,
        double_served_epochs,
        deaths_declared: ms.deaths_declared,
        rejoins: ms.rejoins,
        rehomed: fleet.rehomed_sensors(),
        stale_confident,
        answer_age_missing,
        answer_age_p50_s: ages.median(),
        throughput_qph: answered_ok as f64 / phase_hours,
        p99_s: latencies.quantile(0.99),
        leaked_router: leaks.router_open as u64,
        leaked_pipeline: leaks.pipeline_pending as u64,
        leaked_rpcs: leaks.rpcs_in_flight as u64,
        leaked_mesh: leaks.mesh_in_flight as u64,
        p50_s: latencies.median(),
        p90_s: latencies.quantile(0.90),
        trace_terminals,
        trace_bad,
        trace_orphans,
        recorder_chains_ok,
        recorder_chains_bad,
        retransmits: cost.retransmits,
        radio_bytes: cost.radio_bytes,
        sensor_energy_j: cost.sensor_energy_j,
        shed: cost.shed,
        metrics: snap.flatten(),
        timeline: scope_timeline(fleet.system.scope()),
        incidents_unattributed: fleet.system.scope().unattributed_incidents() as u64,
        incidents_mesh_attributed: incidents
            .iter()
            .filter(|i| i.faults.iter().any(|f| f.contains("MeshPartition")))
            .count() as u64,
        incidents,
    }
}

/// Runs both arms on one seed.
pub fn partition_scenario(cfg: &PartitionScenarioConfig) -> PartitionScenarioReport {
    let with_partition = run_arm(cfg, true);
    let without_partition = run_arm(cfg, false);
    let throughput_ratio = if without_partition.throughput_qph > 0.0 {
        with_partition.throughput_qph / without_partition.throughput_qph
    } else {
        f64::INFINITY
    };
    PartitionScenarioReport {
        configured_loss: cfg.loss,
        minority: cfg.proxies - 1,
        with_partition,
        without_partition,
        throughput_ratio,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_split_brain_stays_honest_and_heals() {
        let r = partition_scenario(&PartitionScenarioConfig::quick());
        for (label, arm) in [
            ("with", &r.with_partition),
            ("without", &r.without_partition),
        ] {
            assert!(arm.submitted > 200, "workload too small ({label}): {arm:?}");
            assert_eq!(
                arm.completed, arm.submitted,
                "every query must terminate ({label}): {arm:?}"
            );
            assert_eq!(arm.double_served_epochs, 0, "({label}) {arm:?}");
            assert_eq!(arm.stale_confident, 0, "({label}) {arm:?}");
            assert_eq!(arm.answer_age_missing, 0, "({label}) {arm:?}");
            assert_eq!(arm.leaked_router, 0, "({label}) {arm:?}");
            assert_eq!(arm.leaked_pipeline, 0, "({label}) {arm:?}");
            assert_eq!(arm.leaked_rpcs, 0, "({label}) {arm:?}");
            assert_eq!(arm.leaked_mesh, 0, "({label}) {arm:?}");
            assert_eq!(
                arm.trace_terminals, arm.submitted,
                "every query yields exactly one finished trace ({label})"
            );
            assert_eq!(arm.trace_bad, 0, "malformed traces ({label})");
            assert_eq!(arm.trace_orphans, 0, "orphan traces after drain ({label})");
            assert_eq!(
                arm.recorder_chains_bad, 0,
                "flight recorder must reproduce every failed query's cause chain ({label})"
            );
            assert_eq!(arm.recorder_chains_ok, arm.failed, "({label})");
            assert_eq!(
                arm.incidents_unattributed, 0,
                "watchdog fired outside any fault window ({label}): {:?}",
                arm.incidents
            );
            assert!(
                !arm.timeline.is_empty() && arm.timeline.iter().all(|s| !s.points.is_empty()),
                "scope timeline empty or with a pointless series ({label})"
            );
            let shed = arm.metrics.iter().find(|(k, _)| k == "fleet_router.shed");
            assert_eq!(
                arm.shed,
                shed.map(|&(_, v)| v as u64),
                "arm shed must be the snapshot's fleet_router.shed ({label})"
            );
            assert!(arm.shed.is_some(), "({label}) shed unmeasured");
        }
        assert!(
            r.without_partition.incidents.is_empty(),
            "clean arm must log zero incidents: {:?}",
            r.without_partition.incidents
        );
        assert!(
            r.with_partition.incidents_mesh_attributed >= 1,
            "no incident blamed the injected mesh cut: {:?}",
            r.with_partition.incidents
        );
        let w = &r.with_partition;
        assert!(w.fenced_epochs > 0, "minority never fenced: {w:?}");
        assert!(w.failed_fenced > 0, "no admission was fenced: {w:?}");
        assert_eq!(w.deaths_declared, 1, "{w:?}");
        assert_eq!(w.rejoins, 1, "heal must re-admit the minority: {w:?}");
        assert!(w.rehomed >= 2, "sensors never re-homed: {w:?}");
        assert_eq!(r.without_partition.fenced_epochs, 0);
        assert_eq!(r.without_partition.deaths_declared, 0);
        assert!(
            r.throughput_ratio >= 0.5,
            "split brain cost more than half the throughput: {r:?}"
        );
    }
}
