//! `fleet-zipf-crash`: a multi-proxy fleet under Zipf-skewed users,
//! lossy downlinks, shedding, and one proxy crashing mid-run.
//!
//! The only workload that runs the fleet tier (router, inter-link mesh,
//! membership) and presto-scope at fleet scale. The query horizon is
//! hours long, so archive aging and history growth stay idle.

use std::time::Instant;

use presto_core::SystemConfig;
use presto_fleet::{fleet_scope_config, FleetConfig, FleetDeployment, FleetScopeBounds};
use presto_net::LossProcess;
use presto_proxy::{AnswerSource, QueryClass};
use presto_sim::{
    FaultPlan, FleetLoadConfig, FleetQueryLoad, QueryLoadConfig, SimDuration, SimTime,
};
use presto_workloads::LabParams;

use crate::meter::Meter;
use crate::oracle::TruthLog;
use crate::tally::{put, system_layers, Arrivals, Mark, Rep, Tally};

const PROXIES: usize = 4;
const SENSORS_PER_PROXY: usize = 3;
const USERS: usize = 32;
const QUERIES_PER_USER_PER_HOUR: f64 = 120.0;
const ZIPF_S: f64 = 1.6;
const LOSS: f64 = 0.3;
/// Tight enough that PAST windows over quiet sensors really pull.
const TOLERANCE: f64 = 0.05;
/// Archive and model build before any query.
const WARMUP_HOURS: u64 = 12;
/// Query load during set-up, so the measured phase starts with the
/// pipelines, caches and shedding in steady state.
const PRELOAD_HOURS: u64 = 1;
const QUERY_HOURS: u64 = 12;
/// The last proxy crashes this long into the measured phase and stays
/// down; its sensors re-home to survivors.
const CRASH_AFTER_HOURS: u64 = 1;

/// Profiler phases the fleet's `step_epoch` times internally.
const PHASES: [&str; 7] = [
    "step_epoch_core",
    "fleet_mesh",
    "fleet_membership",
    "fleet_deliver",
    "fleet_pump",
    "fleet_collect",
    "fleet_scope",
];

fn config(seed: u64) -> FleetConfig {
    let mut sys = SystemConfig {
        proxies: PROXIES,
        sensors_per_proxy: SENSORS_PER_PROXY,
        seed,
        // Quiet sensors: model-driven silence holds, caches stay sparse
        // and tight-tolerance windows genuinely pull.
        lab: LabParams {
            events_per_day: 0.0,
            jitter_sigma: 0.08,
            heavy_prob: 0.0,
            field_sigma: 0.05,
            ..LabParams::default()
        },
        ..SystemConfig::default()
    };
    sys.reliability.downlink.request_loss = LossProcess::Bernoulli(LOSS);
    sys.reliability.downlink.reply_loss = LossProcess::Bernoulli(LOSS);
    // The contended resource the fleet tier arbitrates: the hot proxy
    // saturates its per-epoch attempt budget while its peers idle.
    sys.proxy.pipeline.epoch_attempt_budget = 8;
    // A summary cache smaller than the queryable age band, so distinct
    // windows pull instead of re-reading densified spans.
    sys.proxy.cache_capacity = 700;
    sys.scope = fleet_scope_config(&FleetScopeBounds::default());
    let crash = SimTime::from_hours(WARMUP_HOURS + PRELOAD_HOURS + CRASH_AFTER_HOURS);
    sys.faults =
        FaultPlan::none().with_proxy_crash(PROXIES - 1, crash, SimTime::from_hours(10_000));
    let mut fc = FleetConfig {
        system: sys,
        ..FleetConfig::default()
    };
    fc.router.shed_enabled = true;
    fc.router.latency_classes = vec![
        QueryClass {
            rate_per_hour: USERS as f64 * QUERIES_PER_USER_PER_HOUR,
            latency_bound: SimDuration::from_mins(10),
            tolerance: TOLERANCE,
        },
        QueryClass {
            rate_per_hour: 10.0,
            latency_bound: SimDuration::from_mins(4),
            tolerance: 1.5,
        },
    ];
    fc
}

fn load(seed: u64) -> FleetQueryLoad {
    FleetQueryLoad::new(
        FleetLoadConfig {
            load: QueryLoadConfig {
                users: USERS,
                queries_per_user_per_hour: QUERIES_PER_USER_PER_HOUR,
                window_min: SimDuration::from_mins(10),
                window_max: SimDuration::from_mins(30),
                // Windows stay inside the model era (the first warmup
                // hours pushed every sample).
                max_age: SimDuration::from_hours(WARMUP_HOURS - 8),
                hot_fraction: 0.1,
                tolerances: vec![TOLERANCE],
                seed: seed ^ 0xF1_EE7,
                ..QueryLoadConfig::default()
            },
            groups: PROXIES,
            zipf_s: ZIPF_S,
        },
        SENSORS_PER_PROXY,
    )
}

/// Runs one repetition.
pub fn run(seed: u64, trace: bool) -> Rep {
    let epoch = LabParams::default().epoch;
    let load_from = SimDuration::from_hours(WARMUP_HOURS).div_duration(epoch);
    let measure_from = load_from + SimDuration::from_hours(PRELOAD_HOURS).div_duration(epoch);
    let load_until = measure_from + SimDuration::from_hours(QUERY_HOURS).div_duration(epoch);
    // The longest deadline plus the router's expiry grace.
    let end = load_until + SimDuration::from_mins(14).div_duration(epoch) + 4;
    let sensors = PROXIES * SENSORS_PER_PROXY;
    let mut truth = TruthLog::new(epoch, sensors, end);
    let mut meter = Meter::new(trace);
    let mut tally = Tally::default();
    let mut gen = load(seed);
    let mut arrivals = Arrivals::new(seed, epoch);

    let setup_start = Instant::now();
    meter.open("setup", seed);
    let mut fleet = meter.call("FleetDeployment::new", 0, || {
        FleetDeployment::new(config(seed))
    });
    let mut setup_s = 0.0;
    let mut measured_start = Instant::now();
    let mut m0 = None;
    for e in 0..end {
        if e == measure_from {
            meter.close();
            setup_s = setup_start.elapsed().as_secs_f64();
            let snap = meter.call("FleetDeployment::telemetry_snapshot", 0, || {
                fleet.telemetry_snapshot()
            });
            m0 = Some(Mark::take(&mut fleet.system, snap));
            meter.start_measuring();
            tally.start_measuring();
            measured_start = Instant::now();
        }
        let t = fleet.now();
        meter.open("epoch", e);
        if (load_from..load_until).contains(&e) {
            for a in gen.step(t, epoch) {
                let ticket = meter.call("FleetDeployment::submit_arrival", e, || {
                    fleet.submit_arrival(&a)
                });
                tally.submit(ticket, arrivals.lead_s());
            }
        }
        let before = PHASES.map(|p| {
            fleet
                .system
                .profiler()
                .phase(p)
                .copied()
                .unwrap_or_default()
        });
        meter.call("FleetDeployment::step_epoch", e, || fleet.step_epoch());
        for (name, b) in PHASES.iter().zip(before) {
            let a = fleet
                .system
                .profiler()
                .phase(name)
                .copied()
                .unwrap_or_default();
            meter.phase(name, a.micros - b.micros, a.allocs - b.allocs);
        }
        truth.record(t, &fleet.system.truth);
        let done = meter.call("FleetDeployment::take_completed", e, || {
            fleet.take_completed()
        });
        for c in done {
            let d = &mut tally.digest;
            d.line(&format!(
                "{} {:?} {}->{} {} {:?} {:?} {:?}",
                c.ticket,
                c.query,
                c.entry,
                c.served_by,
                c.forwarded,
                c.submitted_at,
                c.completed_at,
                c.answer_age
            ));
            d.answer(&c.answer);
            if !tally.terminal(c.ticket, (c.completed_at - c.submitted_at).as_secs_f64()) {
                continue;
            }
            if c.answer.source() == AnswerSource::Failed {
                tally.failed_honest += 1;
                continue;
            }
            if let Some(age) = c.answer_age {
                tally.ages.push(age.as_secs_f64());
            }
            let (kind, verdict) = truth.check_pipeline(c.submitted_at, &c.query, &c.answer);
            tally.verdict(kind, verdict);
        }
        for tr in fleet.router.tracer_mut().take_finished() {
            tally.audit_trace(&tr);
        }
        meter.close();
        meter.end_epoch();
    }
    let measured_wall_s = measured_start.elapsed().as_secs_f64();
    meter.stop_measuring();
    let m0 = m0.expect("measured phase started");

    let snap = meter.call("FleetDeployment::telemetry_snapshot", 1, || {
        fleet.telemetry_snapshot()
    });
    let leaks = fleet.leaks();
    tally.require(leaks.is_clean(), || {
        format!("fleet leaks after drain: {leaks:?}")
    });
    let open = fleet.router.tracer().open_count();
    tally.require(open == 0, || {
        format!("{open} router traces still open after drain")
    });
    if fleet.router.tracer().enabled() {
        let (traces, submitted) = (tally.traces, tally.submitted + tally.preload_submitted);
        tally.require(traces == submitted, || {
            format!("{traces} finished traces for {submitted} queries")
        });
    }
    tally.finish(&fleet.system);
    tally.digest_snapshot(&snap);
    let m1 = Mark::take(&mut fleet.system, snap);

    let sim_hours = (end - measure_from) as f64 * epoch.as_secs_f64() / 3600.0;
    let mut layers = system_layers(&m0, &m1);
    for name in [
        "fleet_router.shed",
        "fleet_router.completed_remote",
        "fleet_router.failed_deadline",
        "interlink.retransmits",
    ] {
        put(&mut layers, name, Some(m0.delta(&m1, name)));
    }
    Rep {
        setup_s,
        measured_wall_s,
        tally,
        meter,
        sim_hours,
        sensors,
        layers,
    }
}
