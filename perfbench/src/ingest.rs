//! `ingest-aging-longrun`: the write side over a multi-week horizon.
//!
//! A two-proxy system with the default lab parameters (heavy-tailed
//! jitter, so motes push often; rare events; 2% uplink loss, so gaps
//! and archive-backed recoveries happen) runs long enough that the
//! sensors' 1 MiB archives fill, reclaim and wavelet-age. Alongside, a
//! light open-loop stream of blocking `UnifiedStore` queries: PAST
//! windows anywhere in the whole history (aged spans included), plus
//! Events, NOW and Aggregate queries. Scope and pipeline are idle.

use std::time::Instant;

use presto_core::{PrestoSystem, StoreQuery, SystemConfig, UnifiedStore};
use presto_proxy::AnswerSource;
use presto_sensor::AggregateOp;
use presto_sim::{SimDuration, SimRng, SimTime};
use presto_workloads::LabParams;

use crate::meter::Meter;
use crate::oracle::TruthLog;
use crate::tally::{put, system_layers, Arrivals, Mark, Rep, Tally};

const WARMUP_DAYS: u64 = 1;
/// Long enough for the default archives to fill, reclaim and age.
const TOTAL_DAYS: u64 = 30;
const QUERIES_PER_HOUR: f64 = 1.5;
const SENSORS_PER_PROXY: usize = 2;
const TOLERANCES: [f64; 3] = [0.25, 0.5, 1.0];

/// Draws the query scheduled for instant `now`.
fn draw(rng: &mut SimRng, sensors: u64, now: SimTime) -> StoreQuery {
    let sensor = rng.below(sensors) as u16;
    let tolerance = *rng.choose(&TOLERANCES).expect("tolerances");
    let window = |rng: &mut SimRng, min_s: f64, max_s: f64| {
        let len = SimDuration::from_secs_f64(rng.uniform_range(min_s, max_s));
        let to = SimTime::from_secs_f64(rng.uniform_range(len.as_secs_f64(), now.as_secs_f64()));
        (to - len, to)
    };
    let kind = rng.uniform();
    if kind < 0.6 {
        let (from, to) = window(rng, 600.0, 7200.0);
        StoreQuery::Past {
            sensor,
            from,
            to,
            tolerance,
        }
    } else if kind < 0.8 {
        StoreQuery::Now { sensor, tolerance }
    } else if kind < 0.9 {
        let (from, to) = window(rng, 3600.0, 86_400.0);
        StoreQuery::Events { from, to }
    } else {
        let (from, to) = window(rng, 600.0, 7200.0);
        StoreQuery::Aggregate {
            sensor,
            from,
            to,
            op: AggregateOp::Mean,
        }
    }
}

fn call_name(q: &StoreQuery) -> &'static str {
    match q {
        StoreQuery::Past { .. } => "UnifiedStore::query/past",
        StoreQuery::Now { .. } => "UnifiedStore::query/now",
        StoreQuery::Events { .. } => "UnifiedStore::query/events",
        StoreQuery::Aggregate { .. } => "UnifiedStore::query/aggregate",
    }
}

/// Two proxies with the default lab parameters.
fn config(seed: u64) -> SystemConfig {
    SystemConfig {
        proxies: 2,
        sensors_per_proxy: SENSORS_PER_PROXY,
        seed,
        ..SystemConfig::default()
    }
}

/// Builds the system and runs the warmup: the set-up phase.
fn setup(seed: u64, meter: &mut Meter, truth: &mut TruthLog) -> PrestoSystem {
    let epoch = LabParams::default().epoch;
    meter.open("setup", seed);
    let mut sys = meter.call("PrestoSystem::new", 0, || PrestoSystem::new(config(seed)));
    for e in 0..SimDuration::from_days(WARMUP_DAYS).div_duration(epoch) {
        let t = meter.call("PrestoSystem::step_epoch_core", e, || sys.step_epoch_core());
        truth.record(t, &sys.truth);
        meter.call("PrestoSystem::pump_pipelines", e, || sys.pump_pipelines(t));
        meter.call("PrestoSystem::scope_tick", e, || sys.scope_tick(t));
    }
    meter.close();
    sys
}

fn truth_log() -> TruthLog {
    let config = config(0);
    let epoch = config.lab.epoch;
    let sensors = config.proxies * config.sensors_per_proxy;
    TruthLog::new(
        epoch,
        sensors,
        SimDuration::from_days(TOTAL_DAYS).div_duration(epoch),
    )
}

/// Times the set-up phase alone, host seconds. A repetition takes
/// several seconds, so a run adds set-up-only samples to its few
/// repetitions' set-up times.
pub fn setup_s(seed: u64) -> f64 {
    let mut truth = truth_log();
    let start = Instant::now();
    drop(setup(seed, &mut Meter::new(false), &mut truth));
    start.elapsed().as_secs_f64()
}

/// Runs one repetition.
pub fn run(seed: u64, trace: bool) -> Rep {
    let epoch = LabParams::default().epoch;
    let warmup_epochs = SimDuration::from_days(WARMUP_DAYS).div_duration(epoch);
    let total_epochs = SimDuration::from_days(TOTAL_DAYS).div_duration(epoch);
    let mut truth = truth_log();
    let mut meter = Meter::new(trace);
    let mut tally = Tally::default();

    let setup_start = Instant::now();
    let mut sys = setup(seed, &mut meter, &mut truth);
    let setup_s = setup_start.elapsed().as_secs_f64();
    let sensors = sys.total_sensors();

    let snap = meter.call("PrestoSystem::telemetry_snapshot", 0, || {
        sys.telemetry_snapshot()
    });
    let m0 = Mark::take(&mut sys, snap);
    let mut rng = SimRng::new(seed).split("perfbench-ingest-users");
    let mut arrivals = Arrivals::new(seed, epoch);
    let p_arrival = QUERIES_PER_HOUR * epoch.as_secs_f64() / 3600.0;
    let mut hops = 0u64;
    let mut qid = 0u64;

    meter.start_measuring();
    tally.start_measuring();
    let measured_start = Instant::now();
    for e_abs in warmup_epochs..total_epochs {
        meter.open("epoch", e_abs);
        // A query scheduled during the epoch that just ended runs now.
        let now = sys.now();
        let answered = rng.chance(p_arrival).then(|| {
            let q = draw(&mut rng, sensors as u64, now);
            let r = meter.call(call_name(&q), qid, || UnifiedStore::new(&mut sys).query(q));
            (q, r)
        });
        let t = meter.call("PrestoSystem::step_epoch_core", e_abs, || {
            sys.step_epoch_core()
        });
        truth.record(t, &sys.truth);
        meter.call("PrestoSystem::pump_pipelines", e_abs, || {
            sys.pump_pipelines(t)
        });
        meter.call("PrestoSystem::scope_tick", e_abs, || sys.scope_tick(t));
        // Checked once the reading at the submission instant is recorded.
        if let Some((q, r)) = answered {
            tally.submit(qid, arrivals.lead_s());
            tally.terminal(qid, r.latency.as_secs_f64());
            qid += 1;
            hops += r.index_hops;
            let d = &mut tally.digest;
            d.line(&format!(
                "{q:?} {:?} {} {:?} {:?} {:?} {}",
                r.value, r.sigma, r.source, r.health, r.latency, r.index_hops
            ));
            d.series(&r.series);
            d.line(&format!("{:?}", r.events));
            if r.source == AnswerSource::Failed {
                tally.failed_honest += 1;
            } else {
                let (kind, verdict) = truth.check_store(sensors, now, &q, &r);
                tally.verdict(kind, verdict);
            }
        }
        meter.close();
        meter.end_epoch();
    }
    let measured_wall_s = measured_start.elapsed().as_secs_f64();
    meter.stop_measuring();

    let snap = meter.call("PrestoSystem::telemetry_snapshot", 1, || {
        sys.telemetry_snapshot()
    });
    tally.finish(&sys);
    tally.digest_snapshot(&snap);
    let m1 = Mark::take(&mut sys, snap);

    let mut layers = system_layers(&m0, &m1);
    put(
        &mut layers,
        "store.index_hops_mean",
        crate::stats::ratio(hops as f64, qid as f64),
    );
    Rep {
        setup_s,
        measured_wall_s,
        tally,
        meter,
        sim_hours: (total_epochs - warmup_epochs) as f64 * epoch.as_secs_f64() / 3600.0,
        sensors,
        layers,
    }
}
