//! `slice-hot-windows`: one proxy, many users whose PAST windows overlap
//! a few staggered hot windows, plus some NOW traffic, with sliced
//! execution on and lossy downlinks.
//!
//! It runs the slice cache, the sliced pipeline and the sensor
//! pull/archive read path with heavy sharing between users, and never
//! touches the fleet tier. Core, pump and scope are separate public
//! calls here, so each is timed from outside.

use std::time::Instant;

use presto_core::{PrestoSystem, StoreQuery, SystemConfig};
use presto_fleet::FEED_STALE_CONFIDENT;
use presto_net::LossProcess;
use presto_proxy::{AnswerSource, SliceConfig};
use presto_sim::{SimDuration, SimRng, SimTime};
use presto_telemetry::scope::WD_STALE_CONFIDENT;
use presto_telemetry::{ScopeConfig, SeriesSpec, WatchdogRule};
use presto_workloads::LabParams;

use crate::meter::Meter;
use crate::oracle::TruthLog;
use crate::tally::{system_layers, Arrivals, Mark, Rep, Tally};

const SENSORS: usize = 8;
const USERS: usize = 48;
const QUERIES_PER_USER_PER_HOUR: f64 = 60.0;
const LOSS: f64 = 0.3;
/// Shared by every user, so overlapping windows share slice keys.
const TOLERANCE: f64 = 0.2;
/// Share of arrivals that are NOW queries; the rest are hot PAST
/// windows.
const NOW_SHARE: f64 = 0.2;
/// Archive build before any query; the hot windows lie inside it.
const WARMUP_HOURS: u64 = 24;
/// Query load during set-up, so the measured phase starts with the
/// slice cache warm.
const PRELOAD_HOURS: u64 = 1;
const QUERY_HOURS: u64 = 12;
/// Hot-window stagger positions.
const HOT_SLOTS: u64 = 4;

fn config(seed: u64) -> SystemConfig {
    let mut sys = SystemConfig {
        proxies: 1,
        sensors_per_proxy: SENSORS,
        seed,
        lab: LabParams {
            events_per_day: 0.0,
            ..LabParams::default()
        },
        ..SystemConfig::default()
    };
    // Windows always take the pull path, so the caches carry the load
    // rather than the coverage fast path.
    sys.proxy.past_coverage_hit = f64::INFINITY;
    sys.proxy.pipeline.trace = true;
    sys.proxy.pipeline.slice = Some(SliceConfig::default());
    sys.reliability.downlink.request_loss = LossProcess::Bernoulli(LOSS);
    sys.reliability.downlink.reply_loss = LossProcess::Bernoulli(LOSS);
    // A small single-system scope: pipeline and slice work rates, the
    // trace recorder, and the fed stale-confidence watchdog.
    sys.scope = ScopeConfig {
        enabled: true,
        series: vec![
            SeriesSpec::delta("pipeline.rpcs_issued"),
            SeriesSpec::delta("pipeline.sliced"),
            SeriesSpec::delta("slice.lookups"),
            SeriesSpec::level("trace.recorder_len"),
        ],
        rules: vec![WatchdogRule::still(
            WD_STALE_CONFIDENT,
            FEED_STALE_CONFIDENT,
        )],
        ..ScopeConfig::default()
    };
    sys
}

/// Hot window `slot`: 2 h 4 min (three one-hour slices), staggered by
/// 30 min, all inside the warmup archive. Neighbouring slots overlap by
/// over 1.5 h, so users share slices without sharing exact windows.
fn hot_window(slot: u64) -> (SimTime, SimTime) {
    let from = SimTime::from_hours(1) + SimDuration::from_mins(30) * slot;
    (from, from + SimDuration::from_mins(124))
}

/// Runs one repetition.
pub fn run(seed: u64, trace: bool) -> Rep {
    let epoch = LabParams::default().epoch;
    let load_from = SimDuration::from_hours(WARMUP_HOURS).div_duration(epoch);
    let measure_from = load_from + SimDuration::from_hours(PRELOAD_HOURS).div_duration(epoch);
    let load_until = measure_from + SimDuration::from_hours(QUERY_HOURS).div_duration(epoch);
    let end = load_until
        + presto_proxy::PipelineConfig::default()
            .deadline
            .div_duration(epoch)
        + 4;
    let mut truth = TruthLog::new(epoch, SENSORS, end);
    let mut meter = Meter::new(trace);
    let mut tally = Tally::default();
    let mut rng = SimRng::new(seed).split("perfbench-slice-users");
    let mut arrivals = Arrivals::new(seed, epoch);
    let p_arrival = QUERIES_PER_USER_PER_HOUR * epoch.as_secs_f64() / 3600.0;

    let setup_start = Instant::now();
    meter.open("setup", seed);
    let mut sys = meter.call("PrestoSystem::new", 0, || PrestoSystem::new(config(seed)));
    let mut setup_s = 0.0;
    let mut measured_start = Instant::now();
    let mut m0 = None;
    for e in 0..end {
        if e == measure_from {
            meter.close();
            setup_s = setup_start.elapsed().as_secs_f64();
            let snap = meter.call("PrestoSystem::telemetry_snapshot", 0, || {
                sys.telemetry_snapshot()
            });
            m0 = Some(Mark::take(&mut sys, snap));
            meter.start_measuring();
            tally.start_measuring();
            measured_start = Instant::now();
        }
        meter.open("epoch", e);
        if (load_from..load_until).contains(&e) {
            for _ in 0..USERS {
                if !rng.chance(p_arrival) {
                    continue;
                }
                let sensor = rng.below(SENSORS as u64) as u16;
                let q = if rng.chance(NOW_SHARE) {
                    StoreQuery::Now {
                        sensor,
                        tolerance: TOLERANCE,
                    }
                } else {
                    let (from, to) = hot_window(rng.below(HOT_SLOTS));
                    StoreQuery::Past {
                        sensor,
                        from,
                        to,
                        tolerance: TOLERANCE,
                    }
                };
                let lead = arrivals.lead_s();
                match meter.call("PrestoSystem::submit_query", e, || sys.submit_query(q)) {
                    Some((_, ticket)) => tally.submit(ticket, lead),
                    // No faults here: every submission must be accepted.
                    None => tally.require(false, || format!("submission refused: {q:?}")),
                }
            }
        }
        let t = meter.call("PrestoSystem::step_epoch_core", e, || sys.step_epoch_core());
        truth.record(t, &sys.truth);
        meter.call("PrestoSystem::pump_pipelines", e, || sys.pump_pipelines(t));
        meter.call("PrestoSystem::scope_tick", e, || sys.scope_tick(t));
        let done = meter.call("PrestoSystem::take_completed_queries", e, || {
            sys.take_completed_queries()
        });
        for (_, c) in done {
            let d = &mut tally.digest;
            d.line(&format!(
                "{} {:?} {:?} {:?}",
                c.id, c.query, c.submitted_at, c.completed_at
            ));
            d.answer(&c.answer);
            if !tally.terminal(c.id, (c.completed_at - c.submitted_at).as_secs_f64()) {
                continue;
            }
            if c.answer.source() == AnswerSource::Failed {
                tally.failed_honest += 1;
                continue;
            }
            if let Some(age) = c.answer.age_at(c.completed_at) {
                tally.ages.push(age.as_secs_f64());
            }
            let (kind, verdict) = truth.check_pipeline(c.submitted_at, &c.query, &c.answer);
            tally.verdict(kind, verdict);
        }
        for tr in sys.proxies[0].pipeline_mut().tracer_mut().take_finished() {
            tally.audit_trace(&tr);
        }
        meter.close();
        meter.end_epoch();
    }
    let measured_wall_s = measured_start.elapsed().as_secs_f64();
    meter.stop_measuring();
    let m0 = m0.expect("measured phase started");

    let snap = meter.call("PrestoSystem::telemetry_snapshot", 1, || {
        sys.telemetry_snapshot()
    });
    let open = sys.proxies[0].pipeline().tracer().open_count();
    tally.require(open == 0, || {
        format!("{open} pipeline traces still open after drain")
    });
    let (traces, submitted) = (tally.traces, tally.submitted + tally.preload_submitted);
    tally.require(traces == submitted, || {
        format!("{traces} finished traces for {submitted} queries")
    });
    tally.finish(&sys);
    tally.digest_snapshot(&snap);
    let m1 = Mark::take(&mut sys, snap);

    Rep {
        setup_s,
        measured_wall_s,
        tally,
        meter,
        sim_hours: (end - measure_from) as f64 * epoch.as_secs_f64() / 3600.0,
        sensors: SENSORS,
        layers: system_layers(&m0, &m1),
    }
}
