//! Zero-overhead guard for the telemetry layer.
//!
//! Runs the same seeded query workload twice — every telemetry surface
//! off (no epoch profiler, no tracers, no presto-scope) vs everything
//! on (scope sampler + watchdogs included) — and fails unless the
//! enabled arm stays within `GUARD_RATIO`× the disabled arm's
//! wall-clock. Two workloads are guarded:
//!
//! * a single-proxy `PrestoSystem` with a small scope, draining traces
//!   each epoch like a real consumer;
//! * a 3-proxy `FleetDeployment` (Zipf load, 30% loss, a proxy crash)
//!   under the full `fleet_scope_config` — 19 series, 9 rules — so the
//!   fleet-scale scope is priced too.
//!
//! Each arm is timed `REPS` times interleaved and the minimum kept, so
//! scheduler noise can't trip the guard on a loaded CI box.
//!
//! Run with `cargo bench -p presto-bench --bench telemetry_guard`.

use std::time::Instant;

use presto_core::{PrestoSystem, StoreQuery, SystemConfig};
use presto_fleet::{fleet_scope_config, FleetConfig, FleetDeployment, FleetScopeBounds};
use presto_net::LossProcess;
use presto_sim::{
    FaultPlan, FleetLoadConfig, FleetQueryLoad, QueryArrival, QueryKind, QueryLoad,
    QueryLoadConfig, SimDuration, SimTime,
};
use presto_workloads::LabParams;

/// Enabled telemetry may cost at most this multiple of disabled.
const GUARD_RATIO: f64 = 3.0;
const WARMUP_HOURS: u64 = 2;
const QUERY_EPOCHS: u64 = 2000;
const FLEET_QUERY_EPOCHS: u64 = 3000;
const REPS: usize = 3;

fn to_store_query(a: &QueryArrival) -> StoreQuery {
    let sensor = a.sensor_slot as u16;
    match a.kind {
        QueryKind::Now => StoreQuery::Now {
            sensor,
            tolerance: a.tolerance,
        },
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

/// One timed run: warm up untimed, then pump `QUERY_EPOCHS` epochs of
/// query traffic. Returns (timed seconds, queries completed).
fn run_arm(telemetry: bool) -> (f64, u64) {
    let mut sys_cfg = SystemConfig {
        proxies: 1,
        sensors_per_proxy: 4,
        seed: 2005,
        lab: LabParams {
            events_per_day: 0.0,
            ..LabParams::default()
        },
        ..SystemConfig::default()
    };
    sys_cfg.reliability.downlink.request_loss = LossProcess::Bernoulli(0.2);
    sys_cfg.reliability.downlink.reply_loss = LossProcess::Bernoulli(0.2);
    sys_cfg.profile = telemetry;
    sys_cfg.proxy.pipeline.trace = telemetry;
    if telemetry {
        // The full scope: per-epoch snapshot sampling into ring series
        // plus a live watchdog rule, so the guard prices the whole
        // presto-scope pipeline, not just the legacy counters.
        sys_cfg.scope = presto_telemetry::ScopeConfig {
            enabled: true,
            series: vec![
                presto_telemetry::SeriesSpec::delta("pipeline.rpcs_issued"),
                presto_telemetry::SeriesSpec::delta("pipeline.submitted"),
                presto_telemetry::SeriesSpec::level("trace.recorder_len"),
            ],
            rules: vec![presto_telemetry::WatchdogRule::still(
                presto_telemetry::scope::WD_STALE_CONFIDENT,
                "probe.stale_confident",
            )],
            ..presto_telemetry::ScopeConfig::default()
        };
    }
    let epoch = sys_cfg.lab.epoch;
    let mut sys = PrestoSystem::new(sys_cfg);
    sys.run(SimDuration::from_hours(WARMUP_HOURS));
    let mut gen = QueryLoad::new(
        QueryLoadConfig {
            users: 10,
            queries_per_user_per_hour: 60.0,
            max_age: SimDuration::from_hours(WARMUP_HOURS),
            tolerances: vec![0.05],
            seed: 2005 ^ 0x51_0AD,
            ..QueryLoadConfig::default()
        },
        4,
    );
    let mut completed = 0u64;
    let start = Instant::now();
    for _ in 0..QUERY_EPOCHS {
        let t = sys.now();
        for a in gen.step(t, epoch) {
            sys.submit_query(to_store_query(&a));
        }
        sys.step_epoch();
        completed += sys.take_completed_queries().len() as u64;
        if telemetry {
            // Drain like a real consumer so the enabled arm pays the
            // full cost of producing the traces, not just buffering.
            let _ = sys.proxies[0].pipeline_mut().tracer_mut().take_finished();
        }
    }
    (start.elapsed().as_secs_f64(), completed)
}

/// One timed fleet run: warm up untimed, then step `FLEET_QUERY_EPOCHS`
/// epochs of Zipf-skewed traffic with a proxy crash mid-phase. Returns
/// (timed seconds, queries terminated).
fn run_fleet_arm(telemetry: bool) -> (f64, u64) {
    let epoch = LabParams::default().epoch;
    let warmup = SimDuration::from_hours(WARMUP_HOURS + 2).div_duration(epoch);
    let mut sys = SystemConfig {
        proxies: 3,
        sensors_per_proxy: 2,
        seed: 2005,
        lab: LabParams {
            events_per_day: 0.0,
            jitter_sigma: 0.08,
            heavy_prob: 0.0,
            field_sigma: 0.05,
            ..LabParams::default()
        },
        faults: FaultPlan::none().with_proxy_crash(
            2,
            SimTime::ZERO + epoch * (warmup + FLEET_QUERY_EPOCHS / 2),
            SimTime::from_hours(10_000),
        ),
        ..SystemConfig::default()
    };
    sys.reliability.downlink.request_loss = LossProcess::Bernoulli(0.3);
    sys.reliability.downlink.reply_loss = LossProcess::Bernoulli(0.3);
    sys.proxy.pipeline.epoch_attempt_budget = 8;
    sys.profile = telemetry;
    sys.proxy.pipeline.trace = telemetry;
    if telemetry {
        sys.scope = fleet_scope_config(&FleetScopeBounds::default());
    }
    let mut fc = FleetConfig {
        system: sys,
        ..FleetConfig::default()
    };
    fc.router.shed_enabled = true;
    fc.router.trace = telemetry;
    let mut fleet = FleetDeployment::new(fc);
    for _ in 0..warmup {
        fleet.step_epoch();
    }
    let mut gen = FleetQueryLoad::new(
        FleetLoadConfig {
            load: QueryLoadConfig {
                users: 24,
                queries_per_user_per_hour: 60.0,
                window_min: SimDuration::from_mins(10),
                window_max: SimDuration::from_mins(30),
                max_age: SimDuration::from_hours(WARMUP_HOURS),
                tolerances: vec![0.05],
                seed: 2005 ^ 0xF1_EE7,
                ..QueryLoadConfig::default()
            },
            groups: 3,
            zipf_s: 1.6,
        },
        2,
    );
    let mut terminated = 0u64;
    let start = Instant::now();
    for _ in 0..FLEET_QUERY_EPOCHS {
        let t = fleet.now();
        for a in gen.step(t, epoch) {
            fleet.submit_arrival(&a);
        }
        fleet.step_epoch();
        terminated += fleet.take_completed().len() as u64;
    }
    (start.elapsed().as_secs_f64(), terminated)
}

/// Times both arms of `run` `REPS` times, interleaved, keeping each
/// arm's minimum; asserts identical work and the guard ratio.
fn guard(name: &str, run: fn(bool) -> (f64, u64)) {
    let mut off = f64::INFINITY;
    let mut on = f64::INFINITY;
    let (mut off_done, mut on_done) = (0u64, 0u64);
    for _ in 0..REPS {
        let (t, n) = run(false);
        off = off.min(t);
        off_done = n;
        let (t, n) = run(true);
        on = on.min(t);
        on_done = n;
    }
    let ratio = on / off;
    println!(
        "telemetry_guard[{name}]: disabled {:.3} s, enabled {:.3} s, ratio {:.2}x \
         ({} / {} queries completed)",
        off, on, ratio, off_done, on_done
    );
    assert_eq!(
        off_done, on_done,
        "{name}: telemetry changed the simulation: {off_done} vs {on_done} completions"
    );
    assert!(
        ratio < GUARD_RATIO,
        "{name}: enabled telemetry cost {ratio:.2}x the disabled pump (guard {GUARD_RATIO}x)"
    );
}

fn main() {
    guard("system", run_arm);
    guard("fleet", run_fleet_arm);
    println!("telemetry_guard OK");
}
