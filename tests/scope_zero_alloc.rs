//! A steady-state presto-scope tick allocates nothing.
//!
//! This test binary installs the counting allocator, runs a fleet
//! under the full `fleet_scope_config` (Zipf load, a proxy crash) and
//! a single system under a small scope, and asserts, after warm-up,
//! that every scope tick which opens no incident makes zero heap
//! allocations — as does feeding the scope. The fleet's tick is read
//! off the profiler's `fleet_scope` phase, which spans the whole tick;
//! the system's `scope_tick` is counted directly.
//!
//! It is the only test in its binary: the allocation counter is
//! process-wide.

use presto::core::{PrestoSystem, StoreQuery, SystemConfig};
use presto::fleet::{
    fleet_scope_config, FleetConfig, FleetDeployment, FleetScopeBounds, FEED_STALE_CONFIDENT,
};
use presto::net::LossProcess;
use presto::sim::{
    FaultPlan, FleetLoadConfig, FleetQueryLoad, QueryLoadConfig, SimDuration, SimTime,
};
use presto::telemetry::alloc::{allocation_count, CountingAlloc};
use presto::telemetry::scope::WD_STALE_CONFIDENT;
use presto::telemetry::{PrestoScope, ScopeConfig, SeriesSpec, WatchdogRule};
use presto::workloads::LabParams;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const EPOCH: SimDuration = SimDuration::from_secs(31);
/// Warm-up ticks: long enough for models, traffic, the first incidents
/// and every reused buffer to reach its size.
const WARMUP: u64 = 4 * 3600 / 31;
/// Checked ticks after warm-up.
const CHECKED: u64 = 3600 / 31;

fn opened_total(scope: &PrestoScope) -> u64 {
    scope.watchdog().opened_counts().values().sum()
}

fn fleet() -> FleetDeployment {
    let mut sys = SystemConfig {
        proxies: 3,
        sensors_per_proxy: 2,
        seed: 13,
        lab: LabParams {
            events_per_day: 0.0,
            jitter_sigma: 0.08,
            heavy_prob: 0.0,
            field_sigma: 0.05,
            ..LabParams::default()
        },
        faults: FaultPlan::none().with_proxy_crash(
            2,
            SimTime::ZERO + EPOCH * (WARMUP / 2),
            SimTime::from_hours(10_000),
        ),
        // The profiler counts the `fleet_scope` phase's allocations.
        profile: true,
        ..SystemConfig::default()
    };
    sys.reliability.downlink.request_loss = LossProcess::Bernoulli(0.3);
    sys.reliability.downlink.reply_loss = LossProcess::Bernoulli(0.3);
    sys.proxy.past_coverage_hit = f64::INFINITY;
    sys.proxy.pipeline.epoch_attempt_budget = 8;
    sys.proxy.pipeline.trace = true;
    sys.scope = fleet_scope_config(&FleetScopeBounds::default());
    let mut fc = FleetConfig {
        system: sys,
        ..FleetConfig::default()
    };
    fc.router.shed_enabled = true;
    FleetDeployment::new(fc)
}

fn fleet_load() -> FleetQueryLoad {
    FleetQueryLoad::new(
        FleetLoadConfig {
            load: QueryLoadConfig {
                users: 12,
                queries_per_user_per_hour: 60.0,
                window_min: SimDuration::from_mins(10),
                window_max: SimDuration::from_mins(30),
                max_age: SimDuration::from_hours(2),
                tolerances: vec![0.05],
                seed: 0xA110C,
                ..QueryLoadConfig::default()
            },
            groups: 3,
            zipf_s: 1.6,
        },
        2,
    )
}

/// Fleet ticks: returns how many ticks were checked.
fn fleet_ticks_allocate_nothing() -> u64 {
    let mut fleet = fleet();
    let mut load = fleet_load();
    let mut checked = 0;
    for e in 0..WARMUP + CHECKED {
        let t = fleet.now();
        if e >= WARMUP / 4 {
            for a in load.step(t, EPOCH) {
                fleet.submit_arrival(&a);
            }
        }
        let before_feed = allocation_count();
        fleet.system.scope_mut().feed(FEED_STALE_CONFIDENT, 0.0);
        let feed_allocs = allocation_count() - before_feed;
        let phase = |f: &FleetDeployment| {
            f.system
                .profiler()
                .phase("fleet_scope")
                .map_or(0, |p| p.allocs)
        };
        let (allocs0, opened0) = (phase(&fleet), opened_total(fleet.system.scope()));
        fleet.step_epoch();
        let _ = fleet.take_completed();
        let (allocs1, opened1) = (phase(&fleet), opened_total(fleet.system.scope()));
        if e < WARMUP || opened1 != opened0 {
            continue;
        }
        checked += 1;
        assert_eq!(feed_allocs, 0, "tick {e}: feeding the scope allocated");
        assert_eq!(
            allocs1 - allocs0,
            0,
            "tick {e}: a fleet scope tick that opened no incident allocated"
        );
    }
    let snap = fleet.telemetry_snapshot();
    assert!(
        snap.get("fleet_router.submitted") > Some(0.0)
            && snap.get("pipeline.rpcs_issued") > Some(0.0),
        "vacuous run: no traffic"
    );
    checked
}

/// Single-system ticks over a sliced pipeline: returns how many ticks
/// were checked.
fn system_ticks_allocate_nothing() -> u64 {
    let mut cfg = SystemConfig {
        proxies: 1,
        sensors_per_proxy: 4,
        seed: 7,
        lab: LabParams {
            events_per_day: 0.0,
            ..LabParams::default()
        },
        ..SystemConfig::default()
    };
    cfg.proxy.past_coverage_hit = f64::INFINITY;
    cfg.proxy.pipeline.trace = true;
    cfg.scope = ScopeConfig {
        enabled: true,
        series: vec![
            SeriesSpec::delta("pipeline.rpcs_issued"),
            SeriesSpec::delta("pipeline.sliced"),
            SeriesSpec::level("trace.recorder_len"),
            SeriesSpec::level("downlink.retransmits"),
        ],
        rules: vec![WatchdogRule::still(
            WD_STALE_CONFIDENT,
            FEED_STALE_CONFIDENT,
        )],
        ..ScopeConfig::default()
    };
    let mut sys = PrestoSystem::new(cfg);
    let mut checked = 0;
    for e in 0..WARMUP + CHECKED {
        if e >= WARMUP / 2 {
            let from = SimTime::from_hours(1) + SimDuration::from_mins(e % 60);
            sys.submit_query(StoreQuery::Past {
                sensor: (e % 4) as u16,
                from,
                to: from + SimDuration::from_mins(30),
                tolerance: 0.05,
            });
        }
        sys.scope_mut().feed(FEED_STALE_CONFIDENT, 0.0);
        let t = sys.step_epoch_core();
        sys.pump_pipelines(t);
        let opened0 = opened_total(sys.scope());
        let before = allocation_count();
        sys.scope_tick(t);
        let allocs = allocation_count() - before;
        let _ = sys.take_completed_queries();
        if e < WARMUP || opened_total(sys.scope()) != opened0 {
            continue;
        }
        checked += 1;
        assert_eq!(
            allocs, 0,
            "tick {e}: a system scope tick that opened no incident allocated"
        );
    }
    checked
}

#[test]
fn steady_state_scope_ticks_allocate_nothing() {
    // Sanity: the counting allocator is installed.
    let before = allocation_count();
    drop(std::hint::black_box(vec![0u8; 64]));
    assert!(
        allocation_count() > before,
        "counting allocator not installed"
    );

    let fleet_checked = fleet_ticks_allocate_nothing();
    assert!(
        fleet_checked > CHECKED / 2,
        "only {fleet_checked} fleet ticks checked"
    );
    let system_checked = system_ticks_allocate_nothing();
    assert!(
        system_checked > CHECKED / 2,
        "only {system_checked} system ticks checked"
    );
}
