//! Query admission allocates only what the answer needs.
//!
//! This test binary installs the counting allocator and asserts, after
//! warm-up, per-submission allocation ceilings on the radio-free
//! admission paths:
//!
//! * a sliced PAST submission whose slices are all cached shares the
//!   cached slices (a refcount bump each) and builds its answer in one
//!   exact-size pass: at most 5 allocations (the slice plan, the parts,
//!   the answer's samples, the completion queue);
//! * a PAST submission answered from dense cache coverage counts its
//!   coverage without collecting and copies the window once: at most 2
//!   (the answer's samples, the completion queue);
//! * a fleet submission reads every proxy's pressure (and with it the
//!   quorum health grade) into a reused buffer and gates shedding on a
//!   non-allocating index probe: a pressure reading never allocates,
//!   and the median steady-state PAST submission allocates nothing.
//!
//! It is the only test in its binary: the allocation counter is
//! process-wide.

use presto::core::SystemConfig;
use presto::fleet::{FleetConfig, FleetDeployment};
use presto::net::{LinkModel, LossProcess};
use presto::proxy::slice::SliceConfig;
use presto::proxy::{AnswerSource, PipelineAnswer, PipelineQuery, PrestoProxy, ProxyConfig};
use presto::reliability::DownlinkChannel;
use presto::sensor::{PushPolicy, SensorConfig, SensorNode};
use presto::sim::{FleetLoadConfig, FleetQueryLoad, QueryLoadConfig, SimDuration, SimTime};
use presto::telemetry::alloc::{allocation_count, CountingAlloc};
use presto::workloads::LabParams;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const EPOCH: SimDuration = SimDuration::from_secs(31);

fn diurnal(t: SimTime) -> f64 {
    21.0 + 4.0 * ((t.hour_of_day() - 14.0) / 24.0 * std::f64::consts::TAU).cos()
}

/// Allocations made by `f`.
fn allocs<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = allocation_count();
    let r = f();
    (allocation_count() - before, r)
}

/// A proxy over one sensor with a day of archived samples, the given
/// push policy feeding the proxy's summary cache.
fn deployment(cfg: ProxyConfig, push: PushPolicy) -> (PrestoProxy, SensorNode) {
    let mut proxy = PrestoProxy::new(cfg);
    proxy.register_sensor(0);
    let mut node = SensorNode::new(
        0,
        SensorConfig {
            push,
            ..SensorConfig::default()
        },
        LinkModel::perfect(),
    );
    for i in 0..(86_400 / 31) {
        let t = SimTime::from_secs(31 * i);
        for msg in node.on_sample(t, diurnal(t), None) {
            proxy.on_uplink(&msg);
        }
    }
    (proxy, node)
}

fn past(from: SimTime, to: SimTime) -> PipelineQuery {
    PipelineQuery::Past {
        sensor: 0,
        from,
        to,
        tolerance: 0.2,
    }
}

/// All-hit sliced submissions: returns how many were checked.
fn sliced_all_hit_submissions() -> u64 {
    let mut cfg = ProxyConfig {
        past_coverage_hit: f64::INFINITY,
        ..ProxyConfig::default()
    };
    cfg.pipeline.slice = Some(SliceConfig::default());
    let (mut proxy, mut node) = deployment(cfg, PushPolicy::Silent);
    let mut chan = DownlinkChannel::perfect();
    let base = SimTime::from_days(2);

    // Pull a wide window once: its three slices land in the cache.
    let wide = past(
        SimTime::from_hours(1) + SimDuration::from_mins(7),
        SimTime::from_hours(3) + SimDuration::from_mins(11),
    );
    proxy.submit_query(base, wide);
    for e in 0..20u64 {
        proxy.pump_queries(
            base + EPOCH * e,
            0,
            std::slice::from_mut(&mut node),
            std::slice::from_mut(&mut chan),
        );
        if proxy.pipeline().completed_ready() > 0 {
            break;
        }
    }
    let done = proxy.take_completed_queries();
    assert_eq!(done.len(), 1);
    assert_eq!(done[0].answer.source(), AnswerSource::Pulled);

    // Narrower windows over the cached slices, at shifting offsets.
    let rpcs = proxy.pipeline().stats().rpcs_issued;
    let mut checked = 0;
    for k in 0..40u64 {
        let from = SimTime::from_hours(1) + SimDuration::from_mins(10 + k);
        let q = past(from, from + SimDuration::from_mins(65));
        let t = base + SimDuration::from_hours(1) + EPOCH * k;
        let (n, _) = allocs(|| proxy.submit_query(t, q));
        let done = proxy.take_completed_queries();
        assert_eq!(
            done.len(),
            1,
            "an all-hit sliced query completes at submission"
        );
        match &done[0].answer {
            PipelineAnswer::Series(a) => assert!(!a.samples.is_empty()),
            other => panic!("PAST answers are series, got {other:?}"),
        }
        if k < 4 {
            continue; // warm-up
        }
        checked += 1;
        assert!(
            n <= 5,
            "submission {k}: an all-hit sliced PAST submission made {n} allocations"
        );
    }
    assert_eq!(proxy.pipeline().stats().rpcs_issued, rpcs, "no radio work");
    assert!(proxy.pipeline().stats().completed_sliced >= checked);
    checked
}

/// Coverage-hit PAST submissions: returns how many were checked.
fn coverage_hit_submissions() -> u64 {
    let (mut proxy, _) = deployment(
        ProxyConfig::default(),
        PushPolicy::Batched {
            interval: EPOCH,
            compression: None,
        },
    );
    let t = SimTime::from_days(1);
    let mut checked = 0;
    for k in 0..40u64 {
        let from = SimTime::from_hours(5) + SimDuration::from_mins(k);
        let (n, _) =
            allocs(|| proxy.submit_query(t, past(from, from + SimDuration::from_hours(1))));
        let done = proxy.take_completed_queries();
        assert_eq!(done.len(), 1);
        match &done[0].answer {
            PipelineAnswer::Series(a) => {
                assert_eq!(a.source, AnswerSource::CacheHit);
                assert!(a.samples.len() > 100);
            }
            other => panic!("PAST answers are series, got {other:?}"),
        }
        if k < 4 {
            continue; // warm-up
        }
        checked += 1;
        assert!(
            n <= 2,
            "submission {k}: a coverage-hit PAST submission made {n} allocations"
        );
    }
    checked
}

fn fleet() -> FleetDeployment {
    let mut sys = SystemConfig {
        proxies: 3,
        sensors_per_proxy: 2,
        seed: 21,
        lab: LabParams {
            events_per_day: 0.0,
            ..LabParams::default()
        },
        ..SystemConfig::default()
    };
    sys.reliability.downlink.request_loss = LossProcess::Bernoulli(0.3);
    sys.reliability.downlink.reply_loss = LossProcess::Bernoulli(0.3);
    sys.proxy.past_coverage_hit = f64::INFINITY;
    sys.proxy.pipeline.epoch_attempt_budget = 8;
    let mut fc = FleetConfig {
        system: sys,
        ..FleetConfig::default()
    };
    fc.router.shed_enabled = true;
    // Per-ticket fleet trace spans allocate by design; off here so the
    // count isolates admission itself.
    fc.router.trace = false;
    FleetDeployment::new(fc)
}

/// Fleet submissions: returns each steady-state PAST submission's
/// allocation count.
fn fleet_submissions() -> Vec<u64> {
    let mut fleet = fleet();
    let mut load = FleetQueryLoad::new(
        FleetLoadConfig {
            load: QueryLoadConfig {
                users: 12,
                queries_per_user_per_hour: 60.0,
                window_min: SimDuration::from_mins(10),
                window_max: SimDuration::from_mins(30),
                max_age: SimDuration::from_hours(2),
                tolerances: vec![0.05],
                seed: 0x5B17,
                ..QueryLoadConfig::default()
            },
            groups: 3,
            zipf_s: 1.6,
        },
        2,
    );
    let warmup = 4 * 3600 / 31;
    let mut counts = Vec::new();
    for e in 0..warmup + 3600 / 31 {
        let t = fleet.now();
        if e >= warmup / 4 {
            for a in load.step(t, EPOCH) {
                let kind_is_past = matches!(a.arrival.kind, presto::sim::QueryKind::Past);
                let (n, _) = allocs(|| fleet.submit_arrival(&a));
                if e >= warmup && kind_is_past {
                    counts.push(n);
                }
            }
        }
        if e >= warmup {
            for p in 0..3 {
                let (n, _) = allocs(|| fleet.pressure(p));
                assert_eq!(n, 0, "epoch {e}: reading proxy {p}'s pressure allocated");
            }
        }
        fleet.step_epoch();
        let _ = fleet.take_completed();
    }
    assert!(
        counts.len() > 100,
        "vacuous run: {} PAST submissions",
        counts.len()
    );
    counts
}

#[test]
fn admission_allocates_only_what_the_answer_needs() {
    // Sanity: the counting allocator is installed.
    let (n, v) = allocs(|| std::hint::black_box(vec![0u8; 64]));
    drop(v);
    assert!(n > 0, "counting allocator not installed");

    assert!(sliced_all_hit_submissions() > 30);
    assert!(coverage_hit_submissions() > 30);
    // Every admitted submission reads all pressures (each with its
    // health grade) and, for a PAST window, probes the time-range
    // index; if any of that allocated, no submission could allocate
    // nothing. The typical one does: only amortized queue growth and
    // answers completed at submission allocate.
    let mut counts = fleet_submissions();
    counts.sort_unstable();
    let median = counts[counts.len() / 2];
    assert_eq!(
        median, 0,
        "median fleet PAST submission made {median} allocations"
    );
}
