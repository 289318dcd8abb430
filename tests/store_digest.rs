//! Whole-response identity of the blocking store path.
//!
//! A two-proxy deployment runs for a few simulated days while a seeded
//! mix of NOW / PAST / Events / Aggregate queries goes through
//! `UnifiedStore::query`, with one sensor blacked out for part of the
//! run so honest failures occur. Every field of every `StoreResponse` —
//! value and sigma bits, source, health, latency, hops, series and
//! events — folds into one FNV-1a digest pinned below. Any change to
//! what the synchronous answer path returns, or to the radio work it
//! does (which moves later answers), moves the digest.

use presto::core::{PrestoSystem, StoreQuery, StoreResponse, SystemConfig, UnifiedStore};
use presto::proxy::AnswerSource;
use presto::sensor::AggregateOp;
use presto::sim::{FaultPlan, SimDuration, SimRng, SimTime};

/// The digest of the whole response stream. A change that moves it
/// changes what the blocking store path returns, and must say why.
const PINNED: u64 = 0xf238_c50b_3918_8781;

struct Digest(u64);

impl Digest {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    fn response(&mut self, r: &StoreResponse) {
        self.u64(r.value.map_or(u64::MAX, f64::to_bits));
        self.u64(r.sigma.to_bits());
        self.bytes(format!("{:?}/{:?}", r.source, r.health).as_bytes());
        self.u64(r.latency.as_micros());
        self.u64(r.index_hops);
        self.u64(r.series.len() as u64);
        for &(t, v) in &r.series {
            self.u64(t.as_micros());
            self.u64(v.to_bits());
        }
        self.u64(r.events.len() as u64);
        for &(t, sensor, kind) in &r.events {
            self.u64(t.as_micros());
            self.u64(u64::from(sensor) << 16 | u64::from(kind));
        }
    }
}

/// Draws one query at `now`: mostly PAST and NOW, some Events and
/// Aggregates, at tolerances on both sides of the push tolerance so
/// cache hits, extrapolations and pulls all occur.
fn draw(rng: &mut SimRng, sensors: u64, now: SimTime) -> StoreQuery {
    let sensor = rng.below(sensors) as u16;
    let tolerance = *rng.choose(&[0.25, 1.0, 1.5]).expect("tolerances");
    let window = |rng: &mut SimRng, min_s: f64, max_s: f64| {
        let len = SimDuration::from_secs_f64(rng.uniform_range(min_s, max_s));
        let to = SimTime::from_secs_f64(rng.uniform_range(len.as_secs_f64(), now.as_secs_f64()));
        (to - len, to)
    };
    match rng.below(10) {
        0..=3 => {
            let (from, to) = window(rng, 600.0, 7200.0);
            StoreQuery::Past {
                sensor,
                from,
                to,
                tolerance,
            }
        }
        4..=6 => StoreQuery::Now { sensor, tolerance },
        7 => {
            let (from, to) = window(rng, 3600.0, 86_400.0);
            StoreQuery::Events { from, to }
        }
        _ => {
            let (from, to) = window(rng, 600.0, 7200.0);
            StoreQuery::Aggregate {
                sensor,
                from,
                to,
                op: AggregateOp::Mean,
            }
        }
    }
}

#[test]
fn blocking_store_answers_match_their_pinned_digest() {
    let mut sys = PrestoSystem::new(SystemConfig {
        proxies: 2,
        sensors_per_proxy: 2,
        seed: 16,
        faults: FaultPlan::none().with_blackout_of(
            vec![1],
            SimTime::from_hours(40),
            SimTime::from_hours(52),
        ),
        ..SystemConfig::default()
    });
    sys.run(SimDuration::from_days(1));
    let mut rng = SimRng::new(0x5704E);
    let mut digest = Digest(0xcbf2_9ce4_8422_2325);
    let mut sources = [0u32; 5];
    let end = SimTime::from_days(3);
    while sys.now() < end {
        if rng.chance(0.1) {
            let q = draw(&mut rng, 4, sys.now());
            let r = UnifiedStore::new(&mut sys).query(q);
            digest.response(&r);
            if !matches!(q, StoreQuery::Events { .. }) {
                sources[r.source as usize] += 1;
            }
        }
        sys.step_epoch();
    }
    for (source, n) in [
        AnswerSource::CacheHit,
        AnswerSource::Extrapolated,
        AnswerSource::Pulled,
        AnswerSource::Failed,
    ]
    .into_iter()
    .map(|s| (s, sources[s as usize]))
    {
        assert!(n > 0, "no {source:?} answer in the stream: {sources:?}");
    }
    assert_eq!(
        digest.0, PINNED,
        "blocking store responses changed: digest {:#018x}",
        digest.0
    );
}
