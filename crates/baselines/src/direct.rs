//! Direct sensor querying (Directed Diffusion / Cougar style).
//!
//! Queries are routed to the sensors themselves: no proxy cache, no
//! prediction, every query costs a radio round trip through a
//! duty-cycled mote. "Such querying renders the system unusable for
//! interactive use due to the high latency, low availability, and low
//! reliability inherent in duty-cycled, energy-limited wireless sensor
//! networks" (paper §1) — this arm measures exactly that trade.

use presto_proxy::{PrestoProxy, ProxyConfig};
use presto_reliability::DownlinkChannel;
use presto_sensor::{DownlinkMsg, PushPolicy, SensorNode, UplinkPayload};
use presto_sim::SimDuration;
use presto_workloads::{QuerySpec, TimeScope};

use crate::driver::{self, ArchReport, Arm, DriverConfig, Served};

/// LPL check interval for direct-query motes: long, because the radio is
/// their dominant drain and no push traffic exists.
const DIRECT_LPL: SimDuration = SimDuration::from_secs(2);

/// The direct arm: a thin proxy exists only as the querying sink — its
/// cache is never consulted; its fabric-routed `rpc` is reused for the
/// energy-metered, lossy downlink path.
struct Direct {
    sink: PrestoProxy,
    next_query_id: u64,
    /// A NOW query pulls the last three epochs.
    epoch: SimDuration,
}

impl Arm for Direct {
    fn serve(
        &mut self,
        q: &QuerySpec,
        node: &mut SensorNode,
        chan: &mut DownlinkChannel,
    ) -> Served {
        let (from, to) = match q.scope {
            TimeScope::Now => (q.arrival - self.epoch * 3, q.arrival),
            TimeScope::Past { from, to } => (from, to),
        };
        let msg = DownlinkMsg::PullRequest {
            query_id: self.next_query_id,
            from,
            to,
            tolerance: q.tolerance,
        };
        self.next_query_id += 1;
        let out = self.sink.rpc(q.arrival, &msg, node, chan);
        let samples = match out.reply.map(|r| r.payload) {
            Some(UplinkPayload::PullReply { samples, .. }) => samples,
            _ => Vec::new(),
        };
        match q.scope {
            TimeScope::Now => Served::Now {
                latency_ms: out.latency.as_millis_f64(),
                value: samples.last().map(|s| s.value),
            },
            TimeScope::Past { .. } => Served::Past {
                answered: !samples.is_empty(),
            },
        }
    }
}

/// Runs the direct-querying architecture.
pub fn run(cfg: &DriverConfig) -> ArchReport {
    let mut sink = PrestoProxy::new(ProxyConfig {
        sensor_lpl: DIRECT_LPL,
        ..ProxyConfig::default()
    });
    for i in 0..cfg.sensors {
        sink.register_sensor(i as u16);
    }
    let mut arm = Direct {
        sink,
        next_query_id: 1,
        epoch: cfg.lab.epoch,
    };
    let (rb, nodes) = driver::run(cfg, PushPolicy::Silent, DIRECT_LPL, &mut arm);
    rb.finish("direct-query (Diffusion)", &nodes, cfg.days, true, false)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg() -> DriverConfig {
        DriverConfig {
            sensors: 3,
            days: 1,
            ..DriverConfig::default()
        }
    }

    #[test]
    fn latency_dominated_by_wakeup_preamble() {
        let r = run(&quick_cfg());
        // Every NOW query pays at least the 2 s LPL preamble.
        assert!(r.now_latency_mean_ms >= 2000.0, "{}", r.now_latency_mean_ms);
    }

    #[test]
    fn answers_are_accurate_when_delivered() {
        let r = run(&quick_cfg());
        // Direct answers come from the archive: accurate to the reply codec.
        assert!(r.now_error_mean < 0.5, "{}", r.now_error_mean);
    }

    #[test]
    fn past_queries_are_served_from_mote_archive() {
        let r = run(&quick_cfg());
        assert!(r.supports_past);
        assert!(
            r.past_answered_fraction > 0.5,
            "{}",
            r.past_answered_fraction
        );
    }

    #[test]
    fn no_push_traffic_outside_queries() {
        let mut cfg = quick_cfg();
        // No queries → no sensor radio TX at all.
        cfg.queries.rate_per_hour = 0.0;
        let r = run(&cfg);
        assert_eq!(r.bytes_per_sensor_per_day, 0.0);
        assert!(!r.uses_prediction);
    }
}
