//! The PRESTO arm of the architecture comparison (Table 1).
//!
//! Runs in [`presto_baselines::driver::run`] exactly like the other
//! arms: same workload, same query stream, same report row — but the
//! answer path is PRESTO's cache → extrapolation → pull with
//! model-driven push underneath, and the proxy trains hourly.

use presto_baselines::driver::{self, ArchReport, Arm, DriverConfig, Served};
use presto_proxy::{PrestoProxy, ProxyConfig};
use presto_reliability::DownlinkChannel;
use presto_sensor::{PushPolicy, SensorNode, UplinkMsg};
use presto_sim::{SimDuration, SimTime};
use presto_workloads::QuerySpec;

/// A proxy that trains and pushes a model to every sensor each
/// `train_every` epochs.
struct Presto {
    proxy: PrestoProxy,
    train_every: u64,
}

impl Arm for Presto {
    fn feed(&mut self, msg: &UplinkMsg) {
        self.proxy.feed(msg);
    }

    fn epoch(
        &mut self,
        e: u64,
        t: SimTime,
        nodes: &mut [SensorNode],
        chans: &mut [DownlinkChannel],
    ) {
        if e.is_multiple_of(self.train_every) {
            for (node, chan) in nodes.iter_mut().zip(chans.iter_mut()) {
                self.proxy.maybe_train_and_push(t, node.id(), node, chan);
            }
        }
    }

    fn serve(
        &mut self,
        q: &QuerySpec,
        node: &mut SensorNode,
        chan: &mut DownlinkChannel,
    ) -> Served {
        self.proxy.serve(q, node, chan)
    }
}

/// Runs PRESTO on the shared comparison workload.
pub fn run_presto(cfg: &DriverConfig) -> ArchReport {
    let lpl = SimDuration::from_secs(1);
    let push_tolerance = 1.0;
    let mut proxy = PrestoProxy::new(ProxyConfig {
        push_tolerance,
        sensor_lpl: lpl,
        ..ProxyConfig::default()
    });
    for i in 0..cfg.sensors {
        proxy.register_sensor(crate::gid16(i));
    }
    let mut arm = Presto {
        proxy,
        train_every: SimDuration::from_hours(1)
            .div_duration(cfg.lab.epoch)
            .max(1),
    };
    let push = PushPolicy::ModelDriven {
        tolerance: push_tolerance,
    };
    let (rb, nodes) = driver::run(cfg, push, lpl, &mut arm);
    rb.finish("PRESTO", &nodes, cfg.days, true, true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use presto_baselines::{direct, stream, valuepush};

    fn quick_cfg() -> DriverConfig {
        DriverConfig {
            sensors: 3,
            days: 2,
            ..DriverConfig::default()
        }
    }

    #[test]
    fn presto_beats_streaming_on_energy() {
        // Three days so the no-model warm-up phase (during which every
        // sample is pushed) amortizes out.
        let cfg = DriverConfig {
            days: 3,
            ..quick_cfg()
        };
        let p = run_presto(&cfg);
        let s = stream::run(&cfg, true);
        assert!(
            p.radio_energy_per_day_j < s.radio_energy_per_day_j / 2.5,
            "PRESTO {} vs streaming {}",
            p.radio_energy_per_day_j,
            s.radio_energy_per_day_j
        );
    }

    #[test]
    fn presto_beats_direct_on_latency() {
        let p = run_presto(&quick_cfg());
        let d = direct::run(&quick_cfg());
        assert!(
            p.now_latency_mean_ms < d.now_latency_mean_ms / 5.0,
            "PRESTO {} vs direct {}",
            p.now_latency_mean_ms,
            d.now_latency_mean_ms
        );
    }

    #[test]
    fn presto_supports_past_queries_unlike_value_push() {
        let p = run_presto(&quick_cfg());
        let v = valuepush::run(&quick_cfg(), 1.0);
        assert!(p.supports_past && !v.supports_past);
        assert!(
            p.past_answered_fraction > 0.8,
            "{}",
            p.past_answered_fraction
        );
        assert!(p.uses_prediction);
    }

    #[test]
    fn presto_answers_are_within_tolerance_regime() {
        let p = run_presto(&quick_cfg());
        // Mean NOW error bounded by roughly the push tolerance.
        assert!(p.now_error_mean < 1.3, "{}", p.now_error_mean);
    }
}
