//! Failure scenario: 30% bursty fabric loss + a sensor crash/reboot.
//!
//! `failure_scenario [hours]` — defaults to 24 h with a crash at hours
//! 8–10; `failure_scenario --quick` runs the small fixed-seed CI smoke
//! (12 h, crash at 6–8) and exits non-zero if detection, recovery, or
//! the post-recovery ground-truth audit fails;
//! `failure_scenario --quick-correlated` runs the same smoke over
//! correlated (shared Gilbert–Elliott fading) loss with a pinned-bad
//! burst window, additionally requiring the burst to have exercised the
//! downlink retransmission machinery.

use presto_bench::experiments::render_json;
use presto_bench::failure::{failure_scenario, FailureScenarioConfig};
use presto_bench::report::exit_on_failures;

fn main() {
    let arg = std::env::args().nth(1);
    let quick = arg.as_deref() == Some("--quick");
    let quick_correlated = arg.as_deref() == Some("--quick-correlated");
    let cfg = if quick || quick_correlated {
        FailureScenarioConfig {
            hours: 12,
            crash_hours: Some((6, 8)),
            correlated: quick_correlated,
            ..FailureScenarioConfig::default()
        }
    } else {
        FailureScenarioConfig {
            hours: arg.and_then(|a| a.parse().ok()).unwrap_or(24),
            ..FailureScenarioConfig::default()
        }
    };
    let r = failure_scenario(&cfg);
    print!(
        "{}",
        render_json(
            &format!(
                "failure scenario — {} h, {:.0}% {} loss, crash {:?}",
                cfg.hours,
                cfg.loss * 100.0,
                if cfg.correlated {
                    "correlated (shared-fading)"
                } else {
                    "bursty"
                },
                cfg.crash_hours
            ),
            &r
        )
    );
    if quick || quick_correlated {
        let mut failures = Vec::new();
        if r.detection_latency_s.is_nan() || r.detection_latency_s > r.lease_s + 31.0 {
            failures.push(format!(
                "detection {}s exceeds lease {}s",
                r.detection_latency_s, r.lease_s
            ));
        }
        if r.recoveries == 0 {
            failures.push("no recovery replay completed".into());
        }
        if r.window_missing > 0 {
            failures.push(format!("{} silent gaps post-recovery", r.window_missing));
        }
        if r.window_max_err > 0.25 {
            failures.push(format!("post-recovery error {}", r.window_max_err));
        }
        if r.stale_answer_rate >= 0.05 {
            failures.push(format!("stale-answer rate {}", r.stale_answer_rate));
        }
        if quick_correlated && r.downlink_retransmits == 0 {
            failures.push("correlated loss never exercised downlink retransmission".into());
        }
        exit_on_failures("failure-scenario smoke", &failures);
        eprintln!("failure-scenario smoke OK");
    }
}
