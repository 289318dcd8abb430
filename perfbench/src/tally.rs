//! What one repetition of a workload produced: terminal accounting,
//! the oracle's verdicts, invariant violations, measured-phase deltas
//! and the determinism digest.

use std::collections::BTreeMap;

use presto_core::PrestoSystem;
use presto_telemetry::trace::QueryTrace;
use presto_telemetry::Snapshot;

use crate::meter::Meter;
use crate::oracle::Verdict;
use crate::stats::Digest;

/// One submitted query's accounting.
struct Ticket {
    /// Terminals seen.
    terminals: u32,
    /// How long before its submission the query was scheduled,
    /// simulated seconds.
    lead_s: f64,
    /// Submitted in the measured phase (not during set-up).
    measured: bool,
}

/// Terminal accounting. Queries submitted during set-up (a preload that
/// brings the system to steady state) are held to the same invariants
/// but stay out of the metrics.
#[derive(Default)]
pub struct Tally {
    measuring: bool,
    /// Queries submitted in the measured phase (operations attempted).
    pub submitted: u64,
    /// Queries submitted during set-up.
    pub preload_submitted: u64,
    tickets: BTreeMap<u64, Ticket>,
    /// Non-Failed answers the oracle accepted.
    pub answered_ok: u64,
    /// Honest `Failed` terminals.
    pub failed_honest: u64,
    /// Non-Failed answers the oracle rejected, by query kind.
    pub wrong: BTreeMap<&'static str, u64>,
    /// Worst oracle error ratio seen per kind (diagnostic).
    pub worst_ratio: BTreeMap<&'static str, f64>,
    /// Terminal latencies from the scheduled arrival instant, simulated
    /// seconds.
    pub latencies: Vec<f64>,
    /// Answer ages of data-carrying answers, simulated seconds.
    pub ages: Vec<f64>,
    /// Finished query traces audited.
    pub traces: u64,
    /// Traces with other than one terminal or non-monotone timestamps.
    pub traces_bad: u64,
    /// Broken invariants, one line each.
    pub violations: Vec<String>,
    /// Digest of the simulated outcomes.
    pub digest: Digest,
}

impl Tally {
    /// Submissions from here on enter the metrics.
    pub fn start_measuring(&mut self) {
        self.measuring = true;
    }

    /// Registers a submission under `ticket`, scheduled `lead_s`
    /// simulated seconds before the instant it was submitted.
    pub fn submit(&mut self, ticket: u64, lead_s: f64) {
        if self.measuring {
            self.submitted += 1;
        } else {
            self.preload_submitted += 1;
        }
        let t = Ticket {
            terminals: 0,
            lead_s,
            measured: self.measuring,
        };
        if self.tickets.insert(ticket, t).is_some() {
            self.violations
                .push(format!("ticket {ticket} issued twice"));
        }
    }

    /// Registers a terminal of `ticket` given its submit-to-terminal
    /// time. True for the first terminal of a measured query, whose
    /// latency from the scheduled instant is then recorded and whose
    /// answer the caller goes on to account; a repeated or unknown
    /// terminal is a broken invariant.
    pub fn terminal(&mut self, ticket: u64, served_s: f64) -> bool {
        let Some(t) = self.tickets.get_mut(&ticket) else {
            self.violations
                .push(format!("terminal for unknown ticket {ticket}"));
            return false;
        };
        t.terminals += 1;
        if t.terminals > 1 {
            self.violations
                .push(format!("ticket {ticket} terminated twice"));
            return false;
        }
        if t.measured {
            self.latencies.push(t.lead_s + served_s);
        }
        t.measured
    }

    /// Files the verdict on one non-Failed answer.
    pub fn verdict(&mut self, kind: &'static str, v: Verdict) {
        match v {
            Verdict::Ok => self.answered_ok += 1,
            Verdict::Wrong(ratio) => {
                *self.wrong.entry(kind).or_default() += 1;
                let w = self.worst_ratio.entry(kind).or_default();
                *w = w.max(ratio);
            }
        }
    }

    /// Answers the oracle rejected.
    pub fn answers_wrong(&self) -> u64 {
        self.wrong.values().sum()
    }

    /// Submitted queries that never terminated.
    pub fn unterminated(&self) -> u64 {
        self.tickets.values().filter(|t| t.terminals == 0).count() as u64
    }

    /// Failed operations: honest failures, wrong answers and queries
    /// that never terminated.
    pub fn failed(&self) -> u64 {
        self.failed_honest + self.answers_wrong() + self.unterminated()
    }

    /// Audits one finished query trace.
    pub fn audit_trace(&mut self, tr: &QueryTrace) {
        self.traces += 1;
        if tr.terminal_count() != 1 || !tr.is_monotone() {
            self.traces_bad += 1;
        }
    }

    /// Records a broken invariant when `ok` is false.
    pub fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(what());
        }
    }

    /// The end-of-drain invariants every workload shares.
    pub fn finish(&mut self, sys: &PrestoSystem) {
        let unterminated = self.unterminated();
        self.require(unterminated == 0, || {
            format!("{unterminated} queries never terminated")
        });
        let pending = sys.pipeline_pending_total();
        self.require(pending == 0, || {
            format!("{pending} pipeline queries pending after drain")
        });
        let rpcs = sys.async_in_flight_total();
        self.require(rpcs == 0, || format!("{rpcs} RPCs in flight after drain"));
        let unattributed = sys.scope().unattributed_incidents();
        self.require(unattributed == 0, || {
            format!("{unattributed} unattributed watchdog incidents")
        });
        let bad = self.traces_bad;
        self.require(bad == 0, || format!("{bad} malformed query traces"));
    }

    /// Folds the final snapshot into the digest, minus the host-timing
    /// (`profiler.*`) and allocator (`alloc.*`) sections.
    pub fn digest_snapshot(&mut self, snap: &Snapshot) {
        for line in snap.render().lines() {
            if !line.starts_with("profiler.") && !line.starts_with("alloc.") {
                self.digest.line(line);
            }
        }
    }
}

/// Counter state at a measurement boundary.
pub struct Mark {
    /// The full telemetry snapshot.
    snap: Snapshot,
    /// Sensor-tier energy, joules, idle listening settled to the mark.
    sensor_j: f64,
    /// Reply-cache hits and misses summed over the proxies.
    reply_cache: (f64, f64),
}

impl Mark {
    /// Settles every sensor's idle listening to `sys.now()` and reads
    /// the ledgers; `snap` is the caller's telemetry snapshot.
    pub fn take(sys: &mut PrestoSystem, snap: Snapshot) -> Mark {
        let now = sys.now();
        for node in sys.nodes.iter_mut().flatten() {
            node.advance_to(now);
        }
        let reply_cache = sys.proxies.iter().fold((0.0, 0.0), |(h, m), p| {
            let c = p.pipeline().reply_cache();
            (h + c.hits() as f64, m + c.misses() as f64)
        });
        Mark {
            snap,
            sensor_j: sys.sensor_ledger_total().total(),
            reply_cache,
        }
    }

    /// `path` at `end` minus `path` here (0 where absent).
    pub fn delta(&self, end: &Mark, path: &str) -> f64 {
        end.snap.get(path).unwrap_or(0.0) - self.snap.get(path).unwrap_or(0.0)
    }
}

/// One repetition of a workload.
pub struct Rep {
    /// Construction plus warmup, host seconds.
    pub setup_s: f64,
    /// Wall-clock of the measured phase including the harness, host
    /// seconds (the tracing-overhead comparison).
    pub measured_wall_s: f64,
    /// Terminal accounting.
    pub tally: Tally,
    /// Host measurements.
    pub meter: Meter,
    /// Simulated hours in the measured phase.
    pub sim_hours: f64,
    /// Sensors in the deployment.
    pub sensors: usize,
    /// Per-layer counters this workload measures.
    pub layers: BTreeMap<&'static str, f64>,
}

/// Inserts `value` under `name` when it is defined.
pub fn put(map: &mut BTreeMap<&'static str, f64>, name: &'static str, value: Option<f64>) {
    if let Some(v) = value.filter(|v| v.is_finite()) {
        map.insert(name, v);
    }
}

/// The measured-phase counters every single-system layer exposes,
/// as deltas between two marks.
pub fn system_layers(m0: &Mark, m1: &Mark) -> BTreeMap<&'static str, f64> {
    use crate::stats::ratio;
    let mut map = BTreeMap::new();
    let layers = &mut map;
    let d = |p: &str| m0.delta(m1, p);
    put(layers, "sensor.energy_j", Some(m1.sensor_j - m0.sensor_j));
    let (hits, misses) = (
        m1.reply_cache.0 - m0.reply_cache.0,
        m1.reply_cache.1 - m0.reply_cache.1,
    );
    put(layers, "reply_cache.hit_rate", ratio(hits, hits + misses));
    put(
        layers,
        "pipeline.rpcs_issued",
        Some(d("pipeline.rpcs_issued")),
    );
    put(layers, "pipeline.coalesced", Some(d("pipeline.coalesced")));
    put(
        layers,
        "pipeline.radio_free_frac",
        ratio(
            d("pipeline.completed_fast") + d("pipeline.completed_cached"),
            d("pipeline.submitted"),
        ),
    );
    put(
        layers,
        "slice.hit_rate",
        ratio(d("slice.l1_hits") + d("slice.l2_hits"), d("slice.lookups")),
    );
    put(
        layers,
        "downlink.retransmits_per_rpc",
        ratio(d("downlink.retransmits"), d("downlink.rpcs")),
    );
    put(
        layers,
        "downlink.rpc_failures",
        Some(d("downlink.rpc_failures")),
    );
    put(layers, "fabric.retransmits", Some(d("fabric.retransmits")));
    put(
        layers,
        "recovery.recoveries",
        Some(d("recovery.recoveries")),
    );
    put(
        layers,
        "recovery.samples_replayed",
        Some(d("recovery.samples_replayed")),
    );
    put(layers, "sensor.bytes_sent", Some(d("sensor.bytes_sent")));
    put(
        layers,
        "sensor.pushes",
        Some(d("sensor.values_pushed") + d("sensor.deviations_pushed") + d("sensor.batches_sent")),
    );
    put(
        layers,
        "sensor.pulls_served",
        Some(d("sensor.pulls_served")),
    );
    put(
        layers,
        "archive.page_cache_hit_rate",
        ratio(
            d("archive.page_cache_hits"),
            d("archive.page_cache_hits") + d("archive.page_cache_misses"),
        ),
    );
    put(
        layers,
        "flash.reads_per_pull_served",
        ratio(d("flash.reads"), d("sensor.pulls_served")),
    );
    put(
        layers,
        "flash.bytes_written_per_record",
        ratio(d("flash.bytes_written"), d("archive.records_appended")),
    );
    put(layers, "flash.erases", Some(d("flash.erases")));
    put(
        layers,
        "archive.samples_aged",
        Some(d("archive.samples_aged")),
    );
    put(
        layers,
        "proxy.models_pushed",
        Some(d("proxy.models_pushed")),
    );
    put(
        layers,
        "proxy.extrapolations",
        Some(d("proxy.extrapolations")),
    );
    put(
        layers,
        "sensor.model_checks",
        Some(d("sensor.model_checks")),
    );
    map
}

/// Scheduled arrival instants. The simulator admits queries at epoch
/// boundaries, but users arrive in continuous time: each query is
/// scheduled uniformly inside the epoch before the boundary that
/// submits it, and its latency counts from that instant.
pub struct Arrivals {
    rng: presto_sim::SimRng,
    epoch_s: f64,
}

impl Arrivals {
    /// Arrival offsets for a run seeded with `seed`.
    pub fn new(seed: u64, epoch: presto_sim::SimDuration) -> Self {
        Arrivals {
            rng: presto_sim::SimRng::new(seed).split("perfbench-arrivals"),
            epoch_s: epoch.as_secs_f64(),
        }
    }

    /// How long before its submission the next query was scheduled.
    pub fn lead_s(&mut self) -> f64 {
        self.rng.uniform() * self.epoch_s
    }
}
