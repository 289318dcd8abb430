//! One benchmark for the PRESTO reproduction.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each run repeats the named workload, built from the seed, until
//! `--seconds` have passed (at least twice), and checks every answer
//! against ground truth, the end-of-drain invariants, and that every
//! repetition produced the same outcome digest. Simulated metrics come
//! from the (identical) repetitions; host metrics from each epoch's
//! least host time across them and `setup_s` from the median set-up,
//! both scaled to a reference host speed by a calibration kernel timed
//! in the same run. The last stdout line is the result object; the
//! line before it is the full report. `--trace 1` alternates untraced and traced
//! repetitions, reports the per-layer metrics and the tracing overhead,
//! and writes the spans and the per-layer table under `perfbench/out/`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

mod fleet;
mod ingest;
mod meter;
mod oracle;
mod slice;
mod stats;
mod tally;

use meter::Meter;
use stats::{grouped_median, median, quantile};
use tally::{put, Rep};

#[global_allocator]
static ALLOC: presto_telemetry::alloc::CountingAlloc = presto_telemetry::alloc::CountingAlloc;

/// The workloads, by name.
const WORKLOADS: [&str; 3] = [
    "fleet-zipf-crash",
    "slice-hot-windows",
    "ingest-aging-longrun",
];

/// End-to-end metrics and their units. Every workload reports those it
/// measures in the full report.
const END_TO_END: [(&str, &str); 11] = [
    ("answered_frac", "ratio"),
    ("latency_p50_sim_s", "s"),
    ("latency_p99_sim_s", "s"),
    ("answer_age_p50_sim_s", "s"),
    ("radio_bytes_per_answer", "B"),
    ("sensor_j_per_sensor_day", "J"),
    ("host_epoch_us_p50", "us"),
    ("host_sim_hours_per_s", "h/s"),
    ("allocs_per_epoch", "count"),
    ("peak_heap_mb", "MB"),
    ("setup_s", "s"),
];

/// The end-to-end metrics of the result line: those every workload
/// measures (`answer_age_p50_sim_s` has no source on the blocking
/// store path, so it stays in the full report only).
const RESULT_END_TO_END: [&str; 10] = [
    "answered_frac",
    "latency_p50_sim_s",
    "latency_p99_sim_s",
    "radio_bytes_per_answer",
    "sensor_j_per_sensor_day",
    "host_epoch_us_p50",
    "host_sim_hours_per_s",
    "allocs_per_epoch",
    "peak_heap_mb",
    "setup_s",
];

/// The per-layer metrics of the result line (`--trace 1`): those every
/// workload measures. The full report and the per-layer table add the
/// workload-specific ones (fleet tier, slice and reply caches, store
/// query times).
const RESULT_PER_LAYER: [&str; 27] = [
    "core.step_us_p50",
    "core.allocs_per_epoch",
    "core.cost_growth",
    "proxy.pump_us_p50",
    "proxy.pump_allocs_per_epoch",
    "scope.tick_us_per_epoch",
    "scope.allocs_per_epoch",
    "host_epoch_us_p99",
    "trace.overhead_pct",
    "pipeline.rpcs_issued",
    "pipeline.coalesced",
    "downlink.retransmits_per_rpc",
    "downlink.rpc_failures",
    "fabric.retransmits",
    "recovery.recoveries",
    "recovery.samples_replayed",
    "sensor.bytes_sent",
    "sensor.pushes",
    "sensor.pulls_served",
    "archive.page_cache_hit_rate",
    "flash.reads_per_pull_served",
    "flash.bytes_written_per_record",
    "flash.erases",
    "archive.samples_aged",
    "proxy.models_pushed",
    "proxy.extrapolations",
    "sensor.model_checks",
];

/// The unit of an end-to-end metric.
fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .find(|(n, _)| *n == name)
        .map_or("", |(_, u)| *u)
}

/// Units of the per-layer metrics, by name prefix or suffix.
fn layer_unit(name: &str) -> &'static str {
    if name.contains("_us") {
        "us"
    } else if name.ends_with("_pct") {
        "%"
    } else if name.ends_with("_rate") || name.ends_with("_frac") || name.ends_with("cost_growth") {
        "ratio"
    } else if name.ends_with("bytes_sent") || name.contains("bytes_written") {
        "B"
    } else {
        "count"
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(bad)?,
            "--seconds" => args.seconds = value.parse().map_err(bad)?,
            "--trace" => {
                args.trace = value.parse::<u8>().map_err(|e| format!("--trace: {e}"))? != 0
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    Ok(args)
}

fn run_once(workload: &str, seed: u64, trace: bool) -> Rep {
    let seed = system_seed(seed);
    match workload {
        "fleet-zipf-crash" => fleet::run(seed, trace),
        "slice-hot-windows" => slice::run(seed, trace),
        _ => ingest::run(seed, trace),
    }
}

/// Profiler phases of the fleet's `step_epoch`, with the per-layer
/// names of their per-epoch µs median and allocations per epoch.
const PHASE_METRICS: [(&str, &str, &str); 7] = [
    (
        "step_epoch_core",
        "core.step_us_p50",
        "core.allocs_per_epoch",
    ),
    (
        "fleet_pump",
        "proxy.pump_us_p50",
        "proxy.pump_allocs_per_epoch",
    ),
    (
        "fleet_scope",
        "scope.tick_us_per_epoch",
        "scope.allocs_per_epoch",
    ),
    (
        "fleet_mesh",
        "fleet.mesh_us_p50",
        "fleet.mesh_allocs_per_epoch",
    ),
    (
        "fleet_membership",
        "fleet.membership_us_p50",
        "fleet.membership_allocs_per_epoch",
    ),
    (
        "fleet_deliver",
        "fleet.deliver_us_p50",
        "fleet.deliver_allocs_per_epoch",
    ),
    (
        "fleet_collect",
        "fleet.collect_us_p50",
        "fleet.collect_allocs_per_epoch",
    ),
];

/// Set-up-only samples taken after each repetition of a workload whose
/// repetitions are long (so few), adding to the repetitions' own set-up
/// times behind the reported `setup_s` median.
const SETUPS_PER_REP: usize = 12;

/// Calibration-kernel passes after each repetition.
const CALIBRATION_PASSES: usize = 5;

/// The calibration kernel's least time, ns, on the uncontended host the
/// benchmark's figures were first taken on (2 vCPUs, KVM). A run's
/// host-time figures are scaled by this over the run's own least
/// kernel time: other tenants of a shared host slow the kernel and the
/// system alike, so the scaled figures read as on that host at that
/// speed and follow only the code.
const CALIBRATION_REFERENCE_NS: f64 = 3.3e6;

/// Rescales the host-time figures of `m` (µs, `setup_s`) and the host
/// rate to the reference host speed; `speed` is the reference kernel
/// time over this run's.
fn at_reference_speed(m: &mut BTreeMap<&'static str, f64>, speed: f64) {
    for (name, v) in m.iter_mut() {
        if name.contains("_us") || *name == "setup_s" {
            *v *= speed;
        } else if *name == "host_sim_hours_per_s" {
            *v /= speed;
        }
    }
}

/// Times a workload's set-up alone, where that is cheaper than a
/// repetition.
fn setup_only(workload: &str, seed: u64) -> Option<f64> {
    (workload == "ingest-aging-longrun").then(|| ingest::setup_s(system_seed(seed)))
}

/// Maps a `--seed` value to the system seed, spreading nearby values
/// over the whole seed space.
fn system_seed(seed: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x5EED
}

/// The least host time across repetitions of a per-repetition figure.
fn fastest(reps: &[Rep], f: impl Fn(&Rep) -> Option<f64>) -> Option<f64> {
    reps.iter().filter_map(f).min_by(f64::total_cmp)
}

/// Element-wise minimum across repetitions of a per-epoch or per-call
/// host-time series. Every repetition of a seed does the same work in
/// the same order, and other processes on the host only ever slow an
/// element down, so its least time is the steadiest reading of its
/// cost.
fn floor<'a>(reps: &'a [Rep], f: impl Fn(&'a Rep) -> Option<&'a [u64]>) -> Option<Vec<u64>> {
    let mut series = reps.iter().filter_map(f);
    let mut out = series.next()?.to_vec();
    for xs in series {
        for (o, &x) in out.iter_mut().zip(xs) {
            *o = (*o).min(x);
        }
    }
    Some(out)
}

fn us(ns: &[u64]) -> Vec<f64> {
    ns.iter().map(|&n| n as f64 / 1e3).collect()
}

/// Median µs of one call, floored across repetitions.
fn call_us_p50(reps: &[Rep], name: &str) -> Option<f64> {
    median(&us(&floor(reps, |r| {
        r.meter.calls.get(name).map(|l| &l.ns[..])
    })?))
}

fn call_allocs_per_epoch(m: &Meter, name: &str) -> Option<f64> {
    let log = m.calls.get(name)?;
    Some(log.allocs as f64 / m.epoch_total_ns.len() as f64)
}

/// Core µs per epoch in the last simulated day of the measured phase
/// over the first (last tenth over first tenth when the phase is
/// shorter than two days).
fn cost_growth(per_epoch: &[f64], epochs_per_day: usize) -> Option<f64> {
    let n = per_epoch.len();
    let w = if n >= 2 * epochs_per_day {
        epochs_per_day
    } else {
        n / 10
    };
    if w == 0 {
        return None;
    }
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
    stats::ratio(mean(&per_epoch[n - w..]), mean(&per_epoch[..w]))
}

/// The end-to-end metrics across the repetitions; `setups` holds every
/// set-up time measured in the run, `peak_heap_bytes` the heap
/// high-water mark of the first repetition.
fn end_to_end(reps: &[Rep], setups: &[f64], peak_heap_bytes: u64) -> BTreeMap<&'static str, f64> {
    let r = &reps[0];
    let t = &r.tally;
    let mut m = BTreeMap::new();
    put(
        &mut m,
        "answered_frac",
        stats::ratio(t.answered_ok as f64, t.submitted as f64),
    );
    put(&mut m, "latency_p50_sim_s", quantile(&t.latencies, 0.5));
    put(&mut m, "latency_p99_sim_s", quantile(&t.latencies, 0.99));
    put(&mut m, "answer_age_p50_sim_s", median(&t.ages));
    put(
        &mut m,
        "radio_bytes_per_answer",
        stats::ratio(r.layers["sensor.bytes_sent"], t.answered_ok as f64),
    );
    put(
        &mut m,
        "sensor_j_per_sensor_day",
        Some(r.layers["sensor.energy_j"] / r.sensors as f64 / (r.sim_hours / 24.0)),
    );
    if let Some(epochs) = floor(reps, |r| Some(&r.meter.epoch_total_ns[..])) {
        put(&mut m, "host_epoch_us_p50", median(&us(&epochs)));
        let host_s = epochs.iter().sum::<u64>() as f64 / 1e9;
        put(
            &mut m,
            "host_sim_hours_per_s",
            stats::ratio(r.sim_hours, host_s),
        );
    }
    let allocs = &r.meter.epoch_total_allocs;
    put(
        &mut m,
        "allocs_per_epoch",
        stats::ratio(allocs.iter().sum::<u64>() as f64, allocs.len() as f64),
    );
    put(&mut m, "peak_heap_mb", Some(peak_heap_bytes as f64 / 1e6));
    put(&mut m, "setup_s", median(setups));
    m
}

/// The per-layer metrics across the repetitions.
fn per_layer(reps: &[Rep]) -> BTreeMap<&'static str, f64> {
    let mut m = reps[0].layers.clone();
    // Figures timed around single-system calls (the fleet reads the same
    // phases from its profiler instead).
    for (call, us, allocs) in [
        (
            "PrestoSystem::step_epoch_core",
            "core.step_us_p50",
            "core.allocs_per_epoch",
        ),
        (
            "PrestoSystem::pump_pipelines",
            "proxy.pump_us_p50",
            "proxy.pump_allocs_per_epoch",
        ),
        (
            "PrestoSystem::scope_tick",
            "scope.tick_us_per_epoch",
            "scope.allocs_per_epoch",
        ),
    ] {
        if reps[0].meter.calls.contains_key(call) {
            put(&mut m, us, call_us_p50(reps, call));
            put(&mut m, allocs, call_allocs_per_epoch(&reps[0].meter, call));
        }
    }
    for (call, name) in [
        ("FleetDeployment::submit_arrival", "fleet.submit_us_p50"),
        ("PrestoSystem::submit_query", "proxy.submit_us_p50"),
        ("UnifiedStore::query/past", "store.query_us_p50.past"),
        ("UnifiedStore::query/events", "store.query_us_p50.events"),
        ("UnifiedStore::query/now", "store.query_us_p50.now"),
        (
            "UnifiedStore::query/aggregate",
            "store.query_us_p50.aggregate",
        ),
    ] {
        put(&mut m, name, call_us_p50(reps, call));
    }
    // Phases the fleet's profiler times inside `step_epoch`.
    for (phase, us_name, allocs_name) in PHASE_METRICS {
        if let Some(micros) = floor(reps, |r| r.meter.phases.get(phase).map(|p| &p.0[..])) {
            put(&mut m, us_name, grouped_median(&micros));
            let allocs = reps[0].meter.phases[phase].1 as f64;
            put(
                &mut m,
                allocs_name,
                Some(allocs / reps[0].meter.epoch_total_ns.len() as f64),
            );
        }
    }
    // Core cost per epoch over the measured phase, in order.
    let core = floor(reps, |r| {
        r.meter
            .calls
            .get("PrestoSystem::step_epoch_core")
            .map(|l| &l.ns[..])
    })
    .or_else(|| {
        floor(reps, |r| {
            r.meter.phases.get("step_epoch_core").map(|p| &p.0[..])
        })
    });
    let epoch = presto_workloads::LabParams::default().epoch;
    let epochs_per_day = presto_sim::SimDuration::from_days(1).div_duration(epoch) as usize;
    if let Some(core) = core {
        let per_epoch: Vec<f64> = core.iter().map(|&x| x as f64).collect();
        put(
            &mut m,
            "core.cost_growth",
            cost_growth(&per_epoch, epochs_per_day),
        );
    }
    if let Some(epochs) = floor(reps, |r| Some(&r.meter.epoch_total_ns[..])) {
        put(&mut m, "host_epoch_us_p99", quantile(&us(&epochs), 0.99));
    }
    let wall = |traced: bool| {
        fastest(reps, |r| {
            (r.meter.tracing() == traced).then_some(r.measured_wall_s)
        })
    };
    if let (Some(on), Some(off)) = (wall(true), wall(false)) {
        put(&mut m, "trace.overhead_pct", Some((on / off - 1.0) * 100.0));
    }
    m
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn json_metrics<'a>(items: impl Iterator<Item = (&'a str, f64, &'a str)>) -> String {
    let body: Vec<String> = items
        .map(|(k, v, u)| format!("\"{k}\": {{\"value\": {}, \"unit\": \"{u}\"}}", json_num(v)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn json_counts(m: &BTreeMap<&str, u64>) -> String {
    let body: Vec<String> = m.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
    format!("{{{}}}", body.join(", "))
}

fn json_strs(xs: &[String]) -> String {
    let body: Vec<String> = xs.iter().map(|s| format!("{s:?}")).collect();
    format!("[{}]", body.join(", "))
}

/// Writes the spans of the last traced repetition and the per-layer
/// table (self time per span name, then every layer metric; the fleet's
/// profiler phases appear among the metrics).
fn write_trace(workload: &str, rep: &Rep, layers: &BTreeMap<&str, f64>) -> std::io::Result<String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    std::fs::write(
        dir.join(format!("{workload}.spans.csv")),
        rep.meter.spans_csv(),
    )?;
    let mut table = String::from("{\"self_time\": [");
    let rows: Vec<String> = rep
        .meter
        .self_times()
        .iter()
        .map(|(name, (n, total, own))| {
            format!(
                "{{\"span\": \"{name}\", \"count\": {n}, \"total_ms\": {}, \"self_ms\": {}}}",
                *total as f64 / 1e6,
                *own as f64 / 1e6
            )
        })
        .collect();
    table.push_str(&rows.join(",\n  "));
    table.push_str("],\n\"layers\": ");
    table.push_str(&json_metrics(
        layers.iter().map(|(k, v)| (*k, *v, layer_unit(k))),
    ));
    table.push_str("}\n");
    let path = dir.join(format!("{workload}.layers.json"));
    std::fs::write(&path, table)?;
    Ok(path.display().to_string())
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    let mut extra_setups: Vec<f64> = Vec::new();
    let mut peak_heap_bytes = None;
    let mut calibration = u64::MAX;
    let mut problems: Vec<String> = Vec::new();
    loop {
        let traced = args.trace && reps.len() % 2 == 1;
        let mut rep = run_once(&args.workload, args.seed, traced);
        // Later repetitions add the earlier ones' kept results to the
        // heap, so the system's peak is read after the first.
        peak_heap_bytes.get_or_insert_with(presto_telemetry::alloc::peak_bytes);
        let i = reps.len();
        if !rep.meter.spans_well_formed() {
            problems.push(format!("rep {i}: malformed spans"));
        }
        if traced {
            // Only the last traced repetition's spans are written out.
            for r in &mut reps {
                r.meter.spans = Vec::new();
            }
        }
        if i > 0 {
            // The simulated metrics come from the first repetition.
            rep.tally.latencies = Vec::new();
            rep.tally.ages = Vec::new();
        }
        reps.push(rep);
        for _ in 0..CALIBRATION_PASSES {
            calibration = calibration.min(meter::calibration_ns());
        }
        if !args.trace {
            extra_setups
                .extend((0..SETUPS_PER_REP).map_while(|_| setup_only(&args.workload, args.seed)));
        }
        let elapsed = start.elapsed();
        let per_rep = elapsed / reps.len() as u32;
        // At least two repetitions (the same-seed digest comparison, and
        // one untraced plus one traced in a traced run); never past two
        // minutes in all.
        if reps.len() >= 2 && (elapsed >= budget || elapsed + per_rep > Duration::from_secs(120)) {
            break;
        }
    }

    let digest = reps[0].tally.digest.hex();
    for (i, r) in reps.iter().enumerate() {
        for v in &r.tally.violations {
            problems.push(format!("rep {i}: {v}"));
        }
        if r.tally.digest.hex() != digest {
            problems.push(format!(
                "rep {i}: outcome digest {} differs from {digest}",
                r.tally.digest.hex()
            ));
        }
    }
    let setups: Vec<f64> = reps.iter().map(|r| r.setup_s).chain(extra_setups).collect();
    let raw = end_to_end(&reps, &setups, peak_heap_bytes.unwrap_or_default());
    let speed = CALIBRATION_REFERENCE_NS / calibration as f64;
    let mut e2e = raw.clone();
    at_reference_speed(&mut e2e, speed);
    let mut layers = if args.trace {
        per_layer(&reps)
    } else {
        BTreeMap::new()
    };
    at_reference_speed(&mut layers, speed);
    // The traced run's spans and layer table, written before the report
    // so a failed write shows among its problems.
    let layer_table = if args.trace {
        reps.iter()
            .rev()
            .find(|r| r.meter.tracing())
            .and_then(
                |traced| match write_trace(&args.workload, traced, &layers) {
                    Ok(path) => Some((path, traced.meter.spans.len())),
                    Err(e) => {
                        problems.push(format!("writing the trace: {e}"));
                        None
                    }
                },
            )
    } else {
        None
    };
    let t = &reps[0].tally;
    let mut report = String::new();
    let _ = write!(
        report,
        "{{\"report\": {{\"workload\": \"{}\", \"seed\": {}, \"repetitions\": {}, \"digest\": \"{digest}\", \
         \"attempted\": {}, \"failed\": {}, \"failed_honest\": {}, \"answers_wrong\": {}, \"answers_wrong_by_kind\": {}, \"worst_error_ratio_by_kind\": {}, \
         \"unterminated\": {}, \"latency_samples\": {}, \"answer_age_samples\": {}, \"traces_audited\": {}, \
         \"calibration_ns\": {calibration}, \"host_speed_scale\": {speed}, \"problems\": {}, \"end_to_end\": {}, \"host_unscaled\": {}",
        args.workload,
        args.seed,
        reps.len(),
        t.submitted,
        t.failed(),
        t.failed_honest,
        t.answers_wrong(),
        json_counts(&t.wrong),
        json_metrics(t.worst_ratio.iter().map(|(k, v)| (*k, *v, "ratio"))),
        t.unterminated(),
        t.latencies.len(),
        t.ages.len(),
        t.traces,
        json_strs(&problems),
        json_metrics(END_TO_END.iter().filter_map(|(k, u)| e2e.get(k).map(|v| (*k, *v, *u)))),
        json_metrics(
            ["host_epoch_us_p50", "host_sim_hours_per_s", "setup_s"]
                .iter()
                .filter_map(|k| raw.get(k).map(|v| (*k, *v, unit_of(k))))
        ),
    );
    if args.trace {
        let _ = write!(
            report,
            ", \"per_layer\": {}",
            json_metrics(layers.iter().map(|(k, v)| (*k, *v, layer_unit(k))))
        );
        if let Some((path, spans)) = &layer_table {
            let _ = write!(report, ", \"layer_table\": {path:?}, \"spans\": {spans}");
        }
    }
    report.push_str("}}");
    println!("{report}");

    let (names, source): (&[&str], &BTreeMap<&str, f64>) = if args.trace {
        (&RESULT_PER_LAYER, &layers)
    } else {
        (&RESULT_END_TO_END, &e2e)
    };
    let mut missing = Vec::new();
    let metrics = json_metrics(names.iter().filter_map(|k| match source.get(k) {
        Some(v) => Some((
            *k,
            *v,
            if args.trace {
                layer_unit(k)
            } else {
                unit_of(k)
            },
        )),
        None => {
            missing.push(format!("metric {k} not measured"));
            None
        }
    }));
    problems.extend(missing);
    for p in &problems {
        eprintln!("perfbench: {p}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        problems.is_empty(),
        t.submitted,
        t.failed(),
    );
}
