//! Host-side measurement: wall-clock and heap allocations around each
//! call into the system, per-epoch totals, and (in a traced run) one
//! span per call.
//!
//! Only the calls wrapped in [`Meter::call`] are measured, so the
//! harness's own bookkeeping (workload generation, the answer oracle,
//! trace audits) never enters the host figures.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use presto_telemetry::alloc::allocation_count;

/// No parent span.
pub const ROOT: u32 = u32::MAX;

/// One recorded span.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// The call (or harness phase) the span covers.
    pub name: &'static str,
    /// Start, ns since the meter's origin.
    pub start_ns: u64,
    /// End, ns since the meter's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, or [`ROOT`].
    pub parent: u32,
    /// Epoch index for per-epoch calls, ticket or query number for
    /// per-query calls.
    pub id: u64,
}

/// Accumulated cost of one named call over the measured phase.
#[derive(Clone, Debug, Default)]
pub struct CallLog {
    /// Host nanoseconds of every call, in call order.
    pub ns: Vec<u64>,
    /// Heap allocations made inside the calls.
    pub allocs: u64,
}

/// The measurement state of one repetition.
pub struct Meter {
    trace: bool,
    measuring: bool,
    origin: Instant,
    /// Recorded spans (traced runs only).
    pub spans: Vec<Span>,
    open: Vec<u32>,
    epoch_ns: u64,
    epoch_allocs: u64,
    /// Host ns of the measured calls, per measured epoch.
    pub epoch_total_ns: Vec<u64>,
    /// Allocations inside the measured calls, per measured epoch.
    pub epoch_total_allocs: Vec<u64>,
    /// Per-call logs over the measured phase.
    pub calls: BTreeMap<&'static str, CallLog>,
    /// Profiler phase readings (whole µs and allocs per epoch) for
    /// phases timed inside the system rather than around its calls.
    pub phases: BTreeMap<&'static str, (Vec<u64>, u64)>,
}

impl Meter {
    /// A meter; `trace` records spans.
    pub fn new(trace: bool) -> Self {
        Meter {
            trace,
            measuring: false,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            epoch_ns: 0,
            epoch_allocs: 0,
            epoch_total_ns: Vec::new(),
            epoch_total_allocs: Vec::new(),
            calls: BTreeMap::new(),
            phases: BTreeMap::new(),
        }
    }

    /// Whether spans are recorded.
    pub fn tracing(&self) -> bool {
        self.trace
    }

    /// Starts the measured phase: calls from here on enter the host
    /// figures.
    pub fn start_measuring(&mut self) {
        self.measuring = true;
    }

    /// Ends the measured phase.
    pub fn stop_measuring(&mut self) {
        self.measuring = false;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a harness span (an epoch, the setup) that the following
    /// calls nest under.
    pub fn open(&mut self, name: &'static str, id: u64) {
        if self.trace {
            let parent = self.open.last().copied().unwrap_or(ROOT);
            self.spans.push(Span {
                name,
                start_ns: self.now_ns(),
                end_ns: 0,
                parent,
                id,
            });
            self.open.push((self.spans.len() - 1) as u32);
        }
    }

    /// Closes the innermost harness span.
    pub fn close(&mut self) {
        if self.trace {
            let i = self.open.pop().expect("close without open") as usize;
            self.spans[i].end_ns = self.now_ns();
        }
    }

    /// Runs one call into the system, measuring its wall-clock time and
    /// the allocations it makes.
    pub fn call<R>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> R) -> R {
        let a0 = allocation_count();
        let t0 = Instant::now();
        let r = f();
        let t1 = Instant::now();
        let allocs = allocation_count() - a0;
        let ns = (t1 - t0).as_nanos() as u64;
        if self.trace {
            let start_ns = (t0 - self.origin).as_nanos() as u64;
            self.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns + ns,
                parent: self.open.last().copied().unwrap_or(ROOT),
                id,
            });
        }
        if self.measuring {
            self.epoch_ns += ns;
            self.epoch_allocs += allocs;
            let log = self.calls.entry(name).or_default();
            log.ns.push(ns);
            log.allocs += allocs;
        }
        r
    }

    /// Records one epoch's reading of a profiler phase.
    pub fn phase(&mut self, name: &'static str, micros: u64, allocs: u64) {
        if self.measuring {
            let e = self.phases.entry(name).or_default();
            e.0.push(micros);
            e.1 += allocs;
        }
    }

    /// Closes a measured epoch's host totals.
    pub fn end_epoch(&mut self) {
        if self.measuring {
            self.epoch_total_ns.push(self.epoch_ns);
            self.epoch_total_allocs.push(self.epoch_allocs);
        }
        self.epoch_ns = 0;
        self.epoch_allocs = 0;
    }

    /// Every span is closed, ends no earlier than it starts, and lies
    /// inside its parent.
    pub fn spans_well_formed(&self) -> bool {
        self.open.is_empty()
            && self.spans.iter().all(|s| {
                s.end_ns >= s.start_ns
                    && (s.parent == ROOT || {
                        let p = &self.spans[s.parent as usize];
                        p.start_ns <= s.start_ns && s.end_ns <= p.end_ns
                    })
            })
    }

    /// Per-name span count, total and self time (total minus the time
    /// of direct children), in ns.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != ROOT {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let total = s.end_ns - s.start_ns;
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += total;
            e.2 += total.saturating_sub(child_ns[i]);
        }
        out
    }

    /// The spans as CSV (`index,name,start_ns,end_ns,parent,id`; parent
    /// `-1` for top-level spans).
    pub fn spans_csv(&self) -> String {
        let mut out = String::from("index,name,start_ns,end_ns,parent,id\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT {
                -1
            } else {
                s.parent as i64
            };
            let _ = writeln!(
                out,
                "{i},{},{},{},{parent},{}",
                s.name, s.start_ns, s.end_ns, s.id
            );
        }
        out
    }
}

/// Host nanoseconds of one pass of a fixed kernel that uses only the
/// standard library: ordered-map inserts and lookups, a sort and
/// floating-point arithmetic, the kinds of work the simulator does. Its
/// least time in a run tracks how fast the host is running this
/// process, whatever the code under test.
pub fn calibration_ns() -> u64 {
    let start = Instant::now();
    let mut map = BTreeMap::new();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut acc = 0.0f64;
    for i in 0..20_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        map.insert(x % 50_000, i);
        acc += ((x >> 11) as f64).sqrt();
    }
    let mut keys: Vec<u64> = map.keys().copied().collect();
    keys.sort_unstable_by(|a, b| b.cmp(a));
    let hits = (0..20_000u64).filter(|k| map.contains_key(k)).count();
    std::hint::black_box((acc, keys, hits));
    start.elapsed().as_nanos() as u64
}
