//! Followed paths compiled to slots, and the sink that reads them.
//!
//! A presto-scope follows a few dozen dotted paths out of a snapshot
//! tree with hundreds of keys. Building that tree every epoch only to
//! read those paths back costs far more than the readings themselves.
//! Instead, the scope resolves its paths once, at build time:
//!
//! * a [`SlotTable`] gives every distinct followed path an index, its
//!   *slot*. Series, rules and feeds hold slots, not path strings;
//! * a [`SlotReader`] compiles the table into a trie of path segments.
//!   It is a [`MetricSink`], so the deployment's ordinary [`Observe`]
//!   walk writes into it. It declines every child section no followed
//!   path enters, keeps only the counters, gauges and histogram fields
//!   the paths name, and leaves one reading per slot in a reused `Vec`.
//!
//! The reader aggregates exactly as a [`Section`](crate::Section) does:
//! counters add, `counter_max` keeps the maximum, the last gauge write
//! wins, and a slot's reading resolves like
//! [`Snapshot::get`](crate::Snapshot::get) — a counter before a gauge
//! of the same name, and either before a histogram's derived field of
//! the same dotted path. A histogram field is read straight off the
//! borrowed histogram; only a histogram written twice in one walk is
//! merged into an owned copy (and the walk re-run so the merge sees
//! every write).

use crate::metrics::{histogram_field, LogHistogram, MetricSink, Observe, HISTOGRAM_FIELDS};

/// The distinct followed paths; a path's index is its slot.
#[derive(Clone, Debug, Default)]
pub struct SlotTable {
    paths: Vec<String>,
}

impl SlotTable {
    /// The slot of `path`, adding it when new.
    pub fn intern(&mut self, path: &str) -> usize {
        match self.slot(path) {
            Some(slot) => slot,
            None => {
                self.paths.push(path.to_string());
                self.paths.len() - 1
            }
        }
    }

    /// The slot of `path`, if followed.
    pub fn slot(&self, path: &str) -> Option<usize> {
        self.paths.iter().position(|p| p == path)
    }

    /// The followed paths, in slot order.
    pub fn paths(&self) -> &[String] {
        &self.paths
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.paths.len()
    }

    /// True when nothing is followed.
    pub fn is_empty(&self) -> bool {
        self.paths.is_empty()
    }
}

/// A counter or gauge a followed path ends on.
#[derive(Clone, Debug)]
struct Term {
    name: String,
    slot: usize,
    counter: Option<u64>,
    gauge: Option<f64>,
}

/// A derived histogram field a followed path may end on.
#[derive(Clone, Debug)]
struct HistTerm {
    name: String,
    field: String,
    slot: usize,
    /// Histograms of this name written in the current walk.
    writes: u32,
    /// The field read off the first write.
    value: f64,
    /// Set once this name was written twice in one walk: every write
    /// then merges into `merged`, as a [`Section`](crate::Section)
    /// would.
    merging: bool,
    merged: Option<LogHistogram>,
    /// Switched to merging during the current walk, whose reading is
    /// therefore incomplete.
    switched: bool,
}

impl HistTerm {
    fn write(&mut self, h: &LogHistogram) {
        self.writes += 1;
        if self.merging {
            match &mut self.merged {
                Some(m) => m.merge(h),
                None => self.merged = Some(h.clone()),
            }
        } else if self.writes == 1 {
            self.value = histogram_field(h, &self.field).unwrap_or(0.0);
        } else {
            // The first write's value cannot be merged after the fact:
            // switch to merging and let `SlotReader::read` walk again.
            self.merging = true;
            self.switched = true;
        }
    }

    fn reading(&self) -> Option<f64> {
        if self.writes == 0 {
            None
        } else if self.merging {
            self.merged
                .as_ref()
                .and_then(|m| histogram_field(m, &self.field))
        } else {
            Some(self.value)
        }
    }
}

/// One trie node: a section some followed path enters.
#[derive(Clone, Debug, Default)]
struct SlotNode {
    /// Followed child sections, sorted by name.
    children: Vec<(String, SlotNode)>,
    /// Counters and gauges read here, sorted by name.
    terms: Vec<Term>,
    /// Histogram fields read here.
    hists: Vec<HistTerm>,
}

impl SlotNode {
    fn insert(&mut self, segs: &[&str], slot: usize) {
        match segs {
            [] => {}
            [name] => {
                if let Err(at) = self.term_index(name) {
                    self.terms.insert(
                        at,
                        Term {
                            name: name.to_string(),
                            slot,
                            counter: None,
                            gauge: None,
                        },
                    );
                }
            }
            [head, rest @ ..] => {
                let at = match self.child_index(head) {
                    Ok(at) => at,
                    Err(at) => {
                        self.children
                            .insert(at, (head.to_string(), SlotNode::default()));
                        at
                    }
                };
                self.children[at].1.insert(rest, slot);
                if let [field] = rest {
                    if HISTOGRAM_FIELDS.contains(field) {
                        self.hists.push(HistTerm {
                            name: head.to_string(),
                            field: field.to_string(),
                            slot,
                            writes: 0,
                            value: 0.0,
                            merging: false,
                            merged: None,
                            switched: false,
                        });
                    }
                }
            }
        }
    }

    fn child_index(&self, name: &str) -> Result<usize, usize> {
        self.children
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
    }

    fn term_index(&self, name: &str) -> Result<usize, usize> {
        self.terms.binary_search_by(|t| t.name.as_str().cmp(name))
    }

    fn term(&mut self, name: &str) -> Option<&mut Term> {
        let at = self.term_index(name).ok()?;
        self.terms.get_mut(at)
    }

    /// Clears every accumulator below this node for a new walk.
    fn reset(&mut self) {
        for t in &mut self.terms {
            t.counter = None;
            t.gauge = None;
        }
        for h in &mut self.hists {
            h.writes = 0;
            h.merged = None;
            h.switched = false;
        }
        for (_, c) in &mut self.children {
            c.reset();
        }
    }

    /// Whether a histogram term below switched to merging during the
    /// last walk (its reading needs another walk).
    fn switched(&self) -> bool {
        self.hists.iter().any(|h| h.switched) || self.children.iter().any(|(_, c)| c.switched())
    }

    /// Writes this subtree's readings into `out`. A full-depth counter
    /// or gauge wins over a histogram field on the same path, as in
    /// [`Snapshot::get`](crate::Snapshot::get).
    fn collect(&self, out: &mut [Option<f64>]) {
        for (_, c) in &self.children {
            c.collect(out);
        }
        for t in &self.terms {
            if let Some(v) = t.counter.map(|c| c as f64).or(t.gauge) {
                out[t.slot] = Some(v);
            }
        }
        for h in &self.hists {
            if out[h.slot].is_none() {
                out[h.slot] = h.reading();
            }
        }
    }
}

impl MetricSink for SlotNode {
    fn counter(&mut self, name: &str, v: u64) {
        if let Some(t) = self.term(name) {
            *t.counter.get_or_insert(0) += v;
        }
    }

    fn counter_max(&mut self, name: &str, v: u64) {
        if let Some(t) = self.term(name) {
            let c = t.counter.get_or_insert(0);
            *c = (*c).max(v);
        }
    }

    fn gauge(&mut self, name: &str, v: f64) {
        if let Some(t) = self.term(name) {
            t.gauge = Some(v);
        }
    }

    fn histogram(&mut self, name: &str, h: &LogHistogram) {
        for t in self.hists.iter_mut().filter(|t| t.name == name) {
            t.write(h);
        }
    }

    fn child(&mut self, name: &str) -> Option<&mut dyn MetricSink> {
        let at = self.child_index(name).ok()?;
        let node: &mut dyn MetricSink = &mut self.children.get_mut(at)?.1;
        Some(node)
    }
}

/// A [`SlotTable`] compiled to a trie of path segments: the sink one
/// observation walk fills with one reading per slot.
#[derive(Clone, Debug, Default)]
pub struct SlotReader {
    root: SlotNode,
    readings: Vec<Option<f64>>,
}

impl SlotReader {
    /// Compiles the table's paths.
    pub fn new(table: &SlotTable) -> Self {
        let mut root = SlotNode::default();
        for (slot, path) in table.paths().iter().enumerate() {
            let segs: Vec<&str> = path.split('.').collect();
            root.insert(&segs, slot);
        }
        SlotReader {
            root,
            readings: vec![None; table.len()],
        }
    }

    /// Runs `source`'s observation walk into the trie and resolves one
    /// reading per slot (`None` where the walk wrote nothing the path
    /// names). Allocation-free unless a followed histogram is written
    /// twice in one walk.
    pub fn read(&mut self, source: &dyn Observe) {
        self.root.reset();
        source.observe(&mut self.root);
        if self.root.switched() {
            self.root.reset();
            source.observe(&mut self.root);
        }
        self.readings.fill(None);
        self.root.collect(&mut self.readings);
    }

    /// The last walk's readings, by slot.
    pub fn readings(&self) -> &[Option<f64>] {
        &self.readings
    }

    /// Mutable readings (the scope lays its feeds over them).
    pub(crate) fn readings_mut(&mut self) -> &mut [Option<f64>] {
        &mut self.readings
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Snapshot;

    fn table(paths: &[&str]) -> SlotTable {
        let mut t = SlotTable::default();
        for p in paths {
            t.intern(p);
        }
        t
    }

    fn hist(vals: &[u64]) -> LogHistogram {
        let mut h = LogHistogram::new();
        for &v in vals {
            h.record(v);
        }
        h
    }

    /// Every slot reading equals `Snapshot::get` on the same tree.
    fn assert_matches_snapshot(snap: &Snapshot, paths: &[&str]) {
        let t = table(paths);
        let mut r = SlotReader::new(&t);
        r.read(snap);
        for (slot, path) in t.paths().iter().enumerate() {
            assert_eq!(r.readings()[slot], snap.get(path), "path {path}");
        }
    }

    #[test]
    fn intern_deduplicates() {
        let mut t = SlotTable::default();
        assert_eq!(t.intern("a.b"), 0);
        assert_eq!(t.intern("c"), 1);
        assert_eq!(t.intern("a.b"), 0);
        assert_eq!(t.len(), 2);
        assert_eq!(t.slot("c"), Some(1));
        assert_eq!(t.slot("zz"), None);
    }

    #[test]
    fn aggregates_like_a_section() {
        let mut snap = Snapshot::new();
        let root: &mut dyn MetricSink = &mut snap.root;
        for v in [3, 4] {
            if let Some(s) = root.child("demo") {
                s.counter("hits", v);
                s.counter_max("peak", v * 2);
                s.gauge("level", v as f64);
            }
        }
        // Same name as counter and gauge: the counter wins.
        if let Some(s) = root.child("both") {
            s.gauge("x", 9.5);
            s.counter("x", 2);
            s.gauge("only_gauge", 1.5);
        }
        assert_matches_snapshot(
            &snap,
            &[
                "demo.hits",
                "demo.peak",
                "demo.level",
                "both.x",
                "both.only_gauge",
                "demo.absent",
                "absent.deep.path",
                "demo",
                "",
            ],
        );
    }

    #[test]
    fn histogram_fields_and_precedence() {
        let mut snap = Snapshot::new();
        snap.root
            .child("router")
            .histogram("latency_us", &hist(&[5, 50, 500, 5_000]));
        // A child section sharing the histogram's name, holding a
        // counter named like a field: the child's counter wins there.
        snap.root
            .child("router")
            .histogram("age_us", &hist(&[7, 70]));
        snap.root.child("router").child("age_us").counter("p99", 1);
        assert_matches_snapshot(
            &snap,
            &[
                "router.latency_us.count",
                "router.latency_us.p50",
                "router.latency_us.p90",
                "router.latency_us.p99",
                "router.latency_us.max",
                "router.latency_us.mean",
                "router.latency_us.p42",
                "router.age_us.p99",
                "router.age_us.p50",
                "router.latency_us",
            ],
        );
    }

    #[test]
    fn histogram_written_twice_merges() {
        // `Section` merges repeated histogram writes; the reader must
        // report the merged quantile, not the first write's.
        let mut snap = Snapshot::new();
        let (a, b) = (hist(&[1, 2, 3]), hist(&[1_000, 2_000, 3_000, 4_000]));
        snap.root.child("r").histogram("h", &a);
        snap.root.child("r").histogram("h", &b);
        // The snapshot holds the merged histogram, so drive the reader
        // from a source that writes both.
        struct Twice(LogHistogram, LogHistogram);
        impl Observe for Twice {
            fn observe(&self, s: &mut dyn MetricSink) {
                if let Some(r) = s.child("r") {
                    r.histogram("h", &self.0);
                    r.histogram("h", &self.1);
                }
            }
        }
        let t = table(&["r.h.p50", "r.h.count", "r.h.max"]);
        let mut r = SlotReader::new(&t);
        for _ in 0..2 {
            r.read(&Twice(a.clone(), b.clone()));
            for (slot, path) in t.paths().iter().enumerate() {
                assert_eq!(r.readings()[slot], snap.get(path), "path {path}");
            }
        }
    }

    #[test]
    fn declines_unfollowed_sections() {
        let t = table(&["a.x"]);
        let mut r = SlotReader::new(&t);
        let root: &mut dyn MetricSink = &mut r.root;
        assert!(root.child("a").is_some());
        assert!(root.child("b").is_none());
    }
}
