//! Typed, label-aware metrics registry for the Rocksteady reproduction.
//!
//! Rocksteady's whole argument is quantitative: migration is "fast" only
//! relative to a 99.9th-percentile latency SLA, and every evaluation
//! figure is a counter or percentile sampled over the run (§§3.3, 5).
//! Before this crate those numbers came from three disjoint ad-hoc
//! mechanisms (hand-differenced `NodeStats` fields, `ClientStats`
//! counters, per-bench printouts). The [`Registry`] unifies them:
//!
//! - **Instruments** are cheap shared handles of three kinds: a
//!   [`Counter`] is one `Rc<Cell<u64>>` bump, a [`Gauge`] one
//!   `Cell<i64>` store, and a [`Histo`] records into the HDR-style
//!   `rocksteady_common::Histogram`. Recording never allocates and never
//!   touches the registry lock-free shared state beyond the
//!   instrument's own cell, so arming metrics cannot perturb the
//!   simulation schedule.
//! - **Labels** distinguish instances of one family (`server="0"`,
//!   `client="2"`). Registration deduplicates on `(name, labels)` and
//!   returns a handle to the existing cell, so two components naming
//!   the same instrument share it.
//! - **Snapshots** are taken under the virtual clock and expose every
//!   instrument in one deterministically ordered view, exported as
//!   integer-only JSON ([`Snapshot::to_json`]). Same seed ⇒
//!   byte-identical exports.
//! - **Windowed scraping**: [`DeltaScraper`] differences counters per
//!   interval, tolerating resets without underflow — the metrics slice
//!   of a flight-recorder incident bundle.
//! - **Self-check**: [`Registry::validate`] verifies the exposition
//!   invariants (name/label charset, one kind per family, no duplicate
//!   series) the exporters rely on.
//!
//! The [`timeline`] module holds the one shared per-interval percentile
//! path used by client stats, the SLO monitor, and every figure bench.

#![deny(missing_docs)]

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;

use rocksteady_common::json::JsonWriter;
use rocksteady_common::{Histogram, Nanos};

pub mod timeline;

// ------------------------------------------------------------ instruments --

/// A monotonically increasing counter.
///
/// # Examples
///
/// ```
/// use rocksteady_metrics::Registry;
/// let reg = Registry::new();
/// let ops = reg.counter("ops_served", "operations served", &[]);
/// ops.inc();
/// ops.add(4);
/// assert_eq!(ops.get(), 5);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Counter(Rc<Cell<u64>>);

impl Counter {
    /// Adds one; returns the new total (handy for trace counters).
    #[inline]
    pub fn inc(&self) -> u64 {
        self.add(1)
    }

    /// Adds `n`; returns the new total.
    #[inline]
    pub fn add(&self, n: u64) -> u64 {
        let v = self.0.get().wrapping_add(n);
        self.0.set(v);
        v
    }

    /// Current total.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.get()
    }
}

/// An instantaneous signed value (e.g. SLO headroom, which goes
/// negative during a breach).
#[derive(Debug, Clone, Default)]
pub struct Gauge(Rc<Cell<i64>>);

impl Gauge {
    /// Stores `v`.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.set(v);
    }

    /// Adds `d` (may be negative).
    #[inline]
    pub fn add(&self, d: i64) {
        self.0.set(self.0.get() + d);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> i64 {
        self.0.get()
    }
}

/// A shared HDR histogram instrument (log-bucketed, ≤1.6% relative
/// error — see `rocksteady_common::Histogram`).
#[derive(Debug, Clone)]
pub struct Histo(Rc<RefCell<Histogram>>);

impl Default for Histo {
    fn default() -> Self {
        Histo(Rc::new(RefCell::new(Histogram::new())))
    }
}

impl Histo {
    /// Records one observation.
    #[inline]
    pub fn record(&self, v: u64) {
        self.0.borrow_mut().record(v);
    }

    /// Runs `f` with a borrow of the underlying histogram.
    pub fn with<R>(&self, f: impl FnOnce(&Histogram) -> R) -> R {
        f(&self.0.borrow())
    }

    /// Clones the current contents (for windowed differencing).
    pub fn snapshot(&self) -> Histogram {
        self.0.borrow().clone()
    }

    /// The percentile summary every figure reports.
    pub fn summary(&self) -> HistoSummary {
        HistoSummary::of(&self.0.borrow())
    }
}

/// Integer percentile summary of a histogram, as exported.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistoSummary {
    /// Number of observations.
    pub count: u64,
    /// Sum of observations (saturating at `u64::MAX`).
    pub sum: u64,
    /// Exact minimum (0 when empty).
    pub min: u64,
    /// Exact maximum (0 when empty).
    pub max: u64,
    /// Median.
    pub p50: u64,
    /// 99th percentile.
    pub p99: u64,
    /// 99.9th percentile — the paper's SLA statistic.
    pub p999: u64,
}

impl HistoSummary {
    /// Summarizes `h`.
    pub fn of(h: &Histogram) -> Self {
        HistoSummary {
            count: h.count(),
            sum: h.sum_saturating(),
            min: h.min(),
            max: h.max(),
            p50: h.percentile(0.50),
            p99: h.percentile(0.99),
            p999: h.percentile(0.999),
        }
    }
}

// --------------------------------------------------------------- registry --

/// One `key="value"` pair. Keys are static (they come from call sites);
/// values are formatted instance ids.
pub type Label = (&'static str, String);

#[derive(Debug, Clone)]
enum Slot {
    Counter(Counter),
    Gauge(Gauge),
    Histo(Histo),
}

impl Slot {
    fn kind(&self) -> &'static str {
        match self {
            Slot::Counter(_) => "counter",
            Slot::Gauge(_) => "gauge",
            Slot::Histo(_) => "histogram",
        }
    }
}

#[derive(Debug)]
struct Instrument {
    name: &'static str,
    help: &'static str,
    labels: Vec<Label>,
    slot: Slot,
}

#[derive(Debug, Default)]
struct Inner {
    instruments: Vec<Instrument>,
    /// `(name, rendered labels)` → index into `instruments`.
    index: BTreeMap<(&'static str, String), usize>,
}

/// What a well-formed registry contained (see [`Registry::validate`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegistrySummary {
    /// Distinct metric families (names).
    pub families: usize,
    /// Registered instruments (series) across all families.
    pub instruments: usize,
}

/// The shared instrument registry. Clonable; clones share state.
///
/// Registration is idempotent on `(name, labels)`: registering the same
/// series twice returns a handle to the same cell. Registering one name
/// with two different instrument kinds panics — that is a programming
/// error the export cannot represent (one `type` per family).
#[derive(Debug, Clone, Default)]
pub struct Registry(Rc<RefCell<Inner>>);

fn render_labels(labels: &[Label]) -> String {
    let mut sorted: Vec<&Label> = labels.iter().collect();
    sorted.sort();
    let mut out = String::new();
    for (i, (k, v)) in sorted.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push_str("=\"");
        out.push_str(v);
        out.push('"');
    }
    out
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    fn register(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[Label],
        slot: Slot,
    ) -> Slot {
        let mut inner = self.0.borrow_mut();
        let key = (name, render_labels(labels));
        if let Some(&i) = inner.index.get(&key) {
            let existing = &inner.instruments[i].slot;
            assert_eq!(
                existing.kind(),
                slot.kind(),
                "metric family {name} registered as both {} and {}",
                existing.kind(),
                slot.kind()
            );
            return existing.clone();
        }
        let mut labels = labels.to_vec();
        labels.sort();
        let idx = inner.instruments.len();
        inner.instruments.push(Instrument {
            name,
            help,
            labels,
            slot: slot.clone(),
        });
        inner.index.insert(key, idx);
        slot
    }

    /// Registers (or finds) a counter series.
    pub fn counter(&self, name: &'static str, help: &'static str, labels: &[Label]) -> Counter {
        match self.register(name, help, labels, Slot::Counter(Counter::default())) {
            Slot::Counter(c) => c,
            _ => unreachable!(),
        }
    }

    /// Registers (or finds) a gauge series.
    pub fn gauge(&self, name: &'static str, help: &'static str, labels: &[Label]) -> Gauge {
        match self.register(name, help, labels, Slot::Gauge(Gauge::default())) {
            Slot::Gauge(g) => g,
            _ => unreachable!(),
        }
    }

    /// Registers (or finds) a histogram series.
    pub fn histogram(&self, name: &'static str, help: &'static str, labels: &[Label]) -> Histo {
        match self.register(name, help, labels, Slot::Histo(Histo::default())) {
            Slot::Histo(h) => h,
            _ => unreachable!(),
        }
    }

    /// Number of registered instruments.
    pub fn len(&self) -> usize {
        self.0.borrow().instruments.len()
    }

    /// Whether nothing has been registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Takes a deterministic snapshot of every instrument at virtual
    /// time `at`. Rows are ordered by `(name, labels)`: the index's own
    /// order, so nothing is sorted or rendered per snapshot.
    pub fn snapshot(&self, at: Nanos) -> Snapshot {
        let inner = self.0.borrow();
        let rows = inner
            .index
            .values()
            .map(|&i| {
                let ins = &inner.instruments[i];
                SampleRow {
                    name: ins.name,
                    help: ins.help,
                    labels: ins.labels.clone(),
                    value: match &ins.slot {
                        Slot::Counter(c) => SampleValue::Counter(c.get()),
                        Slot::Gauge(g) => SampleValue::Gauge(g.get()),
                        Slot::Histo(h) => SampleValue::Histogram(h.summary()),
                    },
                }
            })
            .collect();
        Snapshot { at, rows }
    }

    /// Self-check of the exposition invariants: every family name and
    /// label key is a valid identifier (`[a-z_][a-z0-9_]*`), no family
    /// is registered under two instrument kinds, label keys within a
    /// series are unique, and no two series collide on
    /// `(name, labels)`.
    pub fn validate(&self) -> Result<RegistrySummary, String> {
        let inner = self.0.borrow();
        let mut kinds: BTreeMap<&'static str, &'static str> = BTreeMap::new();
        let mut seen: BTreeMap<(&'static str, String), usize> = BTreeMap::new();
        for (i, ins) in inner.instruments.iter().enumerate() {
            if !valid_ident(ins.name) {
                return Err(format!("invalid metric name {:?}", ins.name));
            }
            for (k, v) in &ins.labels {
                if !valid_ident(k) {
                    return Err(format!("invalid label key {k:?} on {}", ins.name));
                }
                if v.contains('"') || v.contains('\\') || v.contains('\n') {
                    return Err(format!("unescapable label value {v:?} on {}", ins.name));
                }
            }
            let mut keys: Vec<_> = ins.labels.iter().map(|(k, _)| *k).collect();
            keys.sort_unstable();
            keys.dedup();
            if keys.len() != ins.labels.len() {
                return Err(format!("duplicate label key on {}", ins.name));
            }
            match kinds.entry(ins.name) {
                std::collections::btree_map::Entry::Occupied(e) => {
                    if *e.get() != ins.slot.kind() {
                        return Err(format!(
                            "family {} registered as both {} and {}",
                            ins.name,
                            e.get(),
                            ins.slot.kind()
                        ));
                    }
                }
                std::collections::btree_map::Entry::Vacant(e) => {
                    e.insert(ins.slot.kind());
                }
            }
            if let Some(prev) = seen.insert((ins.name, render_labels(&ins.labels)), i) {
                return Err(format!(
                    "series {}{{{}}} registered twice (slots {prev} and {i})",
                    ins.name,
                    render_labels(&ins.labels)
                ));
            }
        }
        Ok(RegistrySummary {
            families: kinds.len(),
            instruments: inner.instruments.len(),
        })
    }
}

fn valid_ident(s: &str) -> bool {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) if c.is_ascii_lowercase() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
}

// -------------------------------------------------------------- snapshots --

/// A sampled instrument value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SampleValue {
    /// Counter total.
    Counter(u64),
    /// Gauge value.
    Gauge(i64),
    /// Histogram percentile summary.
    Histogram(HistoSummary),
}

/// One instrument's row in a [`Snapshot`].
#[derive(Debug, Clone)]
pub struct SampleRow {
    /// Family name.
    pub name: &'static str,
    /// Family help text.
    pub help: &'static str,
    /// Sorted labels.
    pub labels: Vec<Label>,
    /// Sampled value.
    pub value: SampleValue,
}

/// A deterministic point-in-time view of every registered instrument.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Virtual time the snapshot was taken.
    pub at: Nanos,
    /// Rows ordered by `(name, labels)`.
    pub rows: Vec<SampleRow>,
}

impl Snapshot {
    /// Looks up a row by family name and rendered labels.
    pub fn get(&self, name: &str, labels: &[Label]) -> Option<&SampleValue> {
        let rendered = render_labels(labels);
        self.rows
            .iter()
            .find(|r| r.name == name && render_labels(&r.labels) == rendered)
            .map(|r| &r.value)
    }

    /// Exports as deterministic JSON (see `rocksteady_common::json`):
    /// rows keep snapshot order, so same-seed runs export byte-identical
    /// strings.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::with_capacity(64 + self.rows.len() * 96);
        w.obj().field("at", self.at).key("metrics").arr();
        for row in &self.rows {
            open_series(&mut w, row.name, &row.labels);
            match &row.value {
                SampleValue::Counter(v) => {
                    w.field("type", "counter").field("value", v);
                }
                SampleValue::Gauge(v) => {
                    w.field("type", "gauge").field("value", v);
                }
                SampleValue::Histogram(s) => {
                    w.field("type", "histogram")
                        .field("count", s.count)
                        .field("sum", s.sum)
                        .field("min", s.min)
                        .field("max", s.max)
                        .field("p50", s.p50)
                        .field("p99", s.p99)
                        .field("p999", s.p999);
                }
            }
            w.end_obj();
        }
        w.end_arr().end_obj();
        w.finish()
    }
}

// ---------------------------------------------------------- delta scraper --

/// One counter's per-interval reading from a [`DeltaScraper`] pass.
#[derive(Debug, Clone)]
pub struct CounterDelta {
    /// Family name.
    pub name: &'static str,
    /// Sorted labels.
    pub labels: Vec<Label>,
    /// Cumulative total at scrape time.
    pub total: u64,
    /// Increase since the previous scrape. If the counter was reset
    /// (total went backwards — a component restart), the delta is the
    /// new total rather than an underflowed difference.
    pub delta: u64,
}

impl CounterDelta {
    /// The value of label `key`, if present.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// Windows counters into per-interval deltas — the metrics slice of a
/// flight-recorder incident bundle. Instruments registered after
/// scraping began are picked up on their first scrape with their full
/// total as the first delta.
///
/// Registration is append-only, so the scraper caches its schema (the
/// sorted series order, rendered label keys, and cloned counter
/// handles) and rebuilds it only when the registry has grown. The
/// steady-state scrape is then a walk over cached cells with no
/// rendering or sorting — it runs on every armed watchdog tick.
#[derive(Debug, Default)]
pub struct DeltaScraper {
    /// Cached counter series in deterministic `(name, labels)` order.
    entries: Vec<ScrapeEntry>,
    /// Registry instrument count covered by `entries`; a mismatch
    /// triggers a schema rebuild (instruments are never removed).
    seen: usize,
}

#[derive(Debug)]
struct ScrapeEntry {
    name: &'static str,
    labels: Vec<Label>,
    rendered: String,
    cell: Counter,
    last: u64,
}

impl DeltaScraper {
    /// Creates a scraper with no history (first scrape deltas from 0).
    pub fn new() -> Self {
        DeltaScraper::default()
    }

    fn rebuild(&mut self, reg: &Registry) {
        let inner = reg.0.borrow();
        let mut carried: BTreeMap<(&'static str, String), u64> = self
            .entries
            .drain(..)
            .map(|e| ((e.name, e.rendered), e.last))
            .collect();
        // The index is in `(name, rendered labels)` order already.
        self.entries = inner
            .index
            .iter()
            .filter_map(|(key, &i)| match &inner.instruments[i].slot {
                Slot::Counter(c) => Some(ScrapeEntry {
                    name: key.0,
                    labels: inner.instruments[i].labels.clone(),
                    rendered: key.1.clone(),
                    cell: c.clone(),
                    last: carried.remove(key).unwrap_or(0),
                }),
                _ => None,
            })
            .collect();
        self.seen = inner.instruments.len();
    }

    /// Reads every counter in `reg`, returning deltas since the last
    /// call in deterministic `(name, labels)` order.
    pub fn scrape(&mut self, reg: &Registry) -> Vec<CounterDelta> {
        if reg.0.borrow().instruments.len() != self.seen {
            self.rebuild(reg);
        }
        let mut out = Vec::with_capacity(self.entries.len());
        for e in &mut self.entries {
            let total = e.cell.get();
            // Reset tolerance: a total below the previous reading
            // means the counter restarted; count from zero.
            let delta = if total >= e.last {
                total - e.last
            } else {
                total
            };
            e.last = total;
            out.push(CounterDelta {
                name: e.name,
                labels: e.labels.clone(),
                total,
                delta,
            });
        }
        out
    }
}

/// Opens one series object: `{"name":..` plus `"labels":{..}` when the
/// series has any; the caller adds the value fields and closes it.
fn open_series(w: &mut JsonWriter, name: &str, labels: &[Label]) {
    w.obj().field("name", name);
    if !labels.is_empty() {
        w.key("labels").obj();
        for (k, v) in labels {
            w.field(k, v);
        }
        w.end_obj();
    }
}

/// Renders a scrape pass as a deterministic JSON array — the metrics
/// slice embedded in flight-recorder incident bundles. Entries keep the
/// scraper's `(name, labels)` order.
pub fn deltas_to_json(deltas: &[CounterDelta]) -> String {
    let mut w = JsonWriter::with_capacity(32 + deltas.len() * 64);
    w.arr();
    for d in deltas {
        open_series(&mut w, d.name, &d.labels);
        w.field("total", d.total).field("delta", d.delta).end_obj();
    }
    w.end_arr();
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deltas_render_as_deterministic_json() {
        let reg = Registry::new();
        let c = reg.counter("requests_total", "requests", &[("server", "3".into())]);
        let plain = reg.counter("ticks_total", "ticks", &[]);
        c.add(7);
        plain.add(2);
        let mut s = DeltaScraper::new();
        let json = deltas_to_json(&s.scrape(&reg));
        assert_eq!(
            json,
            "[{\"name\":\"requests_total\",\"labels\":{\"server\":\"3\"},\
             \"total\":7,\"delta\":7},\
             {\"name\":\"ticks_total\",\"total\":2,\"delta\":2}]"
        );
        c.add(3);
        let json2 = deltas_to_json(&s.scrape(&reg));
        assert!(json2.contains("\"total\":10,\"delta\":3"), "{json2}");
    }

    #[test]
    fn label_values_are_escaped_in_json() {
        let reg = Registry::new();
        reg.counter("ops", "ops", &[("who", "a\"b\\c\n".into())])
            .inc();
        assert_eq!(
            reg.snapshot(5).to_json(),
            r#"{"at":5,"metrics":[{"name":"ops","labels":{"who":"a\"b\\c\u000a"},"type":"counter","value":1}]}"#
        );
    }

    #[test]
    fn counter_gauge_histo_basics() {
        let reg = Registry::new();
        let c = reg.counter("ops", "ops", &[]);
        assert_eq!(c.inc(), 1);
        assert_eq!(c.add(4), 5);
        let g = reg.gauge("headroom", "h", &[]);
        g.set(-3);
        g.add(1);
        assert_eq!(g.get(), -2);
        let h = reg.histogram("lat", "l", &[]);
        h.record(100);
        h.record(200);
        assert_eq!(h.summary().count, 2);
        assert_eq!(reg.len(), 3);
    }

    #[test]
    fn registration_dedupes_on_name_and_labels() {
        let reg = Registry::new();
        let a = reg.counter("ops", "ops", &[("server", "0".into())]);
        let b = reg.counter("ops", "ops", &[("server", "0".into())]);
        let c = reg.counter("ops", "ops", &[("server", "1".into())]);
        a.inc();
        assert_eq!(b.get(), 1, "same series shares the cell");
        assert_eq!(c.get(), 0, "different labels are a different series");
        assert_eq!(reg.len(), 2);
    }

    #[test]
    #[should_panic(expected = "registered as both")]
    fn kind_conflict_panics() {
        let reg = Registry::new();
        reg.counter("x", "x", &[]);
        reg.gauge("x", "x", &[]);
    }

    #[test]
    fn snapshot_is_sorted_and_deterministic() {
        let build = || {
            let reg = Registry::new();
            reg.counter("z_ops", "z", &[("server", "1".into())]).add(7);
            reg.counter("z_ops", "z", &[("server", "0".into())]).add(3);
            reg.gauge("a_gauge", "a", &[]).set(-5);
            let h = reg.histogram("lat_ns", "l", &[("client", "0".into())]);
            for v in [10, 20, 30] {
                h.record(v);
            }
            reg.snapshot(1_000).to_json()
        };
        let a = build();
        assert_eq!(a, build());
        // Sorted: a_gauge, lat_ns, z_ops{0}, z_ops{1}.
        let ia = a.find("a_gauge").unwrap();
        let il = a.find("lat_ns").unwrap();
        let iz0 = a
            .find("{\"name\":\"z_ops\",\"labels\":{\"server\":\"0\"}")
            .unwrap();
        let iz1 = a
            .find("{\"name\":\"z_ops\",\"labels\":{\"server\":\"1\"}")
            .unwrap();
        assert!(ia < il && il < iz0 && iz0 < iz1, "{a}");
        assert!(a.contains("\"at\":1000"));
        assert!(a.contains("\"type\":\"gauge\",\"value\":-5"));
        assert!(a.contains("\"p50\":"));
    }

    /// Rows come out of the index in `(name, rendered labels)` order
    /// whatever the registration order: the same JSON as the rows sorted
    /// by that key.
    #[test]
    fn snapshot_rows_follow_name_then_labels_whatever_the_registration_order() {
        let reg = Registry::new();
        let series: [(&'static str, &[(&'static str, &str)]); 7] = [
            ("z_ops", &[("server", "1")]),
            ("b_busy", &[("server", "10"), ("core", "worker0")]),
            ("z_ops", &[]),
            ("b_busy", &[("core", "dispatch"), ("server", "10")]),
            ("a_lat", &[("client", "2")]),
            ("b_busy", &[("server", "9"), ("core", "dispatch")]),
            ("z_ops", &[("server", "0")]),
        ];
        for (i, (name, labels)) in series.iter().enumerate() {
            let labels: Vec<Label> = labels.iter().map(|&(k, v)| (k, v.to_string())).collect();
            match i % 3 {
                0 => drop(reg.counter(name, "c", &labels).add(i as u64)),
                1 => reg.gauge(name, "g", &labels).set(-(i as i64)),
                _ => reg.histogram(name, "h", &labels).record(i as u64),
            }
        }
        let snap = reg.snapshot(7);
        let mut sorted = snap.rows.clone();
        sorted.sort_by_key(|r| (r.name, render_labels(&r.labels)));
        let order = |rows: &[SampleRow]| {
            rows.iter()
                .map(|r| format!("{}{{{}}}", r.name, render_labels(&r.labels)))
                .collect::<Vec<_>>()
        };
        assert_eq!(order(&snap.rows), order(&sorted));
        assert_eq!(
            order(&snap.rows)[..3],
            [
                "a_lat{client=\"2\"}",
                "b_busy{core=\"dispatch\",server=\"10\"}",
                "b_busy{core=\"dispatch\",server=\"9\"}"
            ]
        );
        let reference = Snapshot {
            at: 7,
            rows: sorted,
        };
        assert_eq!(snap.to_json(), reference.to_json());
    }

    #[test]
    fn validate_accepts_good_and_rejects_bad_names() {
        let reg = Registry::new();
        reg.counter("good_name_1", "g", &[("server", "0".into())]);
        let s = reg.validate().expect("valid registry");
        assert_eq!(s.families, 1);
        assert_eq!(s.instruments, 1);
        let bad = Registry::new();
        bad.counter("BadName", "b", &[]);
        assert!(bad.validate().is_err());
        let bad_label = Registry::new();
        bad_label.counter("ok", "o", &[("Server", "0".into())]);
        assert!(bad_label.validate().is_err());
    }

    #[test]
    fn delta_scraper_windows_and_tolerates_resets() {
        let reg = Registry::new();
        let c = reg.counter("busy_ns", "b", &[("server", "0".into())]);
        let mut scraper = DeltaScraper::new();
        c.add(100);
        let d1 = scraper.scrape(&reg);
        assert_eq!(d1[0].delta, 100);
        c.add(50);
        let d2 = scraper.scrape(&reg);
        assert_eq!(d2[0].delta, 50);
        assert_eq!(d2[0].total, 150);
        // Reset: total goes backwards; delta restarts from zero.
        c.0.set(0);
        c.add(30);
        let d3 = scraper.scrape(&reg);
        assert_eq!(d3[0].delta, 30, "reset must not underflow");
        // Empty interval: zero delta.
        let d4 = scraper.scrape(&reg);
        assert_eq!(d4[0].delta, 0);
    }

    #[test]
    fn late_registered_instruments_are_picked_up() {
        let reg = Registry::new();
        let mut scraper = DeltaScraper::new();
        assert!(scraper.scrape(&reg).is_empty());
        let c = reg.counter("late", "l", &[("server", "9".into())]);
        c.add(5);
        let d = scraper.scrape(&reg);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].delta, 5);
        assert_eq!(d[0].label("server"), Some("9"));
    }
}
