//! Always-on flight recorder: anomaly detectors and incident plumbing.
//!
//! Rocksteady's observability layers (trace/metrics/profiler/audit) are
//! post-hoc: they record everything and answer questions after the run.
//! At the scale the roadmap targets (tens of servers, hundreds of
//! millions of records) nothing can record everything, and nobody is
//! watching live. Production in-memory stores solve this with a
//! *black-box flight recorder*: bounded ring buffers that are always
//! on, plus watchdogs that detect anomalies online and dump one
//! correlated forensic bundle only when something goes wrong.
//!
//! This crate is the storage-independent half of that recorder:
//!
//! - [`FlightRecorderConfig`]: ring capacities, bundle window, and the
//!   detector catalog with thresholds;
//! - [`Detector`]: the pluggable anomaly-detector interface, evaluated
//!   once per sampling interval on a [`WatchdogSample`] assembled by
//!   the cluster watchdog actor (virtual clock only — detectors never
//!   read wall time);
//! - the five built-in detectors: multi-window SLO burn rate
//!   ([`SloBurnDetector`]), migration-progress stall
//!   ([`MigrationStallDetector`]), replay-backlog watermark
//!   ([`ReplayBacklogDetector`]), dispatch overcommit
//!   ([`DispatchOvercommitDetector`]), and lineage-dependency age
//!   ([`LineageAgeDetector`]);
//! - [`CooldownTracker`]: per-detector and global incident cooldowns so
//!   one anomaly episode produces exactly one bundle.
//!
//! The cluster harness (`rocksteady-cluster::watchdog`) owns the other
//! half: assembling samples from live handles and exporting the
//! `rocksteady-incident-v1` JSON bundle when a detector fires.
//!
//! Everything here is deterministic: detectors are pure functions of
//! the sample stream plus their own integer state, so the same seed
//! produces byte-identical incident bundles.

#![deny(missing_docs)]

use std::collections::BTreeMap;

use rocksteady_common::json::JsonWriter;
use rocksteady_common::{Nanos, SECOND};

// ------------------------------------------------------------ config --

/// Threshold configuration for [`SloBurnDetector`]: fire when *both*
/// the fast and the slow window burn rates exceed their thresholds
/// (the SRE multi-window pattern — the fast window catches the onset,
/// the slow window suppresses blips).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SloBurnConfig {
    /// Minimum fast-window (1 s) burn rate, in permille of intervals
    /// breaching.
    pub fast_threshold_permille: u64,
    /// Minimum slow-window (10 s) burn rate, in permille.
    pub slow_threshold_permille: u64,
}

impl Default for SloBurnConfig {
    fn default() -> Self {
        SloBurnConfig {
            fast_threshold_permille: 500,
            slow_threshold_permille: 200,
        }
    }
}

/// Threshold configuration for [`MigrationStallDetector`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigrationStallConfig {
    /// Consecutive sampling intervals an in-flight migration may show no
    /// gather/replay advance before the detector fires.
    pub stall_intervals: u64,
}

impl Default for MigrationStallConfig {
    fn default() -> Self {
        MigrationStallConfig {
            stall_intervals: 20,
        }
    }
}

/// Threshold configuration for [`ReplayBacklogDetector`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplayBacklogConfig {
    /// Records gathered but not yet fed through replay (received −
    /// applied at the replay boundary) above which a run is backlogged.
    pub watermark_records: u64,
    /// Consecutive intervals the watermark must be exceeded.
    pub sustain_intervals: u64,
}

impl Default for ReplayBacklogConfig {
    fn default() -> Self {
        ReplayBacklogConfig {
            watermark_records: 50_000,
            sustain_intervals: 3,
        }
    }
}

/// Threshold configuration for [`DispatchOvercommitDetector`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DispatchOvercommitConfig {
    /// Sliding window length, in sampling intervals.
    pub window_intervals: u64,
    /// Overcommitted dispatch windows within the sliding window above
    /// which the detector fires.
    pub threshold_windows: u64,
}

impl Default for DispatchOvercommitConfig {
    fn default() -> Self {
        DispatchOvercommitConfig {
            window_intervals: 10,
            threshold_windows: 8,
        }
    }
}

/// Threshold configuration for [`LineageAgeDetector`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LineageAgeConfig {
    /// Maximum age of a coordinator lineage dependency before the
    /// detector fires (a dependency that old means a migration is not
    /// completing and crash recovery of the source is held hostage).
    pub max_age_ns: Nanos,
}

impl Default for LineageAgeConfig {
    fn default() -> Self {
        LineageAgeConfig {
            max_age_ns: 5 * SECOND,
        }
    }
}

/// Which detectors run, with their thresholds. `None` disables one.
///
/// Evaluation (and hence trigger priority when several fire on the same
/// tick) is catalog order: stall, backlog, SLO burn, overcommit,
/// lineage age — progress anomalies outrank their latency symptoms, so
/// the bundle's trigger names the most causal firing detector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DetectorConfig {
    /// Migration-progress stall detector.
    pub migration_stall: Option<MigrationStallConfig>,
    /// Replay-backlog watermark detector.
    pub replay_backlog: Option<ReplayBacklogConfig>,
    /// Multi-window SLO burn-rate detector.
    pub slo_burn: Option<SloBurnConfig>,
    /// Dispatch-overcommit detector.
    pub dispatch_overcommit: Option<DispatchOvercommitConfig>,
    /// Lineage-dependency age detector.
    pub lineage_age: Option<LineageAgeConfig>,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        DetectorConfig {
            migration_stall: Some(MigrationStallConfig::default()),
            replay_backlog: Some(ReplayBacklogConfig::default()),
            slo_burn: Some(SloBurnConfig::default()),
            dispatch_overcommit: Some(DispatchOvercommitConfig::default()),
            lineage_age: Some(LineageAgeConfig::default()),
        }
    }
}

/// Configuration of the cluster flight recorder.
///
/// Arming the recorder (`ClusterConfig::flight_recorder = Some(..)`)
/// never perturbs the event schedule: the watchdog actor is installed
/// at a fixed cadence either way (like the sampler and SLO monitor),
/// and detector evaluation is pure state mutation on the virtual
/// clock. With both capacities `None` the trace and profile exports of
/// an armed run are byte-identical to a disarmed one.
#[derive(Debug, Clone, Default)]
pub struct FlightRecorderConfig {
    /// Ring capacity (events) for the trace buffer; `None` leaves the
    /// buffer unbounded (exactly the pre-recorder behavior).
    pub trace_capacity: Option<usize>,
    /// Ring capacity (events) for the audit buffer; `None` leaves it
    /// unbounded.
    pub audit_capacity: Option<usize>,
    /// The detector catalog.
    pub detectors: DetectorConfig,
}

/// How far back the incident bundle's trace slice reaches (events
/// completing within this long of the trigger).
pub const BUNDLE_TRACE_WINDOW_NS: Nanos = 50 * rocksteady_common::MILLISECOND;
/// How many trailing audit events the bundle embeds.
pub const AUDIT_TAIL_EVENTS: usize = 64;
/// How many of the trigger window's slowest request journeys the
/// bundle embeds (full cross-node causal chains, slowest first).
pub const BUNDLE_JOURNEYS: usize = 3;
/// Global incident cooldown: after a bundle is exported, no further
/// bundle (from any detector) until this much virtual time passes —
/// one incident produces one bundle.
pub const INCIDENT_COOLDOWN_NS: Nanos = SECOND;
/// Per-detector cooldown, measured from the *last tick the condition
/// held*: a continuously-firing detector produces one bundle per
/// episode, not one per tick, and must go quiet for this long before
/// it can trigger again.
pub const DETECTOR_COOLDOWN_NS: Nanos = SECOND;

// ------------------------------------------------------------ sample --

/// Progress counters of one migration run, as seen from its target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigrationSample {
    /// Migration id.
    pub id: u64,
    /// Target server id.
    pub target: u32,
    /// Whether the run is still in flight (begun, neither finished nor
    /// abandoned).
    pub in_flight: bool,
    /// Records gathered over the wire (bulk pulls + priority pulls).
    pub gathered: u64,
    /// Records received by replay (handed to a replay batch).
    pub replay_received: u64,
    /// Records actually applied by replay (version-max survivors).
    pub replay_applied: u64,
}

/// One coordinator lineage dependency and how long it has existed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LineageSample {
    /// The owning migration id.
    pub id: u64,
    /// Virtual time since the dependency was first observed.
    pub age_ns: Nanos,
}

/// Everything the detectors see on one watchdog tick. Assembled by the
/// cluster watchdog from live handles; all integers, all virtual time.
#[derive(Debug, Clone, Default)]
pub struct WatchdogSample {
    /// Tick time (virtual).
    pub at: Nanos,
    /// Sampling interval.
    pub interval_ns: Nanos,
    /// Fast-window (1 s) SLO burn rate in permille of intervals
    /// breaching.
    pub burn_fast_permille: u64,
    /// Slow-window (10 s) SLO burn rate in permille.
    pub burn_slow_permille: u64,
    /// Per-run migration progress, in migration-id order.
    pub migrations: Vec<MigrationSample>,
    /// Cumulative `node_dispatch_overcommit_total` across all servers.
    pub dispatch_overcommit_total: u64,
    /// Cumulative `client_retries` across all clients (context for burn
    /// incidents: retry storms are the client-visible symptom).
    pub client_retries_total: u64,
    /// Outstanding lineage dependencies with ages, in id order.
    pub lineage: Vec<LineageSample>,
}

// ----------------------------------------------------------- readings --

/// What a firing detector observed: the value that crossed the
/// threshold plus a human-readable detail line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DetectorReading {
    /// Detector name (stable, kebab-case; the bundle's trigger name).
    pub detector: &'static str,
    /// The observed value that crossed the threshold.
    pub value: u64,
    /// The configured threshold it crossed.
    pub threshold: u64,
    /// The migration id the reading is about, when the anomaly is
    /// attributable to one run (stall, backlog, lineage age) — the
    /// bundle uses it to attach the right `explain_migration` story.
    pub subject: Option<u64>,
    /// One-line explanation with the key numbers.
    pub detail: String,
}

impl DetectorReading {
    /// Deterministic JSON (`{"name":...,"value":...,"threshold":...,
    /// "detail":...}`, plus `"subject"` when the reading has one).
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.obj()
            .field("name", self.detector)
            .field("value", self.value)
            .field("threshold", self.threshold);
        if let Some(id) = self.subject {
            w.field("subject", id);
        }
        w.field("detail", &self.detail).end_obj();
        w.finish()
    }
}

// ---------------------------------------------------------- detectors --

/// A pluggable anomaly detector, evaluated once per watchdog tick.
///
/// Detectors keep their own integer state (previous counters, stagnant
/// tick counts) and must be deterministic functions of the sample
/// stream — no wall clocks, no randomness.
pub trait Detector {
    /// Stable detector name (the bundle trigger name when this detector
    /// fires first).
    fn name(&self) -> &'static str;
    /// Evaluates one tick; `Some` when the anomaly condition holds.
    fn evaluate(&mut self, sample: &WatchdogSample) -> Option<DetectorReading>;
}

/// Multi-window SLO burn rate: fires when both the fast (1 s) and the
/// slow (10 s) windows burn above their thresholds.
#[derive(Debug)]
pub struct SloBurnDetector {
    cfg: SloBurnConfig,
}

impl SloBurnDetector {
    /// Creates the detector with `cfg` thresholds.
    pub fn new(cfg: SloBurnConfig) -> Self {
        SloBurnDetector { cfg }
    }
}

impl Detector for SloBurnDetector {
    fn name(&self) -> &'static str {
        "slo-burn"
    }

    fn evaluate(&mut self, s: &WatchdogSample) -> Option<DetectorReading> {
        if s.burn_fast_permille >= self.cfg.fast_threshold_permille
            && s.burn_slow_permille >= self.cfg.slow_threshold_permille
        {
            return Some(DetectorReading {
                detector: self.name(),
                value: s.burn_fast_permille,
                threshold: self.cfg.fast_threshold_permille,
                subject: None,
                detail: format!(
                    "SLO burn rate {} permille over 1s and {} permille over 10s \
                     (thresholds {}/{}); {} client retries so far",
                    s.burn_fast_permille,
                    s.burn_slow_permille,
                    self.cfg.fast_threshold_permille,
                    self.cfg.slow_threshold_permille,
                    s.client_retries_total,
                ),
            });
        }
        None
    }
}

/// Migration-progress stall: an in-flight migration whose gather and
/// replay counters have not advanced for N consecutive intervals.
#[derive(Debug)]
pub struct MigrationStallDetector {
    cfg: MigrationStallConfig,
    /// id → (last observed progress sum, consecutive stagnant ticks).
    seen: BTreeMap<u64, (u64, u64)>,
}

impl MigrationStallDetector {
    /// Creates the detector with `cfg` thresholds.
    pub fn new(cfg: MigrationStallConfig) -> Self {
        MigrationStallDetector {
            cfg,
            seen: BTreeMap::new(),
        }
    }
}

impl Detector for MigrationStallDetector {
    fn name(&self) -> &'static str {
        "migration-stall"
    }

    fn evaluate(&mut self, s: &WatchdogSample) -> Option<DetectorReading> {
        // Drop state for runs that are no longer in flight.
        let live: Vec<u64> = s
            .migrations
            .iter()
            .filter(|m| m.in_flight)
            .map(|m| m.id)
            .collect();
        self.seen.retain(|id, _| live.contains(id));

        let mut worst: Option<(u64, u64, &MigrationSample)> = None;
        for m in s.migrations.iter().filter(|m| m.in_flight) {
            let progress = m.gathered + m.replay_received + m.replay_applied;
            let stagnant = match self.seen.entry(m.id) {
                std::collections::btree_map::Entry::Vacant(v) => {
                    // First sight establishes the baseline, not a stall.
                    v.insert((progress, 0));
                    0
                }
                std::collections::btree_map::Entry::Occupied(mut o) => {
                    let e = o.get_mut();
                    if progress == e.0 {
                        e.1 += 1;
                    } else {
                        *e = (progress, 0);
                    }
                    e.1
                }
            };
            if stagnant >= self.cfg.stall_intervals && worst.is_none_or(|(_, w, _)| stagnant > w) {
                worst = Some((m.id, stagnant, m));
            }
        }
        worst.map(|(id, stagnant, m)| DetectorReading {
            detector: self.name(),
            value: stagnant,
            threshold: self.cfg.stall_intervals,
            subject: Some(id),
            detail: format!(
                "migration {} on server {} made no gather/replay advance for {} \
                 intervals (gathered={} received={} applied={})",
                id, m.target, stagnant, m.gathered, m.replay_received, m.replay_applied,
            ),
        })
    }
}

/// Replay-backlog watermark: records gathered over the wire but not yet
/// fed through replay (received − applied at the replay boundary, the
/// same counters the audit conservation invariant checks).
#[derive(Debug)]
pub struct ReplayBacklogDetector {
    cfg: ReplayBacklogConfig,
    sustained: u64,
}

impl ReplayBacklogDetector {
    /// Creates the detector with `cfg` thresholds.
    pub fn new(cfg: ReplayBacklogConfig) -> Self {
        ReplayBacklogDetector { cfg, sustained: 0 }
    }
}

impl Detector for ReplayBacklogDetector {
    fn name(&self) -> &'static str {
        "replay-backlog"
    }

    fn evaluate(&mut self, s: &WatchdogSample) -> Option<DetectorReading> {
        let worst = s
            .migrations
            .iter()
            .filter(|m| m.in_flight)
            .map(|m| (m.gathered.saturating_sub(m.replay_received), m))
            .max_by_key(|(b, m)| (*b, std::cmp::Reverse(m.id)));
        let Some((backlog, m)) = worst else {
            self.sustained = 0;
            return None;
        };
        if backlog >= self.cfg.watermark_records {
            self.sustained += 1;
        } else {
            self.sustained = 0;
        }
        if self.sustained >= self.cfg.sustain_intervals {
            return Some(DetectorReading {
                detector: self.name(),
                value: backlog,
                threshold: self.cfg.watermark_records,
                subject: Some(m.id),
                detail: format!(
                    "migration {} on server {} has {} records gathered but not \
                     replayed (gathered={} received={} applied={}) for {} intervals",
                    m.id,
                    m.target,
                    backlog,
                    m.gathered,
                    m.replay_received,
                    m.replay_applied,
                    self.sustained,
                ),
            });
        }
        None
    }
}

/// Dispatch overcommit: too many sampling windows in which a dispatch
/// core was double-booked, within a sliding window of intervals.
#[derive(Debug)]
pub struct DispatchOvercommitDetector {
    cfg: DispatchOvercommitConfig,
    prev_total: u64,
    /// Per-tick overcommit deltas, most recent last.
    deltas: Vec<u64>,
}

impl DispatchOvercommitDetector {
    /// Creates the detector with `cfg` thresholds.
    pub fn new(cfg: DispatchOvercommitConfig) -> Self {
        DispatchOvercommitDetector {
            cfg,
            prev_total: 0,
            deltas: Vec::new(),
        }
    }
}

impl Detector for DispatchOvercommitDetector {
    fn name(&self) -> &'static str {
        "dispatch-overcommit"
    }

    fn evaluate(&mut self, s: &WatchdogSample) -> Option<DetectorReading> {
        let delta = s.dispatch_overcommit_total.saturating_sub(self.prev_total);
        self.prev_total = s.dispatch_overcommit_total;
        self.deltas.push(delta);
        let w = self.cfg.window_intervals.max(1) as usize;
        // One delta arrives per tick, so at most one falls out.
        if self.deltas.len() > w {
            self.deltas.remove(0);
        }
        let windowed: u64 = self.deltas.iter().sum();
        if windowed >= self.cfg.threshold_windows {
            return Some(DetectorReading {
                detector: self.name(),
                value: windowed,
                threshold: self.cfg.threshold_windows,
                subject: None,
                detail: format!(
                    "{} overcommitted dispatch windows in the last {} intervals \
                     ({} total since start)",
                    windowed, w, s.dispatch_overcommit_total,
                ),
            });
        }
        None
    }
}

/// Lineage-dependency age: a migration's lineage dependency outliving
/// its threshold means the run is wedged and the source's crash
/// recovery is held hostage on the target's log tail (§3.4).
#[derive(Debug)]
pub struct LineageAgeDetector {
    cfg: LineageAgeConfig,
}

impl LineageAgeDetector {
    /// Creates the detector with `cfg` thresholds.
    pub fn new(cfg: LineageAgeConfig) -> Self {
        LineageAgeDetector { cfg }
    }
}

impl Detector for LineageAgeDetector {
    fn name(&self) -> &'static str {
        "lineage-age"
    }

    fn evaluate(&mut self, s: &WatchdogSample) -> Option<DetectorReading> {
        let oldest = s
            .lineage
            .iter()
            .max_by_key(|d| (d.age_ns, std::cmp::Reverse(d.id)))?;
        if oldest.age_ns >= self.cfg.max_age_ns {
            return Some(DetectorReading {
                detector: self.name(),
                value: oldest.age_ns,
                threshold: self.cfg.max_age_ns,
                subject: Some(oldest.id),
                detail: format!(
                    "lineage dependency of migration {} is {} ns old \
                     ({} dependencies outstanding)",
                    oldest.id,
                    oldest.age_ns,
                    s.lineage.len(),
                ),
            });
        }
        None
    }
}

/// Builds the detector catalog from `cfg`, in evaluation (= trigger
/// priority) order: stall, backlog, SLO burn, overcommit, lineage age.
pub fn build_detectors(cfg: &DetectorConfig) -> Vec<Box<dyn Detector>> {
    let mut out: Vec<Box<dyn Detector>> = Vec::new();
    if let Some(c) = cfg.migration_stall {
        out.push(Box::new(MigrationStallDetector::new(c)));
    }
    if let Some(c) = cfg.replay_backlog {
        out.push(Box::new(ReplayBacklogDetector::new(c)));
    }
    if let Some(c) = cfg.slo_burn {
        out.push(Box::new(SloBurnDetector::new(c)));
    }
    if let Some(c) = cfg.dispatch_overcommit {
        out.push(Box::new(DispatchOvercommitDetector::new(c)));
    }
    if let Some(c) = cfg.lineage_age {
        out.push(Box::new(LineageAgeDetector::new(c)));
    }
    out
}

// ---------------------------------------------------------- cooldowns --

/// Per-detector and global cooldowns so one anomaly episode produces
/// exactly one incident bundle.
///
/// Per-detector cooldowns are measured from the *last tick the firing
/// condition held*: a condition that keeps holding keeps refreshing its
/// own cooldown, so a continuous episode fires once, and the detector
/// must go quiet for the full cooldown before it can trigger again.
/// The global incident cooldown additionally suppresses bundles from
/// *other* detectors right after one fired — a cascade (stall → burn →
/// lineage age) is one incident.
#[derive(Debug, Default)]
pub struct CooldownTracker {
    last_incident: Option<Nanos>,
    /// Detector → last tick its condition held.
    last_hold: BTreeMap<&'static str, Nanos>,
}

impl CooldownTracker {
    /// Records this tick's firing detectors and decides whether a new
    /// incident may be opened. Returns the index (into `firing`) of the
    /// trigger — the first detector that is out of cooldown — or `None`
    /// when every firing detector is cooling down or the global
    /// incident cooldown is active.
    pub fn admit(&mut self, at: Nanos, firing: &[DetectorReading]) -> Option<usize> {
        let mut trigger = None;
        for (i, r) in firing.iter().enumerate() {
            let cooled = match self.last_hold.get(r.detector) {
                Some(&held) => at.saturating_sub(held) >= DETECTOR_COOLDOWN_NS,
                None => true,
            };
            if trigger.is_none() && cooled {
                trigger = Some(i);
            }
        }
        // Refresh every firing detector's hold time, whether or not a
        // bundle opens: a continuing condition keeps its own cooldown
        // alive.
        for r in firing {
            self.last_hold.insert(r.detector, at);
        }
        let globally_open = match self.last_incident {
            Some(t) => at.saturating_sub(t) >= INCIDENT_COOLDOWN_NS,
            None => true,
        };
        let admitted = trigger.filter(|_| globally_open);
        if admitted.is_some() {
            self.last_incident = Some(at);
        }
        admitted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rocksteady_common::MILLISECOND;

    fn sample(at: Nanos) -> WatchdogSample {
        WatchdogSample {
            at,
            interval_ns: 10 * MILLISECOND,
            ..WatchdogSample::default()
        }
    }

    fn mig(id: u64, gathered: u64, received: u64, applied: u64) -> MigrationSample {
        MigrationSample {
            id,
            target: 1,
            in_flight: true,
            gathered,
            replay_received: received,
            replay_applied: applied,
        }
    }

    #[test]
    fn slo_burn_requires_both_windows() {
        let mut d = SloBurnDetector::new(SloBurnConfig::default());
        let mut s = sample(0);
        s.burn_fast_permille = 900;
        s.burn_slow_permille = 100; // slow window quiet: a blip, not a burn
        assert!(d.evaluate(&s).is_none());
        s.burn_slow_permille = 300;
        let r = d.evaluate(&s).expect("both windows burning");
        assert_eq!(r.detector, "slo-burn");
        assert_eq!(r.value, 900);
    }

    #[test]
    fn stall_counts_consecutive_stagnant_intervals() {
        let mut d = MigrationStallDetector::new(MigrationStallConfig { stall_intervals: 3 });
        let mut s = sample(0);
        s.migrations = vec![mig(7, 100, 50, 50)];
        assert!(d.evaluate(&s).is_none(), "first sight establishes baseline");
        assert!(d.evaluate(&s).is_none());
        assert!(d.evaluate(&s).is_none());
        let r = d.evaluate(&s).expect("3 stagnant intervals");
        assert_eq!(r.detector, "migration-stall");
        assert!(r.detail.contains("migration 7"), "{}", r.detail);
        // Any advance resets the count.
        s.migrations = vec![mig(7, 101, 50, 50)];
        assert!(d.evaluate(&s).is_none());
        // A finished run stops being tracked entirely.
        s.migrations[0].in_flight = false;
        assert!(d.evaluate(&s).is_none());
        assert!(d.evaluate(&s).is_none());
    }

    #[test]
    fn backlog_needs_sustained_watermark() {
        let mut d = ReplayBacklogDetector::new(ReplayBacklogConfig {
            watermark_records: 1_000,
            sustain_intervals: 2,
        });
        let mut s = sample(0);
        s.migrations = vec![mig(3, 5_000, 100, 100)];
        assert!(d.evaluate(&s).is_none(), "one interval is not sustained");
        let r = d.evaluate(&s).expect("two intervals over watermark");
        assert_eq!(r.detector, "replay-backlog");
        assert_eq!(r.value, 4_900);
        // Replay catching up clears the streak.
        s.migrations = vec![mig(3, 5_000, 4_800, 4_700)];
        assert!(d.evaluate(&s).is_none());
    }

    #[test]
    fn overcommit_windows_slide() {
        let mut d = DispatchOvercommitDetector::new(DispatchOvercommitConfig {
            window_intervals: 3,
            threshold_windows: 5,
        });
        let mut s = sample(0);
        for total in [2u64, 4, 5] {
            s.dispatch_overcommit_total = total;
            if total < 5 {
                assert!(d.evaluate(&s).is_none());
            } else {
                assert!(d.evaluate(&s).is_some(), "5 overcommits in 3 ticks");
            }
        }
        // The early burst slides out of the window.
        for _ in 0..3 {
            let r = d.evaluate(&s);
            let _ = r;
        }
        assert!(d.evaluate(&s).is_none(), "no new overcommits");
    }

    #[test]
    fn lineage_age_fires_on_oldest() {
        let mut d = LineageAgeDetector::new(LineageAgeConfig { max_age_ns: SECOND });
        let mut s = sample(0);
        s.lineage = vec![
            LineageSample { id: 1, age_ns: 100 },
            LineageSample {
                id: 2,
                age_ns: 2 * SECOND,
            },
        ];
        let r = d.evaluate(&s).expect("dep 2 is too old");
        assert!(r.detail.contains("migration 2"), "{}", r.detail);
        s.lineage.pop();
        assert!(d.evaluate(&s).is_none());
    }

    #[test]
    fn cooldown_one_bundle_per_episode() {
        let mut t = CooldownTracker::default();
        let r = DetectorReading {
            detector: "migration-stall",
            value: 5,
            threshold: 3,
            subject: Some(7),
            detail: String::new(),
        };
        assert_eq!(t.admit(0, std::slice::from_ref(&r)), Some(0));
        // Condition keeps holding every 10 ms: the hold refresh keeps
        // the detector cooling and no second bundle opens.
        for i in 1..=200u64 {
            assert_eq!(
                t.admit(i * 10 * MILLISECOND, std::slice::from_ref(&r)),
                None
            );
        }
        // After the condition clears for a full cooldown, it may fire
        // again.
        assert_eq!(t.admit(200 * 10 * MILLISECOND + 2 * SECOND, &[r]), Some(0));
    }

    #[test]
    fn global_cooldown_merges_cascades() {
        let mut t = CooldownTracker::default();
        let stall = DetectorReading {
            detector: "migration-stall",
            value: 5,
            threshold: 3,
            subject: Some(7),
            detail: String::new(),
        };
        let burn = DetectorReading {
            detector: "slo-burn",
            value: 900,
            threshold: 500,
            subject: None,
            detail: String::new(),
        };
        // Stall fires and opens the incident.
        assert_eq!(t.admit(0, &[stall]), Some(0));
        // 100 ms later the latency symptom fires: same incident, no
        // second bundle.
        assert_eq!(
            t.admit(100 * MILLISECOND, std::slice::from_ref(&burn)),
            None
        );
        // Long after the incident window, a fresh burn fires on its own.
        assert_eq!(t.admit(10 * SECOND, &[burn]), Some(0));
    }

    #[test]
    fn trigger_priority_is_catalog_order() {
        let detectors = build_detectors(&DetectorConfig::default());
        let names: Vec<&str> = detectors.iter().map(|d| d.name()).collect();
        assert_eq!(
            names,
            vec![
                "migration-stall",
                "replay-backlog",
                "slo-burn",
                "dispatch-overcommit",
                "lineage-age",
            ]
        );
    }

    #[test]
    fn reading_json_escapes_details() {
        let r = DetectorReading {
            detector: "slo-burn",
            value: 1,
            threshold: 2,
            subject: None,
            detail: "a \"quoted\" \\ line".into(),
        };
        assert_eq!(
            r.to_json(),
            "{\"name\":\"slo-burn\",\"value\":1,\"threshold\":2,\
             \"detail\":\"a \\\"quoted\\\" \\\\ line\"}"
        );
    }
}
