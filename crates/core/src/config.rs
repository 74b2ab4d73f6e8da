//! Migration protocol knobs.

use rocksteady_common::Nanos;

/// Configuration of one Rocksteady migration (defaults are the paper's
/// evaluation settings, §4.1).
#[derive(Debug, Clone)]
pub struct MigrationConfig {
    /// Number of disjoint source hash-space partitions, each with one
    /// Pull outstanding (§3.1.1). "A small constant factor more
    /// partitions than worker cores is sufficient"; the paper uses 8.
    pub partitions: usize,
    /// How a read that misses a not-yet-migrated record is served.
    pub priority_pulls: PriorityPulls,
    /// Issue bulk background Pulls at all. Figures 13/14 study
    /// PriorityPulls in isolation by disabling them.
    pub background_pulls: bool,
}

/// How a target fetches a record a client read missed (§3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PriorityPulls {
    /// Misses accumulate into one asynchronous, de-duplicated batch in
    /// flight at a time (§3.3). The default.
    Batched,
    /// None are issued: the record arrives with the bulk Pulls (the
    /// Figure 9b/10b "No Priority Pulls" variant).
    Off,
    /// The naïve mode: the reading worker blocks on its own single-key
    /// PriorityPull (the Figure 13b/14b comparison).
    Sync,
}

impl PriorityPulls {
    /// Why a read that missed is told to retry: one PriorityPull round
    /// trip away, or only as soon as the bulk Pulls deliver its record.
    pub fn retry_cause(self) -> RetryCause {
        match self {
            PriorityPulls::Off => RetryCause::MissBulkOnly,
            PriorityPulls::Batched | PriorityPulls::Sync => RetryCause::MissPriorityPull,
        }
    }
}

/// Bytes of records each Pull returns (§3.1.1; the paper uses 20 KB —
/// small enough to keep source workers' tasks short, large enough to
/// amortize RPC dispatch).
pub const PULL_BUDGET_BYTES: u32 = 20_000;
/// Maximum records per PriorityPull batch (§4.1 uses 16).
pub const PRIORITY_PULL_BATCH: usize = 16;
/// Base back-off the target suggests to clients whose record hasn't
/// arrived ("retry after randomly waiting a few tens of microseconds",
/// §3).
pub const RETRY_AFTER_NS: Nanos = 30_000;

impl Default for MigrationConfig {
    fn default() -> Self {
        MigrationConfig {
            partitions: 8,
            priority_pulls: PriorityPulls::Batched,
            background_pulls: true,
        }
    }
}

/// Why a server is asking the client to come back later. Each cause
/// maps to a distinct base hint; keeping the mapping here (rather than
/// scattered through the server) is what guarantees every retry path
/// hints consistently.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetryCause {
    /// Read missed a not-yet-migrated record and a PriorityPull is on
    /// its way: "retry after the time when the target expects it will
    /// have the value" (§3) — one PriorityPull round trip.
    MissPriorityPull,
    /// Read missed but PriorityPulls are disabled (Figure 9b/10b): the
    /// record only arrives with the bulk pulls, so the hint is
    /// correspondingly longer.
    MissBulkOnly,
    /// The range is mid crash-recovery; replaying the replicated log
    /// takes several pull round trips.
    Recovering,
    /// A peer the operation depended on just died; back off while the
    /// coordinator's recovery plan lands.
    SourceFailover,
}

impl RetryCause {
    /// Base retry hint for this cause, before jitter. The server draws
    /// jitter uniformly in `[0, base/2)` and sends `base + jitter`, so
    /// the hint lands in `[base, 1.5·base)` — synchronized clients
    /// spread out without doubling the documented mean.
    pub fn retry_base(self) -> Nanos {
        match self {
            RetryCause::MissPriorityPull => RETRY_AFTER_NS,
            RetryCause::MissBulkOnly => RETRY_AFTER_NS * 20,
            RetryCause::Recovering => RETRY_AFTER_NS * 4,
            RetryCause::SourceFailover => RETRY_AFTER_NS,
        }
    }
}
