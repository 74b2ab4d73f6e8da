//! Shared foundation types for the Rocksteady reproduction.
//!
//! This crate holds everything that more than one subsystem needs but that
//! belongs to none of them:
//!
//! - Identifier newtypes ([`ServerId`], [`TableId`], …) and the 64-bit key
//!   hash ([`key_hash`]) that drives tablet partitioning and the primary
//!   hash table.
//! - The [`CostModel`] used by the discrete-event simulator to convert the
//!   *real* work performed by the storage substrate (bytes copied, hash
//!   probes, checksums) into virtual service time. All constants are
//!   calibrated against the numbers reported in the paper (§2, §4).
//! - Workload-generation primitives: a deterministic [`rng`] and the YCSB
//!   [`zipf`] generators (including the high-skew θ ≥ 1 regime used in
//!   Figure 12).
//! - Measurement primitives: a log-bucketed latency [`hist::Histogram`]
//!   (sufficient resolution for 99.9th-percentile queries) and the
//!   [`hist::TimeSeries`] recorder behind the paper's timeline figures.
//! - Export plumbing shared by every observability layer: the one
//!   deterministic [`json`] writer and the one bounded event [`Ring`].
//! - The one software-[`prefetch`] hint the storage data path overlaps
//!   its cache misses with.

pub mod cost;
pub mod fxmap;
pub mod hist;
pub mod ids;
pub mod json;
pub mod prefetch;
pub mod range;
pub mod ring;
pub mod rng;
pub mod time;
pub mod wire;
pub mod zipf;

pub use cost::CostModel;
pub use fxmap::{FxHashMap, FxHashSet};
pub use hist::{Histogram, TimeSeries};
pub use ids::{
    key_hash, CausalCtx, IndexId, KeyHash, MigrationId, RpcId, ServerId, TableId, TraceId,
};
pub use range::{HashRange, ScanCursor};
pub use ring::{Ring, TailRing};
pub use time::{Nanos, MICROSECOND, MILLISECOND, SECOND};
pub use wire::{SimMessage, WireSized};
