//! Time-varying load shapes: hotspots that move.
//!
//! The steady Zipfian mix in [`crate::YcsbClient`] skews *rank*
//! popularity, but ranks scatter uniformly over the 64-bit hash space,
//! so every tablet sees the same load and there is nothing for a
//! rebalancer to fix. A [`LoadShape`] adds the missing dimension: it
//! concentrates a configurable fraction of arrivals onto one *hash
//! region* (an aligned `1/buckets` slice of the key-hash space) and
//! moves that region over virtual time. Because tablet boundaries are
//! hash ranges, a hot region is a hot tablet — the load imbalance the
//! rebalancer exists to shed.
//!
//! Shapes are pure functions of virtual time, so shaped workloads stay
//! bit-deterministic per seed.

use std::rc::Rc;

use rocksteady_common::{key_hash, KeyHash, Nanos};

use crate::core::write_primary_key;

/// How a client's offered load moves across the hash space over time.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum LoadShape {
    /// No spatial skew: pure rank-popularity sampling (the default;
    /// byte-identical behavior to a client predating load shapes).
    #[default]
    Steady,
    /// One abrupt hotspot change: before `at`, the first hash region is
    /// hot; from `at` on, the last one is. Models a working-set flip —
    /// the worst case for any reactive placement loop.
    SkewFlip {
        /// Virtual time of the flip.
        at: Nanos,
        /// Number of equal hash regions the space is divided into.
        buckets: u32,
        /// Fraction of arrivals aimed at the hot region (the rest
        /// follow the client's rank distribution).
        hot_weight: f64,
    },
    /// A slowly wandering hotspot: the hot region advances one bucket
    /// every `dwell`, wrapping around — a compressed diurnal cycle
    /// where demand drifts across the key space.
    DiurnalDrift {
        /// How long the hotspot stays on one region.
        dwell: Nanos,
        /// Number of equal hash regions the space is divided into.
        buckets: u32,
        /// Fraction of arrivals aimed at the hot region.
        hot_weight: f64,
    },
}

impl LoadShape {
    /// The hot region at `now` as `(bucket, buckets, hot_weight)`, or
    /// `None` for [`LoadShape::Steady`].
    pub fn hot_bucket(&self, now: Nanos) -> Option<(u32, u32, f64)> {
        match *self {
            LoadShape::Steady => None,
            LoadShape::SkewFlip {
                at,
                buckets,
                hot_weight,
            } => {
                let b = if now < at {
                    0
                } else {
                    buckets.saturating_sub(1)
                };
                Some((b, buckets, hot_weight))
            }
            LoadShape::DiurnalDrift {
                dwell,
                buckets,
                hot_weight,
            } => {
                let b = ((now / dwell.max(1)) % u64::from(buckets.max(1))) as u32;
                Some((b, buckets, hot_weight))
            }
        }
    }

    /// Number of hash regions, or `None` for [`LoadShape::Steady`].
    pub fn buckets(&self) -> Option<u32> {
        match *self {
            LoadShape::Steady => None,
            LoadShape::SkewFlip { buckets, .. } | LoadShape::DiurnalDrift { buckets, .. } => {
                Some(buckets)
            }
        }
    }
}

/// The region index a key hash falls into when the space is divided
/// into `buckets` equal aligned slices.
pub fn hash_bucket(hash: KeyHash, buckets: u32) -> u32 {
    let width = (1u128 << 64) / u128::from(buckets.max(1));
    ((u128::from(hash) / width) as u32).min(buckets.saturating_sub(1))
}

/// The ranks `0..num_keys` grouped by the region ([`hash_bucket`]) their
/// primary key hashes into, one list per region in rank order — what a
/// shaped client draws a hot arrival from. Empty when there are no
/// regions ([`LoadShape::Steady`]). Formats and hashes every key of the
/// key space, hence shared.
pub fn bucket_ranks(num_keys: u64, key_len: usize, buckets: Option<u32>) -> Rc<[Vec<u64>]> {
    let Some(buckets) = buckets else {
        return Rc::new([]);
    };
    let mut by_bucket = vec![Vec::new(); buckets as usize];
    let mut key = Vec::new();
    for rank in 0..num_keys {
        write_primary_key(rank, key_len, &mut key);
        by_bucket[hash_bucket(key_hash(&key), buckets) as usize].push(rank);
    }
    by_bucket.into()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rocksteady_common::SECOND;

    #[test]
    fn steady_has_no_hotspot() {
        assert_eq!(LoadShape::Steady.hot_bucket(0), None);
        assert_eq!(LoadShape::Steady.buckets(), None);
    }

    #[test]
    fn skew_flip_switches_once() {
        let s = LoadShape::SkewFlip {
            at: SECOND,
            buckets: 8,
            hot_weight: 0.6,
        };
        assert_eq!(s.hot_bucket(0), Some((0, 8, 0.6)));
        assert_eq!(s.hot_bucket(SECOND - 1), Some((0, 8, 0.6)));
        assert_eq!(s.hot_bucket(SECOND), Some((7, 8, 0.6)));
        assert_eq!(s.hot_bucket(100 * SECOND), Some((7, 8, 0.6)));
    }

    #[test]
    fn diurnal_drift_wraps() {
        let s = LoadShape::DiurnalDrift {
            dwell: SECOND,
            buckets: 4,
            hot_weight: 0.5,
        };
        assert_eq!(s.hot_bucket(0).unwrap().0, 0);
        assert_eq!(s.hot_bucket(SECOND).unwrap().0, 1);
        assert_eq!(s.hot_bucket(3 * SECOND).unwrap().0, 3);
        assert_eq!(s.hot_bucket(4 * SECOND).unwrap().0, 0);
    }

    #[test]
    fn hash_buckets_partition_the_space() {
        assert_eq!(hash_bucket(0, 4), 0);
        assert_eq!(hash_bucket(u64::MAX / 2, 4), 1);
        assert_eq!(hash_bucket(u64::MAX, 4), 3);
        for b in [1u32, 2, 3, 7, 16] {
            assert_eq!(hash_bucket(u64::MAX, b), b - 1);
        }
    }
}
