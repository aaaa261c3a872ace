//! Job-to-shard placement policies.
//!
//! Both policies sit behind the [`Placement`] trait so the coordinator
//! (and the placement proptests) can swap them freely:
//!
//! * [`HashRing`] — consistent hashing with virtual nodes. A job key
//!   always lands on the same shard while the shard set is stable, and
//!   removing one shard remaps only that shard's keys (~1/N of the
//!   total) — the property the placement proptests pin down.
//! * [`LeastLoaded`] — pick the live shard with the shallowest load;
//!   used directly, or as the ring's fallback when the owner is down.

use apu_sim::hash::{fnv1a, mix64};

/// What a placement policy sees about the fleet when it places one key:
/// per-shard liveness and a load figure (coordinator backlog + observed
/// shard queue depth).
#[derive(Debug, Clone)]
pub struct ShardView {
    /// `false` while a shard is crashed / unreachable.
    pub alive: Vec<bool>,
    /// Jobs waiting for each shard (backlog + remote queue depth).
    pub load: Vec<usize>,
}

impl ShardView {
    /// A view of `n` live, idle shards.
    pub fn fresh(n: usize) -> ShardView {
        ShardView {
            alive: vec![true; n],
            load: vec![0; n],
        }
    }

    /// Shard count.
    pub fn len(&self) -> usize {
        self.alive.len()
    }

    /// True when no shard exists.
    pub fn is_empty(&self) -> bool {
        self.alive.is_empty()
    }
}

/// A placement policy: map a job key to a live shard.
pub trait Placement: Send {
    /// The shard `key` should go to, or `None` when no shard is live.
    fn place(&self, key: &str, view: &ShardView) -> Option<usize>;

    /// Policy name for metrics/status output.
    fn name(&self) -> &'static str;
}

/// FNV-1a with a splitmix64 finalizer: raw FNV of short, similar
/// strings clusters in the high bits, and ring lookups compare
/// whole-word order, so the points need avalanche.
fn point(bytes: &[u8]) -> u64 {
    mix64(fnv1a(bytes))
}

/// Consistent-hash ring with virtual nodes.
#[derive(Debug, Clone)]
pub struct HashRing {
    /// `(point, shard)` sorted by point; each shard contributes
    /// `vnodes` points derived from its index.
    ring: Vec<(u64, usize)>,
}

impl HashRing {
    /// Default virtual nodes per shard: enough that a 16-shard ring
    /// spreads 10k keys within a few percent of uniform.
    pub const DEFAULT_VNODES: usize = 128;

    /// A ring over shards `0..shards` with [`HashRing::DEFAULT_VNODES`].
    pub fn new(shards: usize) -> HashRing {
        HashRing::with_vnodes(shards, HashRing::DEFAULT_VNODES)
    }

    /// A ring with an explicit virtual-node count per shard.
    ///
    /// # Panics
    ///
    /// Panics if `vnodes` is zero.
    pub fn with_vnodes(shards: usize, vnodes: usize) -> HashRing {
        assert!(vnodes > 0, "a shard needs at least one virtual node");
        let mut ring = Vec::with_capacity(shards * vnodes);
        for shard in 0..shards {
            for v in 0..vnodes {
                let point = point(format!("shard-{shard}#vnode-{v}").as_bytes());
                ring.push((point, shard));
            }
        }
        // Sort by point; disambiguate the (astronomically unlikely)
        // collision by shard index so the ring order is total.
        ring.sort_unstable();
        HashRing { ring }
    }

    /// The ring owner of `key` ignoring liveness (the stable assignment
    /// the remap proptest reasons about).
    pub fn owner(&self, key: &str) -> Option<usize> {
        if self.ring.is_empty() {
            return None;
        }
        let h = point(key.as_bytes());
        // First ring point clockwise of the key's hash, wrapping.
        let idx = self.ring.partition_point(|&(p, _)| p < h);
        let (_, shard) = self.ring[idx % self.ring.len()];
        Some(shard)
    }

    /// Walk clockwise from `key`'s point to the first point owned by a
    /// live shard.
    fn place_alive(&self, key: &str, view: &ShardView) -> Option<usize> {
        if self.ring.is_empty() {
            return None;
        }
        let h = point(key.as_bytes());
        let start = self.ring.partition_point(|&(p, _)| p < h);
        for i in 0..self.ring.len() {
            let (_, shard) = self.ring[(start + i) % self.ring.len()];
            if view.alive.get(shard).copied().unwrap_or(false) {
                return Some(shard);
            }
        }
        None
    }
}

impl Placement for HashRing {
    fn place(&self, key: &str, view: &ShardView) -> Option<usize> {
        self.place_alive(key, view)
    }

    fn name(&self) -> &'static str {
        "ring"
    }
}

/// Pick the live shard with the smallest load; ties go to the lowest
/// index so placement stays deterministic.
#[derive(Debug, Clone, Copy, Default)]
pub struct LeastLoaded;

impl Placement for LeastLoaded {
    fn place(&self, _key: &str, view: &ShardView) -> Option<usize> {
        (0..view.len())
            .filter(|&s| view.alive[s])
            .min_by_key(|&s| (view.load.get(s).copied().unwrap_or(0), s))
    }

    fn name(&self) -> &'static str {
        "least-loaded"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_is_deterministic_and_live() {
        let ring = HashRing::new(8);
        let view = ShardView::fresh(8);
        let a = ring.place("job-42", &view).unwrap();
        let b = ring.place("job-42", &view).unwrap();
        assert_eq!(a, b);
        assert_eq!(ring.owner("job-42"), Some(a));
    }

    #[test]
    fn ring_skips_dead_shards() {
        let ring = HashRing::new(4);
        let mut view = ShardView::fresh(4);
        let owner = ring.place("k", &view).unwrap();
        view.alive[owner] = false;
        let fallback = ring.place("k", &view).unwrap();
        assert_ne!(fallback, owner);
        view.alive = vec![false; 4];
        assert_eq!(ring.place("k", &view), None);
    }

    #[test]
    fn least_loaded_picks_min_and_breaks_ties_low() {
        let mut view = ShardView::fresh(3);
        view.load = vec![5, 2, 2];
        assert_eq!(LeastLoaded.place("any", &view), Some(1));
        view.alive[1] = false;
        assert_eq!(LeastLoaded.place("any", &view), Some(2));
    }

    #[test]
    fn empty_ring_places_nothing() {
        let ring = HashRing::new(0);
        assert_eq!(ring.place("k", &ShardView::fresh(0)), None);
        assert_eq!(ring.owner("k"), None);
    }
}
