//! Resident warm state: the caches that make the N-th submission cheap.
//!
//! A batch `campaign` invocation regenerates its scenario population and
//! recomputes every step-one (HCPA) allocation from scratch, every time.
//! The server keeps both resident across requests, keyed by *content*:
//!
//! * **Populations** — keyed by [`population_key`] `(suite, seed)`; a
//!   population is a pure function of exactly those two values, so a hit
//!   is bit-identical to regeneration.
//! * **Step-one allocations** — keyed by `(population key, cluster name,
//!   scenario index)`. `allocate(dag, platform, default)` is a pure
//!   function of the DAG and the platform; the population key pins the
//!   DAG, and within one population the cluster name pins the platform
//!   (custom topologies are part of the hashed workload content), so a
//!   hit is bit-identical to recomputation.
//!
//! Both caches are LRU-bounded with hit/miss/eviction counters exposed in
//! [`WarmStats`] — the warm-vs-cold determinism tests assert on these, so
//! "the cache was used" is measured, never assumed.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Arc, Mutex};

use rats_daggen::population::population_key;
use rats_daggen::suite::Scenario;
use rats_experiments::shard::AllocSource;
use rats_experiments::spec::ExperimentSpec;
use rats_sched::Allocation;
use serde::{Serialize, Value};

/// A point-in-time snapshot of the warm-state counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WarmStats {
    /// Population requests served from the resident cache.
    pub population_hits: u64,
    /// Population requests that had to generate.
    pub population_misses: u64,
    /// Populations evicted by the LRU bound.
    pub population_evictions: u64,
    /// Step-one allocation lookups served warm.
    pub alloc_hits: u64,
    /// Step-one allocation lookups that had to compute.
    pub alloc_misses: u64,
    /// Allocations evicted by the LRU bound.
    pub alloc_evictions: u64,
    /// Populations currently resident.
    pub resident_populations: usize,
    /// Allocations currently resident.
    pub resident_allocs: usize,
    /// Approximate bytes held by resident populations (task graphs,
    /// adjacency, names — estimated per scenario, not measured).
    pub resident_population_bytes: u64,
    /// Approximate bytes held by resident allocations (keys + counts).
    pub resident_alloc_bytes: u64,
}

impl Serialize for WarmStats {
    fn serialize(&self) -> Value {
        let mut t = Value::table();
        t.insert("population_hits", &self.population_hits)
            .insert("population_misses", &self.population_misses)
            .insert("population_evictions", &self.population_evictions)
            .insert("alloc_hits", &self.alloc_hits)
            .insert("alloc_misses", &self.alloc_misses)
            .insert("alloc_evictions", &self.alloc_evictions)
            .insert("resident_populations", &self.resident_populations)
            .insert("resident_allocs", &self.resident_allocs)
            .insert("resident_population_bytes", &self.resident_population_bytes)
            .insert("resident_alloc_bytes", &self.resident_alloc_bytes);
        t
    }
}

/// Approximate heap footprint of one scenario: per-task cost model plus
/// adjacency entries, per-edge endpoints and byte weights, and the name
/// string. An estimate for capacity planning, not an allocator census.
fn scenario_bytes(s: &Scenario) -> u64 {
    (s.name.len() + 64 + s.dag.num_tasks() * 72 + s.dag.num_edges() * 32) as u64
}

/// `(population key, cluster name, scenario index)` — see the module docs
/// for why this triple pins the allocation's inputs exactly.
type AllocKey = (String, String, usize);

/// A map bounded to `capacity` entries that evicts the least recently
/// used one, with its hit, miss and eviction counts and the approximate
/// bytes its entries hold. Both of [`WarmState`]'s caches are one.
struct Lru<K, V> {
    capacity: usize,
    state: Mutex<LruState<K, V>>,
}

struct LruState<K, V> {
    entries: HashMap<K, Slot<V>>,
    /// Bumped on every touch and recorded per entry.
    clock: u64,
    counts: LruCounts,
}

#[derive(Clone, Copy, Default)]
struct LruCounts {
    hits: u64,
    misses: u64,
    evictions: u64,
    bytes: u64,
}

struct Slot<V> {
    value: V,
    used: u64,
    /// Approximate footprint, fixed at insert so eviction subtracts
    /// exactly what was added.
    bytes: u64,
}

impl<K: Eq + Hash + Clone, V: Clone> Lru<K, V> {
    fn new(capacity: usize) -> Self {
        let state = LruState {
            entries: HashMap::new(),
            clock: 0,
            counts: LruCounts::default(),
        };
        Self {
            capacity: capacity.max(1),
            state: Mutex::new(state),
        }
    }

    /// The value under `key`, now the most recently used; counts a hit or
    /// a miss.
    fn get(&self, key: &K) -> Option<V> {
        let s = &mut *self.state.lock().expect("warm cache");
        s.clock += 1;
        let Some(slot) = s.entries.get_mut(key) else {
            s.counts.misses += 1;
            return None;
        };
        slot.used = s.clock;
        s.counts.hits += 1;
        Some(slot.value.clone())
    }

    /// Inserts or replaces `key`, then evicts the coldest entries down to
    /// capacity.
    fn insert(&self, key: K, value: V, bytes: u64) {
        let s = &mut *self.state.lock().expect("warm cache");
        s.clock += 1;
        let slot = Slot {
            value,
            used: s.clock,
            bytes,
        };
        if let Some(old) = s.entries.insert(key, slot) {
            s.counts.bytes -= old.bytes;
        }
        s.counts.bytes += bytes;
        while s.entries.len() > self.capacity {
            let coldest = s
                .entries
                .iter()
                .min_by_key(|(_, e)| e.used)
                .map(|(k, _)| k.clone())
                .expect("non-empty map over capacity");
            if let Some(evicted) = s.entries.remove(&coldest) {
                s.counts.bytes -= evicted.bytes;
            }
            s.counts.evictions += 1;
        }
    }

    /// The counters and the number of resident entries.
    fn counts(&self) -> (LruCounts, usize) {
        let s = self.state.lock().expect("warm cache");
        (s.counts, s.entries.len())
    }
}

/// The server's resident caches. Shared by every connection thread; all
/// methods take `&self`.
pub struct WarmState {
    pops: Lru<String, Arc<Vec<Scenario>>>,
    allocs: Lru<AllocKey, Allocation>,
}

impl WarmState {
    /// A warm state bounded to `pop_capacity` resident populations and
    /// `alloc_capacity` resident allocations (each at least 1).
    pub fn new(pop_capacity: usize, alloc_capacity: usize) -> Self {
        Self {
            pops: Lru::new(pop_capacity),
            allocs: Lru::new(alloc_capacity),
        }
    }

    /// The population for `spec`, from the resident cache when possible.
    /// Returns the scenarios and whether they were served warm. The
    /// returned `Arc` stays valid even if the entry is evicted while a
    /// campaign is still running on it.
    pub fn population(&self, spec: &ExperimentSpec) -> (Arc<Vec<Scenario>>, bool) {
        let key = population_key(&spec.suite.name(), spec.seed);
        if let Some(scenarios) = self.pops.get(&key) {
            return (scenarios, true);
        }
        // Generate outside the lock: a slow (paper-sized) generation must
        // not block other campaigns' unrelated lookups. Two concurrent
        // misses of the same key both generate; the results are
        // bit-identical, so whichever insert lands second just refreshes
        // the entry.
        let scenarios = Arc::new(spec.scenarios());
        let bytes = scenarios.iter().map(scenario_bytes).sum();
        self.pops.insert(key, Arc::clone(&scenarios), bytes);
        (scenarios, false)
    }

    /// An [`AllocSource`] view of this warm state, scoped to one
    /// population (the key namespaces cluster/scenario pairs).
    pub fn allocs_for(&self, spec: &ExperimentSpec) -> WarmAllocs<'_> {
        WarmAllocs {
            warm: self,
            population: population_key(&spec.suite.name(), spec.seed),
        }
    }

    /// Current counter values and residency.
    pub fn stats(&self) -> WarmStats {
        let (pops, resident_populations) = self.pops.counts();
        let (allocs, resident_allocs) = self.allocs.counts();
        WarmStats {
            population_hits: pops.hits,
            population_misses: pops.misses,
            population_evictions: pops.evictions,
            alloc_hits: allocs.hits,
            alloc_misses: allocs.misses,
            alloc_evictions: allocs.evictions,
            resident_populations,
            resident_allocs,
            resident_population_bytes: pops.bytes,
            resident_alloc_bytes: allocs.bytes,
        }
    }
}

/// [`WarmState`]'s allocation cache, bound to one population — the form
/// [`run_shard_hooked`](rats_experiments::shard::run_shard_hooked)
/// consumes through the [`AllocSource`] trait.
pub struct WarmAllocs<'a> {
    warm: &'a WarmState,
    population: String,
}

impl AllocSource for WarmAllocs<'_> {
    fn lookup(&self, cluster: &str, scenario: usize) -> Option<Allocation> {
        let key = (self.population.clone(), cluster.to_string(), scenario);
        self.warm.allocs.get(&key)
    }

    fn publish(&self, cluster: &str, scenario: usize, alloc: &Allocation) {
        let key = (self.population.clone(), cluster.to_string(), scenario);
        // Key strings, a fixed overhead and the counts.
        let bytes = key.0.len() + key.1.len() + 48 + alloc.as_slice().len() * 4;
        self.warm.allocs.insert(key, alloc.clone(), bytes as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rats_experiments::spec::SuiteSpec;

    fn spec(seed: u64) -> ExperimentSpec {
        ExperimentSpec::naive("warm", "grillon", SuiteSpec::Mini, seed)
    }

    #[test]
    fn population_hits_after_first_generation() {
        let warm = WarmState::new(4, 16);
        let (a, hit_a) = warm.population(&spec(1));
        assert!(!hit_a, "first request generates");
        let (b, hit_b) = warm.population(&spec(1));
        assert!(hit_b, "second request is served warm");
        assert!(Arc::ptr_eq(&a, &b), "the very same resident population");
        let stats = warm.stats();
        assert_eq!((stats.population_hits, stats.population_misses), (1, 1));
        assert_eq!(stats.population_evictions, 0);
        assert_eq!(stats.resident_populations, 1);
    }

    #[test]
    fn population_lru_evicts_the_coldest() {
        let warm = WarmState::new(1, 16);
        warm.population(&spec(1));
        warm.population(&spec(2)); // evicts seed 1
        let (_, hit) = warm.population(&spec(1)); // regenerates
        assert!(!hit);
        let stats = warm.stats();
        assert_eq!(stats.population_evictions, 2);
        assert_eq!(stats.resident_populations, 1);
    }

    #[test]
    fn alloc_cache_round_trips_and_counts() {
        let warm = WarmState::new(4, 2);
        let s = spec(1);
        let allocs = warm.allocs_for(&s);
        assert!(allocs.lookup("grillon", 0).is_none());
        let alloc = Allocation::from_counts(vec![1, 2, 4]);
        allocs.publish("grillon", 0, &alloc);
        assert_eq!(allocs.lookup("grillon", 0), Some(alloc.clone()));
        // A different population key must not see this entry.
        let other = warm.allocs_for(&spec(2));
        assert!(other.lookup("grillon", 0).is_none());
        // LRU bound: capacity 2, third insert evicts the coldest.
        allocs.publish("grillon", 1, &alloc);
        allocs.lookup("grillon", 0); // touch 0 so 1 is coldest
        allocs.publish("grillon", 2, &alloc);
        let stats = warm.stats();
        assert_eq!(stats.alloc_evictions, 1);
        assert_eq!(stats.resident_allocs, 2);
        assert!(allocs.lookup("grillon", 1).is_none(), "1 was evicted");
        assert!(allocs.lookup("grillon", 0).is_some(), "0 was kept warm");
    }

    #[test]
    fn resident_bytes_track_inserts_and_evictions() {
        let warm = WarmState::new(1, 1);
        assert_eq!(warm.stats().resident_population_bytes, 0);
        warm.population(&spec(1));
        let one = warm.stats().resident_population_bytes;
        assert!(one > 0, "a resident population has a footprint");
        // Capacity 1: the second population replaces the first, so the
        // footprint stays at exactly one population's worth.
        warm.population(&spec(2));
        let stats = warm.stats();
        assert_eq!(stats.resident_populations, 1);
        assert!(stats.resident_population_bytes > 0);

        let allocs = warm.allocs_for(&spec(1));
        let alloc = Allocation::from_counts(vec![1, 2, 4]);
        allocs.publish("grillon", 0, &alloc);
        let a = warm.stats().resident_alloc_bytes;
        assert!(a > 0);
        // Re-publishing the same key must not double-count.
        allocs.publish("grillon", 0, &alloc);
        assert_eq!(warm.stats().resident_alloc_bytes, a);
        // Eviction returns the evicted entry's bytes.
        allocs.publish("grillon", 1, &alloc);
        assert_eq!(warm.stats().resident_allocs, 1);
    }
}
