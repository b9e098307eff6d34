//! The parallel candidate-evaluation engine.
//!
//! eNAS evaluates hundreds of candidates per run and each evaluation trains
//! a full model, so this module fans evaluations out across a scoped-thread
//! worker pool. Three properties are load-bearing:
//!
//! 1. **Determinism.** Every evaluation trains with its own RNG whose seed
//!    is derived from `(base_seed, cycle, index-in-batch)` — never from the
//!    shared search RNG — so the `SearchOutcome` history is bit-identical
//!    at any worker count (including 1). The search RNG is only consumed on
//!    the sequential control path (sampling, tournaments, mutations).
//! 2. **Memoization.** Evaluations are cached in the [`TaskContext`] keyed
//!    by the full candidate (sensing config + model spec), so duplicate
//!    candidates never retrain. Cache resolution happens *sequentially*
//!    before the parallel fan-out — duplicates inside one batch are deduped
//!    to the first occurrence — so memoization cannot introduce
//!    worker-count-dependent results.
//! 3. **One shared pool.** Seeds come from [`solarml_sim::seed`] and the
//!    fan-out from [`solarml_sim::pool`], the same helpers fleet campaigns
//!    use; they are re-exported here for existing callers.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::RwLock;

pub use solarml_sim::pool::{available_workers, parallel_map};
use solarml_sim::pool::{effective_workers, try_parallel_map, EvalPanic};
pub use solarml_sim::seed::derive_seed;

use crate::candidate::{Candidate, Evaluated};
use crate::task::TaskContext;

/// Number of shards in a [`ShardedMap`]. A small power of two keeps the
/// modulo cheap while making write contention between a handful of worker
/// threads unlikely.
const SHARD_COUNT: usize = 16;

/// A concurrent hash map sharded across independent `RwLock`s.
///
/// Reads take a shared lock on one shard; writes take an exclusive lock on
/// one shard. Values are cloned out, so `V` should be cheap to clone (an
/// `Arc`, or a small struct).
#[derive(Debug)]
pub struct ShardedMap<K, V> {
    shards: [RwLock<HashMap<K, V>>; SHARD_COUNT],
}

impl<K: Hash + Eq + Clone, V: Clone> ShardedMap<K, V> {
    /// Creates an empty map.
    pub fn new() -> Self {
        Self {
            shards: std::array::from_fn(|_| RwLock::new(HashMap::new())),
        }
    }

    fn shard(&self, key: &K) -> &RwLock<HashMap<K, V>> {
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut hasher);
        &self.shards[(hasher.finish() as usize) % SHARD_COUNT]
    }

    /// Clones the value for `key`, if present.
    pub fn get(&self, key: &K) -> Option<V> {
        self.shard(key)
            .read()
            .expect("shard lock poisoned")
            .get(key)
            .cloned()
    }

    /// Inserts `value` under `key`. An existing entry is kept (first writer
    /// wins), so concurrent duplicate computations converge on one value.
    pub fn insert_if_absent(&self, key: K, value: V) {
        self.shard(&key)
            .write()
            .expect("shard lock poisoned")
            .entry(key)
            .or_insert(value);
    }

    /// Returns the cached value for `key`, computing and caching it with
    /// `make` on a miss. `make` may run concurrently on racing threads; the
    /// first insert wins and all callers observe that value.
    pub fn get_or_insert_with(&self, key: &K, make: impl FnOnce() -> V) -> V {
        if let Some(hit) = self.get(key) {
            return hit;
        }
        let value = make();
        let mut shard = self.shard(key).write().expect("shard lock poisoned");
        shard.entry(key.clone()).or_insert(value).clone()
    }

    /// Total number of entries across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.read().expect("shard lock poisoned").len())
            .sum()
    }

    /// Whether the map holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<K: Hash + Eq + Clone, V: Clone> Default for ShardedMap<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

/// One evaluation request: a candidate plus the search cycle it belongs to.
#[derive(Debug, Clone)]
pub struct EvalRequest {
    /// The candidate to train and score.
    pub candidate: Candidate,
    /// Search cycle recorded on the resulting [`Evaluated`] (and mixed into
    /// the training seed).
    pub cycle: usize,
}

impl EvalRequest {
    /// Convenience constructor.
    pub fn new(candidate: Candidate, cycle: usize) -> Self {
        Self { candidate, cycle }
    }
}

/// Batch evaluator: cache resolution + deterministic seeding + fan-out.
///
/// Borrow a [`TaskContext`] and call [`EvalEngine::evaluate_batch`] with the
/// cycle's candidates. Results come back in request order, `None` where the
/// static constraints reject a candidate.
#[derive(Debug)]
pub struct EvalEngine<'a> {
    ctx: &'a TaskContext,
    base_seed: u64,
    workers: usize,
}

/// How one request in a batch resolves before the parallel phase.
enum Slot {
    /// Static constraints reject the candidate; nothing is trained.
    Infeasible,
    /// Served from the memo cache (cycle already rewritten).
    Hit(Evaluated),
    /// Needs training; index into the deduped work list.
    Pending(usize),
}

impl<'a> EvalEngine<'a> {
    /// Creates an engine over `ctx`. `workers == 0` selects the machine's
    /// available parallelism.
    pub fn new(ctx: &'a TaskContext, base_seed: u64, workers: usize) -> Self {
        Self {
            ctx,
            base_seed,
            workers: effective_workers(workers),
        }
    }

    /// The resolved worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Evaluates a batch of candidates, in parallel, with memoization.
    ///
    /// Guarantees, independent of the worker count:
    /// * `result[i]` corresponds to `requests[i]`;
    /// * a candidate seen before (this batch or any earlier one on the same
    ///   [`TaskContext`]) reuses its first evaluation instead of retraining;
    /// * a fresh candidate trains with the RNG seed
    ///   [`derive_seed`]`(base_seed, cycle, i)` where `i` is the index of
    ///   its *first* occurrence in this batch.
    pub fn evaluate_batch(&self, requests: &[EvalRequest]) -> Vec<Option<Evaluated>> {
        self.evaluate_batch_checked(requests)
            .into_iter()
            .map(Result::unwrap_or_default)
            .collect()
    }

    /// [`EvalEngine::evaluate_batch`] with panic isolation surfaced: a
    /// candidate whose training panics fails *its* slot with an
    /// [`EvalPanic`] (indexed by request position) while the rest of the
    /// batch completes normally. Poisoned slots are never memoized, so a
    /// later attempt retrains rather than replaying the failure.
    pub fn evaluate_batch_checked(
        &self,
        requests: &[EvalRequest],
    ) -> Vec<Result<Option<Evaluated>, EvalPanic>> {
        // Sequential pass: resolve cache hits and dedupe remaining work.
        let mut first_of: HashMap<&Candidate, usize> = HashMap::new();
        let mut work: Vec<(&EvalRequest, u64)> = Vec::new();
        let slots: Vec<Slot> = requests
            .iter()
            .enumerate()
            .map(|(i, req)| {
                if !self.ctx.satisfies_static(&req.candidate) {
                    return Slot::Infeasible;
                }
                if let Some(mut hit) = self.ctx.cached_evaluation(&req.candidate) {
                    hit.cycle = req.cycle;
                    return Slot::Hit(hit);
                }
                if let Some(&w) = first_of.get(&req.candidate) {
                    return Slot::Pending(w);
                }
                let w = work.len();
                first_of.insert(&req.candidate, w);
                work.push((req, derive_seed(self.base_seed, req.cycle, i)));
                Slot::Pending(w)
            })
            .collect();

        // Parallel pass: train the deduped misses, isolating panics.
        let trained: Vec<Result<Option<Evaluated>, EvalPanic>> =
            try_parallel_map(self.workers, &work, |_, (req, seed)| {
                self.ctx.evaluate_seeded(&req.candidate, req.cycle, *seed)
            });

        // Publish to the memo cache, then assemble in request order.
        for ((req, _), eval) in work.iter().zip(&trained) {
            if let Ok(Some(eval)) = eval {
                self.ctx.store_evaluation(&req.candidate, eval);
            }
        }
        slots
            .into_iter()
            .zip(requests)
            .enumerate()
            .map(|(i, (slot, req))| match slot {
                Slot::Infeasible => Ok(None),
                Slot::Hit(eval) => Ok(Some(eval)),
                Slot::Pending(w) => match &trained[w] {
                    Ok(eval) => Ok(eval.clone().map(|mut eval| {
                        eval.cycle = req.cycle;
                        eval
                    })),
                    Err(panic) => Err(EvalPanic {
                        index: i,
                        message: panic.message.clone(),
                    }),
                },
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sharded_map_round_trips() {
        let map: ShardedMap<u64, String> = ShardedMap::new();
        assert!(map.is_empty());
        for k in 0..100u64 {
            map.insert_if_absent(k, format!("v{k}"));
        }
        assert_eq!(map.len(), 100);
        assert_eq!(map.get(&42), Some("v42".to_string()));
        assert_eq!(map.get(&1000), None);
        // First writer wins.
        map.insert_if_absent(42, "other".to_string());
        assert_eq!(map.get(&42), Some("v42".to_string()));
        assert_eq!(map.get_or_insert_with(&42, || unreachable!()), "v42");
        assert_eq!(
            map.get_or_insert_with(&500, || "fresh".to_string()),
            "fresh"
        );
        assert_eq!(map.get(&500), Some("fresh".to_string()));
    }

    #[test]
    fn derived_seeds_are_stable_and_distinct() {
        let a = derive_seed(0xE7A5, 3, 5);
        assert_eq!(a, derive_seed(0xE7A5, 3, 5), "stable");
        let mut seen = std::collections::HashSet::new();
        for cycle in 0..50 {
            for index in 0..50 {
                seen.insert(derive_seed(0xE7A5, cycle, index));
            }
        }
        assert_eq!(seen.len(), 2500, "no collisions in a search-sized grid");
    }

    #[test]
    fn evaluate_batch_survives_a_poisoned_candidate() {
        use crate::candidate::SensingConfig;
        use crate::task::TaskContext;
        use rand::SeedableRng;

        let ctx = TaskContext::gesture(4, 17);
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        let good_a = ctx.random_candidate(&mut rng);
        let good_b = ctx.random_candidate(&mut rng);
        // An audio-sensing candidate in a gesture context passes the static
        // checks (they only look at the model half) but panics inside the
        // worker when it reaches for the missing KWS corpus — a realistic
        // poisoned candidate.
        let poisoned = Candidate {
            sensing: SensingConfig::Audio(
                solarml_dsp::AudioFrontendParams::new(20, 25, 12).expect("valid params"),
            ),
            spec: good_a.spec.clone(),
        };
        let requests = vec![
            EvalRequest::new(good_a, 0),
            EvalRequest::new(poisoned, 0),
            EvalRequest::new(good_b, 0),
        ];

        let mut per_worker_count = Vec::new();
        for workers in [1, 4] {
            let engine = EvalEngine::new(&ctx, 0xBAD5EED, workers);
            let checked = engine.evaluate_batch_checked(&requests);
            assert!(checked[0].is_ok(), "workers={workers}");
            assert!(checked[2].is_ok(), "workers={workers}");
            match &checked[1] {
                Err(p) => {
                    assert_eq!(p.index, 1);
                    assert!(
                        p.message.contains("not belong to a GestureDigits context"),
                        "{p}"
                    );
                }
                Ok(v) => panic!("poisoned slot must fail, got {v:?}"),
            }
            // The lenient API keeps the run alive with the slot dropped.
            let lenient = engine.evaluate_batch(&requests);
            assert!(lenient[0].is_some() && lenient[2].is_some());
            assert!(lenient[1].is_none());
            per_worker_count.push(lenient);
        }
        assert_eq!(
            per_worker_count[0], per_worker_count[1],
            "panic isolation must not break worker-count determinism"
        );
    }
}
