//! The flock result cache — the server's one keyed store.
//!
//! It keys on the **canonical** program text (normalized variable
//! names, sorted subgoals/rules — see
//! [`qf_core::FlockProgram::canonical_text`]) plus the **read-set
//! fingerprint**: the content fingerprint of exactly the relations the
//! program reads ([`qf_core::FlockProgram::reads`],
//! [`qf_storage::Database::fingerprint_of`]). By §3.1's containment
//! argument an answer is a function of those relations alone, so a hit
//! is impossible against stale data, and an entry stays reachable,
//! untouched, across every commit to a relation it does not read. A
//! commit to one relation visits only the entries that read it
//! ([`ResultCache::maintain`]): the service maintains each in place or
//! drops it. Bulk `load`/`gen` clear the cache.
//!
//! The result cache stores *scored* results — `(params…, aggregate)`
//! rows at the baseline filter they were computed under — which makes
//! reuse **monotone**: a cached run at support `s` answers any request
//! whose filter the baseline [subsumes](FilterCondition::subsumes)
//! (e.g. any `s' ≥ s`) by re-filtering rows, bitwise identically to a
//! cold evaluation.

use std::sync::{Arc, Mutex};

use qf_core::{FilterCondition, FlockDelta};
use qf_storage::Relation;

/// Cache key: canonical query text (threshold excluded — that is what
/// makes one entry serve a family of thresholds) + the aggregate's head
/// position + read-set fingerprint.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Canonical views + query text, no filter.
    pub query: String,
    /// Head position of the filter's aggregate column
    /// ([`qf_core::QueryFlock::agg_head_pos`]; `None` for `COUNT`).
    /// The canonical query text renames head variables, so the raw
    /// aggregate variable can't distinguish `SUM` over different
    /// columns of the same query — the position can, and keeping it in
    /// the key stops such programs evicting each other's entries.
    pub agg_pos: Option<usize>,
    /// The **read-set fingerprint**: [`qf_storage::Database::fingerprint_of`]
    /// over the relations the program reads
    /// ([`qf_core::FlockProgram::reads`]), in the catalog the entry was
    /// computed against — not the whole-catalog fingerprint its name
    /// suggests.
    pub catalog_fp: u64,
}

impl CacheKey {
    /// Does the keyed query read relation `rel`? Matches `rel` as a
    /// whole predicate token of the canonical text — `live` is read by
    /// `live(V0,$1)` but not by `deliveries(V0,$1)` or `alive(V0)`.
    pub fn reads(&self, rel: &str) -> bool {
        let ident = |c: char| c.is_alphanumeric() || c == '_';
        self.query.match_indices(rel).any(|(at, _)| {
            self.query[at + rel.len()..].starts_with('(') && !self.query[..at].ends_with(ident)
        })
    }
}

/// One cached scored evaluation.
#[derive(Clone, Debug)]
pub struct CachedResult {
    /// The filter the scored run was computed under, in **canonical**
    /// form ([`qf_core::QueryFlock::canonical_filter`]: aggregate named
    /// by head position, not raw variable — the key's canonical query
    /// text renames variables, so raw names don't identify columns
    /// across entries); answers any canonical request filter it
    /// subsumes.
    pub baseline: FilterCondition,
    /// `(params…, agg)` rows passing `baseline`.
    pub scored: Relation,
    /// Strategy label of the original run (for response meta).
    pub strategy: String,
    /// Incremental-maintenance handle ([`qf_core::FlockDelta`]), present
    /// exactly when the flock is delta-maintainable. It starts
    /// **unseeded** (free to create, nothing evaluated); the first
    /// `append`/`retract` touching the entry seeds the full counted
    /// answer multiset from the post-batch catalog, and later batches
    /// update it in place instead of dropping the entry. Shared behind
    /// a mutex because [`CachedResult`] is cloned out of the cache on
    /// hit while the mutation path updates the cached copy.
    pub delta: Option<Arc<Mutex<FlockDelta>>>,
}

/// LRU cache of scored flock results with monotone reuse:
/// most-recently-used at the front. Entry counts are small (tens), so
/// linear scans beat hash-map bookkeeping. A [`CacheKey`] names the
/// aggregate's head position but not its kind, so one key holds one
/// entry **per aggregate** (`SUM(answer.W)` and `MIN(answer.W)` over
/// one body live side by side); the baseline's aggregate tells them
/// apart. A capacity of 0 caches nothing.
pub struct ResultCache {
    cap: usize,
    entries: Vec<(CacheKey, CachedResult)>,
}

impl ResultCache {
    /// Cache holding up to `cap` scored results.
    pub fn new(cap: usize) -> ResultCache {
        ResultCache {
            cap,
            entries: Vec::new(),
        }
    }

    /// Look up an entry able to answer `filter` exactly: same key and
    /// a baseline that subsumes the requested condition. `filter` must
    /// be the request flock's *canonical* filter (see
    /// [`CachedResult::baseline`]). Refreshes LRU order on hit.
    pub fn lookup(&mut self, key: &CacheKey, filter: &FilterCondition) -> Option<CachedResult> {
        let pos = self
            .entries
            .iter()
            .position(|(k, v)| k == key && v.baseline.subsumes(filter))?;
        let hit = self.entries.remove(pos);
        self.entries.insert(0, hit);
        Some(self.entries[0].1.clone())
    }

    /// Store a scored result. When an entry for the same aggregate
    /// already exists under the key, keep whichever baseline
    /// **subsumes** the other: a run at a loose threshold answers every
    /// tighter one, so replacing it with a tight-threshold run would
    /// silently narrow cache coverage (the old bug: "most recent
    /// baseline wins"). The survivor still moves to the front —
    /// coverage and recency are separate concerns.
    pub fn insert(&mut self, key: CacheKey, entry: CachedResult) {
        let agg = entry.baseline.agg;
        let old = self
            .entries
            .iter()
            .position(|(k, v)| *k == key && v.baseline.agg == agg)
            .map(|pos| self.entries.remove(pos).1);
        let keep = match old {
            Some(old) if old.baseline.subsumes(&entry.baseline) => old,
            _ => entry,
        };
        self.entries.insert(0, (key, keep));
        self.entries.truncate(self.cap);
    }

    /// Drop everything (bulk catalog mutation).
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Visit the entries whose query [reads](CacheKey::reads) `rel`,
    /// after a commit changed it; every other entry keeps its key, which
    /// the commit did not move. `maintain` updates a visited entry in
    /// place and returns its new read-set fingerprint, or `None` to drop
    /// it.
    pub fn maintain(
        &mut self,
        rel: &str,
        maintain: &mut dyn FnMut(&CacheKey, &mut CachedResult) -> Option<u64>,
    ) {
        self.entries.retain_mut(|(k, v)| {
            if !k.reads(rel) {
                return true;
            }
            match maintain(k, v) {
                Some(fp) => {
                    k.catalog_fp = fp;
                    true
                }
                None => false,
            }
        });
    }

    /// Number of cached results.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qf_storage::{Schema, Value};

    fn key(q: &str, fp: u64) -> CacheKey {
        CacheKey {
            query: q.to_string(),
            agg_pos: None,
            catalog_fp: fp,
        }
    }

    fn entry(support: i64) -> CachedResult {
        CachedResult {
            baseline: FilterCondition::support(support),
            scored: Relation::from_rows(
                Schema::new("scored_result", &["p", "agg"]),
                vec![vec![Value::str("a"), Value::int(5)]],
            ),
            strategy: "static".to_string(),
            delta: None,
        }
    }

    #[test]
    fn maintain_visits_only_entries_reading_the_relation() {
        let mut c = ResultCache::new(8);
        c.insert(key("answer :- baskets(B,I)", 1), entry(2));
        c.insert(key("answer :- dict(W)", 1), entry(2));
        c.insert(key("answer :- baskets(B,I), aux(B)", 3), entry(2));
        // The closure keeps the entry keyed at 1 (re-keyed to 9) and
        // declines the other.
        let mut visited = Vec::new();
        c.maintain("baskets", &mut |k, e| {
            visited.push(k.query.clone());
            (k.catalog_fp == 1).then(|| {
                e.strategy = "delta".to_string();
                9
            })
        });
        visited.sort();
        assert_eq!(
            visited,
            ["answer :- baskets(B,I)", "answer :- baskets(B,I), aux(B)"]
        );
        let hit = c
            .lookup(
                &key("answer :- baskets(B,I)", 9),
                &FilterCondition::support(2),
            )
            .expect("maintained entry must survive re-keyed");
        assert_eq!(hit.strategy, "delta");
        assert!(c
            .lookup(
                &key("answer :- baskets(B,I)", 1),
                &FilterCondition::support(2),
            )
            .is_none());
        // The declined entry is gone; the untouched one keeps its key.
        assert_eq!(c.len(), 2);
        let hit = c
            .lookup(&key("answer :- dict(W)", 1), &FilterCondition::support(2))
            .expect("an entry not reading the relation is left alone");
        assert_eq!(hit.strategy, "static");
    }

    #[test]
    fn reads_matches_whole_predicate_tokens() {
        let k = key(
            "answer(V0) :- deliveries(V0,$1) AND alive(V0) AND live_2(V0)",
            1,
        );
        assert!(k.reads("deliveries"));
        assert!(k.reads("alive"));
        for unrelated in ["live", "a", "deliver", "answer(V0", "V0"] {
            assert!(!k.reads(unrelated), "{unrelated}");
        }
        assert!(key("answer(V0) :- NOT live(V0,$1)", 1).reads("live"));
        assert!(key("live(V0,$1)", 1).reads("live"));
    }

    #[test]
    fn monotone_lookup() {
        let mut c = ResultCache::new(4);
        c.insert(key("q", 1), entry(3));
        // Subsumed thresholds hit; looser ones and other keys miss.
        assert!(c
            .lookup(&key("q", 1), &FilterCondition::support(3))
            .is_some());
        assert!(c
            .lookup(&key("q", 1), &FilterCondition::support(9))
            .is_some());
        assert!(c
            .lookup(&key("q", 1), &FilterCondition::support(2))
            .is_none());
        assert!(c
            .lookup(&key("q", 2), &FilterCondition::support(3))
            .is_none());
        assert!(c
            .lookup(&key("r", 1), &FilterCondition::support(3))
            .is_none());
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut c = ResultCache::new(2);
        c.insert(key("a", 1), entry(1));
        c.insert(key("b", 1), entry(1));
        // Touch `a` so `b` is the LRU victim.
        assert!(c
            .lookup(&key("a", 1), &FilterCondition::support(1))
            .is_some());
        c.insert(key("c", 1), entry(1));
        assert_eq!(c.len(), 2);
        assert!(c
            .lookup(&key("a", 1), &FilterCondition::support(1))
            .is_some());
        assert!(c
            .lookup(&key("b", 1), &FilterCondition::support(1))
            .is_none());
        assert!(c
            .lookup(&key("c", 1), &FilterCondition::support(1))
            .is_some());
    }

    #[test]
    fn reinsert_replaces() {
        let mut c = ResultCache::new(2);
        c.insert(key("a", 1), entry(5));
        c.insert(key("a", 1), entry(2));
        assert_eq!(c.len(), 1);
        // The newer, looser baseline answers support 2.
        assert!(c
            .lookup(&key("a", 1), &FilterCondition::support(2))
            .is_some());
    }

    #[test]
    fn loose_baseline_survives_tight_reinsert() {
        let mut c = ResultCache::new(2);
        // A loose-threshold run (support 2) is cached, then the same
        // query runs at a tight threshold (support 9). The loose entry
        // subsumes the tight one — it must survive, or the cache
        // forgets it can answer supports 2..9.
        c.insert(key("a", 1), entry(2));
        c.insert(key("a", 1), entry(9));
        assert_eq!(c.len(), 1);
        let hit = c
            .lookup(&key("a", 1), &FilterCondition::support(2))
            .expect("loose baseline must survive a tight-threshold insert");
        assert_eq!(hit.baseline, FilterCondition::support(2));
        // And it still answers the tight threshold too.
        assert!(c
            .lookup(&key("a", 1), &FilterCondition::support(9))
            .is_some());
    }

    #[test]
    fn sum_and_min_over_one_body_do_not_evict_each_other() {
        // `SUM(answer.W)` and `MIN(answer.W)` share canonical text and
        // head position — one key — and differ only in the baseline's
        // aggregate.
        let w = qf_storage::Symbol::intern("V1");
        let over = |agg, threshold| CachedResult {
            baseline: FilterCondition {
                agg,
                threshold,
                ..FilterCondition::support(0)
            },
            ..entry(0)
        };
        let (sum, min) = (qf_core::FilterAgg::Sum(w), qf_core::FilterAgg::Min(w));
        let mut c = ResultCache::new(4);
        c.insert(key("q", 1), over(sum, 20));
        c.insert(key("q", 1), over(min, 3));
        assert_eq!(c.len(), 2, "the MIN insert must not evict the SUM entry");
        for (agg, threshold) in [(sum, 20), (min, 3), (sum, 25)] {
            let hit = c
                .lookup(&key("q", 1), &over(agg, threshold).baseline)
                .expect("both aggregates are served");
            assert_eq!(hit.baseline.agg, agg);
        }
        // Within one aggregate the subsumption rule still holds: a
        // looser SUM replaces the tighter one and leaves MIN alone.
        c.insert(key("q", 1), over(sum, 10));
        assert_eq!(c.len(), 2);
        let hit = c.lookup(&key("q", 1), &over(sum, 12).baseline).unwrap();
        assert_eq!(hit.baseline.threshold, 10);
        assert!(c.lookup(&key("q", 1), &over(min, 3).baseline).is_some());
    }
}
