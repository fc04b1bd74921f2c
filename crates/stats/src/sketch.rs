//! Streaming statistics sketches: sublinear heavy-hitter estimates for
//! data too big to rescan — and, at unbounded capacity, the exact
//! statistics maintained by the same code.
//!
//! The paper assumes the heavy hitters and their *approximate* frequencies
//! are simply known ("e.g. using sampling", §1), and the §4.2 bins tolerate
//! constant-factor frequency error by construction. This module realizes
//! that assumption at production scale:
//!
//! * [`SpaceSaving`] — the Metwally–Agrawal–El Abbadi counter summary for
//!   one `(relation, cols)` projection. `O(capacity)` space, `O(1)`
//!   amortized per observed tuple (`O(capacity)` on an eviction, which is
//!   constant in the relation size), deterministic, and mergeable. At
//!   capacity `>= p` it **never misses** a true `m/p`-heavy hitter: an
//!   untracked key's frequency is at most `items/capacity <= m/p`. A
//!   summary that never fills (capacity [`SpaceSaving::UNBOUNDED`]) never
//!   evicts, so every count it reports is exact.
//! * [`RelationSketch`] — the one per-relation statistics state a
//!   resident service maintains next to its catalog: one `SpaceSaving`
//!   per projection the planner has asked about, all advanced in
//!   `O(projections)` per appended tuple — **no relation rescan on
//!   append**. Exact statistics are the same state at unbounded capacity.
//!
//! Every estimate is reported as a [`FreqEstimate`]: the point estimate
//! plus a *guaranteed* error bound and its direction. Planners consume
//! these through the conservative rule pinned by
//! [`FreqEstimate::may_exceed`]: when the error interval straddles the
//! `m_j/p` heaviness threshold, the key is treated as heavy. That only
//! ever moves keys from light to heavy handling — load can shift within
//! the paper's constants, answers never change (every algorithm in this
//! workspace is answer-complete under any heavy classification).
//!
//! ```
//! use mpc_stats::sketch::{ErrorDirection, SpaceSaving};
//!
//! // One heavy key (40 of 100 observations) among many light ones,
//! // summarized in 8 slots instead of a 61-entry frequency map. The
//! // heavy key arrives last, after evictions have begun, so its count
//! // inherits an evicted slot's — an overcount, never an undercount.
//! let mut ss = SpaceSaving::new(8);
//! for k in 0..60u64 {
//!     ss.observe(&[100 + k]);
//! }
//! for _ in 0..40 {
//!     ss.observe(&[7]);
//! }
//!
//! // p = 10 servers → heaviness threshold m/p = 10. The true heavy key
//! // is guaranteed present, its interval `[estimate - error, estimate]`
//! // covering the true count.
//! let est = ss
//!     .estimates()
//!     .into_iter()
//!     .find(|e| e.key == [7])
//!     .expect("capacity >= p never misses a true m/p-heavy hitter");
//! assert_eq!(est.direction, ErrorDirection::Overcount);
//! assert!(est.count_lower() <= 40 && 40 <= est.count_upper());
//! assert!(est.may_exceed(10.0), "treated as heavy — conservatively");
//! ```

use mpc_data::fastmap::FastMap;
use mpc_data::relation::{record_stats_scan_bytes, Relation};

/// Which side of the true count an estimate can err on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorDirection {
    /// `estimate == true count` (error bound is 0).
    Exact,
    /// `true count ∈ [estimate - error_bound, estimate]` (SpaceSaving).
    Overcount,
    /// `true count ∈ [estimate - error_bound, estimate + error_bound]`
    /// (Bernoulli sampling).
    Symmetric,
}

/// One frequency estimate with a guaranteed error interval.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FreqEstimate {
    /// The projected assignment (in the projection's `cols` order).
    pub key: Vec<u64>,
    /// Point estimate of `m_j(h_j)`.
    pub estimate: usize,
    /// Guaranteed error bound in the direction(s) of `direction`.
    pub error_bound: usize,
    /// Which side(s) of the truth the estimate can sit on.
    pub direction: ErrorDirection,
}

impl FreqEstimate {
    /// An estimate that is known exactly (error bound 0).
    pub fn exact(key: Vec<u64>, count: usize) -> FreqEstimate {
        FreqEstimate {
            key,
            estimate: count,
            error_bound: 0,
            direction: ErrorDirection::Exact,
        }
    }

    /// Smallest count consistent with the estimate and its bound.
    pub fn count_lower(&self) -> usize {
        match self.direction {
            ErrorDirection::Exact => self.estimate,
            ErrorDirection::Overcount | ErrorDirection::Symmetric => {
                self.estimate.saturating_sub(self.error_bound)
            }
        }
    }

    /// Largest count consistent with the estimate and its bound.
    pub fn count_upper(&self) -> usize {
        match self.direction {
            ErrorDirection::Exact | ErrorDirection::Overcount => self.estimate,
            ErrorDirection::Symmetric => self.estimate.saturating_add(self.error_bound),
        }
    }

    /// Conservative heaviness test — the **pinned fallback rule**: true as
    /// soon as *any* count consistent with the bound exceeds `threshold`,
    /// i.e. whenever the error interval straddles it. Planners classify
    /// `may_exceed` keys as heavy; see the module docs for why that is
    /// always safe.
    pub fn may_exceed(&self, threshold: f64) -> bool {
        self.count_upper() as f64 > threshold
    }

    /// Certain heaviness: even the smallest consistent count exceeds
    /// `threshold`.
    pub fn must_exceed(&self, threshold: f64) -> bool {
        self.count_lower() as f64 > threshold
    }
}

/// One tracked counter of a [`SpaceSaving`] summary.
#[derive(Clone, Debug)]
struct Slot {
    key: Vec<u64>,
    /// Overestimated count: `true ∈ [count - over, count]`.
    count: u64,
    /// Maximum possible overcount (the evicted minimum inherited at
    /// takeover, plus merge slack).
    over: u64,
}

impl Slot {
    fn estimate(&self) -> FreqEstimate {
        FreqEstimate {
            key: self.key.clone(),
            estimate: self.count as usize,
            error_bound: self.over as usize,
            direction: if self.over == 0 {
                ErrorDirection::Exact
            } else {
                ErrorDirection::Overcount
            },
        }
    }
}

/// SpaceSaving heavy-hitter summary (Metwally et al., "Efficient
/// computation of frequent and top-k elements in data streams").
///
/// Deterministic: identical observation sequences produce identical
/// summaries (eviction ties break on the lowest slot index, and slot order
/// is a pure function of the stream).
#[derive(Clone, Debug)]
pub struct SpaceSaving {
    capacity: usize,
    /// key -> slot index.
    index: FastMap<Vec<u64>, usize>,
    slots: Vec<Slot>,
    /// Total observations (`Σ true counts`).
    items: u64,
}

impl SpaceSaving {
    /// The capacity of a summary that never fills: it tracks every key it
    /// has seen, never evicts, and so reports exact counts
    /// ([`ErrorDirection::Exact`], error bound 0) — exact statistics as
    /// the zero-error instance of the sketch.
    pub const UNBOUNDED: usize = usize::MAX;

    /// New summary tracking at most `capacity` keys (`capacity >= 1`).
    pub fn new(capacity: usize) -> SpaceSaving {
        assert!(capacity >= 1, "SpaceSaving needs capacity >= 1");
        SpaceSaving {
            capacity,
            index: FastMap::default(),
            // A bounded summary fills up, so its slots are reserved once;
            // an unbounded one grows with the keys it meets.
            slots: if capacity == Self::UNBOUNDED {
                Vec::new()
            } else {
                Vec::with_capacity(capacity)
            },
            items: 0,
        }
    }

    /// Count one occurrence of `key`. `O(1)` amortized; `O(capacity)` when
    /// a new key evicts the current minimum — constant in the stream
    /// length, which is what makes the summary sublinear to maintain.
    pub fn observe(&mut self, key: &[u64]) {
        self.items += 1;
        if let Some(&i) = self.index.get(key) {
            self.slots[i].count += 1;
            return;
        }
        if self.slots.len() < self.capacity {
            self.index.insert(key.to_vec(), self.slots.len());
            self.slots.push(Slot {
                key: key.to_vec(),
                count: 1,
                over: 0,
            });
            return;
        }
        // Evict the minimum (first such slot: deterministic) and let the
        // new key inherit its count as overcount slack.
        let i = self.min_slot();
        let evicted = std::mem::replace(&mut self.slots[i].key, key.to_vec());
        self.index.remove(&evicted);
        self.index.insert(key.to_vec(), i);
        self.slots[i].over = self.slots[i].count;
        self.slots[i].count += 1;
    }

    fn min_slot(&self) -> usize {
        let mut best = 0;
        for (i, s) in self.slots.iter().enumerate().skip(1) {
            if s.count < self.slots[best].count {
                best = i;
            }
        }
        best
    }

    /// Number of tracked keys (`<= capacity`).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True iff nothing has been tracked yet.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total observations fed into the summary.
    pub fn items(&self) -> u64 {
        self.items
    }

    /// The smallest tracked count — an upper bound on the true frequency
    /// of **every untracked key** (0 while the summary is not full).
    pub fn min_count(&self) -> u64 {
        if self.slots.len() < self.capacity {
            0
        } else {
            self.slots.iter().map(|s| s.count).min().unwrap_or(0)
        }
    }

    /// Best-known count of `key`: its tracked (over)estimate — the
    /// [`FreqEstimate::count_upper`] of its entry in
    /// [`SpaceSaving::estimates`] — or 0 when the key is not tracked. One
    /// index probe, no allocation.
    pub fn count(&self, key: &[u64]) -> usize {
        self.index
            .get(key)
            .map_or(0, |&i| self.slots[i].count as usize)
    }

    /// The largest per-entry overcount bound (telemetry).
    pub fn max_over(&self) -> u64 {
        self.slots.iter().map(|s| s.over).max().unwrap_or(0)
    }

    /// All tracked estimates, sorted by key (deterministic output order).
    pub fn estimates(&self) -> Vec<FreqEstimate> {
        let mut out: Vec<FreqEstimate> = self.slots.iter().map(Slot::estimate).collect();
        out.sort_by(|a, b| a.key.cmp(&b.key));
        out
    }

    /// Tracked keys that [`FreqEstimate::may_exceed`] `threshold` — the
    /// conservative heavy superset, sorted by key. At capacity `>= p` and
    /// `threshold = items/p` this contains every true heavy hitter.
    pub fn heavy_hitters(&self, threshold: f64) -> Vec<FreqEstimate> {
        let mut out: Vec<FreqEstimate> = self
            .slots
            .iter()
            .filter(|s| (s.count as f64) > threshold)
            .map(Slot::estimate)
            .collect();
        out.sort_by(|a, b| a.key.cmp(&b.key));
        out
    }

    /// Merge `other` into `self` (both summaries over disjoint substreams
    /// of one logical stream). For every key in the union the counts and
    /// overcount bounds add, with an absent side contributing its
    /// `min_count` to both (the standard mergeable-summary rule); the
    /// heaviest `capacity` keys survive, ties broken by key order.
    pub fn merge(&mut self, other: &SpaceSaving) {
        let self_min = self.min_count();
        let other_min = other.min_count();
        let mut combined: FastMap<Vec<u64>, (u64, u64)> = FastMap::default();
        for s in &self.slots {
            combined.insert(s.key.clone(), (s.count, s.over));
        }
        for s in &other.slots {
            let e = combined
                .entry(s.key.clone())
                .or_insert((self_min, self_min));
            e.0 += s.count;
            e.1 += s.over;
        }
        // Keys tracked here but not there: the other side may still have
        // seen them up to its min_count times.
        for s in &mut combined.iter_mut() {
            if !other.index.contains_key(s.0) {
                s.1 .0 += other_min;
                s.1 .1 += other_min;
            }
        }
        let mut entries: Vec<(Vec<u64>, (u64, u64))> = combined.into_iter().collect();
        entries.sort_by(|a, b| b.1 .0.cmp(&a.1 .0).then_with(|| a.0.cmp(&b.0)));
        entries.truncate(self.capacity);
        self.items += other.items;
        self.index.clear();
        self.slots.clear();
        for (key, (count, over)) in entries {
            self.index.insert(key.clone(), self.slots.len());
            self.slots.push(Slot { key, count, over });
        }
    }

    /// Resident byte accounting: slot storage plus index keys (an
    /// estimate, not an allocator measurement — deterministic across
    /// hosts).
    pub fn bytes(&self) -> usize {
        self.slots
            .iter()
            .map(|s| 2 * (s.key.len() * 8) + 24)
            .sum::<usize>()
    }
}

/// The statistics state a resident catalog keeps per relation: one
/// [`SpaceSaving`] per projection the planner has asked about. At capacity
/// [`SpaceSaving::UNBOUNDED`] every answer is exact; at a bounded capacity
/// the same code answers from `O(capacity)` state with guaranteed error
/// bounds.
///
/// Appends are `O(registered projections)` per tuple and never rescan the
/// relation; registering a *new* projection over already-resident data
/// costs one backfill scan (taxed to the same meter as exact statistics,
/// [`mpc_data::relation::stats_scan_bytes_total`]).
#[derive(Clone, Debug)]
pub struct RelationSketch {
    arity: usize,
    rows: u64,
    capacity: usize,
    projections: FastMap<Vec<usize>, SpaceSaving>,
}

impl RelationSketch {
    /// New empty sketch for an `arity`-column relation; per-projection
    /// summaries will track `capacity` keys. For the no-miss guarantee at
    /// `p` servers, pick `capacity >= p`.
    pub fn new(arity: usize, capacity: usize) -> RelationSketch {
        assert!(arity > 0);
        RelationSketch {
            arity,
            rows: 0,
            capacity: capacity.max(1),
            projections: FastMap::default(),
        }
    }

    /// Sketch an existing relation (one scan — the load-time cost, taxed
    /// to the stats-scan meter; appends after this are incremental).
    pub fn of(rel: &Relation, capacity: usize) -> RelationSketch {
        let mut sk = RelationSketch::new(rel.arity(), capacity);
        record_stats_scan_bytes(rel.len() as u64 * rel.arity() as u64 * 8);
        for row in rel.rows() {
            sk.observe_row(row);
        }
        sk
    }

    /// Tuples observed so far (`= m_j` when fed every ingested tuple).
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// Per-projection tracking capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of registered projections (telemetry).
    pub fn tracked_projections(&self) -> usize {
        self.projections.len()
    }

    /// Ensure a `cols` projection is tracked, backfilling from `rel` (one
    /// scan, taxed to the stats-scan meter) when it is new. `rel` must be
    /// the relation this sketch has been fed from.
    pub fn ensure_projection(&mut self, rel: &Relation, cols: &[usize]) {
        if self.projections.contains_key(cols) {
            return;
        }
        record_stats_scan_bytes(rel.len() as u64 * rel.arity() as u64 * 8);
        let mut ss = SpaceSaving::new(self.capacity);
        let mut key = vec![0u64; cols.len()];
        for row in rel.rows() {
            for (slot, &c) in key.iter_mut().zip(cols) {
                *slot = row[c];
            }
            ss.observe(&key);
        }
        self.projections.insert(cols.to_vec(), ss);
    }

    /// Feed appended tuples (row-major flat, as handed to
    /// `Relation::push_rows`). `O(projections)` per tuple — **no rescan**.
    ///
    /// # Panics
    /// Panics when `flat.len()` is not a multiple of the arity.
    pub fn append_rows(&mut self, flat: &[u64]) {
        assert_eq!(flat.len() % self.arity, 0, "flat data not row-aligned");
        for row in flat.chunks_exact(self.arity) {
            self.observe_row(row);
        }
    }

    fn observe_row(&mut self, row: &[u64]) {
        self.rows += 1;
        for (cols, ss) in self.projections.iter_mut() {
            let key: Vec<u64> = cols.iter().map(|&c| row[c]).collect();
            ss.observe(&key);
        }
    }

    /// The tracked summary at `cols`, if registered.
    pub fn projection(&self, cols: &[usize]) -> Option<&SpaceSaving> {
        self.projections.get(cols)
    }

    /// Conservative heavy hitters of the `cols` projection at the paper's
    /// `m/p` threshold (`None` when the projection is not registered).
    pub fn heavy_hitters(&self, cols: &[usize], p: usize) -> Option<Vec<FreqEstimate>> {
        let ss = self.projections.get(cols)?;
        let threshold = self.rows as f64 / p as f64;
        Some(ss.heavy_hitters(threshold))
    }

    /// Best-known count of `key` in the `cols` projection — see
    /// [`SpaceSaving::count`] (`None` when the projection is not
    /// registered).
    pub fn frequency(&self, cols: &[usize], key: &[u64]) -> Option<usize> {
        self.projection(cols).map(|ss| ss.count(key))
    }

    /// Resident bytes across all summaries (telemetry).
    pub fn bytes(&self) -> usize {
        self.projections.values().map(|s| s.bytes()).sum()
    }

    /// Largest per-entry overcount bound across projections (telemetry:
    /// the worst guaranteed error of any reported estimate).
    pub fn max_error_bound(&self) -> u64 {
        self.projections
            .values()
            .map(|s| s.max_over())
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpc_data::rng::Rng;
    use mpc_data::zipf::Zipf;

    #[test]
    fn spacesaving_is_exact_below_capacity() {
        let mut ss = SpaceSaving::new(8);
        for _ in 0..5 {
            ss.observe(&[1]);
        }
        for _ in 0..3 {
            ss.observe(&[2]);
        }
        let est = ss.estimates();
        assert_eq!(est.len(), 2);
        assert_eq!(est[0], FreqEstimate::exact(vec![1], 5));
        assert_eq!(est[1], FreqEstimate::exact(vec![2], 3));
        assert_eq!(ss.min_count(), 0, "not full: untracked keys are absent");
    }

    #[test]
    fn spacesaving_bounds_hold_under_eviction() {
        // 3 slots, 6 distinct keys: counts must overestimate within `over`.
        let mut ss = SpaceSaving::new(3);
        let stream: Vec<u64> = vec![1, 1, 1, 1, 2, 3, 4, 2, 5, 6, 1, 2];
        let mut truth: FastMap<Vec<u64>, usize> = FastMap::default();
        for v in stream {
            ss.observe(&[v]);
            *truth.entry(vec![v]).or_insert(0) += 1;
        }
        assert_eq!(ss.items(), 12);
        for e in ss.estimates() {
            let t = truth[&e.key];
            assert!(
                e.count_lower() <= t && t <= e.count_upper(),
                "true {t} outside [{}, {}] for {:?}",
                e.count_lower(),
                e.count_upper(),
                e.key
            );
        }
        // Untracked keys: bounded by min_count.
        for (key, &t) in &truth {
            if ss.estimates().iter().all(|e| &e.key != key) {
                assert!(t as u64 <= ss.min_count());
            }
        }
    }

    #[test]
    fn spacesaving_never_misses_heavy_at_capacity_p() {
        // Zipf stream, capacity = p: every true m/p-heavy hitter tracked.
        let p = 16usize;
        let mut rng = Rng::seed_from_u64(7);
        let zipf = Zipf::new(1 << 10, 1.3);
        let mut ss = SpaceSaving::new(p);
        let mut truth: FastMap<Vec<u64>, usize> = FastMap::default();
        let m = 20_000usize;
        for _ in 0..m {
            let v = zipf.sample(&mut rng);
            ss.observe(&[v]);
            *truth.entry(vec![v]).or_insert(0) += 1;
        }
        let threshold = m as f64 / p as f64;
        let reported = ss.heavy_hitters(threshold);
        for (key, &t) in &truth {
            if t as f64 > threshold {
                assert!(
                    reported.iter().any(|e| &e.key == key),
                    "missed true heavy hitter {key:?} (freq {t})"
                );
            }
        }
        // And the superset is conservative: every reported estimate's
        // interval really contains its true count.
        for e in &reported {
            let t = truth.get(&e.key).copied().unwrap_or(0);
            assert!(e.count_lower() <= t && t <= e.count_upper());
        }
    }

    #[test]
    fn spacesaving_merge_preserves_bounds() {
        let mut rng = Rng::seed_from_u64(3);
        let zipf = Zipf::new(256, 1.2);
        let mut a = SpaceSaving::new(8);
        let mut b = SpaceSaving::new(8);
        let mut truth: FastMap<Vec<u64>, usize> = FastMap::default();
        for i in 0..4000 {
            let v = zipf.sample(&mut rng);
            if i % 2 == 0 { &mut a } else { &mut b }.observe(&[v]);
            *truth.entry(vec![v]).or_insert(0) += 1;
        }
        a.merge(&b);
        assert_eq!(a.items(), 4000);
        for e in a.estimates() {
            let t = truth.get(&e.key).copied().unwrap_or(0);
            assert!(
                e.count_lower() <= t && t <= e.count_upper(),
                "merged bound violated for {:?}: true {t} not in [{}, {}]",
                e.key,
                e.count_lower(),
                e.count_upper()
            );
        }
    }

    #[test]
    fn relation_sketch_appends_without_rescan() {
        use mpc_data::relation::stats_scan_bytes_total;
        let mut rel = Relation::new("S", 2);
        for i in 0..100u64 {
            rel.push(&[i % 4, i]);
        }
        let mut sk = RelationSketch::of(&rel, 8);
        sk.ensure_projection(&rel, &[0]);
        let before = stats_scan_bytes_total();
        for i in 0..50u64 {
            let row = [i % 4, 1000 + i];
            rel.push(&row);
            sk.append_rows(&row);
        }
        assert_eq!(
            stats_scan_bytes_total(),
            before,
            "appends must not rescan the relation"
        );
        assert_eq!(sk.rows(), 150);
        // The projection kept exact counts (4 distinct keys < capacity 8).
        let hh = sk.heavy_hitters(&[0], 4).unwrap();
        let exact = rel.frequencies(&[0]);
        for e in &hh {
            assert_eq!(e.estimate, exact[&e.key]);
            assert_eq!(e.direction, ErrorDirection::Exact);
        }
    }

    #[test]
    fn incremental_matches_fresh_scan_under_random_appends() {
        // Exact statistics are the sketch at unbounded capacity: after any
        // sequence of appends, every registered projection answers exactly
        // what a fresh scan + threshold would — keys, counts, direction.
        let mut rng = Rng::seed_from_u64(42);
        let mut rel = Relation::new("S", 2);
        let mut sk = RelationSketch::of(&rel, SpaceSaving::UNBOUNDED);
        sk.ensure_projection(&rel, &[1]);
        sk.ensure_projection(&rel, &[0, 1]);
        for round in 0..20 {
            let nrows = 1 + (rng.next_u64() % 40) as usize;
            // Skewed small domain so heavy sets actually change.
            let flat: Vec<u64> = (0..nrows)
                .flat_map(|_| [rng.next_u64() % 32, rng.next_u64() % 8])
                .collect();
            rel.push_rows(&flat);
            sk.append_rows(&flat);
            assert_eq!(sk.rows(), rel.len() as u64);
            for cols in [vec![1usize], vec![0usize, 1]] {
                let freq = rel.frequencies(&cols);
                for (key, &count) in &freq {
                    assert_eq!(sk.frequency(&cols, key), Some(count));
                }
                assert_eq!(sk.projection(&cols).unwrap().len(), freq.len());
                for p in [2usize, 4, 8] {
                    let threshold = rel.len() as f64 / p as f64;
                    let mut expect: Vec<FreqEstimate> = freq
                        .iter()
                        .filter(|(_, &c)| c as f64 > threshold)
                        .map(|(k, &c)| FreqEstimate::exact(k.clone(), c))
                        .collect();
                    expect.sort_by(|a, b| a.key.cmp(&b.key));
                    assert_eq!(
                        sk.heavy_hitters(&cols, p).unwrap(),
                        expect,
                        "p={p} round={round} cols={cols:?}: heavy drift"
                    );
                }
            }
        }
        assert_eq!(sk.max_error_bound(), 0);
    }

    #[test]
    fn relation_sketch_matches_exact_heavy_set_with_headroom() {
        let mut rng = Rng::seed_from_u64(11);
        let zipf = Zipf::new(512, 1.4);
        let mut rel = Relation::new("S", 2);
        for i in 0..8000u64 {
            rel.push(&[i, zipf.sample(&mut rng)]);
        }
        let p = 8usize;
        let sk = {
            let mut sk = RelationSketch::of(&rel, 4 * p);
            sk.ensure_projection(&rel, &[1]);
            sk
        };
        let threshold = rel.len() as f64 / p as f64;
        let exact: Vec<Vec<u64>> = {
            let mut v: Vec<Vec<u64>> = rel
                .frequencies(&[1])
                .into_iter()
                .filter(|(_, c)| *c as f64 > threshold)
                .map(|(k, _)| k)
                .collect();
            v.sort();
            v
        };
        let sketched: Vec<Vec<u64>> = sk
            .heavy_hitters(&[1], p)
            .unwrap()
            .into_iter()
            .map(|e| e.key)
            .collect();
        // Conservative superset that contains every exact heavy hitter.
        for k in &exact {
            assert!(sketched.contains(k), "missed exact heavy hitter {k:?}");
        }
        assert!(sk.bytes() > 0);
    }

    #[test]
    fn freq_estimate_interval_semantics() {
        let e = FreqEstimate {
            key: vec![1],
            estimate: 100,
            error_bound: 10,
            direction: ErrorDirection::Overcount,
        };
        assert_eq!((e.count_lower(), e.count_upper()), (90, 100));
        assert!(e.may_exceed(95.0) && !e.must_exceed(95.0));
        assert!(!e.may_exceed(100.0));
        assert!(e.must_exceed(89.0));
        let s = FreqEstimate {
            key: vec![2],
            estimate: 100,
            error_bound: 10,
            direction: ErrorDirection::Symmetric,
        };
        assert_eq!((s.count_lower(), s.count_upper()), (90, 110));
        assert!(s.may_exceed(105.0) && !s.must_exceed(91.0));
    }
}
