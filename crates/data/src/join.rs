//! A local (single-machine) multiway join with cardinality-guided dynamic
//! variable ordering.
//!
//! Every MPC algorithm in this workspace reshuffles tuples and then has each
//! server evaluate the query on its fragment; this module is that local
//! evaluator, and doubles as the sequential ground truth the distributed
//! answers are verified against.
//!
//! There is one entry point, the [`Join`] builder: `Join::new(query,
//! &relations)` (or `Join::of(&database)`, or one bucket of a
//! [`partition_join`] via [`PartitionedJoin::bucket`]), optionally
//! `.order(..)` and `.budget(..)`, then one of three sinks —
//! [`Join::for_each`] (every distinct binding with its multiplicity; the
//! evaluator the other two are written on), [`Join::count`], or
//! [`Join::answers`]. An evaluation without a budget *is* the budgeted
//! evaluation with nothing to check, not a second code path.
//!
//! Two engines share the CSR [`JoinIndex`] and are selected by
//! [`JoinOrder`]:
//!
//! * [`JoinOrder::Dynamic`] (the default) is a worst-case-optimal-leaning
//!   evaluator in the Atreides family: it binds one *variable* at a time
//!   instead of one atom at a time. Every atom tracks an O(1) cardinality
//!   bound for its current candidate set — `candidates(key).len()` once any
//!   of its positions are bound, the per-value group count of a lazily
//!   built [`JoinIndex`] before that — and at every depth the evaluator
//!   picks the unbound variable whose **max-over-atoms** bound is smallest,
//!   then enumerates that variable's values from the atom with the
//!   *smallest* candidate set (the driver), intersecting the remaining
//!   atoms' candidate slices against each value. Tiny candidate sets
//!   (≤ `SCAN_THRESHOLD` rows) are filtered by scanning instead of
//!   re-indexing, and the *last* unbound variable is resolved by a
//!   leapfrog-style sorted-merge intersection of the sharing atoms' value
//!   lists — no per-value index probes at the leaf. HyperCube routing
//!   balances skew *across* servers; this
//!   ordering absorbs the skew that survives *inside* a server's subcube,
//!   where a fixed order can be quadratically off on a locally heavy value.
//! * [`JoinOrder::Fixed`] is the legacy greedy backtracking join — atoms
//!   ordered up front by `atom_order`, one hash index per atom keyed on
//!   its already-bound positions, bindings extended depth-first one *row*
//!   at a time. It is kept alive as the independent differential baseline:
//!   the oracle joins run it, so every verification pass is a
//!   dynamic-vs-fixed comparison.
//!
//! Both engines produce the same answer *multiset* (the dynamic engine
//! emits each distinct binding once with its multiplicity — the product of
//! the per-atom candidate counts — which is exactly the number of row
//! combinations deriving it), and both report a [`JoinStats`] probe of the
//! bindings they explored, also accumulated process-wide for the bench
//! harness via [`visited_bindings_total`].

use crate::answers::AnswerSet;
use crate::budget::{BudgetExceeded, QueryBudget, CHECK_INTERVAL};
use crate::catalog::Database;
use crate::failpoint;
use crate::relation::Relation;
use crate::rng::mix64;
use mpc_query::{Query, VarSet};
use std::borrow::Cow;
use std::sync::atomic::{AtomicU64, Ordering};

/// Which variable-ordering engine evaluates a local join.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum JoinOrder {
    /// Cardinality-guided dynamic ordering (the default): at every depth
    /// bind the unbound variable with the smallest max-over-atoms candidate
    /// bound, enumerating its values from the smallest candidate set.
    #[default]
    Dynamic,
    /// The legacy greedy fixed atom order (`atom_order`): deterministic,
    /// kept as the differential baseline the oracle joins run.
    Fixed,
}

/// Exploration counters reported by one join evaluation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct JoinStats {
    /// Candidate bindings explored: one per candidate row iterated by the
    /// fixed engine, one per driver row (root) or distinct driver value
    /// (deeper levels) tried by the dynamic engine. Comparable across
    /// engines — both count every partial binding they materialize.
    pub bindings_visited: u64,
}

/// Process-wide accumulator behind [`visited_bindings_total`].
static VISITED_TOTAL: AtomicU64 = AtomicU64::new(0);

/// Total bindings visited by every join evaluated in this process (all
/// threads, both engines). The bench harness samples it around a run to
/// report `bindings_per_iter` next to `allocs_per_iter`; deltas of this
/// counter are meaningful, absolute values are not.
pub fn visited_bindings_total() -> u64 {
    VISITED_TOTAL.load(Ordering::Relaxed)
}

/// The per-evaluation probe threaded through both engines: the visited
/// counter, plus an optional cooperative [`QueryBudget`] polled every
/// [`CHECK_INTERVAL`] bindings. Untracked (no [`Join::budget`]) the check
/// threshold is `u64::MAX`, so the budget machinery costs one always-false
/// predicted compare per binding.
struct JoinProbe<'a> {
    visited: u64,
    next_check: u64,
    budget: Option<&'a QueryBudget>,
}

impl<'a> JoinProbe<'a> {
    /// Probe with no budget: counts bindings, never polls.
    fn untracked() -> JoinProbe<'static> {
        JoinProbe {
            visited: 0,
            next_check: u64::MAX,
            budget: None,
        }
    }

    /// Probe polling `budget` every [`CHECK_INTERVAL`] visited bindings.
    fn budgeted(budget: &'a QueryBudget) -> JoinProbe<'a> {
        JoinProbe {
            visited: 0,
            next_check: CHECK_INTERVAL,
            budget: Some(budget),
        }
    }

    #[inline]
    fn bump(&mut self) {
        self.visited += 1;
        if self.visited >= self.next_check {
            self.poll();
        }
    }

    #[inline]
    fn bump_by(&mut self, n: u64) {
        self.visited += n;
        if self.visited >= self.next_check {
            self.poll();
        }
    }

    /// Slow path of the cooperative check. A violated budget unwinds with
    /// a typed [`BudgetExceeded`] payload that [`Join::for_each`] catches
    /// and converts back into an `Err`;
    /// the join keeps no cross-evaluation state, so the unwind cannot
    /// poison anything (scratch is owned by this evaluation's stack).
    #[cold]
    fn poll(&mut self) {
        self.next_check = self.visited.saturating_add(CHECK_INTERVAL);
        if let Some(b) = self.budget {
            if let Err(e) = b.poll() {
                std::panic::panic_any(e);
            }
        }
    }
}

/// Compute the greedy fixed atom order. The selection key is fully
/// deterministic, in priority order:
///
/// 1. **maximal overlap** with already-bound variables (at step 0 every
///    overlap is zero, so the first pick is purely by size);
/// 2. **minimal relation size**;
/// 3. **minimal atom index** — the first candidate atom scanned wins every
///    remaining tie, so equal-size relations always order by their position
///    in the query and plans/benches are reproducible.
fn atom_order(query: &Query, relations: &[&Relation]) -> Vec<usize> {
    let l = query.num_atoms();
    let mut order = Vec::with_capacity(l);
    let mut used = vec![false; l];
    let mut bound = VarSet::EMPTY;
    for _ in 0..l {
        // (overlap, size) of the best atom so far; strict comparisons keep
        // the lowest atom index on full ties.
        let mut best: Option<(usize, usize, usize)> = None;
        for j in 0..l {
            if used[j] {
                continue;
            }
            let overlap = query.atom(j).var_set().intersect(bound).len();
            let size = relations[j].len();
            let better = match best {
                None => true,
                Some((_, bo, bs)) => overlap > bo || (overlap == bo && size < bs),
            };
            if better {
                best = Some((j, overlap, size));
            }
        }
        let (j, _, _) = best.expect("an unused atom always exists");
        used[j] = true;
        bound = bound.union(query.atom(j).var_set());
        order.push(j);
    }
    order
}

/// Hash-chain key for the [`JoinIndex`] (fixed: index lookups must hash
/// exactly like index construction).
const INDEX_SALT: u64 = 0x4cf5_ad43_2745_937f;

/// Sentinel for an empty open-addressing slot.
const EMPTY_SLOT: u32 = u32::MAX;

/// Guard for the index's `u32` row-id space: building a [`JoinIndex`] over
/// a relation with ≥ `u32::MAX` rows would silently truncate row ids, so
/// construction fails loudly instead.
fn assert_indexable(name: &str, rows: usize) {
    assert!(
        (rows as u64) < u32::MAX as u64,
        "relation {name:?} has {rows} rows, which exceeds the u32 row-id space of JoinIndex"
    );
}

/// A CSR-grouped hash index over one relation: row ids grouped by the
/// values at `key_cols`, stored as one contiguous `offsets + row_ids`
/// arena. Construction is two passes over the rows — keys are hashed
/// inline via [`mix64`] and resolved through an
/// open-addressing group table, with **no per-key allocation** (the legacy
/// `HashMap<Vec<u64>, Vec<u32>>` paid one key `Vec` plus one bucket `Vec`
/// per distinct key) and every array sized once. [`JoinIndex::candidates`]
/// returns the group's row-id slice, in ascending row order, exactly
/// matching the legacy buckets.
///
/// ```
/// use mpc_data::join::JoinIndex;
/// use mpc_data::Relation;
///
/// let rel = Relation::from_rows("S", 2, &[&[1, 5], &[2, 5], &[3, 6]]);
/// let idx = JoinIndex::build(&rel, vec![1]);
/// assert_eq!(idx.candidates(&[5]), &[0, 1]);
/// assert_eq!(idx.candidates(&[6]), &[2]);
/// assert_eq!(idx.candidates(&[7]), &[] as &[u32]);
/// assert_eq!(idx.num_groups(), 2);
/// ```
pub struct JoinIndex<'a> {
    relation: &'a Relation,
    /// Attribute positions forming the key (may be empty: full scan —
    /// every row is one group).
    key_cols: Vec<usize>,
    /// Group boundaries within `row_ids`: group `g` spans
    /// `row_ids[offsets[g]..offsets[g + 1]]`.
    offsets: Vec<u32>,
    /// Row ids, grouped by key, ascending within each group.
    row_ids: Vec<u32>,
    /// Open-addressing table: slot → group id (`EMPTY_SLOT` = free). The
    /// group's key is read back from its first row, so no key is stored.
    slots: Vec<u32>,
    /// Each group's key hash, dense by group id: a probe compares this one
    /// word before it chases `offsets → row_ids → row` to confirm the key.
    group_hash: Vec<u64>,
    /// `slots.len() - 1` (the table size is a power of two).
    mask: usize,
}

impl<'a> JoinIndex<'a> {
    /// Build the index of `relation` keyed on `key_cols`.
    ///
    /// # Panics
    /// Panics when the relation has ≥ `u32::MAX` rows — row ids are stored
    /// as `u32` and would otherwise silently truncate.
    pub fn build(relation: &'a Relation, key_cols: Vec<usize>) -> JoinIndex<'a> {
        let n = relation.len();
        assert_indexable(relation.name(), n);
        if key_cols.is_empty() || n == 0 {
            // One group holding every row (or no rows): candidates() for
            // the empty key returns the full scan.
            return JoinIndex {
                relation,
                key_cols,
                offsets: vec![0, n as u32],
                row_ids: (0..n as u32).collect(),
                slots: Vec::new(),
                group_hash: Vec::new(),
                mask: 0,
            };
        }

        // Pass 1: resolve each row to a group id via the open-addressing
        // table; count group sizes into `offsets[g + 1]`. There are at most
        // `n` groups, so nothing here grows.
        let cap = (n * 2).next_power_of_two().max(8);
        let mask = cap - 1;
        let mut slots = vec![EMPTY_SLOT; cap];
        let mut group_rep: Vec<u32> = Vec::with_capacity(n); // first row of each group
        let mut group_hash: Vec<u64> = Vec::with_capacity(n);
        let mut row_group: Vec<u32> = Vec::with_capacity(n);
        let mut offsets: Vec<u32> = Vec::with_capacity(n + 1);
        offsets.push(0);
        for (i, row) in relation.rows().enumerate() {
            let h = hash_cols(row, &key_cols);
            let mut s = (h as usize) & mask;
            let g = loop {
                match slots[s] {
                    EMPTY_SLOT => {
                        let g = group_rep.len() as u32;
                        slots[s] = g;
                        group_rep.push(i as u32);
                        group_hash.push(h);
                        offsets.push(0);
                        break g;
                    }
                    g if group_hash[g as usize] == h
                        && rows_key_equal(relation, group_rep[g as usize], row, &key_cols) =>
                    {
                        break g;
                    }
                    _ => s = (s + 1) & mask,
                }
            };
            offsets[g as usize + 1] += 1;
            row_group.push(g);
        }

        // Pass 2: prefix-sum the counts so `offsets[g + 1]` is where group
        // `g` starts, scatter row ids through it in ascending row order (so
        // each group's slice is ascending, matching the insertion order of
        // the legacy per-key buckets) — which advances it to where `g` ends.
        let mut acc = 0u32;
        for slot in &mut offsets[1..] {
            let len = *slot;
            *slot = acc;
            acc += len;
        }
        let mut row_ids = vec![0u32; n];
        for (i, &g) in row_group.iter().enumerate() {
            let cursor = &mut offsets[g as usize + 1];
            row_ids[*cursor as usize] = i as u32;
            *cursor += 1;
        }
        debug_assert_eq!(offsets.last(), Some(&(n as u32)));

        JoinIndex {
            relation,
            key_cols,
            offsets,
            row_ids,
            slots,
            group_hash,
            mask,
        }
    }

    /// The attribute positions forming the key.
    pub fn key_cols(&self) -> &[usize] {
        &self.key_cols
    }

    /// Number of distinct keys (groups). An empty key — and an empty
    /// relation — count as one group spanning all rows.
    pub fn num_groups(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Half-open range `lo..hi` into the grouped row-id arena whose rows
    /// match `key` — the O(1) cardinality bound (`hi - lo`) the dynamic
    /// ordering is built on. `(0, 0)` for absent keys; the empty key spans
    /// all rows.
    #[inline]
    fn candidates_range(&self, key: &[u64]) -> (u32, u32) {
        if self.key_cols.is_empty() {
            return (0, self.row_ids.len() as u32);
        }
        if self.slots.is_empty() {
            return (0, 0);
        }
        let h = hash_key(key);
        let mut s = (h as usize) & self.mask;
        loop {
            match self.slots[s] {
                EMPTY_SLOT => return (0, 0),
                g if self.group_hash[g as usize] == h => {
                    let lo = self.offsets[g as usize];
                    let rep = self.relation.row(self.row_ids[lo as usize] as usize);
                    if self.key_cols.iter().zip(key).all(|(&c, &v)| rep[c] == v) {
                        return (lo, self.offsets[g as usize + 1]);
                    }
                }
                _ => {}
            }
            s = (s + 1) & self.mask;
        }
    }

    /// Row ids whose projection on the key columns equals `key`, ascending
    /// (empty key: all rows). Returns an empty slice for absent keys.
    #[inline]
    pub fn candidates(&self, key: &[u64]) -> &[u32] {
        let (lo, hi) = self.candidates_range(key);
        &self.row_ids[lo as usize..hi as usize]
    }
}

/// Hash the projection of `row` onto `cols` (chained [`mix64`]).
#[inline]
fn hash_cols(row: &[u64], cols: &[usize]) -> u64 {
    let mut h = INDEX_SALT;
    for &c in cols {
        h = mix64(row[c], h);
    }
    h
}

/// Hash an already-projected key exactly like [`hash_cols`].
#[inline]
fn hash_key(key: &[u64]) -> u64 {
    let mut h = INDEX_SALT;
    for &v in key {
        h = mix64(v, h);
    }
    h
}

/// True iff the key projections of row `a` (by id) and `row_b` agree.
#[inline]
fn rows_key_equal(rel: &Relation, a: u32, row_b: &[u64], cols: &[usize]) -> bool {
    let row_a = rel.row(a as usize);
    cols.iter().all(|&c| row_a[c] == row_b[c])
}

// ---------------------------------------------------------------------------
// Fixed-order engine (the differential baseline)
// ---------------------------------------------------------------------------

/// The legacy engine: order atoms once with [`atom_order`], index each on
/// its bound positions, extend bindings depth-first one row at a time.
/// Emits every answer with multiplicity 1.
fn fixed_join(
    query: &Query,
    relations: &[&Relation],
    probe: &mut JoinProbe<'_>,
    emit: &mut impl FnMut(&[u64], u64),
) {
    let order = atom_order(query, relations);

    // For each atom (in visit order) decide which of its positions are bound
    // by earlier atoms, and build the index keyed on those positions.
    let mut bound = VarSet::EMPTY;
    let mut indexes: Vec<JoinIndex> = Vec::with_capacity(order.len());
    // For checking: positions that must match the current binding but are not
    // part of the key (repeated variables within the atom).
    let mut check_positions: Vec<Vec<(usize, usize)>> = Vec::with_capacity(order.len());
    // Positions that newly bind a variable: (position, var).
    let mut bind_positions: Vec<Vec<(usize, usize)>> = Vec::with_capacity(order.len());

    for &j in &order {
        let atom = query.atom(j);
        let mut key_positions = Vec::new();
        let mut checks = Vec::new();
        let mut binds = Vec::new();
        let mut seen_here = VarSet::EMPTY;
        for (pos, &v) in atom.vars().iter().enumerate() {
            if bound.contains(v) {
                key_positions.push(pos);
            } else if seen_here.contains(v) {
                // Repeated new variable within the atom: equality check
                // against the position that bound it.
                let first = atom
                    .vars()
                    .iter()
                    .position(|&w| w == v)
                    .expect("repeated var has a first position");
                checks.push((pos, first));
            } else {
                seen_here = seen_here.insert(v);
                binds.push((pos, v));
            }
        }
        indexes.push(JoinIndex::build(relations[j], key_positions));
        check_positions.push(checks);
        bind_positions.push(binds);
        bound = bound.union(atom.var_set());
    }

    // Depth-first extension of bindings.
    let k = query.num_vars();
    let mut binding = vec![0u64; k];
    let mut key_buf: Vec<u64> = Vec::new();

    #[allow(clippy::too_many_arguments)]
    fn descend(
        depth: usize,
        order: &[usize],
        query: &Query,
        indexes: &[JoinIndex],
        check_positions: &[Vec<(usize, usize)>],
        bind_positions: &[Vec<(usize, usize)>],
        binding: &mut Vec<u64>,
        key_buf: &mut Vec<u64>,
        probe: &mut JoinProbe<'_>,
        emit: &mut impl FnMut(&[u64], u64),
    ) {
        if depth == order.len() {
            emit(binding, 1);
            return;
        }
        let j = order[depth];
        let atom = query.atom(j);
        let idx = &indexes[depth];
        key_buf.clear();
        for &pos in idx.key_cols() {
            key_buf.push(binding[atom.vars()[pos]]);
        }
        // `candidates` borrows the index, not `key_buf`, so the buffer is
        // free for reuse by deeper levels while we iterate.
        for &row_id in idx.candidates(key_buf) {
            probe.bump();
            let row = idx.relation.row(row_id as usize);
            if check_positions[depth]
                .iter()
                .any(|&(pos, first)| row[pos] != row[first])
            {
                continue;
            }
            for &(pos, var) in &bind_positions[depth] {
                binding[var] = row[pos];
            }
            descend(
                depth + 1,
                order,
                query,
                indexes,
                check_positions,
                bind_positions,
                binding,
                key_buf,
                probe,
                emit,
            );
        }
    }

    descend(
        0,
        &order,
        query,
        &indexes,
        &check_positions,
        &bind_positions,
        &mut binding,
        &mut key_buf,
        probe,
        emit,
    );
}

// ---------------------------------------------------------------------------
// Dynamic (cardinality-guided) engine
// ---------------------------------------------------------------------------

/// Candidate sets at most this large are narrowed by scanning their rows
/// instead of building/probing an index keyed on the new position set.
const SCAN_THRESHOLD: usize = 8;

/// Driver slices at most this long deduplicate their values by linear scan
/// of the collected `(value, count)` pairs; longer slices sort a flat value
/// buffer and run-length encode it.
const LINEAR_DEDUP_MAX: usize = 32;

/// Where an atom's current candidate rows live.
#[derive(Clone, Copy)]
enum Candidates {
    /// No position of the atom is bound: every row is a candidate.
    All,
    /// `lo..hi` into the row-id arena of the cached index for the state's
    /// position mask.
    Range(u32, u32),
    /// The first `count` entries, inline (produced by the scan path).
    Inline([u32; SCAN_THRESHOLD]),
    /// Count known but rows not materialized (a driver slice deduplicated
    /// by value); re-derived through an index lookup if ever needed again.
    Unknown,
}

/// One atom's live candidate set: which positions are bound, how many rows
/// match the current binding on them, and where those rows live.
#[derive(Clone, Copy)]
struct AtomState {
    /// Bound positions of the atom (bit `p` = position `p`; arity ≤ 64).
    mask: u64,
    /// Rows matching the current binding projected on `mask`'s positions —
    /// the O(1) cardinality bound driving variable selection, and at the
    /// leaf one factor of the answer multiplicity.
    count: u32,
    rows: Candidates,
}

/// One atom's relation plus its lazily built per-position-mask indexes.
/// Indexes are cached for the whole join, so each (atom, position set)
/// pair is built at most once no matter how often the search revisits it.
struct DynAtom<'a> {
    rel: &'a Relation,
    /// Variable at each position (`atom.vars()`).
    vars: &'a [usize],
    /// `(pos, first_pos)` pairs a row must agree on (repeated variables
    /// within the atom); used by the root driver scan.
    dup_checks: Vec<(usize, usize)>,
    indexes: Vec<(u64, JoinIndex<'a>)>,
}

/// One distinct driver value with its multiplicity; `lo..hi` is the value's
/// group range in the driver's per-value index (group-enumeration path
/// only).
#[derive(Clone, Copy)]
struct ValEntry {
    val: u64,
    count: u32,
    lo: u32,
    hi: u32,
}

/// Reusable per-depth buffers of the dynamic search.
#[derive(Default)]
struct NodeScratch {
    /// Distinct driver values at this depth.
    vals: Vec<ValEntry>,
    /// States this depth mutates, for restore on backtrack.
    save: Vec<(usize, AtomState)>,
    /// Flat value buffer for the sort-based dedup path.
    raw: Vec<u64>,
    /// Key buffer for index probes.
    key: Vec<u64>,
    /// Leaf intersection: surviving `(value, multiplicity product)` pairs,
    /// sorted by value.
    merged: Vec<(u64, u64)>,
}

/// Ascending positions set in `mask`.
fn mask_positions(mut mask: u64) -> Vec<usize> {
    let mut cols = Vec::with_capacity(mask.count_ones() as usize);
    while mask != 0 {
        cols.push(mask.trailing_zeros() as usize);
        mask &= mask - 1;
    }
    cols
}

/// Project the binding onto `mask`'s positions (ascending — the order
/// [`JoinIndex`] keys use) into `key`.
fn build_key(key: &mut Vec<u64>, mut mask: u64, vars: &[usize], binding: &[u64]) {
    key.clear();
    while mask != 0 {
        let p = mask.trailing_zeros() as usize;
        key.push(binding[vars[p]]);
        mask &= mask - 1;
    }
}

/// True iff `row` matches the binding at every position in `mask`.
#[inline]
fn masked_match(row: &[u64], vars: &[usize], mut mask: u64, binding: &[u64]) -> bool {
    while mask != 0 {
        let p = mask.trailing_zeros() as usize;
        if row[p] != binding[vars[p]] {
            return false;
        }
        mask &= mask - 1;
    }
    true
}

/// True iff `row` holds the same value at every position in `mask` (the
/// repeated-variable consistency check; `first` is one of the positions).
#[inline]
fn positions_agree(row: &[u64], mut mask: u64, first: usize) -> bool {
    let want = row[first];
    while mask != 0 {
        let p = mask.trailing_zeros() as usize;
        if row[p] != want {
            return false;
        }
        mask &= mask - 1;
    }
    true
}

/// Position of the atom's cached index for `mask`, building it on first
/// use (cached for the rest of the join).
fn ensure_index_pos(atom: &mut DynAtom<'_>, mask: u64) -> usize {
    if let Some(i) = atom.indexes.iter().position(|(m, _)| *m == mask) {
        return i;
    }
    atom.indexes
        .push((mask, JoinIndex::build(atom.rel, mask_positions(mask))));
    atom.indexes.len() - 1
}

/// The atom's cached index for `mask` (must exist — every `Range` state
/// points into one).
fn cached_index<'x, 'a>(atom: &'x DynAtom<'a>, mask: u64) -> &'x JoinIndex<'a> {
    &atom
        .indexes
        .iter()
        .find(|(m, _)| *m == mask)
        .expect("a Range state always points into a cached index")
        .1
}

/// Filter `rows` down to those matching the binding on `add_mask`,
/// collecting survivors inline. Returns the survivor count (≤ input count
/// ≤ [`SCAN_THRESHOLD`]).
fn filter_into(
    rel: &Relation,
    vars: &[usize],
    add_mask: u64,
    binding: &[u64],
    rows: impl Iterator<Item = u32>,
    inline: &mut [u32; SCAN_THRESHOLD],
) -> u32 {
    let mut cnt = 0u32;
    for row_id in rows {
        if masked_match(rel.row(row_id as usize), vars, add_mask, binding) {
            inline[cnt as usize] = row_id;
            cnt += 1;
        }
    }
    cnt
}

/// Narrow the atom's candidate set after the positions in `add_mask`
/// became bound. Candidate sets of ≤ [`SCAN_THRESHOLD`] known rows are
/// filtered by scanning; everything else probes (and lazily builds) the
/// index keyed on the full new position set. Returns `false` when no row
/// survives (prune).
fn narrow(
    atom: &mut DynAtom<'_>,
    state: &mut AtomState,
    add_mask: u64,
    binding: &[u64],
    key: &mut Vec<u64>,
) -> bool {
    let newmask = state.mask | add_mask;
    if state.count as usize <= SCAN_THRESHOLD {
        let mut inline = [0u32; SCAN_THRESHOLD];
        let cnt = match state.rows {
            Candidates::All => filter_into(
                atom.rel,
                atom.vars,
                add_mask,
                binding,
                0..state.count,
                &mut inline,
            ),
            Candidates::Range(lo, hi) => {
                let idx = cached_index(atom, state.mask);
                filter_into(
                    atom.rel,
                    atom.vars,
                    add_mask,
                    binding,
                    idx.row_ids[lo as usize..hi as usize].iter().copied(),
                    &mut inline,
                )
            }
            Candidates::Inline(rows) => filter_into(
                atom.rel,
                atom.vars,
                add_mask,
                binding,
                rows[..state.count as usize].iter().copied(),
                &mut inline,
            ),
            // Rows not materialized: fall through to the index probe.
            Candidates::Unknown => u32::MAX,
        };
        if cnt != u32::MAX {
            *state = AtomState {
                mask: newmask,
                count: cnt,
                rows: Candidates::Inline(inline),
            };
            return cnt > 0;
        }
    }
    build_key(key, newmask, atom.vars, binding);
    let i = ensure_index_pos(atom, newmask);
    let (lo, hi) = atom.indexes[i].1.candidates_range(key);
    *state = AtomState {
        mask: newmask,
        count: hi - lo,
        rows: Candidates::Range(lo, hi),
    };
    lo < hi
}

/// Memoize an [`Candidates::Unknown`] candidate set back to its index
/// `Range`: the state's mask always has a cached index (the narrow that
/// produced the count built it) and the binding projects to its key.
fn materialize_unknown(
    atom: &mut DynAtom<'_>,
    state: &mut AtomState,
    binding: &[u64],
    key: &mut Vec<u64>,
) {
    if matches!(state.rows, Candidates::Unknown) {
        build_key(key, state.mask, atom.vars, binding);
        let i = ensure_index_pos(atom, state.mask);
        let (lo, hi) = atom.indexes[i].1.candidates_range(key);
        debug_assert_eq!(hi - lo, state.count);
        state.rows = Candidates::Range(lo, hi);
    }
}

/// O(1) cardinality bound for the atom's rows compatible with the current
/// binding, as seen through variable `v`'s positions (`pos_mask`): the
/// candidate count once any position is bound, the distinct-value count of
/// a cached per-value index before that, the relation size as the fallback.
#[inline]
fn estimate(atom: &DynAtom<'_>, state: &AtomState, pos_mask: u64) -> u64 {
    if state.mask != 0 {
        return state.count as u64;
    }
    match atom.indexes.iter().find(|(m, _)| *m == pos_mask) {
        Some((_, idx)) => idx.num_groups() as u64,
        None => atom.rel.len() as u64,
    }
}

/// One level of the dynamic search: pick the most selective unbound
/// variable, enumerate its distinct values from the smallest candidate set
/// (the driver), narrow every other atom containing it, recurse; at the
/// leaf emit the binding with multiplicity = ∏ per-atom candidate counts.
#[allow(clippy::too_many_arguments)]
fn dyn_descend<'a>(
    atoms: &mut [DynAtom<'a>],
    occs_of_var: &[Vec<(usize, u64, usize)>],
    all_vars: VarSet,
    bound: VarSet,
    binding: &mut [u64],
    states: &mut [AtomState],
    scratch: &mut [NodeScratch],
    probe: &mut JoinProbe<'_>,
    emit: &mut impl FnMut(&[u64], u64),
) {
    // --- variable selection: smallest max-over-atoms candidate bound ---
    // (ties: smaller min bound, then lower variable index).
    let mut pick: Option<(u64, u64, usize)> = None;
    for (v, occs) in occs_of_var.iter().enumerate() {
        if bound.contains(v) {
            continue;
        }
        let mut hi = 0u64;
        let mut lo = u64::MAX;
        for &(a, pos_mask, _) in occs {
            let e = estimate(&atoms[a], &states[a], pos_mask);
            hi = hi.max(e);
            lo = lo.min(e);
        }
        if pick.is_none_or(|(bh, bl, _)| (hi, lo) < (bh, bl)) {
            pick = Some((hi, lo, v));
        }
    }
    let (_, _, v) = pick.expect("an unbound variable exists above the leaf");

    // Driver: the occurrence with the smallest bound (ties: lowest atom
    // index — occurrences are stored in atom order).
    let occs = &occs_of_var[v];
    let (mut d, mut dmask, mut dfirst) = occs[0];
    let mut dbest = estimate(&atoms[d], &states[d], dmask);
    for &(a, pos_mask, first) in &occs[1..] {
        let e = estimate(&atoms[a], &states[a], pos_mask);
        if e < dbest {
            (d, dmask, dfirst, dbest) = (a, pos_mask, first, e);
        }
    }

    let (cur, rest) = scratch.split_first_mut().expect("one scratch per depth");

    // Leaf fast path: `v` is the last unbound variable, so nothing below
    // ever re-narrows — intersect sorted value lists instead of paying one
    // index probe (and a state snapshot/restore) per candidate value.
    if bound.insert(v) == all_vars {
        dyn_leaf(
            atoms, occs, v, d, dmask, dfirst, states, binding, cur, probe, emit,
        );
        return;
    }

    cur.vals.clear();
    cur.save.clear();

    // --- enumerate the driver's distinct v-values with multiplicities ---
    let grouped = states[d].mask == 0;
    if grouped {
        // Unbound driver: group-enumerate its per-value index. Each group
        // is one distinct value with its row range; groups whose rows
        // disagree on repeated v-positions can never match and are skipped
        // whole (all rows of a group share the key projection).
        let multi = dmask.count_ones() > 1;
        let i = ensure_index_pos(&mut atoms[d], dmask);
        let idx = &atoms[d].indexes[i].1;
        let rel = atoms[d].rel;
        for g in 0..idx.num_groups() {
            let (lo, hi) = (idx.offsets[g], idx.offsets[g + 1]);
            let rep = rel.row(idx.row_ids[lo as usize] as usize);
            if multi && !positions_agree(rep, dmask, dfirst) {
                continue;
            }
            cur.vals.push(ValEntry {
                val: rep[dfirst],
                count: hi - lo,
                lo,
                hi,
            });
        }
    } else {
        // Bound driver: its candidate rows are already narrowed — collect
        // the distinct values at v's positions, counting occurrences
        // (which become the driver's per-value candidate count).
        let multi = dmask.count_ones() > 1;
        materialize_unknown(&mut atoms[d], &mut states[d], binding, &mut cur.key);
        let rel = atoms[d].rel;
        let inline_store;
        let row_slice: &[u32] = match states[d].rows {
            Candidates::Inline(rows) => {
                inline_store = rows;
                &inline_store[..states[d].count as usize]
            }
            Candidates::Range(lo, hi) => {
                &cached_index(&atoms[d], states[d].mask).row_ids[lo as usize..hi as usize]
            }
            Candidates::All | Candidates::Unknown => {
                unreachable!("bound driver has materialized rows")
            }
        };
        if row_slice.len() <= LINEAR_DEDUP_MAX {
            'rows: for &row_id in row_slice {
                let row = rel.row(row_id as usize);
                if multi && !positions_agree(row, dmask, dfirst) {
                    continue;
                }
                let val = row[dfirst];
                for e in cur.vals.iter_mut() {
                    if e.val == val {
                        e.count += 1;
                        continue 'rows;
                    }
                }
                cur.vals.push(ValEntry {
                    val,
                    count: 1,
                    lo: 0,
                    hi: 0,
                });
            }
        } else {
            cur.raw.clear();
            for &row_id in row_slice {
                let row = rel.row(row_id as usize);
                if multi && !positions_agree(row, dmask, dfirst) {
                    continue;
                }
                cur.raw.push(row[dfirst]);
            }
            cur.raw.sort_unstable();
            let mut i = 0;
            while i < cur.raw.len() {
                let val = cur.raw[i];
                let mut j = i + 1;
                while j < cur.raw.len() && cur.raw[j] == val {
                    j += 1;
                }
                cur.vals.push(ValEntry {
                    val,
                    count: (j - i) as u32,
                    lo: 0,
                    hi: 0,
                });
                i = j;
            }
        }
    }

    // Snapshot every state this level mutates (driver included).
    for &(a, _, _) in occs {
        cur.save.push((a, states[a]));
    }
    let dmask_base = states[d].mask;
    let now_bound = bound.insert(v);

    for vi in 0..cur.vals.len() {
        // Restore this level's snapshot (idempotent on the first value).
        for si in 0..cur.save.len() {
            let (a, s) = cur.save[si];
            states[a] = s;
        }
        let e = cur.vals[vi];
        probe.bump();
        binding[v] = e.val;
        states[d] = AtomState {
            mask: dmask_base | dmask,
            count: e.count,
            rows: if grouped {
                Candidates::Range(e.lo, e.hi)
            } else {
                Candidates::Unknown
            },
        };
        let mut ok = true;
        for &(a, pos_mask, _) in occs {
            if a == d {
                continue;
            }
            if !narrow(
                &mut atoms[a],
                &mut states[a],
                pos_mask,
                binding,
                &mut cur.key,
            ) {
                ok = false;
                break;
            }
        }
        if !ok {
            continue;
        }
        dyn_descend(
            atoms,
            occs_of_var,
            all_vars,
            now_bound,
            binding,
            states,
            rest,
            probe,
            emit,
        );
    }
    // Restore for the caller.
    for si in 0..cur.save.len() {
        let (a, s) = cur.save[si];
        states[a] = s;
    }
}

/// Leaf specialization of `dyn_descend`: exactly one variable `v` remains
/// unbound. The generic level pays one index probe per candidate value for
/// every non-driver occurrence (plus a state snapshot/restore per value);
/// here nothing below ever re-narrows, so we collect each occurrence's
/// distinct `(value, count)` list once and sorted-merge-intersect them.
/// Occurrences whose candidate sets dwarf the surviving value list are
/// probed per survivor instead of scanned. Each survivor is emitted once
/// with multiplicity = (∏ counts of atoms not containing `v`) × (∏ the
/// value's per-occurrence counts) — the same multiset the generic level
/// produces, in value order rather than driver-row order.
///
/// Visited-bindings accounting is unchanged: one per distinct driver
/// value, whether or not it survives the intersection.
#[allow(clippy::too_many_arguments)]
fn dyn_leaf<'a>(
    atoms: &mut [DynAtom<'a>],
    occs: &[(usize, u64, usize)],
    v: usize,
    d: usize,
    dmask: u64,
    dfirst: usize,
    states: &mut [AtomState],
    binding: &mut [u64],
    cur: &mut NodeScratch,
    probe: &mut JoinProbe<'_>,
    emit: &mut impl FnMut(&[u64], u64),
) {
    // --- driver: collect its distinct v-values with multiplicities, ---
    // --- sorted by value, into `cur.merged`.                        ---
    cur.merged.clear();
    let multi = dmask.count_ones() > 1;
    if states[d].mask == 0 {
        // Unbound driver: its per-value index already groups rows by
        // value; groups disagreeing on repeated v-positions are skipped
        // whole (all rows of a group share the key projection).
        let i = ensure_index_pos(&mut atoms[d], dmask);
        let idx = &atoms[d].indexes[i].1;
        let rel = atoms[d].rel;
        for g in 0..idx.num_groups() {
            let (lo, hi) = (idx.offsets[g], idx.offsets[g + 1]);
            let rep = rel.row(idx.row_ids[lo as usize] as usize);
            if multi && !positions_agree(rep, dmask, dfirst) {
                continue;
            }
            cur.merged.push((rep[dfirst], (hi - lo) as u64));
        }
        cur.merged.sort_unstable_by_key(|&(val, _)| val);
    } else {
        materialize_unknown(&mut atoms[d], &mut states[d], binding, &mut cur.key);
        let rel = atoms[d].rel;
        cur.raw.clear();
        let inline_store;
        let row_slice: &[u32] = match states[d].rows {
            Candidates::Inline(rows) => {
                inline_store = rows;
                &inline_store[..states[d].count as usize]
            }
            Candidates::Range(lo, hi) => {
                &cached_index(&atoms[d], states[d].mask).row_ids[lo as usize..hi as usize]
            }
            Candidates::All | Candidates::Unknown => {
                unreachable!("bound driver has materialized rows")
            }
        };
        for &row_id in row_slice {
            let row = rel.row(row_id as usize);
            if multi && !positions_agree(row, dmask, dfirst) {
                continue;
            }
            cur.raw.push(row[dfirst]);
        }
        cur.raw.sort_unstable();
        let mut i = 0;
        while i < cur.raw.len() {
            let val = cur.raw[i];
            let mut j = i + 1;
            while j < cur.raw.len() && cur.raw[j] == val {
                j += 1;
            }
            cur.merged.push((val, (j - i) as u64));
            i = j;
        }
    }
    probe.bump_by(cur.merged.len() as u64);

    // --- intersect every other occurrence's value list into `merged` ---
    for &(a, pos_mask, first) in occs {
        if a == d || cur.merged.is_empty() {
            continue;
        }
        let multi = pos_mask.count_ones() > 1;
        // Scan-and-merge when the candidate set is comparable in size to
        // the surviving value list (the driver is the min-bound
        // occurrence, so candidates ≥ survivors); probe the per-value
        // index once per survivor when it is much larger — and always for
        // a fully unbound atom, whose "candidates" are the whole relation.
        let scan = !matches!(states[a].rows, Candidates::All)
            && (states[a].count as usize) <= 4 * cur.merged.len().max(SCAN_THRESHOLD);
        if scan {
            materialize_unknown(&mut atoms[a], &mut states[a], binding, &mut cur.key);
            let rel = atoms[a].rel;
            cur.raw.clear();
            {
                let inline_store;
                let row_slice: &[u32] = match states[a].rows {
                    Candidates::Inline(rows) => {
                        inline_store = rows;
                        &inline_store[..states[a].count as usize]
                    }
                    Candidates::Range(lo, hi) => {
                        &cached_index(&atoms[a], states[a].mask).row_ids[lo as usize..hi as usize]
                    }
                    Candidates::All | Candidates::Unknown => {
                        unreachable!("the scan path materialized the rows")
                    }
                };
                for &row_id in row_slice {
                    let row = rel.row(row_id as usize);
                    if multi && !positions_agree(row, pos_mask, first) {
                        continue;
                    }
                    cur.raw.push(row[first]);
                }
            }
            cur.raw.sort_unstable();
            // Two-pointer intersect: fold each matching run's length into
            // the survivor's multiplicity product.
            let (mut w, mut i, mut j) = (0usize, 0usize, 0usize);
            while i < cur.merged.len() && j < cur.raw.len() {
                let (val, prod) = cur.merged[i];
                match cur.raw[j].cmp(&val) {
                    std::cmp::Ordering::Less => j += 1,
                    std::cmp::Ordering::Greater => i += 1,
                    std::cmp::Ordering::Equal => {
                        let mut c = 0u64;
                        while j < cur.raw.len() && cur.raw[j] == val {
                            c += 1;
                            j += 1;
                        }
                        cur.merged[w] = (val, prod * c);
                        w += 1;
                        i += 1;
                    }
                }
            }
            cur.merged.truncate(w);
        } else {
            let newmask = states[a].mask | pos_mask;
            let i = ensure_index_pos(&mut atoms[a], newmask);
            let vars = atoms[a].vars;
            let mut w = 0usize;
            for mi in 0..cur.merged.len() {
                let (val, prod) = cur.merged[mi];
                binding[v] = val;
                build_key(&mut cur.key, newmask, vars, binding);
                let (lo, hi) = atoms[a].indexes[i].1.candidates_range(&cur.key);
                if hi > lo {
                    cur.merged[w] = (val, prod * (hi - lo) as u64);
                    w += 1;
                }
            }
            cur.merged.truncate(w);
        }
    }
    if cur.merged.is_empty() {
        return;
    }

    // --- emit: atoms not containing `v` contribute a constant factor ---
    let mut base = 1u64;
    for (a, s) in states.iter().enumerate() {
        if !occs.iter().any(|&(oa, _, _)| oa == a) {
            base *= s.count as u64;
        }
    }
    for mi in 0..cur.merged.len() {
        let (val, prod) = cur.merged[mi];
        binding[v] = val;
        emit(binding, base * prod);
    }
}

/// The dynamic engine's entry point. The root level is specialized: the
/// smallest relation drives (the same pick the fixed order makes, so both
/// engines start from identical row scans), its rows are iterated directly
/// — no index is built for the driver — and every atom sharing variables
/// with it is narrowed per row before the per-variable search takes over.
fn dyn_join(
    query: &Query,
    relations: &[&Relation],
    probe: &mut JoinProbe<'_>,
    emit: &mut impl FnMut(&[u64], u64),
) {
    let l = query.num_atoms();
    for (j, rel) in relations.iter().enumerate() {
        assert!(
            query.atom(j).arity() <= 64,
            "dynamic join supports atom arity <= 64 (atom {:?} has arity {})",
            query.atom(j).name(),
            query.atom(j).arity()
        );
        assert_indexable(rel.name(), rel.len());
    }

    // Per-atom shape info.
    let mut atoms: Vec<DynAtom<'_>> = Vec::with_capacity(l);
    for (j, &rel) in relations.iter().enumerate() {
        let vars = query.atom(j).vars();
        let mut dup_checks = Vec::new();
        for (pos, &v) in vars.iter().enumerate() {
            let first = vars
                .iter()
                .position(|&w| w == v)
                .expect("a variable's first position exists");
            if first != pos {
                dup_checks.push((pos, first));
            }
        }
        atoms.push(DynAtom {
            rel,
            vars,
            dup_checks,
            indexes: Vec::new(),
        });
    }

    // Per-variable occurrences: (atom, position mask of the variable in
    // the atom, first position), in atom order.
    let k = query.num_vars();
    let mut occs_of_var: Vec<Vec<(usize, u64, usize)>> = vec![Vec::new(); k];
    for (j, da) in atoms.iter().enumerate() {
        let mut masks = vec![0u64; k];
        for (pos, &v) in da.vars.iter().enumerate() {
            masks[v] |= 1u64 << pos;
        }
        for (pos, &v) in da.vars.iter().enumerate() {
            if da.vars[..pos].contains(&v) {
                continue; // only the first occurrence registers
            }
            occs_of_var[v].push((j, masks[v], pos));
        }
    }
    let all_vars = query.all_vars();

    // Root driver: smallest relation, ties to the lowest atom index (the
    // fixed order's step-0 pick).
    let mut d = 0;
    for j in 1..l {
        if relations[j].len() < relations[d].len() {
            d = j;
        }
    }
    let dvars = query.atom(d).var_set();
    let darity = query.atom(d).arity();
    let dfull: u64 = if darity == 64 {
        u64::MAX
    } else {
        (1u64 << darity) - 1
    };
    // First-occurrence (position, var) pairs of the driver.
    let binds: Vec<(usize, usize)> = atoms[d]
        .vars
        .iter()
        .enumerate()
        .filter(|&(pos, v)| !atoms[d].vars[..pos].contains(v))
        .map(|(pos, &v)| (pos, v))
        .collect();
    // Atoms sharing variables with the driver, with the position mask the
    // driver row binds in each.
    let mut sharers: Vec<(usize, u64)> = Vec::new();
    for (j, da) in atoms.iter().enumerate() {
        if j == d {
            continue;
        }
        let mut add = 0u64;
        for (pos, &v) in da.vars.iter().enumerate() {
            if dvars.contains(v) {
                add |= 1u64 << pos;
            }
        }
        if add != 0 {
            sharers.push((j, add));
        }
    }

    let mut states: Vec<AtomState> = relations
        .iter()
        .map(|r| AtomState {
            mask: 0,
            count: r.len() as u32,
            rows: Candidates::All,
        })
        .collect();
    let save: Vec<(usize, AtomState)> = std::iter::once(d)
        .chain(sharers.iter().map(|&(a, _)| a))
        .map(|a| (a, states[a]))
        .collect();

    let mut binding = vec![0u64; k];
    let mut scratch: Vec<NodeScratch> = (0..k).map(|_| NodeScratch::default()).collect();
    let mut key: Vec<u64> = Vec::new();
    let drel = relations[d];

    for row_id in 0..drel.len() as u32 {
        probe.bump();
        let row = drel.row(row_id as usize);
        if atoms[d].dup_checks.iter().any(|&(p, f)| row[p] != row[f]) {
            continue;
        }
        for &(pos, var) in &binds {
            binding[var] = row[pos];
        }
        for &(a, s) in &save {
            states[a] = s;
        }
        let mut inline = [0u32; SCAN_THRESHOLD];
        inline[0] = row_id;
        states[d] = AtomState {
            mask: dfull,
            count: 1,
            rows: Candidates::Inline(inline),
        };
        let mut ok = true;
        for &(a, add) in &sharers {
            if !narrow(&mut atoms[a], &mut states[a], add, &binding, &mut key) {
                ok = false;
                break;
            }
        }
        if !ok {
            continue;
        }
        if dvars == all_vars {
            let mut mult = 1u64;
            for s in &states {
                mult *= s.count as u64;
            }
            emit(&binding, mult);
        } else {
            dyn_descend(
                &mut atoms,
                &occs_of_var,
                all_vars,
                dvars,
                &mut binding,
                &mut states,
                &mut scratch,
                probe,
                &mut *emit,
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Public evaluation surface
// ---------------------------------------------------------------------------

/// One local join evaluation: a query, one relation per atom, and the two
/// things a caller may vary — the engine ([`Join::order`], default
/// [`JoinOrder::Dynamic`]) and a cooperative [`QueryBudget`]
/// ([`Join::budget`], default none). [`Join::for_each`] runs it; `count`
/// and `answers` are the two common sinks on top.
///
/// ```
/// use mpc_data::{Join, JoinOrder, Relation};
/// use mpc_query::named;
///
/// let q = named::two_way_join(); // S1(x,z), S2(y,z)
/// let s1 = Relation::from_rows("S1", 2, &[&[1, 5], &[2, 5], &[3, 6]]);
/// let s2 = Relation::from_rows("S2", 2, &[&[7, 5], &[8, 6], &[9, 9]]);
/// assert_eq!(Join::new(&q, &[&s1, &s2]).count(), Ok(3));
/// let fixed = Join::new(&q, &[&s1, &s2]).order(JoinOrder::Fixed).answers();
/// assert_eq!(fixed.unwrap().len(), 3);
/// ```
pub struct Join<'a> {
    query: &'a Query,
    relations: Cow<'a, [&'a Relation]>,
    order: JoinOrder,
    budget: Option<&'a QueryBudget>,
}

impl<'a> Join<'a> {
    /// The join of `query` over `relations` (one per atom, in atom order).
    pub fn new(query: &'a Query, relations: &'a [&'a Relation]) -> Join<'a> {
        Join::over(query, Cow::Borrowed(relations))
    }

    /// The join of a [`Database`]'s query over its relations.
    pub fn of(db: &'a Database) -> Join<'a> {
        let rels = db.relations().iter().map(|r| r.as_ref()).collect();
        Join::over(db.query(), Cow::Owned(rels))
    }

    fn over(query: &'a Query, relations: Cow<'a, [&'a Relation]>) -> Join<'a> {
        assert_eq!(relations.len(), query.num_atoms());
        Join {
            query,
            relations,
            order: JoinOrder::default(),
            budget: None,
        }
    }

    /// Evaluate with the given engine.
    pub fn order(mut self, order: JoinOrder) -> Join<'a> {
        self.order = order;
        self
    }

    /// Evaluate under a cooperative [`QueryBudget`]: the probe polls it
    /// every [`CHECK_INTERVAL`] visited bindings, and every emitted answer
    /// row is charged against its row cap *before* reaching the sink. An
    /// unlimited budget is the same as none: no `catch_unwind` frame, no
    /// per-emit charge.
    pub fn budget(mut self, budget: &'a QueryBudget) -> Join<'a> {
        self.budget = Some(budget).filter(|b| !b.is_unlimited());
        self
    }

    /// Run the join, invoking `emit(binding, multiplicity)` once per
    /// *distinct answer occurrence group*: the multiplicity is the number
    /// of row combinations deriving the binding (values indexed by query
    /// variable), so expanding every call `mult` times reproduces the exact
    /// answer multiset of the row-at-a-time join. The fixed engine always
    /// passes multiplicity 1.
    ///
    /// `Err` only under a [`Join::budget`]: a violated budget unwinds out
    /// of the evaluation with a typed payload that is caught here — the
    /// join keeps no cross-evaluation state, so the unwind poisons nothing
    /// and the relations stay usable — while any other panic (a failpoint,
    /// a real bug) is re-raised verbatim.
    pub fn for_each(self, mut emit: impl FnMut(&[u64], u64)) -> Result<JoinStats, BudgetExceeded> {
        failpoint::hit("local_join");
        let Some(budget) = self.budget else {
            return Ok(self.run(&mut JoinProbe::untracked(), &mut emit));
        };
        budget.poll()?;
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut wrapped = |row: &[u64], mult: u64| {
                if let Err(e) = budget.charge_rows(mult) {
                    std::panic::panic_any(e);
                }
                emit(row, mult);
            };
            self.run(&mut JoinProbe::budgeted(budget), &mut wrapped)
        }));
        match outcome {
            // A final poll: joins shorter than one check interval still honor
            // an already-expired deadline or a row pool drained by a sibling.
            Ok(stats) => budget.poll().map(|()| stats),
            Err(payload) => match payload.downcast::<BudgetExceeded>() {
                Ok(e) => Err(*e),
                Err(other) => std::panic::resume_unwind(other),
            },
        }
    }

    /// Count answers (with multiplicity) without materializing them.
    pub fn count(self) -> Result<u64, BudgetExceeded> {
        let mut count = 0u64;
        self.for_each(|_, mult| count += mult)?;
        Ok(count)
    }

    /// Materialize all answers as flat rows over the query's variables.
    pub fn answers(self) -> Result<AnswerSet, BudgetExceeded> {
        let mut out = AnswerSet::new(self.query.num_vars());
        self.for_each(|row, mult| out.push_repeat(row, mult))?;
        Ok(out)
    }

    /// Engine dispatch and visited-bindings accounting.
    fn run(&self, probe: &mut JoinProbe<'_>, emit: &mut impl FnMut(&[u64], u64)) -> JoinStats {
        if !self.relations.iter().any(|r| r.is_empty()) {
            match self.order {
                JoinOrder::Dynamic => dyn_join(self.query, &self.relations, probe, emit),
                JoinOrder::Fixed => fixed_join(self.query, &self.relations, probe, emit),
            }
        }
        VISITED_TOTAL.fetch_add(probe.visited, Ordering::Relaxed);
        JoinStats {
            bindings_visited: probe.visited,
        }
    }
}

/// A hash-partitioned decomposition of a join into independent sub-joins.
///
/// The sequential oracle join is the slowest piece of stress verification;
/// this splits it into `buckets` sub-joins that can run on any executor
/// (each bucket is self-contained). A partition variable `v` is chosen to
/// appear in as many atoms as possible; every row of an atom containing `v`
/// goes to the bucket hashing its `v`-value, and rows of atoms without `v`
/// are replicated to all buckets. Any answer binds `v` to a single value
/// `c`, and all rows of `v`-atoms deriving it live only in `hash(c)`'s
/// bucket — so the concatenation of all bucket outputs equals the full join
/// as a multiset, with no cross-bucket duplicates.
pub struct PartitionedJoin<'a> {
    query: &'a Query,
    /// `relations[bucket][atom]`.
    relations: Vec<Vec<Relation>>,
}

/// Partitioning hash salt (fixed: the decomposition is deterministic).
const PARTITION_SALT: u64 = 0x9a3c_51f2_0b6d_e771;

/// Decompose `query` over `relations` into `buckets` independent sub-joins
/// (see [`PartitionedJoin`]). `buckets` is clamped to at least 1; if the
/// query has no variables the whole join lands in a single bucket.
pub fn partition_join<'a>(
    query: &'a Query,
    relations: &[&Relation],
    buckets: usize,
) -> PartitionedJoin<'a> {
    assert_eq!(relations.len(), query.num_atoms());
    let buckets = buckets.max(1);
    // The variable in the most atoms minimizes replication (ties: lowest
    // variable index, so the decomposition is deterministic).
    let key_var =
        (0..query.num_vars()).max_by_key(|&v| (query.atoms_with_var(v).count(), usize::MAX - v));
    let buckets = match key_var {
        Some(v) if query.atoms_with_var(v).count() > 0 => buckets,
        _ => 1,
    };
    let mut parts: Vec<Vec<Relation>> = (0..buckets)
        .map(|_| {
            query
                .atoms()
                .iter()
                .map(|a| Relation::new(a.name(), a.arity()))
                .collect()
        })
        .collect();
    for (j, rel) in relations.iter().enumerate() {
        let key_pos = key_var.and_then(|v| query.atom(j).position_of_var(v));
        match key_pos {
            Some(pos) if buckets > 1 => {
                for row in rel.rows() {
                    let b = (crate::mix64(row[pos], PARTITION_SALT) % buckets as u64) as usize;
                    parts[b][j].push(row);
                }
            }
            _ => {
                for part in parts.iter_mut() {
                    for row in rel.rows() {
                        part[j].push(row);
                    }
                }
            }
        }
    }
    PartitionedJoin {
        query,
        relations: parts,
    }
}

impl PartitionedJoin<'_> {
    /// Number of independent sub-joins.
    pub fn num_buckets(&self) -> usize {
        self.relations.len()
    }

    /// One bucket's sub-join.
    pub fn bucket(&self, bucket: usize) -> Join<'_> {
        Join::over(
            self.query,
            Cow::Owned(self.relations[bucket].iter().collect()),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::rng::Rng;
    use mpc_query::named;

    /// Concatenate every bucket's answers (multiset).
    fn mpc_data_answers_concat(parts: &PartitionedJoin<'_>) -> AnswerSet {
        let mut out = parts.bucket(0).answers().unwrap();
        for b in 1..parts.num_buckets() {
            out.append(parts.bucket(b).answers().unwrap());
        }
        out
    }

    fn count(q: &Query, rels: &[&Relation], order: JoinOrder) -> u64 {
        Join::new(q, rels).order(order).count().unwrap()
    }

    fn answers(q: &Query, rels: &[&Relation], order: JoinOrder) -> AnswerSet {
        Join::new(q, rels).order(order).answers().unwrap()
    }

    #[test]
    fn two_way_join_by_hand() {
        // S1(x,z) = {(1,5),(2,5),(3,6)}, S2(y,z) = {(7,5),(8,6),(9,9)}
        // Join on z: answers (x,y,z) = (1,7,5),(2,7,5),(3,8,6).
        let q = named::two_way_join();
        let s1 = Relation::from_rows("S1", 2, &[&[1, 5], &[2, 5], &[3, 6]]);
        let s2 = Relation::from_rows("S2", 2, &[&[7, 5], &[8, 6], &[9, 9]]);
        let mut ans = answers(&q, &[&s1, &s2], JoinOrder::Dynamic);
        ans.sort_dedup();
        // Variable order: x=0, z=1, y=2 (interning order).
        let xi = q.var_index("x").unwrap();
        let yi = q.var_index("y").unwrap();
        let zi = q.var_index("z").unwrap();
        let mut expected: Vec<Vec<u64>> = vec![
            {
                let mut row = vec![0; 3];
                row[xi] = 1;
                row[yi] = 7;
                row[zi] = 5;
                row
            },
            {
                let mut row = vec![0; 3];
                row[xi] = 2;
                row[yi] = 7;
                row[zi] = 5;
                row
            },
            {
                let mut row = vec![0; 3];
                row[xi] = 3;
                row[yi] = 8;
                row[zi] = 6;
                row
            },
        ];
        expected.sort();
        assert_eq!(ans, expected);
    }

    #[test]
    fn triangle_counts_triangles() {
        // A 4-clique as three edge relations: every ordered triangle of the
        // clique appears: 4 * 3 * 2 = 24 answers.
        let q = named::cycle(3);
        let mut edges = Relation::new("E", 2);
        for a in 0..4u64 {
            for b in 0..4u64 {
                if a != b {
                    edges.push(&[a, b]);
                }
            }
        }
        let e1 = {
            let mut e = edges.clone();
            e.sort_dedup();
            e
        };
        assert_eq!(count(&q, &[&e1, &e1, &e1], JoinOrder::Dynamic), 24);
        assert_eq!(count(&q, &[&e1, &e1, &e1], JoinOrder::Fixed), 24);
    }

    #[test]
    fn cartesian_product_counts_multiply() {
        let q = named::cartesian(3);
        let r1 = Relation::from_rows("S1", 1, &[&[1], &[2]]);
        let r2 = Relation::from_rows("S2", 1, &[&[5], &[6], &[7]]);
        let r3 = Relation::from_rows("S3", 1, &[&[9]]);
        assert_eq!(count(&q, &[&r1, &r2, &r3], JoinOrder::Dynamic), 6);
        assert_eq!(count(&q, &[&r1, &r2, &r3], JoinOrder::Fixed), 6);
    }

    #[test]
    fn empty_relation_gives_empty_join() {
        let q = named::two_way_join();
        let s1 = Relation::new("S1", 2);
        let s2 = Relation::from_rows("S2", 2, &[&[7, 5]]);
        assert_eq!(count(&q, &[&s1, &s2], JoinOrder::Dynamic), 0);
        assert_eq!(count(&q, &[&s1, &s2], JoinOrder::Fixed), 0);
    }

    #[test]
    fn repeated_variable_in_atom() {
        // q(x,y) = R(x,x,y): only rows with row[0] == row[1] survive.
        let q = mpc_query::Query::build("q", &[("R", &["x", "x", "y"])]).unwrap();
        let r = Relation::from_rows("R", 3, &[&[1, 1, 5], &[1, 2, 6], &[3, 3, 7]]);
        let mut ans = answers(&q, &[&r], JoinOrder::Dynamic);
        ans.sort_dedup();
        assert_eq!(ans, vec![vec![1, 5], vec![3, 7]]);
    }

    #[test]
    fn repeated_variable_across_atoms() {
        // q(x,y) = R(x,x), S(x,y): the repeated variable narrows R while S
        // extends — exercises multi-position masks on both engines.
        let q = mpc_query::Query::build("q", &[("R", &["x", "x"]), ("S", &["x", "y"])]).unwrap();
        let r = Relation::from_rows("R", 2, &[&[1, 1], &[2, 3], &[4, 4], &[4, 4]]);
        let s = Relation::from_rows("S", 2, &[&[1, 10], &[4, 11], &[4, 12], &[5, 13]]);
        let mut dynamic = answers(&q, &[&r, &s], JoinOrder::Dynamic);
        let mut fixed = answers(&q, &[&r, &s], JoinOrder::Fixed);
        dynamic.sort();
        fixed.sort();
        assert_eq!(dynamic, fixed);
        // (1,10), (4,11) x2, (4,12) x2 — R's duplicate (4,4) doubles them.
        assert_eq!(dynamic.len(), 5);
    }

    #[test]
    fn chain_join_matches_nested_loop() {
        // Cross-check the indexed join against a brute-force nested loop on
        // random data.
        let q = named::chain(3);
        let mut rng = Rng::seed_from_u64(99);
        let r1 = generators::uniform("S1", 2, 200, 32, &mut rng);
        let r2 = generators::uniform("S2", 2, 200, 32, &mut rng);
        let r3 = generators::uniform("S3", 2, 200, 32, &mut rng);
        let fast = count(&q, &[&r1, &r2, &r3], JoinOrder::Dynamic);
        let mut slow = 0u64;
        for a in r1.rows() {
            for b in r2.rows() {
                if a[1] != b[0] {
                    continue;
                }
                for c in r3.rows() {
                    if b[1] == c[0] {
                        slow += 1;
                    }
                }
            }
        }
        assert_eq!(fast, slow);
    }

    #[test]
    fn join_database_wrapper() {
        let q = named::two_way_join();
        let s1 = Relation::from_rows("S1", 2, &[&[1, 5]]);
        let s2 = Relation::from_rows("S2", 2, &[&[7, 5]]);
        let db = Database::new(q, vec![s1, s2], 16).unwrap();
        assert_eq!(Join::of(&db).count(), Ok(1));
        assert_eq!(Join::of(&db).answers().unwrap().len(), 1);
    }

    #[test]
    fn dynamic_matches_fixed_on_query_menagerie() {
        // The two engines must produce the same answer *multiset* (sorted
        // with duplicates preserved, not deduped) on every query shape.
        let cases: Vec<(Query, usize, u64)> = vec![
            (named::two_way_join(), 400, 64),
            (named::cycle(3), 300, 24),
            (named::cycle(4), 200, 16),
            (named::chain(4), 300, 48),
            (named::star(3), 300, 48),
            (named::cartesian(2), 40, 128),
            (
                mpc_query::Query::build("q", &[("R", &["x", "x", "y"]), ("S", &["y", "z"])])
                    .unwrap(),
                200,
                12,
            ),
        ];
        for (q, m, n) in cases {
            let mut rng = Rng::seed_from_u64(0xD15C);
            let rels: Vec<Relation> = q
                .atoms()
                .iter()
                .map(|a| generators::uniform(a.name(), a.arity(), m, n, &mut rng))
                .collect();
            let refs: Vec<&Relation> = rels.iter().collect();
            let mut dynamic = answers(&q, &refs, JoinOrder::Dynamic);
            let mut fixed = answers(&q, &refs, JoinOrder::Fixed);
            assert_eq!(
                count(&q, &refs, JoinOrder::Dynamic),
                dynamic.len() as u64,
                "{}: count vs materialized",
                q.name()
            );
            // An unlimited budget is the no-budget evaluation: same
            // emissions in the same order, same exploration stats.
            let unlimited = QueryBudget::unlimited();
            for (order, plain) in [(JoinOrder::Dynamic, &dynamic), (JoinOrder::Fixed, &fixed)] {
                let mut budgeted = AnswerSet::new(q.num_vars());
                let budgeted_stats = Join::new(&q, &refs)
                    .order(order)
                    .budget(&unlimited)
                    .for_each(|row, mult| budgeted.push_repeat(row, mult));
                let plain_stats = Join::new(&q, &refs).order(order).for_each(|_, _| {});
                assert_eq!(budgeted_stats, plain_stats, "{} {order:?}", q.name());
                assert_eq!(&budgeted, plain, "{} {order:?}", q.name());
            }
            dynamic.sort();
            fixed.sort();
            assert_eq!(dynamic, fixed, "{}", q.name());
        }
    }

    #[test]
    fn dynamic_explores_no_more_bindings_on_local_skew() {
        // A locally skewed triangle: one heavy x2-value shared by S1 and
        // S2. The fixed order walks every (S1 row, S2 match) pair through
        // the heavy value; the dynamic order binds x2 first (few distinct
        // values) and collapses the heavy value to one branch.
        let q = named::cycle(3);
        let mut s1 = Relation::new("S1", 2);
        let mut s2 = Relation::new("S2", 2);
        let mut s3 = Relation::new("S3", 2);
        for i in 0..240u64 {
            // 200 of 240 rows share x2 = 0.
            let hot = if i < 200 { 0 } else { 1 + i % 13 };
            s1.push(&[i % 60, hot]);
            s2.push(&[hot, i % 60]);
            s3.push(&[i % 60, (i * 7) % 60]);
        }
        let refs = [&s1, &s2, &s3];
        let mut dyn_count = 0u64;
        let dyn_stats = Join::new(&q, &refs)
            .for_each(|_, mult| dyn_count += mult)
            .unwrap();
        let mut fixed_count = 0u64;
        let fixed_stats = Join::new(&q, &refs)
            .order(JoinOrder::Fixed)
            .for_each(|_, mult| fixed_count += mult)
            .unwrap();
        assert_eq!(dyn_count, fixed_count);
        assert!(dyn_stats.bindings_visited > 0);
        assert!(
            dyn_stats.bindings_visited <= fixed_stats.bindings_visited,
            "dynamic {} vs fixed {}",
            dyn_stats.bindings_visited,
            fixed_stats.bindings_visited
        );
    }

    #[test]
    fn visited_bindings_probe_accumulates() {
        let q = named::two_way_join();
        let s1 = Relation::from_rows("S1", 2, &[&[1, 5], &[2, 5]]);
        let s2 = Relation::from_rows("S2", 2, &[&[7, 5]]);
        let before = visited_bindings_total();
        let stats = Join::new(&q, &[&s1, &s2]).for_each(|_, _| {}).unwrap();
        assert!(stats.bindings_visited > 0);
        // Other tests run in the same process; the global only ever grows.
        assert!(visited_bindings_total() - before >= stats.bindings_visited);
    }

    #[test]
    fn atom_order_is_deterministic_and_documented() {
        // Equal sizes: overlap decides, remaining ties fall to the atom
        // index. cycle(3) = S1(x1,x2), S2(x2,x3), S3(x3,x1).
        let q = named::cycle(3);
        let rows: Vec<&[u64]> = vec![&[1, 2], &[2, 3], &[3, 1], &[4, 4]];
        let equal: Vec<Relation> = (1..=3)
            .map(|i| Relation::from_rows(format!("S{i}"), 2, &rows))
            .collect();
        let refs: Vec<&Relation> = equal.iter().collect();
        assert_eq!(atom_order(&q, &refs), vec![0, 1, 2]);

        // Smallest first at step 0; then both S1 and S3 overlap S2 by one
        // variable at equal size, so the lower atom index (S1) wins.
        let small = Relation::from_rows("S2", 2, &[&[2, 3]]);
        let refs = vec![&equal[0], &small, &equal[2]];
        assert_eq!(atom_order(&q, &refs), vec![1, 0, 2]);
    }

    #[test]
    #[should_panic(expected = "u32 row-id space")]
    fn join_index_rejects_u32_row_id_overflow() {
        // The guard itself is exercised directly: materializing a 4-billion
        // row relation in a test is not practical.
        assert_indexable("R", u32::MAX as usize);
    }

    #[test]
    fn partitioned_join_is_exact_across_queries_and_bucket_counts() {
        // The concatenated bucket outputs must equal the sequential join as
        // a multiset (here compared sorted, duplicates preserved) for every
        // query shape, including the no-shared-variable cartesian where all
        // atoms but the key atom are replicated.
        let cases: Vec<(Query, usize, u64)> = vec![
            (named::two_way_join(), 400, 128),
            (named::cycle(3), 300, 32),
            (named::chain(3), 300, 64),
            (named::star(2), 300, 64),
            (named::cartesian(2), 40, 256),
        ];
        for (q, m, n) in cases {
            let mut rng = Rng::seed_from_u64(0xACE5);
            let rels: Vec<Relation> = q
                .atoms()
                .iter()
                .map(|a| generators::uniform(a.name(), a.arity(), m, n, &mut rng))
                .collect();
            let refs: Vec<&Relation> = rels.iter().collect();
            let mut expected = answers(&q, &refs, JoinOrder::Dynamic);
            expected.sort();
            for buckets in [1usize, 2, 7, 16] {
                let parts = partition_join(&q, &refs, buckets);
                assert_eq!(parts.num_buckets(), buckets.max(1), "{}", q.name());
                let mut got = mpc_data_answers_concat(&parts);
                got.sort();
                assert_eq!(got, expected, "{} with {buckets} buckets", q.name());
            }
        }
    }

    #[test]
    fn partitioned_join_handles_skew_and_duplicates() {
        // A single heavy value lands in one bucket; duplicate rows keep
        // their multiplicity.
        let q = named::two_way_join();
        let mut s1 = Relation::new("S1", 2);
        let mut s2 = Relation::new("S2", 2);
        for i in 0..200u64 {
            s1.push(&[i, 7]); // all of S1 shares z = 7
            s2.push(&[i % 3, 7]);
        }
        let refs = [&s1, &s2];
        let mut expected = answers(&q, &refs, JoinOrder::Dynamic);
        expected.sort();
        let parts = partition_join(&q, &refs, 8);
        let mut got = mpc_data_answers_concat(&parts);
        got.sort();
        assert_eq!(got, expected);
        assert_eq!(got.len(), 200 * 200);
        // Exactly one bucket is non-empty: z = 7 hashes to a single bucket.
        let busy = (0..8)
            .filter(|&b| parts.bucket(b).count().unwrap() > 0)
            .count();
        assert_eq!(busy, 1);
    }

    #[test]
    fn bucket_mult_foreach_matches_expanded_answers() {
        // The multiplicity-aware bucket walk must expand to exactly the
        // per-row walk, on both engines.
        let q = named::two_way_join();
        let mut rng = Rng::seed_from_u64(0xBEEF);
        let s1 = generators::uniform("S1", 2, 300, 16, &mut rng);
        let s2 = generators::uniform("S2", 2, 300, 16, &mut rng);
        let parts = partition_join(&q, &[&s1, &s2], 4);
        for order in [JoinOrder::Dynamic, JoinOrder::Fixed] {
            for b in 0..parts.num_buckets() {
                let mut via_mult = AnswerSet::new(q.num_vars());
                parts
                    .bucket(b)
                    .order(order)
                    .for_each(|row, mult| via_mult.push_repeat(row, mult))
                    .unwrap();
                let mut expected = parts.bucket(b).answers().unwrap();
                via_mult.sort();
                expected.sort();
                assert_eq!(via_mult, expected, "{order:?} bucket {b}");
            }
        }
    }

    #[test]
    fn expected_answer_count_matches_lemma_a1() {
        // E[|q(I)|] = n^{k-a} * prod m_j (Lemma A.1). For the two-way join:
        // k=3, a=4 => expected = m1*m2/n. Empirically average over seeds.
        let q = named::two_way_join();
        let n = 64u64;
        let (m1, m2) = (500usize, 400usize);
        let mut total = 0u64;
        let seeds = 20;
        for seed in 0..seeds {
            let mut rng = Rng::seed_from_u64(seed);
            let s1 = generators::uniform("S1", 2, m1, n, &mut rng);
            let s2 = generators::uniform("S2", 2, m2, n, &mut rng);
            total += count(&q, &[&s1, &s2], JoinOrder::Dynamic);
        }
        let avg = total as f64 / seeds as f64;
        let expected = m1 as f64 * m2 as f64 / n as f64;
        assert!(
            (avg - expected).abs() < expected * 0.15,
            "avg {avg} vs expected {expected}"
        );
    }

    #[test]
    fn tripped_row_cap_returns_err_and_relations_stay_usable() {
        let q = named::two_way_join();
        let mut rng = Rng::seed_from_u64(0xCA9);
        let s1 = generators::uniform("S1", 2, 300, 16, &mut rng);
        let s2 = generators::uniform("S2", 2, 300, 16, &mut rng);
        let refs = [&s1, &s2];
        for order in [JoinOrder::Dynamic, JoinOrder::Fixed] {
            let full = count(&q, &refs, order);
            assert!(full > 100);
            let capped = QueryBudget::new(None, Some(100), None);
            let mut seen = 0u64;
            let err = Join::new(&q, &refs)
                .order(order)
                .budget(&capped)
                .for_each(|_, mult| seen += mult)
                .expect_err("100 rows cannot hold the full join");
            assert_eq!(err.kind, crate::budget::BudgetKind::Rows, "{order:?}");
            assert!(seen <= 100, "{order:?}: sink saw {seen} rows past the cap");
            // The trip is sticky on the budget, not on the data: the same
            // relations evaluate in full under a roomy cap.
            let roomy = QueryBudget::new(None, Some(full), None);
            let budgeted = Join::new(&q, &refs).order(order).budget(&roomy).count();
            assert_eq!(budgeted, Ok(full), "{order:?}");
        }
    }
}
