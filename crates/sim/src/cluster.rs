//! The one-round MPC cluster simulator.
//!
//! The MPC model (Section 2.1): `p` servers, one global communication round,
//! cost = maximum bits received by a server. An algorithm in this simulator
//! is a [`Router`]: a pure function from `(atom, tuple)` to destinations,
//! evaluated tuple-at-a-time — exactly the paper's upper-bound model in
//! which "all our algorithms treat tuples in `S_j` independently of other
//! tuples". After the round, every server holds one fragment per relation
//! and evaluates the query locally; [`Cluster::all_answers`] unions the
//! per-server outputs.
//!
//! A router names destinations in two parts. [`Router::route`] emits a
//! tuple's *keys*, and [`Router::holders`] gives, per atom, the offsets
//! from a key to every server that holds the key's fragment: the rows
//! routed to one key form one fragment, held by all of its holders. Most
//! routers have one holder per key (the key is the server). HyperCube has
//! one key per subcube slice, and every server of the slice holds it: the
//! paper's replication along the dimensions an atom lacks. The cluster
//! stores such a fragment once and its holders share it, so their local
//! joins also share its indexes ([`Cluster::fold_answers`]). The model
//! still charges every holder for every tuple it holds: load is counted
//! per server ([`Cluster::report`]), exactly as if each had received its
//! own copy.
//!
//! A round is one kernel for every backend — **route → count → scatter**
//! ([`Cluster::try_run_round_on`]): every tuple is routed once into a flat
//! key list, the per-key counts size every fragment exactly, and every
//! tuple word is then copied once per key, straight from the input relation
//! into its fragments.

use crate::backend::Backend;
use crate::load::LoadReport;
use mpc_data::answers::{sort_rows, AnswerSet};
use mpc_data::budget::{BudgetExceeded, QueryBudget};
use mpc_data::catalog::Database;
use mpc_data::failpoint;
use mpc_data::join::{IndexCache, Join};
use mpc_data::relation::Relation;
use mpc_query::Query;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Smallest relation share a shuffle worker is worth spawning for.
/// [`Backend::workers_for`] rounds the chunk count up, so every chunk of a
/// split relation holds more than half of this — over 2 048 rows. A scoped
/// spawn and join costs ~15 µs (2-core x86-64 VM): the time the cheapest
/// router, compiled HyperCube at ~8 ns a row, takes for ~1 850 rows.
const SHUFFLE_MIN_CHUNK: usize = 4096;
/// Rows routed between two budget polls.
const BUDGET_POLL_ROWS: usize = 512;

/// A one-round tuple routing policy. `route` appends the keys of `tuple`
/// of atom `atom` to `out` (`out` arrives cleared; duplicates are
/// tolerated and deduplicated by the simulator); the tuple reaches every
/// server `key + offset` for `offset` in [`Router::holders`].
pub trait Router {
    /// Compute the keys of one tuple.
    fn route(&self, atom: usize, tuple: &[u64], out: &mut Vec<usize>);

    /// Ascending offsets from a key of atom `atom` to every server that
    /// holds the key's fragment. Two keys of one atom must not share a
    /// holder. The default, `[0]`, makes the key the server.
    fn holders(&self, _atom: usize) -> &[u32] {
        &[0]
    }
}

impl<F: Fn(usize, &[u64], &mut Vec<usize>)> Router for F {
    fn route(&self, atom: usize, tuple: &[u64], out: &mut Vec<usize>) {
        self(atom, tuple, out)
    }
}

/// The post-shuffle state: per atom, its distinct fragments and which one
/// each server holds.
#[derive(Clone, Debug)]
pub struct Cluster {
    p: usize,
    value_bits: u32,
    input_bits: u64,
    /// One entry per atom.
    atoms: Vec<Held>,
    /// Execution backend for the local joins (the one the shuffle ran on).
    backend: Backend,
}

/// One atom's fragments after a round.
#[derive(Clone, Debug)]
struct Held {
    /// Slot 0 is the empty fragment of every server no key reaches; then
    /// one fragment per key that received a row, in key order.
    fragments: Vec<Relation>,
    /// `slot[server]`: the fragment the server holds.
    slot: Vec<u32>,
}

/// One routed row range of one relation: every row's keys, and how many
/// rows every key receives. Rows are not copied here — the scatter reads
/// them from the relation once the fragment sizes are known.
struct Routed {
    /// First row of the range.
    lo: usize,
    /// Every row's keys, concatenated; one row's run is strictly
    /// ascending.
    keys: Vec<u32>,
    /// `ends[k]` is where row `lo + k`'s run ends in `keys`.
    ends: Vec<u32>,
    /// Rows routed to each of the `p` keys.
    counts: Vec<usize>,
}

/// Route rows `lo..hi` of `rel` (atom `j`): the one place
/// [`Router::route`] is called, once per row, on every backend. A key
/// list that is not already strictly ascending (compiled HyperCube routes
/// always are) is sorted and deduplicated; a key whose last holder
/// (`key + reach`) is not a server panics. The budget is polled before the
/// first row and again every [`BUDGET_POLL_ROWS`] rows.
#[allow(clippy::too_many_arguments)]
fn route_rows(
    rel: &Relation,
    j: usize,
    name: &str,
    lo: usize,
    hi: usize,
    p: usize,
    reach: usize,
    router: &(impl Router + Sync),
    budget: &QueryBudget,
) -> Result<Routed, BudgetExceeded> {
    failpoint::hit("shuffle");
    let mut routed = Routed {
        lo,
        keys: Vec::with_capacity(hi - lo),
        ends: Vec::with_capacity(hi - lo),
        counts: vec![0; p],
    };
    let mut out: Vec<usize> = Vec::new();
    let mut block = lo;
    loop {
        budget.poll()?;
        let block_hi = hi.min(block + BUDGET_POLL_ROWS);
        for i in block..block_hi {
            out.clear();
            router.route(j, rel.row(i), &mut out);
            if !out.windows(2).all(|w| w[0] < w[1]) {
                out.sort_unstable();
                out.dedup();
            }
            if out.last().is_some_and(|&last| last + reach >= p) {
                let key = out
                    .iter()
                    .find(|&&k| k + reach >= p)
                    .expect("the last one is");
                let server = key + reach;
                panic!("router sent a tuple of atom {j} ({name}) to server {server} >= p={p}");
            }
            // `key < p <= u32::MAX` was checked above and at round start.
            let counts = &mut routed.counts;
            routed.keys.extend(out.iter().map(|&key| {
                counts[key] += 1;
                key as u32
            }));
            let end =
                u32::try_from(routed.keys.len()).expect("one chunk routes fewer than 2^32 keys");
            routed.ends.push(end);
        }
        if block_hi == hi {
            return Ok(routed);
        }
        block = block_hi;
    }
}

/// Copy every routed row of one chunk into its keys' (flat, row-major)
/// buffers, in row order. The buffers were reserved at their final size,
/// so no copy reallocates.
fn scatter(rel: &Relation, routed: &Routed, bufs: &mut [Vec<u64>]) {
    fn copy_rows<R: AsRef<[u64]>>(
        rows: impl Iterator<Item = R>,
        routed: &Routed,
        bufs: &mut [Vec<u64>],
    ) {
        let mut start = 0usize;
        for (row, &end) in rows.zip(&routed.ends) {
            for &key in &routed.keys[start..end as usize] {
                bufs[key as usize].extend_from_slice(row.as_ref());
            }
            start = end as usize;
        }
    }
    fn fixed<const A: usize>(row: &[u64]) -> &[u64; A] {
        row.try_into().expect("a row is `arity` values long")
    }
    let rows = rel.rows().skip(routed.lo);
    // A row length known at compile time makes each copy a couple of plain
    // stores instead of a `memcpy` call: a third off the scatter of the
    // binary relations nearly every query here is made of.
    match rel.arity() {
        2 => copy_rows(rows.map(fixed::<2>), routed, bufs),
        3 => copy_rows(rows.map(fixed::<3>), routed, bufs),
        _ => copy_rows(rows, routed, bufs),
    }
}

impl Cluster {
    /// Execute one communication round of `router` over `db` on `p` servers,
    /// with the backend chosen by [`Backend::from_env`].
    ///
    /// # Panics
    /// Panics when a router emits an out-of-range server id, naming the
    /// offending atom and server.
    pub fn run_round(db: &Database, p: usize, router: &(impl Router + Sync)) -> Cluster {
        Cluster::run_round_on(db, p, router, Backend::from_env())
    }

    /// [`Cluster::run_round`] on an explicit [`Backend`].
    ///
    /// Fragment tuple order — hence answers and [`LoadReport`]s — is
    /// independent of the thread count: see
    /// [`Cluster::try_run_round_on`] for how a round is executed.
    pub fn run_round_on(
        db: &Database,
        p: usize,
        router: &(impl Router + Sync),
        backend: Backend,
    ) -> Cluster {
        Cluster::try_run_round_on(db, p, router, backend, &QueryBudget::unlimited())
            .expect("an unlimited budget cannot be exceeded")
    }

    /// [`Cluster::run_round_on`] under a cooperative [`QueryBudget`].
    ///
    /// Every relation goes through one **route → count → scatter** kernel,
    /// whatever the backend:
    ///
    /// 1. *Route.* The relation's rows are split into contiguous chunks
    ///    (one on [`Backend::Sequential`]; on `Threads(n)` at most `n`,
    ///    and one per 4 096 rows rounded up, routed in parallel). Each chunk
    ///    calls [`Router::route`] once per row and records the keys and
    ///    per-key row counts — no tuple is copied yet. The `shuffle`
    ///    failpoint is hit once per routed chunk.
    /// 2. *Count.* The per-key counts are summed over the chunks and the
    ///    fragment of every key that received a row is allocated once, at
    ///    its exact size.
    /// 3. *Scatter.* The calling thread copies every row to its keys in
    ///    chunk-then-row order, so fragment tuple order is the relation's
    ///    row order on every backend. When the relation was split, the
    ///    `merge` failpoint is hit once per scattered chunk. Every holder
    ///    of a key ([`Router::holders`]) is then given that one fragment.
    ///
    /// # Panics
    /// Panics when a key's holder is not a server, or when two keys of one
    /// atom share a holder.
    ///
    /// The budget is polled by the routing step: at the start of every
    /// chunk and again every 512 rows, on both backends, so an expired
    /// deadline stops the shuffle within that many `route` calls. On a trip
    /// the partially routed round is dropped and a clean `Err` comes back;
    /// the kernel keeps no state between rounds, so nothing is poisoned for
    /// the next one.
    pub fn try_run_round_on(
        db: &Database,
        p: usize,
        router: &(impl Router + Sync),
        backend: Backend,
        budget: &QueryBudget,
    ) -> Result<Cluster, BudgetExceeded> {
        assert!(p > 0, "cluster needs at least one server");
        assert!(u32::try_from(p).is_ok(), "server ids must fit in 32 bits");
        let q = db.query();
        let mut atoms: Vec<Held> = Vec::with_capacity(q.num_atoms());
        for (j, rel) in db.relations().iter().enumerate() {
            let rel: &Relation = rel;
            let name = q.atom(j).name();
            let holders = router.holders(j);
            let reach = *holders.last().expect("a key has a holder") as usize;
            let split = backend.workers_for(rel.len(), SHUFFLE_MIN_CHUNK) > 1;
            let route = |lo, hi| route_rows(rel, j, name, lo, hi, p, reach, router, budget);
            let chunks: Vec<Routed> = if split {
                backend.run_chunks(rel.len(), SHUFFLE_MIN_CHUNK, route)
            } else {
                vec![route(0, rel.len())]
            }
            .into_iter()
            .collect::<Result<_, _>>()?;
            let arity = rel.arity();
            let mut bufs: Vec<Vec<u64>> = (0..p)
                .map(|k| {
                    let rows: usize = chunks.iter().map(|c| c.counts[k]).sum();
                    Vec::with_capacity(rows * arity)
                })
                .collect();
            for chunk in &chunks {
                if split {
                    failpoint::hit("merge");
                }
                scatter(rel, chunk, &mut bufs);
            }
            atoms.push(Held::place(name, arity, bufs, holders));
        }
        Ok(Cluster {
            p,
            value_bits: db.value_bits(),
            input_bits: db.total_bits(),
            atoms,
            backend,
        })
    }

    /// Number of servers.
    pub fn p(&self) -> usize {
        self.p
    }

    /// The fragment of atom `j` on `server`. Servers holding one key's
    /// fragment get the same storage.
    pub fn fragment(&self, atom: usize, server: usize) -> &Relation {
        let held = &self.atoms[atom];
        &held.fragments[held.slot[server] as usize]
    }

    /// Exact load accounting for the round: one sequential pass reading
    /// each server's fragment lengths and bit sizes (O(p · atoms) words,
    /// too little work to be worth a thread), so the report is the same
    /// whatever the backend. A fragment counts in full on every server
    /// that holds it.
    pub fn report(&self) -> LoadReport {
        let mut per_server_bits = vec![0u64; self.p];
        let mut per_server_tuples = vec![0u64; self.p];
        let mut per_atom_server_tuples = Vec::with_capacity(self.atoms.len());
        for held in &self.atoms {
            let frags = held.slot.iter().map(|&k| &held.fragments[k as usize]);
            let tuples: Vec<u64> = frags.clone().map(|f| f.len() as u64).collect();
            for (s, f) in frags.enumerate() {
                per_server_tuples[s] += tuples[s];
                per_server_bits[s] += f.bit_size(self.value_bits);
            }
            per_atom_server_tuples.push(tuples);
        }
        LoadReport {
            per_server_bits,
            per_server_tuples,
            per_atom_server_tuples,
            input_bits: self.input_bits,
        }
    }

    /// The union of all servers' answers, sorted and deduplicated. A correct
    /// one-round algorithm makes this equal to the sequential join.
    ///
    /// The per-server local joins are independent, so the cluster's backend
    /// evaluates server ranges in parallel into flat per-worker
    /// [`AnswerSet`]s and merges them in server-index order before the final
    /// arity-aware sort — answers are identical for every thread count.
    pub fn all_answers(&self, query: &Query) -> AnswerSet {
        self.try_all_answers(query, &QueryBudget::unlimited())
            .expect("an unlimited budget cannot be exceeded")
    }

    /// [`Cluster::all_answers`] under a cooperative [`QueryBudget`]: every
    /// server's local join polls the budget and charges emitted rows
    /// against the (shared) row cap, so an overgrown output trips cleanly
    /// instead of materializing. Each emitted binding is collected once,
    /// whatever its `mult`: the union is deduplicated anyway.
    pub fn try_all_answers(
        &self,
        query: &Query,
        budget: &QueryBudget,
    ) -> Result<AnswerSet, BudgetExceeded> {
        let parts = self.fold_answers(
            query,
            budget,
            || AnswerSet::new(query.num_vars()),
            |local, row, _| {
                local.push(row);
                Ok(())
            },
        )?;
        let mut out = AnswerSet::new(query.num_vars());
        for part in parts {
            out.append(part);
        }
        out.sort_dedup();
        Ok(out)
    }

    /// Fold every server's local join into accumulators without ever
    /// materializing an [`AnswerSet`] — the collection half of aggregate
    /// pushdown, and of the multi-round baseline's bag intermediates.
    /// `fold` sees each server's emits as [`Join::for_each`] makes them,
    /// `(binding, mult)` with `mult` the number of *local derivations*.
    /// When the routing partitions the join's derivation multiset across
    /// servers (every aggregate-eligible plan does — see
    /// `mpc_core::aggregate`), summing per-server folds of a
    /// derivation-additive aggregate is exact.
    ///
    /// Server ranges run in parallel on the cluster's backend (one `init`
    /// accumulator per worker chunk); the chunk accumulators come back in
    /// server-index order, so an order-sensitive merge stays deterministic
    /// — though a correct aggregate merge is commutative anyway.
    ///
    /// The holders of one fragment share one [`IndexCache`], so each
    /// (fragment, key-position set) index is built once per fold, not once
    /// per server; a cache drops its indexes when its last holder's join
    /// is done, so a fragment with one holder keeps them no longer than
    /// that join.
    ///
    /// A budget is a property of the evaluation: every local join polls
    /// `budget` and charges emitted rows against its row cap
    /// ([`QueryBudget::unlimited`] costs nothing), and the fold itself is
    /// fallible so accumulators can charge their own resources (the
    /// aggregate path trips on its group cap); the first error in
    /// server-index order wins.
    pub fn fold_answers<A: Send>(
        &self,
        query: &Query,
        budget: &QueryBudget,
        init: impl Fn() -> A + Sync,
        fold: impl Fn(&mut A, &[u64], u64) -> Result<(), BudgetExceeded> + Sync,
    ) -> Result<Vec<A>, BudgetExceeded> {
        self.join_servers(query, budget, init, |acc, join| {
            let mut failed = None;
            join.for_each(|row, mult| {
                if failed.is_none() {
                    failed = fold(acc, row, mult).err();
                }
            })?;
            failed.map_or(Ok(()), Err)
        })
    }

    /// The number of distinct answers when every binding is produced on
    /// one server only — true of a router that partitions derivations
    /// and sends equal rows to the same servers (HyperCube, the §4.1 skew
    /// join, the hash-join and fragment-replicate baselines), not of the
    /// §4.2 general algorithm or a broadcast. It is then `Σ_s distinct_s`,
    /// summed over each server's own distinct bindings, and no
    /// [`AnswerSet`] is built: a worker keeps one flat buffer, collects one
    /// server's emits into it (each once, not `mult` times), counts them
    /// with [`sort_rows`] (a server may emit one binding more than once,
    /// see [`Join::for_each`]), and clears it for the next server. Runs
    /// under `budget` like [`Cluster::fold_answers`], charging the same
    /// rows.
    pub fn partitioned_answer_count(
        &self,
        query: &Query,
        budget: &QueryBudget,
    ) -> Result<u64, BudgetExceeded> {
        let arity = query.num_vars();
        let parts = self.join_servers(
            query,
            budget,
            || (0u64, Vec::new()),
            |(count, buf), join| {
                join.for_each(|row, _| buf.extend_from_slice(row))?;
                *count += sort_rows(buf, arity, true) as u64;
                buf.clear();
                Ok(())
            },
        )?;
        Ok(parts.into_iter().map(|(count, _)| count).sum())
    }

    /// The server loop behind [`Cluster::fold_answers`] and
    /// [`Cluster::partitioned_answer_count`]: `server` runs each server's
    /// budgeted local join into its worker chunk's accumulator, over
    /// [`IndexCache`]s the holders of a fragment share, and the last
    /// holder of a fragment to finish clears its cache.
    fn join_servers<A: Send>(
        &self,
        query: &Query,
        budget: &QueryBudget,
        init: impl Fn() -> A + Sync,
        server: impl Fn(&mut A, Join<'_>) -> Result<(), BudgetExceeded> + Sync,
    ) -> Result<Vec<A>, BudgetExceeded> {
        // Per atom, per fragment: its cache and its holders yet to join.
        let caches: Vec<Vec<(IndexCache, AtomicUsize)>> = (self.atoms.iter())
            .map(|held| {
                let mut holders = vec![0; held.fragments.len()];
                for &k in &held.slot {
                    holders[k as usize] += 1;
                }
                let pending = holders.into_iter().map(AtomicUsize::new);
                held.fragments
                    .iter()
                    .map(IndexCache::new)
                    .zip(pending)
                    .collect()
            })
            .collect();
        let parts = self.backend.run_chunks(self.p, 1, |lo, hi| {
            let mut acc = init();
            for s in lo..hi {
                let mine =
                    || (self.atoms.iter().zip(&caches)).map(|(held, c)| &c[held.slot[s] as usize]);
                let joined = server(
                    &mut acc,
                    Join::indexed(query, mine().map(|(cache, _)| cache)).budget(budget),
                );
                for (cache, pending) in mine() {
                    if pending.fetch_sub(1, Ordering::AcqRel) == 1 {
                        cache.clear();
                    }
                }
                joined?;
            }
            Ok(acc)
        });
        parts.into_iter().collect()
    }
}

impl Held {
    /// Turn one atom's per-key row buffers into its fragments: every key
    /// that received a row gets a fragment, held by `key + offset` for
    /// every offset in `holders`; every other server holds the empty one.
    fn place(name: &str, arity: usize, bufs: Vec<Vec<u64>>, holders: &[u32]) -> Held {
        let p = bufs.len();
        let keys = bufs.iter().filter(|buf| !buf.is_empty()).count();
        let mut held = Held {
            fragments: Vec::with_capacity(keys + 1),
            slot: vec![0; p],
        };
        held.fragments.push(Relation::new(name, arity));
        for (key, buf) in bufs.into_iter().enumerate() {
            if buf.is_empty() {
                continue;
            }
            let k = u32::try_from(held.fragments.len()).expect("p fits in 32 bits");
            held.fragments.push(Relation::from_flat(name, arity, buf));
            for &offset in holders {
                let server = key + offset as usize;
                assert_eq!(
                    held.slot[server], 0,
                    "two keys of atom {name} share holder {server}"
                );
                held.slot[server] = k;
            }
        }
        held
    }
}

/// A router that broadcasts every tuple of every relation to all servers
/// (the trivially correct, maximally expensive baseline; footnote 1 of the
/// paper uses broadcasting for tiny relations).
pub struct BroadcastRouter {
    /// Number of servers.
    pub p: usize,
}

impl Router for BroadcastRouter {
    fn route(&self, _atom: usize, _tuple: &[u64], out: &mut Vec<usize>) {
        out.extend(0..self.p);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpc_data::generators;
    use mpc_data::rng::Rng;
    use mpc_query::named;

    fn join_db(m: usize, seed: u64) -> Database {
        let q = named::two_way_join();
        let n = 1u64 << 12;
        let mut rng = Rng::seed_from_u64(seed);
        let s1 = generators::uniform("S1", 2, m, n, &mut rng);
        let s2 = generators::uniform("S2", 2, m, n, &mut rng);
        Database::new(q, vec![s1, s2], n).unwrap()
    }

    #[test]
    fn broadcast_is_correct_and_expensive() {
        let db = join_db(500, 1);
        let p = 8;
        let cluster = Cluster::run_round(&db, p, &BroadcastRouter { p });
        let expected = {
            let mut ans = Join::of(&db).answers().unwrap();
            ans.sort_dedup();
            ans
        };
        assert_eq!(cluster.all_answers(db.query()), expected);
        let report = cluster.report();
        // Every server got everything.
        assert_eq!(report.max_load_bits(), db.total_bits());
        assert!((report.replication_rate() - p as f64).abs() < 1e-9);
    }

    #[test]
    fn hash_join_router_is_correct() {
        // Route both relations by hashing z (attribute 1 of each) to p
        // buckets: the classic parallel hash join.
        let db = join_db(800, 2);
        let p = 16usize;
        let key = 0xDEAD_BEEFu64;
        let router = move |_atom: usize, tuple: &[u64], out: &mut Vec<usize>| {
            out.push((mpc_data::mix64(tuple[1], key) % p as u64) as usize);
        };
        let cluster = Cluster::run_round(&db, p, &router);
        let expected = {
            let mut ans = Join::of(&db).answers().unwrap();
            ans.sort_dedup();
            ans
        };
        assert_eq!(cluster.all_answers(db.query()), expected);
        // No replication: every tuple goes to exactly one server.
        let report = cluster.report();
        assert!((report.replication_rate() - 1.0).abs() < 1e-9);
        assert_eq!(report.total_tuples(), 1600);
    }

    #[test]
    fn partitioned_count_needs_each_binding_on_one_server() {
        // Every row three times over a small domain: each server's join
        // emits bindings repeatedly. Hashing z keeps equal rows together,
        // so the per-server count is the answer count; a broadcast puts
        // every answer on every server and counts it p times.
        let mut db = join_db(300, 5);
        let rels: Vec<Relation> = (db.relations().iter())
            .map(|r| {
                let mut flat = Vec::new();
                for _ in 0..3 {
                    flat.extend(r.rows().flat_map(|row| row.iter().map(|v| v % 32)));
                }
                Relation::from_flat(r.name(), 2, flat)
            })
            .collect();
        db = Database::new(db.query().clone(), rels, 32).unwrap();
        let p = 8usize;
        let distinct = {
            let mut ans = Join::of(&db).answers().unwrap();
            ans.sort_dedup();
            ans.len() as u64
        };
        let unlimited = &QueryBudget::unlimited();
        let hash = |_atom: usize, tuple: &[u64], out: &mut Vec<usize>| {
            out.push((mpc_data::mix64(tuple[1], 3) % p as u64) as usize);
        };
        let hashed = Cluster::run_round(&db, p, &hash);
        let counted = hashed.partitioned_answer_count(db.query(), unlimited);
        assert_eq!(counted, Ok(distinct));
        let everywhere = Cluster::run_round(&db, p, &BroadcastRouter { p });
        let counted = everywhere.partitioned_answer_count(db.query(), unlimited);
        assert_eq!(counted, Ok(p as u64 * distinct));
        assert_eq!(everywhere.all_answers(db.query()).len() as u64, distinct);
    }

    #[test]
    fn dropping_tuples_loses_answers() {
        // A router that drops one relation entirely must lose answers
        // (sanity check that verification catches broken algorithms).
        let db = join_db(500, 3);
        let p = 4usize;
        let router = move |atom: usize, _tuple: &[u64], out: &mut Vec<usize>| {
            if atom == 0 {
                out.push(0);
            } // atom 1 dropped
        };
        let cluster = Cluster::run_round(&db, p, &router);
        assert!(cluster.all_answers(db.query()).is_empty());
    }

    #[test]
    fn report_counts_replication() {
        let db = join_db(100, 4);
        let p = 4usize;
        // Send S1 tuples to two servers each, S2 to one.
        let router = move |atom: usize, tuple: &[u64], out: &mut Vec<usize>| {
            let h = (mpc_data::mix64(tuple[1], 7) % p as u64) as usize;
            out.push(h);
            if atom == 0 {
                out.push((h + 1) % p);
            }
        };
        let cluster = Cluster::run_round(&db, p, &router);
        let report = cluster.report();
        assert_eq!(report.total_tuples(), 100 * 2 + 100);
    }

    #[test]
    fn duplicate_destinations_are_deduped() {
        let db = join_db(50, 5);
        let router = |_atom: usize, _tuple: &[u64], out: &mut Vec<usize>| {
            out.extend([2usize, 2, 2]);
        };
        let cluster = Cluster::run_round(&db, 4, &router);
        let report = cluster.report();
        assert_eq!(report.per_server_tuples[2], 100);
        assert_eq!(report.total_tuples(), 100);
    }

    #[test]
    #[should_panic(expected = "server")]
    fn out_of_range_destination_panics() {
        let db = join_db(10, 6);
        let router = |_: usize, _: &[u64], out: &mut Vec<usize>| out.push(99);
        let _ = Cluster::run_round(&db, 4, &router);
    }

    #[test]
    #[should_panic(expected = "router sent a tuple of atom 1 (S2) to server 99 >= p=4")]
    fn out_of_range_panic_names_atom_and_server() {
        let db = join_db(10, 6);
        let router = |atom: usize, _: &[u64], out: &mut Vec<usize>| {
            out.push(if atom == 1 { 99 } else { 0 });
        };
        let _ = Cluster::run_round_on(&db, 4, &router, Backend::Sequential);
    }

    /// The shuffle as the model states it, kept here as the reference the
    /// kernel is compared against: route each tuple, sort and dedup its
    /// keys, push it to every holder of every key. Also returns every
    /// atom's keys that received a tuple.
    fn naive_fragments(
        db: &Database,
        p: usize,
        router: &impl Router,
    ) -> (Vec<Vec<Relation>>, Vec<Vec<usize>>) {
        let (mut fragments, mut used) = (Vec::new(), Vec::new());
        for (j, rel) in db.relations().iter().enumerate() {
            let mut frag: Vec<Relation> = (0..p)
                .map(|_| Relation::new(rel.name(), rel.arity()))
                .collect();
            let mut keys = Vec::new();
            let mut all = Vec::new();
            for row in rel.rows() {
                keys.clear();
                router.route(j, row, &mut keys);
                keys.sort_unstable();
                keys.dedup();
                for &key in &keys {
                    for &offset in router.holders(j) {
                        frag[key + offset as usize].push(row);
                    }
                }
                all.extend_from_slice(&keys);
            }
            all.sort_unstable();
            all.dedup();
            fragments.push(frag);
            used.push(all);
        }
        (fragments, used)
    }

    /// A forwarding router: `route` counts its calls, `holders` is the
    /// inner router's.
    struct Counting<'r, R> {
        inner: &'r R,
        calls: std::sync::atomic::AtomicUsize,
    }

    impl<R: Router> Router for Counting<'_, R> {
        fn route(&self, atom: usize, tuple: &[u64], out: &mut Vec<usize>) {
            self.calls
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            self.inner.route(atom, tuple, out);
        }

        fn holders(&self, atom: usize) -> &[u32] {
            self.inner.holders(atom)
        }
    }

    /// Fragment contents (incl. tuple order), reports, and answers must be
    /// the naive reference's, bit for bit, whatever the thread count;
    /// `route` runs exactly once per input tuple; and every holder of one
    /// key is handed the same storage.
    fn assert_kernel_matches_reference(
        db: &Database,
        p: usize,
        label: &str,
        router: &(impl Router + Sync),
    ) {
        use std::sync::atomic::Ordering;
        let (expected, used) = naive_fragments(db, p, router);
        let counting = Counting {
            inner: router,
            calls: Default::default(),
        };
        let calls = &counting.calls;
        let tuples: usize = db.relations().iter().map(|r| r.len()).sum();
        let seq = Cluster::run_round_on(db, p, &counting, Backend::Sequential);
        let backends = [1usize, 2, 3, 8].map(Backend::Threads);
        for backend in [Backend::Sequential].into_iter().chain(backends) {
            calls.store(0, Ordering::Relaxed);
            let got = Cluster::run_round_on(db, p, &counting, backend);
            assert_eq!(got.backend, backend);
            assert_eq!(
                calls.load(Ordering::Relaxed),
                tuples,
                "{label}: route calls on {backend}"
            );
            for (atom, frag) in expected.iter().enumerate() {
                for (s, want) in frag.iter().enumerate() {
                    assert_eq!(
                        got.fragment(atom, s),
                        want,
                        "{label}: fragment[{atom}][{s}] differs on {backend}"
                    );
                }
                for &key in &used[atom] {
                    for &offset in router.holders(atom) {
                        assert!(
                            std::ptr::eq(got.fragment(atom, key), got.fragment(atom, key + offset as usize)),
                            "{label}: servers {key} and {key}+{offset} hold copies of one fragment of atom {atom}"
                        );
                    }
                }
            }
            assert_eq!(seq.report(), got.report(), "{label} on {backend}");
            assert_eq!(
                seq.all_answers(db.query()),
                got.all_answers(db.query()),
                "{label} on {backend}"
            );
        }
    }

    #[test]
    fn backends_produce_identical_clusters() {
        // Big enough that every threaded backend really shards (two
        // routed chunks per relation).
        let db = join_db(5000, 7);
        assert_eq!(Backend::Threads(2).workers_for(5000, SHUFFLE_MIN_CHUNK), 2);
        let p = 8;
        assert_kernel_matches_reference(&db, p, "broadcast", &BroadcastRouter { p });
        assert_kernel_matches_reference(
            &db,
            p,
            "unsorted duplicates",
            &|atom: usize, tuple: &[u64], out: &mut Vec<usize>| {
                let h = (mpc_data::mix64(tuple[1], 3) % p as u64) as usize;
                out.extend([(h + 5) % p, h, (h + 5) % p, (h + 2 + atom) % p, h]);
            },
        );
        assert_kernel_matches_reference(
            &db,
            p,
            "some tuples nowhere",
            &|_: usize, tuple: &[u64], out: &mut Vec<usize>| {
                if !tuple[0].is_multiple_of(3) {
                    out.push((tuple[0] % p as u64) as usize);
                }
            },
        );
    }

    /// HyperCube from the grid alone: a tuple's key is the first cell of
    /// its subcube, and the subcube's offsets are the key's holders.
    struct SliceRouter {
        dims: Vec<usize>,
        atoms: Vec<(Vec<usize>, crate::topology::SubcubePlan)>,
        family: crate::hashing::HashFamily,
    }

    impl SliceRouter {
        fn new(q: &Query, dims: Vec<usize>) -> SliceRouter {
            let grid = crate::topology::Grid::new(dims.clone());
            let atoms = (q.atoms().iter())
                .map(|a| (a.vars().to_vec(), grid.subcube_plan(a.vars())))
                .collect();
            let family = crate::hashing::HashFamily::new(q.num_vars(), 5);
            SliceRouter {
                dims,
                atoms,
                family,
            }
        }
    }

    impl Router for SliceRouter {
        fn route(&self, atom: usize, tuple: &[u64], out: &mut Vec<usize>) {
            let (vars, plan) = &self.atoms[atom];
            let coords: Vec<usize> = (vars.iter().zip(tuple))
                .map(|(&v, &x)| self.family.hash(v, x, self.dims[v]))
                .collect();
            out.extend(plan.base(&coords));
        }

        fn holders(&self, atom: usize) -> &[u32] {
            self.atoms[atom].1.offsets()
        }
    }

    #[test]
    fn slices_are_held_once_and_match_the_reference() {
        // Big enough that every threaded backend really shards; a small
        // domain for the repeated variable, so its two hashes both agree
        // and disagree.
        for (text, dims, p, n) in [
            ("S1(x,y), S2(y,z), S3(z,x)", vec![4, 4, 4], 64, 1 << 12),
            ("S1(x,y), S2(y,z), S3(z,w)", vec![1, 8, 8, 1], 64, 1 << 12),
            ("R(x,y,x), S(y,z)", vec![3, 2, 4], 30, 6),
        ] {
            let q = mpc_query::parse_query(text).unwrap();
            let mut rng = Rng::seed_from_u64(8);
            let rels = (q.atoms().iter())
                .map(|a| generators::uniform(a.name(), a.arity(), 5000, n, &mut rng))
                .collect();
            let db = Database::new(q.clone(), rels, n).unwrap();
            let router = SliceRouter::new(&q, dims);
            assert_kernel_matches_reference(&db, p, text, &router);
        }
    }

    #[test]
    #[should_panic(expected = "two keys of atom S1 share holder 1")]
    fn overlapping_holders_panic() {
        struct Overlap;
        impl Router for Overlap {
            fn route(&self, _: usize, tuple: &[u64], out: &mut Vec<usize>) {
                out.push((tuple[0] % 2) as usize);
            }
            fn holders(&self, _: usize) -> &[u32] {
                &[0, 1]
            }
        }
        let _ = Cluster::run_round(&join_db(100, 2), 4, &Overlap);
    }

    #[test]
    #[should_panic(expected = "router sent a tuple of atom 0 (S1) to server 5 >= p=4")]
    fn a_holder_past_p_panics() {
        let router = SliceRouter::new(&named::two_way_join(), vec![1, 4, 2]);
        let _ = Cluster::run_round(&join_db(100, 2), 4, &router);
    }

    #[test]
    fn sequential_shuffle_polls_the_budget_mid_relation() {
        // The deadline expires while the router sleeps on its 1 000th call;
        // the next poll (at most 512 rows later) must stop the round long
        // before the relation's 50 000 rows are routed.
        use mpc_data::budget::BudgetKind;
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::time::Duration;
        let db = join_db(50_000, 11);
        let p = 4usize;
        let calls = AtomicUsize::new(0);
        let plain = |_: usize, tuple: &[u64], out: &mut Vec<usize>| {
            out.push((tuple[1] % p as u64) as usize);
        };
        let sleepy = |atom: usize, tuple: &[u64], out: &mut Vec<usize>| {
            if calls.fetch_add(1, Ordering::Relaxed) + 1 == 1000 {
                std::thread::sleep(Duration::from_millis(20));
            }
            plain(atom, tuple, out);
        };
        let budget = QueryBudget::new(Some(Duration::from_millis(5)), None, None);
        let err = Cluster::try_run_round_on(&db, p, &sleepy, Backend::Sequential, &budget)
            .expect_err("the deadline expired mid-shuffle");
        assert_eq!(err.kind, BudgetKind::Deadline);
        let made = calls.load(Ordering::Relaxed);
        assert!(made < 50_000, "{made} route calls after the deadline");

        // The tripped round left nothing behind on this thread: the next
        // one equals a round run on a thread that never saw the trip.
        let here = Cluster::run_round_on(&db, p, &plain, Backend::Sequential);
        let fresh = std::thread::scope(|scope| {
            scope
                .spawn(|| Cluster::run_round_on(&db, p, &plain, Backend::Sequential))
                .join()
                .expect("fresh round")
        });
        for atom in 0..2 {
            for s in 0..p {
                assert_eq!(here.fragment(atom, s), fresh.fragment(atom, s));
            }
        }
        assert_eq!(here.report(), fresh.report());
    }

    #[test]
    fn report_is_backend_identical_at_p_1024() {
        // A wide round, shuffled once per backend: the report counts the
        // same fragments the same way whatever ran the shuffle.
        let db = join_db(2000, 9);
        let p = 1024;
        let key = 0xBADC_0FFEu64;
        let router = move |atom: usize, tuple: &[u64], out: &mut Vec<usize>| {
            let h = (mpc_data::mix64(tuple[1], key) % p as u64) as usize;
            out.push(h);
            if atom == 0 {
                out.push((h + 513) % p);
            }
        };
        let seq = Cluster::run_round_on(&db, p, &router, Backend::Sequential);
        let thr = Cluster::run_round_on(&db, p, &router, Backend::Threads(4));
        let (rs, rt) = (seq.report(), thr.report());
        assert_eq!(rs, rt);
        assert_eq!(rs.per_server_bits.len(), p);
        assert_eq!(rs.total_tuples(), 2000 * 2 + 2000);
    }

    #[test]
    fn threaded_cluster_is_identical_across_rounds() {
        // A threaded round splits the relations (two routed chunks each)
        // and must still produce bit-identical fragments, reports, and
        // answers, round after round.
        let db = join_db(6000, 7);
        let p = 8;
        let router = BroadcastRouter { p };
        let seq = Cluster::run_round_on(&db, p, &router, Backend::Sequential);
        assert_eq!(Backend::Threads(4).workers_for(6000, SHUFFLE_MIN_CHUNK), 2);
        for round in 0..3 {
            let threaded = Cluster::run_round_on(&db, p, &router, Backend::Threads(4));
            assert_eq!(threaded.backend, Backend::Threads(4));
            for atom in 0..2 {
                for s in 0..p {
                    assert_eq!(
                        seq.fragment(atom, s),
                        threaded.fragment(atom, s),
                        "fragment[{atom}][{s}] differs on the threaded backend"
                    );
                }
            }
            assert_eq!(seq.report(), threaded.report(), "round {round}");
            assert_eq!(
                seq.all_answers(db.query()),
                threaded.all_answers(db.query()),
                "round {round}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "router sent a tuple of atom 0 (S1) to server 99 >= p=4")]
    fn out_of_range_panic_propagates_from_pool_workers() {
        // Big enough that the threaded shuffle really shards (two routed
        // chunks); a spawned worker's panic payload must reach the caller
        // verbatim.
        let db = join_db(2 * SHUFFLE_MIN_CHUNK, 6);
        let router = |atom: usize, _: &[u64], out: &mut Vec<usize>| {
            out.push(if atom == 0 { 99 } else { 0 });
        };
        let _ = Cluster::run_round_on(&db, 4, &router, Backend::Threads(4));
    }
}
