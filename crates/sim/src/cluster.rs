//! The one-round MPC cluster simulator.
//!
//! The MPC model (Section 2.1): `p` servers, one global communication round,
//! cost = maximum bits received by a server. An algorithm in this simulator
//! is a [`Router`], a pure function from `(atom, tuple)` to *fragment keys*
//! evaluated tuple-at-a-time — exactly the paper's upper-bound model in
//! which "all our algorithms treat tuples in `S_j` independently of other
//! tuples" — and a [`Placement`], fixed at plan time, that maps each key to
//! a *block* and the servers holding the key's fragment (see
//! [`crate::placement`]). The rows routed to one key form one fragment,
//! stored once however many servers hold it.
//!
//! After the round a server joins each of its blocks in which it holds a
//! fragment of every atom, on its own, over [`IndexCache`]s the holders of
//! a fragment share ([`Cluster::fold_answers`]): no local join mixes the
//! tuples of two blocks. [`Cluster::all_answers`] unions the outputs. Load
//! is counted per server ([`Cluster::report`]): a server is charged once
//! for every tuple it holds, however many of its blocks hold it.
//!
//! A round is one kernel for every backend — **route → count → scatter**
//! ([`Cluster::try_run_round_on`]): every tuple is routed once into a flat
//! key list, the per-key counts size every fragment exactly, and every
//! tuple word is then copied once per key, straight from the input relation
//! into its fragments.

use crate::backend::Backend;
use crate::load::LoadReport;
use crate::placement::Placement;
use mpc_data::answers::{sort_rows, AnswerSet};
use mpc_data::budget::{BudgetExceeded, QueryBudget};
use mpc_data::catalog::Database;
use mpc_data::failpoint;
use mpc_data::join::{IndexCache, Join};
use mpc_data::relation::Relation;
use mpc_query::Query;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Smallest relation share a shuffle worker is worth spawning for.
/// [`Backend::workers_for`] rounds the chunk count up, so every chunk of a
/// split relation holds more than half of this — over 2 048 rows. A scoped
/// spawn and join costs ~15 µs (2-core x86-64 VM): the time the cheapest
/// router, compiled HyperCube at ~8 ns a row, takes for ~1 850 rows.
const SHUFFLE_MIN_CHUNK: usize = 4096;
/// Rows routed between two budget polls.
const BUDGET_POLL_ROWS: usize = 512;

/// A one-round tuple routing policy: `route` appends the fragment keys of
/// `tuple` of atom `atom` to `out` (`out` arrives cleared; duplicates are
/// tolerated and deduplicated by the simulator). The round's
/// [`Placement`] says which servers hold each key.
pub trait Router {
    /// Compute the keys of one tuple.
    fn route(&self, atom: usize, tuple: &[u64], out: &mut Vec<usize>);
}

impl<F: Fn(usize, &[u64], &mut Vec<usize>)> Router for F {
    fn route(&self, atom: usize, tuple: &[u64], out: &mut Vec<usize>) {
        self(atom, tuple, out)
    }
}

/// The post-shuffle state: per atom, its fragments; per server, the blocks
/// it joins.
#[derive(Clone, Debug)]
pub struct Cluster {
    p: usize,
    value_bits: u32,
    input_bits: u64,
    /// One entry per atom.
    atoms: Vec<Held>,
    /// `tuples[atom * p + server]`: the tuples of the atom the server
    /// holds, each counted once.
    tuples: Vec<u64>,
    /// Every (server, block) in which the server holds a fragment of every
    /// atom, ascending: its server ...
    block_servers: Vec<u32>,
    /// ... and its fragment of each atom, `atoms.len()` entries per block.
    block_fragments: Vec<u32>,
    /// Execution backend for the local joins (the one the shuffle ran on).
    backend: Backend,
}

/// One atom's fragments after a round.
#[derive(Clone, Debug)]
struct Held {
    /// Slot 0 is the empty fragment of every key no row reaches; then one
    /// fragment per key that received a row, in key order.
    fragments: Vec<Relation>,
    /// `slot[key]`: the key's fragment.
    slot: Vec<u32>,
}

/// One routed row range of one relation: every row's keys, and how many
/// rows every key receives. Rows are not copied here — the scatter reads
/// them from the relation once the fragment sizes are known.
struct Routed {
    /// First row of the range.
    lo: usize,
    /// Every row's keys, concatenated; one row's run strictly ascends.
    keys: Vec<u32>,
    /// `ends[k]` is where row `lo + k`'s run ends in `keys`.
    ends: Vec<u32>,
    /// Rows routed to each key.
    counts: Vec<usize>,
    /// Each server a row reached again, through another of its keys.
    again: Vec<u32>,
}

/// Every key's servers, `servers[ends[k]..ends[k + 1]]` for key `k`: under
/// a placement of several blocks, where one row's keys may share a server.
struct Holders {
    ends: Vec<u32>,
    servers: Vec<u32>,
}

impl Holders {
    fn of(placement: &Placement, atom: usize) -> Holders {
        let mut ends = Vec::with_capacity(placement.keys(atom) + 1);
        let mut servers = Vec::with_capacity(placement.virtual_servers());
        ends.push(0);
        for key in 0..placement.keys(atom) {
            servers.extend(placement.place(atom, key).1.map(|s| s as u32));
            ends.push(servers.len() as u32);
        }
        Holders { ends, servers }
    }
}

/// Route rows `lo..hi` of `rel` (atom `j`): the one place
/// [`Router::route`] is called, once per row, on every backend. A key
/// list that is not already strictly ascending is sorted and
/// deduplicated; a key past the atom's keys panics; a server two of a
/// row's keys share goes to `again`. The budget is polled before the
/// first row and again every [`BUDGET_POLL_ROWS`] rows.
#[allow(clippy::too_many_arguments)]
fn route_rows(
    rel: &Relation,
    j: usize,
    name: &str,
    lo: usize,
    hi: usize,
    placement: &Placement,
    holders: Option<&Holders>,
    router: &(impl Router + Sync),
    budget: &QueryBudget,
) -> Result<Routed, BudgetExceeded> {
    failpoint::hit("shuffle");
    let keys = placement.keys(j);
    let mut routed = Routed {
        lo,
        keys: Vec::with_capacity(hi - lo),
        ends: Vec::with_capacity(hi - lo),
        counts: vec![0; keys],
        again: Vec::new(),
    };
    let mut out: Vec<usize> = Vec::new();
    // `seen[s]`: the last row (from 1) of the range that reached server `s`.
    let mut seen = vec![0u32; holders.map_or(0, |_| placement.p())];
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
            if out.last().is_some_and(|&last| last >= keys) {
                let key = out.iter().find(|&&k| k >= keys).expect("the last one is");
                let (what, of) = match placement.is_identity() {
                    true => ("server", "p"),
                    false => ("key", "keys"),
                };
                panic!("router sent a tuple of atom {j} ({name}) to {what} {key} >= {of}={keys}");
            }
            if let Some(holders) = holders.filter(|_| out.len() > 1) {
                let row = (i - lo + 1) as u32;
                for &key in &out {
                    let (from, to) = (holders.ends[key], holders.ends[key + 1]);
                    for &s in &holders.servers[from as usize..to as usize] {
                        match seen[s as usize] == row {
                            true => routed.again.push(s),
                            false => seen[s as usize] = row,
                        }
                    }
                }
            }
            // `key < keys <= u32::MAX` was checked above and at round start.
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
    /// One round of `router` over `db` on `p` servers under the
    /// [`Placement::identity`], on the [`Backend::from_env`] backend.
    ///
    /// # Panics
    /// Panics when a router emits an out-of-range server id, naming the
    /// offending atom and server.
    pub fn run_round(db: &Database, p: usize, router: &(impl Router + Sync)) -> Cluster {
        Cluster::run_round_on(db, &Placement::identity(p), router, Backend::from_env())
    }

    /// One round of `router` under `placement` on an explicit [`Backend`].
    ///
    /// Fragment tuple order — hence answers and [`LoadReport`]s — is
    /// independent of the thread count: see
    /// [`Cluster::try_run_round_on`] for how a round is executed.
    pub fn run_round_on(
        db: &Database,
        placement: &Placement,
        router: &(impl Router + Sync),
        backend: Backend,
    ) -> Cluster {
        Cluster::try_run_round_on(db, placement, router, backend, &QueryBudget::unlimited())
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
    ///    `merge` failpoint is hit once per scattered chunk. Every server
    ///    the placement names for a key then holds that one fragment.
    ///
    /// # Panics
    /// Panics when a key is not one of the placement's keys for its atom.
    ///
    /// The budget is polled by the routing step: at the start of every
    /// chunk and again every 512 rows, on both backends, so an expired
    /// deadline stops the shuffle within that many `route` calls. On a trip
    /// the partially routed round is dropped and a clean `Err` comes back;
    /// the kernel keeps no state between rounds, so nothing is poisoned for
    /// the next one.
    pub fn try_run_round_on(
        db: &Database,
        placement: &Placement,
        router: &(impl Router + Sync),
        backend: Backend,
        budget: &QueryBudget,
    ) -> Result<Cluster, BudgetExceeded> {
        let p = placement.p();
        assert!(p > 0, "cluster needs at least one server");
        assert!(u32::try_from(p).is_ok(), "server ids must fit in 32 bits");
        let q = db.query();
        let mut atoms: Vec<Held> = Vec::with_capacity(q.num_atoms());
        let mut holdings = 0; // (server, fragment) pairs
                              // Per atom, per server: the tuples it holds, each counted once.
        let mut tuples = vec![0u64; q.num_atoms() * p];
        for (j, rel) in db.relations().iter().enumerate() {
            let rel: &Relation = rel;
            let name = q.atom(j).name();
            let keys = placement.keys(j);
            assert!(u32::try_from(keys).is_ok(), "keys must fit in 32 bits");
            let split = backend.workers_for(rel.len(), SHUFFLE_MIN_CHUNK) > 1;
            let holders = (placement.blocks() > 1).then(|| Holders::of(placement, j));
            let holders = holders.as_ref();
            let route =
                |lo, hi| route_rows(rel, j, name, lo, hi, placement, holders, router, budget);
            let chunks: Vec<Routed> = if split {
                backend.run_chunks(rel.len(), SHUFFLE_MIN_CHUNK, route)
            } else {
                vec![route(0, rel.len())]
            }
            .into_iter()
            .collect::<Result<_, _>>()?;
            let arity = rel.arity();
            let mut bufs: Vec<Vec<u64>> = (0..keys)
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
            let mut fragments =
                Vec::with_capacity(1 + bufs.iter().filter(|b| !b.is_empty()).count());
            fragments.push(Relation::new(name, arity));
            let mut atom = Held {
                fragments,
                slot: vec![0; keys],
            };
            for (key, buf) in bufs.into_iter().enumerate().filter(|(_, b)| !b.is_empty()) {
                let fragment = Relation::from_flat(name, arity, buf);
                let k = atom.fragments.len() as u32;
                for s in placement.place(j, key).1 {
                    tuples[j * p + s] += fragment.len() as u64;
                    holdings += 1;
                }
                atom.slot[key] = k;
                atom.fragments.push(fragment);
            }
            for &s in chunks.iter().flat_map(|c| &c.again) {
                tuples[j * p + s as usize] -= 1;
            }
            atoms.push(atom);
        }
        // (server, block, atom, fragment) for every fragment a server holds.
        let mut held: Vec<[u32; 4]> = Vec::with_capacity(holdings);
        for (j, atom) in atoms.iter().enumerate() {
            for (key, &k) in atom.slot.iter().enumerate().filter(|(_, &k)| k > 0) {
                let (block, servers) = placement.place(j, key);
                held.extend(servers.map(|s| [s as u32, block as u32, j as u32, k]));
            }
        }
        held.sort_unstable();
        let l = atoms.len().max(1);
        let mut block_servers = Vec::with_capacity(held.len() / l);
        let mut block_fragments = Vec::with_capacity(held.len());
        for block in held.chunk_by(|a, b| a[..2] == b[..2]) {
            if block.iter().map(|h| h[2] as usize).eq(0..atoms.len()) {
                block_servers.push(block[0][0]);
                block_fragments.extend(block.iter().map(|h| h[3]));
            }
        }
        Ok(Cluster {
            p,
            value_bits: db.value_bits(),
            input_bits: db.total_bits(),
            atoms,
            tuples,
            block_servers,
            block_fragments,
            backend,
        })
    }

    /// Number of servers.
    pub fn p(&self) -> usize {
        self.p
    }

    /// The fragment of atom `atom`'s key `key`: the rows routed to it, in
    /// input order. Under [`Placement::identity`] the key is the server.
    pub fn fragment(&self, atom: usize, key: usize) -> &Relation {
        let held = &self.atoms[atom];
        &held.fragments[held.slot[key] as usize]
    }

    /// The blocks `server` joins — those in which it holds a fragment of
    /// every atom — in block order, each as one fragment per atom.
    pub fn blocks(&self, server: usize) -> impl Iterator<Item = Vec<&Relation>> + '_ {
        self.blocks_of(server..server + 1).map(|b| {
            let mine = self.block(b).iter().zip(&self.atoms);
            mine.map(|(&k, held)| &held.fragments[k as usize]).collect()
        })
    }

    /// The blocks of `servers`, as indexes into `block_servers`.
    fn blocks_of(&self, servers: Range<usize>) -> Range<usize> {
        let at = |s: usize| self.block_servers.partition_point(|&b| (b as usize) < s);
        at(servers.start)..at(servers.end)
    }

    /// Block `b`'s fragment of each atom.
    fn block(&self, b: usize) -> &[u32] {
        let l = self.atoms.len();
        &self.block_fragments[b * l..(b + 1) * l]
    }

    /// Exact load accounting for the round: one sequential pass over the
    /// tuples each server holds per atom (O(p · atoms) words, too little
    /// work to be worth a thread), so the report is the same whatever the
    /// backend. A server is charged once per tuple it holds, whichever of
    /// its blocks hold it.
    pub fn report(&self) -> LoadReport {
        let mut per_server_bits = vec![0u64; self.p];
        let mut per_server_tuples = vec![0u64; self.p];
        for (held, atom) in self.atoms.iter().zip(self.tuples.chunks_exact(self.p)) {
            let width = held.fragments[0].arity() as u64 * u64::from(self.value_bits);
            for (s, &tuples) in atom.iter().enumerate() {
                per_server_tuples[s] += tuples;
                per_server_bits[s] += tuples * width;
            }
        }
        LoadReport {
            per_server_bits,
            per_server_tuples,
            per_atom_server_tuples: self
                .tuples
                .chunks_exact(self.p)
                .map(<[u64]>::to_vec)
                .collect(),
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

    /// Fold every server's local joins into accumulators without ever
    /// materializing an [`AnswerSet`] — the collection half of aggregate
    /// pushdown, and of the multi-round baseline's bag intermediates.
    /// `fold` sees each joined block's emits as [`Join::for_each`] makes
    /// them, `(binding, mult)` with `mult` the number of *local
    /// derivations*. When the routing partitions the join's derivation
    /// multiset across blocks and servers (every aggregate-eligible plan
    /// does — see `mpc_core::aggregate`), summing per-server folds of a
    /// derivation-additive aggregate is exact.
    ///
    /// Server ranges run in parallel on the cluster's backend (one `init`
    /// accumulator per worker chunk); the chunk accumulators come back in
    /// server-index order, so an order-sensitive merge stays deterministic
    /// — though a correct aggregate merge is commutative anyway.
    ///
    /// The blocks holding one fragment share one [`IndexCache`], so each
    /// (fragment, key-position set) index is built once per fold, not once
    /// per server; a cache drops its indexes when the last block holding
    /// it is joined, so a fragment with one holder keeps them no longer
    /// than that join. A fragment in no joined block builds none.
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
        let block = |acc: &mut A, join: Join<'_>| {
            let mut failed = None;
            join.for_each(|row, mult| {
                if failed.is_none() {
                    failed = fold(acc, row, mult).err();
                }
            })?;
            failed.map_or(Ok(()), Err)
        };
        self.join_servers(query, budget, init, block, |_| {})
    }

    /// The number of distinct answers when every binding is produced on
    /// one server only — true of a router that partitions derivations
    /// and sends equal rows to the same servers (HyperCube, the §4.1 skew
    /// join, the hash-join and fragment-replicate baselines), not of the
    /// §4.2 general algorithm or a broadcast. It is then `Σ_s distinct_s`,
    /// summed over each server's own distinct bindings, and no
    /// [`AnswerSet`] is built: a worker keeps one flat buffer, collects the
    /// emits of one server's blocks into it (each once, not `mult` times),
    /// counts them with [`sort_rows`] (a server may emit one binding more
    /// than once, see [`Join::for_each`]), and clears it for the next
    /// server. Runs under `budget` like [`Cluster::fold_answers`], charging
    /// the same rows.
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
            |(_, buf), join| join.for_each(|row, _| buf.extend_from_slice(row)).map(drop),
            |(count, buf)| {
                *count += sort_rows(buf, arity, true) as u64;
                buf.clear();
            },
        )?;
        Ok(parts.into_iter().map(|(count, _)| count).sum())
    }

    /// The server loop behind [`Cluster::fold_answers`] and
    /// [`Cluster::partitioned_answer_count`]: `block` runs the budgeted
    /// local join of each block a server joins into its worker chunk's
    /// accumulator, over [`IndexCache`]s the blocks holding a fragment
    /// share, and the last of them to finish clears its cache; `server`
    /// then closes the server's share of the accumulator.
    fn join_servers<A: Send>(
        &self,
        query: &Query,
        budget: &QueryBudget,
        init: impl Fn() -> A + Sync,
        block: impl Fn(&mut A, Join<'_>) -> Result<(), BudgetExceeded> + Sync,
        server: impl Fn(&mut A) + Sync,
    ) -> Result<Vec<A>, BudgetExceeded> {
        // Per atom, per fragment: its cache and its blocks yet to join.
        let mut pending: Vec<Vec<usize>> = (self.atoms.iter())
            .map(|held| vec![0; held.fragments.len()])
            .collect();
        for b in 0..self.block_servers.len() {
            for (j, &k) in self.block(b).iter().enumerate() {
                pending[j][k as usize] += 1;
            }
        }
        let caches: Vec<Vec<(IndexCache, AtomicUsize)>> = (self.atoms.iter().zip(pending))
            .map(|(held, pending)| {
                let pending = pending.into_iter().map(AtomicUsize::new);
                held.fragments
                    .iter()
                    .map(IndexCache::new)
                    .zip(pending)
                    .collect()
            })
            .collect();
        let parts = self.backend.run_chunks(self.p, 1, |lo, hi| {
            let mut acc = init();
            for b in self.blocks_of(lo..hi) {
                let mine = || (self.block(b).iter().zip(&caches)).map(|(&k, c)| &c[k as usize]);
                let joined = block(
                    &mut acc,
                    Join::indexed(query, mine().map(|(cache, _)| cache)).budget(budget),
                );
                for (cache, pending) in mine() {
                    if pending.fetch_sub(1, Ordering::AcqRel) == 1 {
                        cache.clear();
                    }
                }
                joined?;
                if self.block_servers.get(b + 1) != Some(&self.block_servers[b]) {
                    server(&mut acc);
                }
            }
            Ok(acc)
        });
        parts.into_iter().collect()
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
        let _ = Cluster::run_round_on(&db, &Placement::identity(4), &router, Backend::Sequential);
    }

    /// The shuffle as the model states it, kept here as the reference the
    /// kernel is compared against: route each tuple, sort and dedup its
    /// keys, push it to every key; and charge it once to every server
    /// `dests` names for it.
    fn reference(
        db: &Database,
        placement: &Placement,
        router: &impl Router,
        dests: impl Fn(usize, &[u64]) -> Vec<usize>,
    ) -> (Vec<Vec<Relation>>, LoadReport) {
        let p = placement.p();
        let (mut fragments, mut per_atom_server_tuples) = (Vec::new(), Vec::new());
        let (mut per_server_bits, mut per_server_tuples) = (vec![0; p], vec![0; p]);
        for (j, rel) in db.relations().iter().enumerate() {
            let mut frag: Vec<Relation> = (0..placement.keys(j))
                .map(|_| Relation::new(rel.name(), rel.arity()))
                .collect();
            let mut tuples = vec![0; p];
            let mut keys = Vec::new();
            for row in rel.rows() {
                keys.clear();
                router.route(j, row, &mut keys);
                keys.sort_unstable();
                keys.dedup();
                for &key in &keys {
                    frag[key].push(row);
                }
                let mut servers = dests(j, row);
                servers.sort_unstable();
                servers.dedup();
                for s in servers {
                    tuples[s] += 1;
                    per_server_tuples[s] += 1;
                    per_server_bits[s] += (rel.arity() as u32 * db.value_bits()) as u64;
                }
            }
            fragments.push(frag);
            per_atom_server_tuples.push(tuples);
        }
        let report = LoadReport {
            per_server_bits,
            per_server_tuples,
            per_atom_server_tuples,
            input_bits: db.total_bits(),
        };
        (fragments, report)
    }

    /// A forwarding router that counts its calls.
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
    }

    /// Fragment contents (incl. tuple order), reports, and answers must be
    /// the reference's, bit for bit, whatever the thread count; and `route`
    /// runs exactly once per input tuple.
    fn assert_kernel_matches_reference(
        db: &Database,
        placement: &Placement,
        label: &str,
        router: &(impl Router + Sync),
        dests: impl Fn(usize, &[u64]) -> Vec<usize>,
    ) {
        use std::sync::atomic::Ordering;
        let (expected, report) = reference(db, placement, router, dests);
        let counting = Counting {
            inner: router,
            calls: Default::default(),
        };
        let calls = &counting.calls;
        let tuples: usize = db.relations().iter().map(|r| r.len()).sum();
        let seq = Cluster::run_round_on(db, placement, &counting, Backend::Sequential);
        let backends = [1usize, 2, 3, 8].map(Backend::Threads);
        for backend in [Backend::Sequential].into_iter().chain(backends) {
            calls.store(0, Ordering::Relaxed);
            let got = Cluster::run_round_on(db, placement, &counting, backend);
            assert_eq!(got.backend, backend);
            assert_eq!(
                calls.load(Ordering::Relaxed),
                tuples,
                "{label}: route calls on {backend}"
            );
            for (atom, frag) in expected.iter().enumerate() {
                for (key, want) in frag.iter().enumerate() {
                    assert_eq!(
                        got.fragment(atom, key),
                        want,
                        "{label}: fragment[{atom}][{key}] differs on {backend}"
                    );
                }
            }
            assert_eq!(got.report(), report, "{label} on {backend}");
            assert_eq!(
                seq.all_answers(db.query()),
                got.all_answers(db.query()),
                "{label} on {backend}"
            );
        }
    }

    /// [`assert_kernel_matches_reference`] for a router whose keys are
    /// servers.
    fn assert_identity_matches_reference(
        db: &Database,
        p: usize,
        label: &str,
        router: &(impl Router + Sync),
    ) {
        let keys = |j: usize, row: &[u64]| {
            let mut out = Vec::new();
            router.route(j, row, &mut out);
            out
        };
        assert_kernel_matches_reference(db, &Placement::identity(p), label, router, keys);
    }

    #[test]
    fn backends_produce_identical_clusters() {
        // Big enough that every threaded backend really shards (two
        // routed chunks per relation).
        let db = join_db(5000, 7);
        assert_eq!(Backend::Threads(2).workers_for(5000, SHUFFLE_MIN_CHUNK), 2);
        let p = 8;
        assert_identity_matches_reference(&db, p, "broadcast", &BroadcastRouter { p });
        assert_identity_matches_reference(&db, p, "unsorted duplicates", &|atom: usize,
                                                                           tuple: &[u64],
                                                                           out: &mut Vec<
            usize,
        >| {
            let h = (mpc_data::mix64(tuple[1], 3) % p as u64) as usize;
            out.extend([(h + 5) % p, h, (h + 5) % p, (h + 2 + atom) % p, h]);
        });
        assert_identity_matches_reference(&db, p, "some tuples nowhere", &|_: usize,
                                                                           tuple: &[u64],
                                                                           out: &mut Vec<
            usize,
        >| {
            if !tuple[0].is_multiple_of(3) {
                out.push((tuple[0] % p as u64) as usize);
            }
        });
    }

    /// HyperCube from the grid alone: a tuple's key is its slice on the
    /// atom's own dimensions, held on the slice's subcube by a one-block
    /// placement of the grid.
    struct SliceRouter {
        grid: crate::topology::Grid,
        vars: Vec<Vec<usize>>,
        shape: std::sync::Arc<crate::topology::Subcubes>,
        family: crate::hashing::HashFamily,
    }

    impl SliceRouter {
        fn new(q: &Query, dims: Vec<usize>) -> SliceRouter {
            let grid = crate::topology::Grid::new(dims);
            let vars: Vec<Vec<usize>> = q.atoms().iter().map(|a| a.vars().to_vec()).collect();
            let shape = grid.subcubes(vars.iter().map(|v| &v[..]));
            let family = crate::hashing::HashFamily::new(q.num_vars(), 5);
            SliceRouter {
                grid,
                vars,
                shape: std::sync::Arc::new(shape),
                family,
            }
        }

        /// The servers of the tuple's subcube, from its coordinates.
        fn subcube(&self, atom: usize, tuple: &[u64]) -> Vec<usize> {
            let fixed: Vec<(usize, usize)> = (self.vars[atom].iter().zip(tuple))
                .map(|(&v, &x)| (v, self.family.hash(v, x, self.grid.dims()[v])))
                .collect();
            self.grid.subcube_vec(&fixed)
        }
    }

    impl Router for SliceRouter {
        fn route(&self, atom: usize, tuple: &[u64], out: &mut Vec<usize>) {
            let plan = self.shape.get(atom);
            out.extend(plan.slice(|pos, var, size| self.family.hash(var, tuple[pos], size)));
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
            let mut placement = Placement::identity(p);
            placement.push(std::sync::Arc::clone(&router.shape), 1);
            let subcube = |j: usize, row: &[u64]| router.subcube(j, row);
            assert_kernel_matches_reference(&db, &placement, text, &router, subcube);
        }
    }

    #[test]
    fn a_server_holding_a_row_in_two_blocks_is_charged_once() {
        // Two blocks of a 4-cell hash join on z, the second folded onto
        // the first: S1 sends every row to both, S2 only to the first, so
        // each S1 row's two keys share their one holder.
        let db = join_db(400, 12);
        let p = 4;
        let mut placement = Placement::identity(p);
        let grid = crate::topology::Grid::new(vec![p]);
        let shape = std::sync::Arc::new(grid.subcubes([&[0][..], &[0][..]]));
        assert_eq!(placement.push(shape, 2), vec![0, 0]);
        let hash = |tuple: &[u64]| (tuple[1] % p as u64) as usize;
        let router = |atom: usize, tuple: &[u64], out: &mut Vec<usize>| {
            out.push(hash(tuple));
            if atom == 0 {
                out.push(p + hash(tuple));
            }
        };
        let one_server = |_: usize, tuple: &[u64]| vec![hash(tuple)];
        assert_kernel_matches_reference(&db, &placement, "two blocks", &router, one_server);

        // The row is held in both blocks' fragments ...
        let cluster = Cluster::run_round_on(&db, &placement, &router, Backend::Sequential);
        for s in 0..p {
            assert_eq!(cluster.fragment(0, s), cluster.fragment(0, p + s));
            assert!(!cluster.fragment(0, s).is_empty());
            // ... and the second block, holding no S2 row, is not joined.
            assert_eq!(cluster.blocks(s).count(), 1);
        }
        // ... but charged once: the load, and the per-atom tuples and the
        // answer count an output floor is computed from, are those of the
        // one-block hash join.
        let one_block = Cluster::run_round(&db, p, &|_: usize, t: &[u64], out: &mut Vec<usize>| {
            out.push(hash(t))
        });
        assert_eq!(cluster.report(), one_block.report());
        assert_eq!(
            cluster.all_answers(db.query()),
            one_block.all_answers(db.query())
        );
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
        let err = Cluster::try_run_round_on(
            &db,
            &Placement::identity(p),
            &sleepy,
            Backend::Sequential,
            &budget,
        )
        .expect_err("the deadline expired mid-shuffle");
        assert_eq!(err.kind, BudgetKind::Deadline);
        let made = calls.load(Ordering::Relaxed);
        assert!(made < 50_000, "{made} route calls after the deadline");

        // The tripped round left nothing behind on this thread: the next
        // one equals a round run on a thread that never saw the trip.
        let here = Cluster::run_round_on(&db, &Placement::identity(p), &plain, Backend::Sequential);
        let fresh = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    Cluster::run_round_on(&db, &Placement::identity(p), &plain, Backend::Sequential)
                })
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
        let seq = Cluster::run_round_on(&db, &Placement::identity(p), &router, Backend::Sequential);
        let thr = Cluster::run_round_on(&db, &Placement::identity(p), &router, Backend::Threads(4));
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
        let seq = Cluster::run_round_on(&db, &Placement::identity(p), &router, Backend::Sequential);
        assert_eq!(Backend::Threads(4).workers_for(6000, SHUFFLE_MIN_CHUNK), 2);
        for round in 0..3 {
            let threaded =
                Cluster::run_round_on(&db, &Placement::identity(p), &router, Backend::Threads(4));
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
        let _ = Cluster::run_round_on(&db, &Placement::identity(4), &router, Backend::Threads(4));
    }
}
