//! The one-round MPC cluster simulator.
//!
//! The MPC model (Section 2.1): `p` servers, one global communication round,
//! cost = maximum bits received by a server. An algorithm in this simulator
//! is a [`Router`]: a pure function from `(atom, tuple)` to destination
//! servers, evaluated tuple-at-a-time — exactly the paper's upper-bound
//! model in which "all our algorithms treat tuples in `S_j` independently of
//! other tuples". After the round, each server holds one fragment per
//! relation and evaluates the query locally; [`Cluster::all_answers`] unions
//! the per-server outputs.
//!
//! A round is one kernel for every backend — **route → count → scatter**
//! ([`Cluster::try_run_round_on`]): every tuple is routed once into a flat
//! destination list, the per-server counts size every fragment exactly, and
//! every tuple word is then copied once, straight from the input relation
//! into its fragments. (It replaced a sequential path that grew `p`
//! vectors by doubling and a pooled `route_chunk` path that copied each
//! word through a per-worker scratch buffer and a per-chunk arena first.)

use crate::backend::Backend;
use crate::load::LoadReport;
use mpc_data::answers::AnswerSet;
use mpc_data::budget::{BudgetExceeded, QueryBudget};
use mpc_data::catalog::Database;
use mpc_data::failpoint;
use mpc_data::join::Join;
use mpc_data::relation::Relation;
use mpc_query::Query;

/// Smallest number of tuples a shuffle worker is worth spawning for.
const SHUFFLE_MIN_CHUNK: usize = 512;
/// Smallest number of servers a load-accounting worker is worth spawning
/// for (per-server accounting is O(num_atoms), i.e. very cheap).
const REPORT_MIN_CHUNK: usize = 256;

/// A one-round tuple routing policy. `route` appends the destination server
/// ids for `tuple` of atom `atom` to `out` (`out` arrives cleared;
/// duplicates are tolerated and deduplicated by the simulator).
pub trait Router {
    /// Compute destinations for one tuple.
    fn route(&self, atom: usize, tuple: &[u64], out: &mut Vec<usize>);
}

impl<F: Fn(usize, &[u64], &mut Vec<usize>)> Router for F {
    fn route(&self, atom: usize, tuple: &[u64], out: &mut Vec<usize>) {
        self(atom, tuple, out)
    }
}

/// The post-shuffle state: per-atom, per-server relation fragments.
#[derive(Clone, Debug)]
pub struct Cluster {
    p: usize,
    value_bits: u32,
    input_bits: u64,
    /// `fragments[atom][server]`.
    fragments: Vec<Vec<Relation>>,
    /// Execution backend for local evaluation and load accounting.
    backend: Backend,
}

/// One routed row range of one relation: where every row goes, and how
/// many rows every server receives. Rows are not copied here — the scatter
/// reads them from the relation once the fragment sizes are known.
struct Routed {
    /// First row of the range.
    lo: usize,
    /// Every row's destination servers, concatenated; one row's run is
    /// strictly ascending.
    dests: Vec<u32>,
    /// `ends[k]` is where row `lo + k`'s run ends in `dests`.
    ends: Vec<u32>,
    /// Rows routed to each of the `p` servers.
    counts: Vec<usize>,
}

/// Route rows `lo..hi` of `rel` (atom `j`): the one place
/// [`Router::route`] is called, once per row, on every backend. A
/// destination list that is not already strictly ascending (compiled
/// HyperCube routes always are) is sorted and deduplicated; an out-of-range
/// server panics. The budget is polled before the first row and again
/// every [`SHUFFLE_MIN_CHUNK`] rows.
#[allow(clippy::too_many_arguments)]
fn route_rows(
    rel: &Relation,
    j: usize,
    name: &str,
    lo: usize,
    hi: usize,
    p: usize,
    router: &(impl Router + Sync),
    budget: &QueryBudget,
) -> Result<Routed, BudgetExceeded> {
    failpoint::hit("shuffle");
    let mut routed = Routed {
        lo,
        dests: Vec::with_capacity(hi - lo),
        ends: Vec::with_capacity(hi - lo),
        counts: vec![0; p],
    };
    let mut out: Vec<usize> = Vec::new();
    let mut block = lo;
    loop {
        budget.poll()?;
        let block_hi = hi.min(block + SHUFFLE_MIN_CHUNK);
        for i in block..block_hi {
            out.clear();
            router.route(j, rel.row(i), &mut out);
            if !out.windows(2).all(|w| w[0] < w[1]) {
                out.sort_unstable();
                out.dedup();
            }
            if out.last().is_some_and(|&last| last >= p) {
                let server = out.iter().find(|&&s| s >= p).expect("the last one is");
                panic!("router sent a tuple of atom {j} ({name}) to server {server} >= p={p}");
            }
            // `server < p <= u32::MAX` was checked above and at round start.
            let counts = &mut routed.counts;
            routed.dests.extend(out.iter().map(|&server| {
                counts[server] += 1;
                server as u32
            }));
            let end = u32::try_from(routed.dests.len())
                .expect("one chunk routes fewer than 2^32 destinations");
            routed.ends.push(end);
        }
        if block_hi == hi {
            return Ok(routed);
        }
        block = block_hi;
    }
}

/// Copy every routed row of one chunk into its destination fragments'
/// (flat, row-major) buffers, in row order. The buffers were reserved at
/// their final size, so no copy reallocates.
fn scatter(rel: &Relation, routed: &Routed, bufs: &mut [Vec<u64>]) {
    fn copy_rows<R: AsRef<[u64]>>(
        rows: impl Iterator<Item = R>,
        routed: &Routed,
        bufs: &mut [Vec<u64>],
    ) {
        let mut start = 0usize;
        for (row, &end) in rows.zip(&routed.ends) {
            for &server in &routed.dests[start..end as usize] {
                bufs[server as usize].extend_from_slice(row.as_ref());
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
    ///    (one on [`Backend::Sequential`]; on `Pooled(n)` one per worker,
    ///    routed in parallel). Each chunk calls [`Router::route`] once per
    ///    row and records the destinations and per-server row counts — no
    ///    tuple is copied yet. The `shuffle` failpoint is hit once per
    ///    routed chunk.
    /// 2. *Count.* The per-server counts are summed over the chunks and
    ///    each of the `p` fragments is allocated once, at its exact size.
    /// 3. *Scatter.* The calling thread copies every row to its
    ///    destinations in chunk-then-row order, so fragment tuple order is
    ///    the relation's row order on every backend. When the relation was
    ///    split, the `merge` failpoint is hit once per scattered chunk.
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
        let mut fragments: Vec<Vec<Relation>> = Vec::with_capacity(q.num_atoms());
        for (j, rel) in db.relations().iter().enumerate() {
            let rel: &Relation = rel;
            let name = q.atom(j).name();
            let split = backend.workers_for(rel.len(), SHUFFLE_MIN_CHUNK) > 1;
            let route = |lo, hi| route_rows(rel, j, name, lo, hi, p, router, budget);
            let chunks: Vec<Routed> = if split {
                backend.run_chunks(rel.len(), SHUFFLE_MIN_CHUNK, route)
            } else {
                vec![route(0, rel.len())]
            }
            .into_iter()
            .collect::<Result<_, _>>()?;
            let arity = rel.arity();
            let mut bufs: Vec<Vec<u64>> = (0..p)
                .map(|s| {
                    let rows: usize = chunks.iter().map(|c| c.counts[s]).sum();
                    Vec::with_capacity(rows * arity)
                })
                .collect();
            for chunk in &chunks {
                if split {
                    failpoint::hit("merge");
                }
                scatter(rel, chunk, &mut bufs);
            }
            let frag = bufs
                .into_iter()
                .map(|buf| Relation::from_flat(name, arity, buf));
            fragments.push(frag.collect());
        }
        Ok(Cluster {
            p,
            value_bits: db.value_bits(),
            input_bits: db.total_bits(),
            fragments,
            backend,
        })
    }

    /// Number of servers.
    pub fn p(&self) -> usize {
        self.p
    }

    /// The backend used for local evaluation and load accounting.
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// Replace the local-evaluation backend (the fragments are unchanged).
    pub fn with_backend(mut self, backend: Backend) -> Cluster {
        self.backend = backend;
        self
    }

    /// The fragment of atom `j` on `server`.
    pub fn fragment(&self, atom: usize, server: usize) -> &Relation {
        &self.fragments[atom][server]
    }

    /// Exact load accounting for the round. Per-server counters are
    /// computed on the cluster's backend (server ranges are independent)
    /// and stitched together in server-index order, so the report is
    /// identical whatever the thread count.
    pub fn report(&self) -> LoadReport {
        let num_atoms = self.fragments.len();
        // Per-chunk partials keep the per-atom counters in one flat vector
        // (`[atom * width + (s - lo)]`) instead of a nested vec-of-vecs per
        // chunk — three allocations per chunk, independent of atom count.
        let parts = self.backend.run_chunks(self.p, REPORT_MIN_CHUNK, |lo, hi| {
            let width = hi - lo;
            let mut bits = vec![0u64; width];
            let mut tuples = vec![0u64; width];
            let mut per_atom = vec![0u64; num_atoms * width];
            for (a, frags) in self.fragments.iter().enumerate() {
                for s in lo..hi {
                    let t = frags[s].len() as u64;
                    per_atom[a * width + (s - lo)] = t;
                    tuples[s - lo] += t;
                    bits[s - lo] += frags[s].bit_size(self.value_bits);
                }
            }
            (bits, tuples, per_atom)
        });
        let mut per_server_bits = Vec::with_capacity(self.p);
        let mut per_server_tuples = Vec::with_capacity(self.p);
        let mut per_atom_server_tuples: Vec<Vec<u64>> =
            (0..num_atoms).map(|_| Vec::with_capacity(self.p)).collect();
        for (bits, tuples, per_atom) in parts {
            let width = bits.len();
            per_server_bits.extend(bits);
            per_server_tuples.extend(tuples);
            for (a, row) in per_atom.chunks_exact(width).enumerate() {
                per_atom_server_tuples[a].extend_from_slice(row);
            }
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
    /// instead of materializing.
    pub fn try_all_answers(
        &self,
        query: &Query,
        budget: &QueryBudget,
    ) -> Result<AnswerSet, BudgetExceeded> {
        let mut out = self.collect_answers(query, budget)?;
        out.sort_dedup();
        Ok(out)
    }

    /// The concatenated (unsorted, undeduplicated) per-server outputs:
    /// [`Cluster::fold_answers`] with an [`AnswerSet`] accumulator.
    fn collect_answers(
        &self,
        query: &Query,
        budget: &QueryBudget,
    ) -> Result<AnswerSet, BudgetExceeded> {
        let parts = self.fold_answers(
            query,
            budget,
            || AnswerSet::new(query.num_vars()),
            |local, row, mult| {
                local.push_repeat(row, mult);
                Ok(())
            },
        )?;
        let mut out = AnswerSet::new(query.num_vars());
        for part in parts {
            out.append(part);
        }
        Ok(out)
    }

    /// Fold every server's local join into accumulators without ever
    /// materializing an [`AnswerSet`] — the collection half of aggregate
    /// pushdown, and of the multi-round baseline's bag intermediates.
    /// `fold` sees each server's distinct bindings once, with the number
    /// of *local derivations* (row combinations) as `mult`; when the
    /// routing partitions the join's derivation multiset across servers
    /// (every aggregate-eligible plan does — see `mpc_core::aggregate`),
    /// summing per-server folds of a derivation-additive aggregate is
    /// exact.
    ///
    /// Server ranges run in parallel on the cluster's backend (one `init`
    /// accumulator per worker chunk); the chunk accumulators come back in
    /// server-index order, so an order-sensitive merge stays deterministic
    /// — though a correct aggregate merge is commutative anyway.
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
        let parts = self.backend.run_chunks(self.p, 1, |lo, hi| {
            let mut acc = init();
            for s in lo..hi {
                let rels: Vec<&Relation> = self.fragments.iter().map(|f| &f[s]).collect();
                let mut failed = None;
                Join::new(query, &rels)
                    .budget(budget)
                    .for_each(|row, mult| {
                        if failed.is_none() {
                            failed = fold(&mut acc, row, mult).err();
                        }
                    })?;
                if let Some(e) = failed {
                    return Err(e);
                }
            }
            Ok(acc)
        });
        parts.into_iter().collect()
    }

    /// Count of distinct answers across servers: counts runs over the
    /// sorted flat union ([`AnswerSet::sorted_distinct_count`]) instead of
    /// rebuilding a deduplicated copy like [`Cluster::all_answers`] must.
    pub fn answer_count(&self, query: &Query) -> u64 {
        self.collect_answers(query, &QueryBudget::unlimited())
            .expect("an unlimited budget cannot be exceeded")
            .sorted_distinct_count() as u64
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
    /// kernel is compared against: route each tuple, sort, dedup, push.
    fn naive_fragments(db: &Database, p: usize, router: &impl Router) -> Vec<Vec<Relation>> {
        let mut fragments = Vec::new();
        for (j, rel) in db.relations().iter().enumerate() {
            let mut frag: Vec<Relation> = (0..p)
                .map(|_| Relation::new(rel.name(), rel.arity()))
                .collect();
            let mut dests = Vec::new();
            for row in rel.rows() {
                dests.clear();
                router.route(j, row, &mut dests);
                dests.sort_unstable();
                dests.dedup();
                for &server in &dests {
                    frag[server].push(row);
                }
            }
            fragments.push(frag);
        }
        fragments
    }

    /// Fragment contents (incl. tuple order), reports, and answers must be
    /// the naive reference's, bit for bit, whatever the thread count — and
    /// `route` runs exactly once per input tuple.
    fn assert_kernel_matches_reference(
        db: &Database,
        p: usize,
        label: &str,
        router: &(impl Router + Sync),
    ) {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let expected = naive_fragments(db, p, router);
        let calls = AtomicUsize::new(0);
        let counting = |atom: usize, tuple: &[u64], out: &mut Vec<usize>| {
            calls.fetch_add(1, Ordering::Relaxed);
            router.route(atom, tuple, out);
        };
        let tuples: usize = db.relations().iter().map(|r| r.len()).sum();
        let seq = Cluster::run_round_on(db, p, &counting, Backend::Sequential);
        let backends = [1usize, 2, 3, 8].map(Backend::Pooled);
        for backend in [Backend::Sequential].into_iter().chain(backends) {
            calls.store(0, Ordering::Relaxed);
            let got = Cluster::run_round_on(db, p, &counting, backend);
            assert_eq!(got.backend(), backend);
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
        // Big enough that Pooled(8) really shards (six routed chunks).
        let db = join_db(3000, 7);
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
    fn report_merge_is_exercised_beyond_the_chunk_threshold() {
        // p large enough that workers_for(p, REPORT_MIN_CHUNK) > 1, so the
        // pooled report really takes the multi-part stitch path.
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
        let backend = Backend::Pooled(4);
        assert!(backend.workers_for(p, super::REPORT_MIN_CHUNK) > 1);
        let seq = Cluster::run_round_on(&db, p, &router, Backend::Sequential);
        let thr = Cluster::run_round_on(&db, p, &router, backend);
        let (rs, rt) = (seq.report(), thr.report());
        assert_eq!(rs, rt);
        assert_eq!(rs.num_servers(), p);
        assert_eq!(rs.total_tuples(), 2000 * 2 + 2000);
    }

    #[test]
    fn pooled_cluster_is_identical_and_reuses_threads() {
        // The pooled backend must produce bit-identical fragments, reports,
        // and answers — and ≥3 consecutive rounds on the same pool must not
        // spawn a single new thread (the whole point of the pool).
        let db = join_db(3000, 7);
        let p = 8;
        let router = BroadcastRouter { p };
        let seq = Cluster::run_round_on(&db, p, &router, Backend::Sequential);
        let pool = crate::pool::global(4);
        let spawned_before = pool.spawn_count();
        for round in 0..3 {
            let pooled = Cluster::run_round_on(&db, p, &router, Backend::Pooled(4));
            assert_eq!(pooled.backend(), Backend::Pooled(4));
            for atom in 0..2 {
                for s in 0..p {
                    assert_eq!(
                        seq.fragment(atom, s),
                        pooled.fragment(atom, s),
                        "fragment[{atom}][{s}] differs on the pooled backend"
                    );
                }
            }
            assert_eq!(seq.report(), pooled.report(), "round {round}");
            assert_eq!(
                seq.all_answers(db.query()),
                pooled.all_answers(db.query()),
                "round {round}"
            );
            assert_eq!(
                pool.spawn_count(),
                spawned_before,
                "round {round} spawned new threads"
            );
        }
    }

    #[test]
    #[should_panic(expected = "router sent a tuple of atom 0 (S1) to server 99 >= p=4")]
    fn out_of_range_panic_propagates_from_pool_workers() {
        // Big enough that the pooled shuffle really shards; the worker's
        // panic payload must reach the caller verbatim.
        let db = join_db(4096, 6);
        let router = |atom: usize, _: &[u64], out: &mut Vec<usize>| {
            out.push(if atom == 0 { 99 } else { 0 });
        };
        let _ = Cluster::run_round_on(&db, 4, &router, Backend::Pooled(4));
    }

    #[test]
    fn with_backend_swaps_local_evaluation() {
        let db = join_db(500, 8);
        let p = 4;
        let cluster = Cluster::run_round_on(&db, p, &BroadcastRouter { p }, Backend::Sequential);
        let answers_seq = cluster.all_answers(db.query());
        let cluster = cluster.with_backend(Backend::Pooled(3));
        assert_eq!(cluster.backend(), Backend::Pooled(3));
        assert_eq!(cluster.all_answers(db.query()), answers_seq);
    }
}
