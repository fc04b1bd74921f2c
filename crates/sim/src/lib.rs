//! # mpc-sim
//!
//! A simulator for the MPC (Massively Parallel Communication) model of
//! Beame–Koutris–Suciu (PODS 2014, Section 2.1): `p` servers, one global
//! communication round, cost = maximum bits received by any server.
//!
//! * [`cluster::Cluster`] — executes a [`cluster::Router`] (a pure
//!   tuple-at-a-time routing policy, the paper's one-round algorithm model)
//!   and materializes per-server fragments;
//! * [`backend::Backend`] — the execution backend (`Sequential` or the
//!   persistent-pool `Pooled(n)`) driving the shuffle and the per-server
//!   local joins, with bit-identical results whatever the thread count;
//! * [`pool::WorkerPool`] — the persistent worker pool behind
//!   `Backend::Pooled`, reused across rounds, queries, and batches;
//! * [`oracle`] — the parallel ground-truth join (hash-partitioned
//!   sub-joins on the backend chunking) that verification measures
//!   distributed answers against;
//! * [`load::LoadReport`] — exact per-server bit/tuple accounting, maximum
//!   load `L`, and the replication rate `r` of Section 5;
//! * [`topology::Grid`] — the hypercube server grid with subcube
//!   enumeration (the HC replication pattern) and integer share rounding;
//! * [`hashing::HashFamily`] — independent per-dimension hash functions and
//!   the bucket-load experiment of Lemma 3.1.

pub mod backend;
pub mod cluster;
pub mod hashing;
pub mod load;
pub mod oracle;
pub mod pool;
pub mod topology;

pub use backend::Backend;
pub use cluster::{BroadcastRouter, Cluster, Router};
pub use hashing::{bucket_loads, summarize, HashFamily, LoadSummary};
pub use load::LoadReport;
pub use pool::WorkerPool;
pub use topology::{round_shares, Grid};
