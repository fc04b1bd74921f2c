//! # mpc-sim
//!
//! A simulator for the MPC (Massively Parallel Communication) model of
//! Beame–Koutris–Suciu (PODS 2014, Section 2.1): `p` servers, one global
//! communication round, cost = maximum bits received by any server.
//!
//! * [`cluster::Cluster`] — executes a [`cluster::Router`] (a pure
//!   tuple-at-a-time routing policy, the paper's one-round algorithm model)
//!   and materializes one fragment per key;
//! * [`placement::Placement`] — maps a router's keys to the blocks and
//!   servers that hold them (the one fold of virtual servers onto `p`);
//! * [`backend::Backend`] — the execution backend (`Sequential`, or
//!   `Threads(n)`: scoped threads per parallel loop, the caller one of
//!   them) driving the shuffle and the per-server local joins, with
//!   bit-identical results whatever the thread count;
//! * [`oracle`] — the sequential ground-truth join that verification
//!   measures distributed answers against;
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
pub mod placement;
pub mod topology;

pub use backend::Backend;
pub use cluster::{BroadcastRouter, Cluster, Router};
pub use hashing::{bucket_loads, summarize, HashFamily, LoadSummary};
pub use load::LoadReport;
pub use placement::Placement;
pub use topology::{round_shares, Grid, Subcubes};
