//! # mpc-bench
//!
//! The experiment harness: one `exp` binary with one experiment per
//! table/figure/worked example of the paper (E1–E13, named in
//! [`experiments::ALL`]), plus criterion microbenchmarks for the algorithm
//! implementations.
//!
//! Run everything with `cargo run --release -p mpc-bench --bin exp -- all`.

pub mod alloc_counter;
pub mod table;
pub mod workloads;

pub mod experiments;
