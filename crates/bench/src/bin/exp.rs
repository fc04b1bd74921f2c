//! Regenerates the paper's tables: `exp <name>` runs one experiment,
//! `exp all` runs every one in order (the experiment index is in the
//! README's "Experiments" section).
use mpc_bench::experiments::ALL;

fn main() {
    let name = std::env::args().nth(1).unwrap_or_default();
    let chosen: Vec<fn()> = ALL
        .iter()
        .filter(|(n, _)| name == "all" || name == *n)
        .map(|&(_, run)| run)
        .collect();
    if chosen.is_empty() {
        let names: Vec<&str> = ALL.iter().map(|&(n, _)| n).collect();
        eprintln!("usage: exp all|{}", names.join("|"));
        std::process::exit(2);
    }
    for run in chosen {
        run();
    }
}
