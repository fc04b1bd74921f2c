//! The six workloads: generated relations plus one *period* of protocol
//! commands each.
//!
//! A *cycle* is a fixed ordered script of commands and the unit every
//! timing is reported in. A *period* is the shortest run of cycles after
//! which the script — and the server's catalog — repeats exactly, so a
//! time-boxed run that executes whole periods does the same work per cycle
//! however many cycles fit into the box. Five workloads have a period of
//! one cycle; `ingest_mix` has eight (see [`ingest_mix`]).

use std::fmt::Write as _;

use crate::gen::{product_skew, uniform, zipf_column, Digest, End, Rng};

/// Servers in the simulated cluster: `mpcskew serve --p 64`.
pub const P: usize = 64;

/// Upper bound on answer rows one cycle may produce, asserted by the
/// in-process replay before any server is spawned. Five-atom chains over
/// relations Zipf-skewed on *both* sides of a join variable once drove the
/// server to 15.7 GB; a workload that breaks this bound is a generator bug.
pub const MAX_ROWS_PER_CYCLE: u64 = 1_000_000;

/// Untimed cycles that open every round (rounded up to whole periods).
const WARMUP_CYCLES: usize = 3;

/// Why each workload is in the benchmark, as `BENCHMARK.json` states it.
pub const WHY: [(&str, &str); 6] = [
    (
        "uniform_hit",
        "skew-free relations, every plan cached: shuffle and local join do the work and the planner none",
    ),
    (
        "skew_hit",
        "Zipf and planted heavy hitters, every plan cached: the same layers as uniform_hit driven through the skew algorithms",
    ),
    (
        "plan_miss",
        "small relations, a fresh seed= on every request: every query is a plan-cache miss, so planning is most of the work",
    ),
    (
        "ingest_mix",
        "APPEND beside QUERY: sketch upkeep on every cycle, and every eighth a new heavy hitter that invalidates plans",
    ),
    (
        "rows_out",
        "a 100k-row answer rendered with rows beside aggregates that never materialize it: render and write-out dominate",
    ),
    (
        "tcp_two_clients",
        "two closed-loop clients over a TCP socket: the only workload through the socket and the service mutex",
    ),
];

/// The workload names, in the order they run and are reported.
pub fn names() -> Vec<&'static str> {
    WHY.iter().map(|(name, _)| *name).collect()
}

/// A binary relation in row-major flat form.
pub struct Rel {
    pub name: String,
    pub flat: Vec<u64>,
}

pub enum Cmd {
    /// `QUERY <body> [seed=N] [rows]`. With `fresh_seed` every send carries
    /// a `seed=` never used before on that connection, so the plan cache
    /// key never repeats while shape, statistics and plan structure do.
    Query {
        body: String,
        fresh_seed: bool,
        rows: bool,
    },
    /// `APPEND <relations[rel].name> <rows>`.
    Append { rel: usize, flat: Vec<u64> },
    /// `LOAD` the relation's generated tuples again, replacing whatever the
    /// appends made of it.
    Reload { rel: usize },
}

pub struct Workload {
    pub name: &'static str,
    /// `mpcskew serve --domain`.
    pub domain: u64,
    pub relations: Vec<Rel>,
    pub period: Vec<Vec<Cmd>>,
    /// Two clients over a TCP socket instead of one over stdio.
    pub tcp: bool,
}

/// See [`Workload::rendered`].
pub struct Rendered {
    /// One `LOAD` line per relation.
    pub loads: Vec<String>,
    /// `period[c][k]`: command `k` of cycle `c`, `None` where the line
    /// carries a fresh seed and has to be rendered when it is sent.
    pub period: Vec<Vec<Option<String>>>,
}

/// Hands out the `seed=` values of fresh-seed queries; one per connection,
/// restarted with every server, so a round's k-th such query always plans
/// under the same hash seed.
pub struct SeedSchedule(u64);

impl SeedSchedule {
    pub fn new() -> SeedSchedule {
        SeedSchedule(1000)
    }

    /// The seed `cmd` is sent with: the next unused one for a fresh-seed
    /// query, none for anything else.
    pub fn for_cmd(&mut self, cmd: &Cmd) -> Option<u64> {
        match cmd {
            Cmd::Query {
                fresh_seed: true, ..
            } => {
                self.0 += 1;
                Some(self.0)
            }
            _ => None,
        }
    }
}

fn rows_text(flat: &[u64]) -> String {
    let mut out = String::with_capacity(flat.len() * 6);
    for (i, row) in flat.chunks_exact(2).enumerate() {
        let sep = if i > 0 { ";" } else { "" };
        write!(out, "{sep}{},{}", row[0], row[1]).expect("writing to a String cannot fail");
    }
    out
}

impl Workload {
    pub fn load_line(&self, rel: usize) -> String {
        let r = &self.relations[rel];
        format!("LOAD {} 2 {}", r.name, rows_text(&r.flat))
    }

    /// The protocol line for `cmd`; `seed` comes from
    /// [`SeedSchedule::for_cmd`].
    pub fn line(&self, cmd: &Cmd, seed: Option<u64>) -> String {
        match cmd {
            Cmd::Query { body, rows, .. } => {
                let mut line = format!("QUERY {body}");
                if let Some(seed) = seed {
                    line.push_str(&format!(" seed={seed}"));
                }
                if *rows {
                    line.push_str(" rows");
                }
                line
            }
            Cmd::Append { rel, flat } => {
                format!("APPEND {} {}", self.relations[*rel].name, rows_text(flat))
            }
            Cmd::Reload { rel } => self.load_line(*rel),
        }
    }

    /// Every line that does not depend on a seed, rendered once: formatting
    /// a 32 768-row `LOAD` inside a timed cycle would bill the client's
    /// work to the server.
    pub fn rendered(&self) -> Rendered {
        Rendered {
            loads: (0..self.relations.len())
                .map(|rel| self.load_line(rel))
                .collect(),
            period: self
                .period
                .iter()
                .map(|cycle| {
                    cycle
                        .iter()
                        .map(|cmd| match cmd {
                            Cmd::Query {
                                fresh_seed: true, ..
                            } => None,
                            _ => Some(self.line(cmd, None)),
                        })
                        .collect()
                })
                .collect(),
        }
    }

    pub fn warmup_cycles(&self) -> usize {
        WARMUP_CYCLES.div_ceil(self.period.len()) * self.period.len()
    }

    /// Hash of every generated tuple and script line.
    pub fn input_digest(&self) -> u64 {
        let mut d = Digest::new();
        for r in &self.relations {
            d.bytes(r.name.as_bytes());
            d.words(&r.flat);
        }
        let mut seeds = SeedSchedule::new();
        for cycle in &self.period {
            for cmd in cycle {
                d.bytes(self.line(cmd, seeds.for_cmd(cmd)).as_bytes());
                d.bytes(b"\n");
            }
        }
        d.finish()
    }
}

fn query(body: &str) -> Cmd {
    Cmd::Query {
        body: body.to_string(),
        fresh_seed: false,
        rows: false,
    }
}

fn rel(name: impl Into<String>, flat: Vec<u64>) -> Rel {
    Rel {
        name: name.into(),
        flat,
    }
}

const JOIN: &str = "S1(x,z), S2(y,z)";
const TRIANGLE: &str = "S1(x,y), S2(y,z), S3(z,x)";
const CHAIN3: &str = "S1(x,y), S2(y,z), S3(z,w)";
const JOIN_COUNT_BY_Z: &str = "Q(z; count) :- S1(x,z), S2(y,z)";

pub fn build(name: &str, seed: u64) -> Option<Workload> {
    Some(match name {
        "uniform_hit" => uniform_hit(seed),
        "skew_hit" => skew_hit(seed),
        "plan_miss" => plan_miss(seed),
        "ingest_mix" => ingest_mix(seed),
        "rows_out" => rows_out(seed),
        "tcp_two_clients" => tcp_two_clients(seed),
        _ => return None,
    })
}

/// Skew-free data, every plan cached: shuffle and local join do nearly all
/// the work and the planner none.
fn uniform_hit(seed: u64) -> Workload {
    let (m, domain) = (32_768, 1 << 16);
    let relations = ["S1", "S2", "S3"]
        .iter()
        .map(|n| {
            rel(
                *n,
                uniform(
                    &mut Rng::stream(seed, &format!("uniform_hit/{n}")),
                    m,
                    domain,
                ),
            )
        })
        .collect();
    Workload {
        name: "uniform_hit",
        domain,
        relations,
        period: vec![vec![
            query(JOIN),
            query(TRIANGLE),
            query(CHAIN3),
            query(JOIN_COUNT_BY_Z),
        ]],
        tcp: false,
    }
}

/// The paper's Section 4 case, every plan cached. S1/S2 are Zipf on the join
/// column at opposite ends of the domain and share one planted heavy value;
/// T1/T2 are Zipf on their shared variable and T3 closes the triangle
/// uniformly.
fn skew_hit(seed: u64) -> Workload {
    let (m, mt, domain) = (32_768, 16_384, 1u64 << 16);
    let stream = |n: &str| Rng::stream(seed, &format!("skew_hit/{n}"));
    let planted = domain / 2;
    let zipf = |n: &str, m, col, end, planted| {
        rel(
            n,
            zipf_column(&mut stream(n), m, domain, 1.1, col, end, planted),
        )
    };
    let relations = vec![
        zipf("S1", m, 1, End::Low, Some((planted, m / 32))),
        zipf("S2", m, 1, End::High, Some((planted, m / 256))),
        zipf("T1", mt, 1, End::Low, None),
        zipf("T2", mt, 0, End::Low, None),
        rel("T3", uniform(&mut stream("T3"), mt, domain)),
    ];
    Workload {
        name: "skew_hit",
        domain,
        relations,
        period: vec![vec![
            query(JOIN),
            query("Q(z; count, sum(x)) :- S1(x,z), S2(y,z)"),
            query("T1(x,y), T2(y,z), T3(z,x)"),
        ]],
        tcp: false,
    }
}

/// Small relations, every request a plan-cache miss. Z* are Zipf on column
/// 0 and uniform on column 1; each shape joins a uniform column to a Zipf
/// one, never Zipf to Zipf, which bounds the output.
fn plan_miss(seed: u64) -> Workload {
    let (m, domain) = (512, 1u64 << 12);
    let mut relations = Vec::new();
    for i in 1..=5 {
        let mut rng = Rng::stream(seed, &format!("plan_miss/Z{i}"));
        relations.push(rel(
            format!("Z{i}"),
            zipf_column(&mut rng, m, domain, 1.1, 0, End::Low, None),
        ));
    }
    for i in 1..=5 {
        let mut rng = Rng::stream(seed, &format!("plan_miss/U{i}"));
        relations.push(rel(format!("U{i}"), uniform(&mut rng, m, domain)));
    }
    let shapes = [
        "Z1(a,b), Z2(b,c), Z3(c,a)",
        "Z1(a,b), Z2(b,c), Z3(c,d), Z4(d,a)",
        "Z1(a,b), Z2(b,c), Z3(c,d), Z4(d,e)",
        "Z1(a,b), Z2(b,c), Z3(c,d), Z4(d,e), Z5(e,a)",
        "U1(a,b), U2(b,c), U3(c,d), U4(d,a)",
        "U1(a,b), U2(b,c), U3(c,d), U4(d,e)",
        "U1(a,b), U2(b,c), U3(c,d), U4(d,e), U5(e,a)",
        "U1(a,b), U2(b,c), U3(c,d), U4(d,e), U5(e,f)",
        "U1(a,b), U2(a,c), U3(a,d), U4(a,e), U5(a,f)",
    ];
    let cycle = shapes
        .iter()
        .map(|body| Cmd::Query {
            body: body.to_string(),
            fresh_seed: true,
            rows: false,
        })
        .collect();
    Workload {
        name: "plan_miss",
        domain,
        relations,
        period: vec![cycle],
        tcp: false,
    }
}

pub const INGEST_LIGHT_ROWS: usize = 128;

/// Copies of the fresh value in `ingest_mix`'s heavy batch when S2 holds
/// `len` tuples: a quarter above `len / p`, so the value is still a heavy
/// hitter once the batch itself has grown the relation.
pub fn ingest_heavy_copies(len: usize) -> usize {
    (5 * len).div_ceil(4 * P)
}

/// Writes beside reads. Each cycle appends to S2 and then queries it; every
/// eighth cycle appends one fresh value often enough to become a heavy
/// hitter, which changes the statistics fingerprint and makes the next
/// three queries replan. The protocol cannot delete, so the period opens by
/// loading S2's generated tuples again: that keeps the catalog — and so the
/// work per cycle — the same however long the run lasts.
fn ingest_mix(seed: u64) -> Workload {
    let (m, domain) = (32_768, 1u64 << 16);
    let stream = |n: &str| Rng::stream(seed, &format!("ingest_mix/{n}"));
    let relations = vec![
        rel(
            "S1",
            zipf_column(&mut stream("S1"), m, domain, 0.8, 1, End::Low, None),
        ),
        rel(
            "S2",
            zipf_column(&mut stream("S2"), m, domain, 0.8, 1, End::High, None),
        ),
        rel("S3", uniform(&mut stream("S3"), m, domain)),
    ];
    let mut rng = stream("appends");
    let mut len = m;
    let mut period = Vec::new();
    for c in 0..8 {
        let mut cycle = Vec::new();
        if c == 0 {
            cycle.push(Cmd::Reload { rel: 1 });
        }
        let flat = if c < 7 {
            uniform(&mut rng, INGEST_LIGHT_ROWS, domain)
        } else {
            let fresh = domain / 2 + rng.below(domain / 4);
            (0..ingest_heavy_copies(len))
                .flat_map(|_| [rng.below(domain), fresh])
                .collect()
        };
        len += flat.len() / 2;
        cycle.push(Cmd::Append { rel: 1, flat });
        cycle.extend([query(JOIN), query(JOIN_COUNT_BY_Z), query(CHAIN3)]);
        period.push(cycle);
    }
    Workload {
        name: "ingest_mix",
        domain,
        relations,
        period,
        tcp: false,
    }
}

/// A large answer: eight hot join values with the same fan-out on both
/// sides and disjoint light tails. The fan-out stays below `m/p`, so the
/// planner sees no heavy hitter and keeps HyperCube; what grows is the
/// output, which the first command renders row by row and the aggregate
/// commands never materialize.
fn rows_out(seed: u64) -> Workload {
    let (m, domain, hot, fanout) = (16_384, 1u64 << 16, 8, 112);
    let stream = |n: &str| Rng::stream(seed, &format!("rows_out/{n}"));
    let relations = vec![
        rel(
            "S1",
            product_skew(&mut stream("S1"), m, domain, hot, fanout, 1_000..30_000),
        ),
        rel(
            "S2",
            product_skew(&mut stream("S2"), m, domain, hot, fanout, 33_000..65_000),
        ),
    ];
    Workload {
        name: "rows_out",
        domain,
        relations,
        period: vec![vec![
            Cmd::Query {
                body: JOIN.to_string(),
                fresh_seed: false,
                rows: true,
            },
            query(JOIN),
            Cmd::Query {
                body: "Q(z; count, sum(x)) :- S1(x,z), S2(y,z)".to_string(),
                fresh_seed: false,
                rows: true,
            },
            query("Q(; count) :- S1(x,z), S2(y,z)"),
        ]],
        tcp: false,
    }
}

/// The socket and the service mutex: two closed-loop clients, each sending
/// one large triangle and then four small joins per cycle, the second
/// client starting two commands into the cycle so the large queries of one
/// overlap the small ones of the other.
fn tcp_two_clients(seed: u64) -> Workload {
    let (m, small, domain) = (65_536, 1_024, 1u64 << 16);
    let stream = |n: &str| Rng::stream(seed, &format!("tcp_two_clients/{n}"));
    let relations = vec![
        rel("S1", uniform(&mut stream("S1"), m, domain)),
        rel("S2", uniform(&mut stream("S2"), m, domain)),
        rel("S3", uniform(&mut stream("S3"), m, domain)),
        rel("K1", uniform(&mut stream("K1"), small, domain)),
        rel("K2", uniform(&mut stream("K2"), small, domain)),
    ];
    let mut cycle = vec![query(TRIANGLE)];
    cycle.extend((0..4).map(|_| query("K1(x,z), K2(y,z)")));
    Workload {
        name: "tcp_two_clients",
        domain,
        relations,
        period: vec![cycle],
        tcp: true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_digest_other_seed_other_digest() {
        for name in names() {
            let a = build(name, 11).unwrap().input_digest();
            assert_eq!(a, build(name, 11).unwrap().input_digest(), "{name}");
            assert_ne!(a, build(name, 12).unwrap().input_digest(), "{name}");
        }
        assert!(build("nope", 1).is_none());
    }

    #[test]
    fn scripts_are_deterministic_and_fresh_seeds_never_repeat() {
        let w = build("plan_miss", 4).unwrap();
        let render = |w: &Workload| {
            let mut seeds = SeedSchedule::new();
            (0..3)
                .flat_map(|_| &w.period[0])
                .map(|c| w.line(c, seeds.for_cmd(c)))
                .collect::<Vec<_>>()
        };
        let lines = render(&w);
        assert_eq!(lines, render(&build("plan_miss", 4).unwrap()));
        let mut distinct = lines.clone();
        distinct.sort();
        distinct.dedup();
        assert_eq!(distinct.len(), 27, "every request is its own plan key");
        assert!(lines[0].ends_with(" seed=1001"), "{}", lines[0]);
    }

    #[test]
    fn ingest_heavy_batch_crosses_the_heavy_threshold() {
        let w = build("ingest_mix", 9).unwrap();
        assert_eq!(w.period.len(), 8);
        assert_eq!(w.warmup_cycles(), 8);
        assert!(matches!(w.period[0][0], Cmd::Reload { rel: 1 }));
        let mut len = w.relations[1].flat.len() / 2;
        for (c, cycle) in w.period.iter().enumerate() {
            let batch = cycle
                .iter()
                .find_map(|cmd| match cmd {
                    Cmd::Append { rel: 1, flat } => Some(flat),
                    _ => None,
                })
                .expect("every cycle appends to S2");
            len += batch.len() / 2;
            if c < 7 {
                assert_eq!(batch.len() / 2, INGEST_LIGHT_ROWS);
                continue;
            }
            let fresh = batch[1];
            assert!(batch.chunks_exact(2).all(|r| r[1] == fresh));
            // Heavy means more than m_j / p copies, counted after the batch.
            assert!(
                (batch.len() / 2) * P > len,
                "{} copies of {len}",
                batch.len() / 2
            );
        }
    }

    #[test]
    fn one_period_of_every_script_renders_protocol_lines() {
        for name in names() {
            let w = build(name, 2).unwrap();
            let mut seeds = SeedSchedule::new();
            for cmd in w.period.iter().flatten() {
                let line = w.line(cmd, seeds.for_cmd(cmd));
                let word = line.split(' ').next().unwrap();
                assert!(["QUERY", "APPEND", "LOAD"].contains(&word), "{line}");
                assert!(!line.contains('\n'));
            }
            assert!(w.warmup_cycles() >= 3 && w.warmup_cycles().is_multiple_of(w.period.len()));
        }
    }
}
