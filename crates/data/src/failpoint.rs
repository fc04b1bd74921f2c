//! A zero-cost-when-disabled failpoint registry for chaos testing.
//!
//! Named sites in the hot paths call [`hit`]; with no failpoints
//! configured that is a single relaxed atomic load and a predicted branch.
//! Sites are armed from the `MPCSKEW_FAILPOINTS` environment variable
//! (read exactly once, on the first use of the registry) and, in tests, by
//! an [`arm`] handle layered on top of it.
//!
//! The configuration grammar is a comma-separated list of
//! `site:action[:arg]` triples:
//!
//! ```text
//! MPCSKEW_FAILPOINTS=shuffle:panic:0.01,local_join:delay:5ms
//! ```
//!
//! * `panic[:probability]` — unwind with a recognizable `String` payload
//!   (`failpoint `site` injected panic`); the probability (default 1)
//!   is evaluated by a deterministic per-site counter RNG, so a given
//!   configuration fires on exactly the same hits in every run.
//! * `delay[:duration]` — sleep for the duration (default `1ms`; accepts
//!   `ns`/`us`/`ms`/`s` suffixes) on every hit.
//!
//! The sites this workspace registers: `plan` (per planned query, i.e. per
//! plan-cache miss in the service), `shuffle` (per routed chunk), `merge`
//! (per merged chunk on the consuming thread), `local_join` (per local
//! join evaluation). [`fires`] reports how many times a site has
//! fired, for tests asserting an injection actually happened.
//!
//! The registry is process-global, so arming it is exclusive: [`arm`]
//! returns an [`Armed`] handle that owns one process-wide guard for its
//! lifetime and removes its sites on drop (a panicking test included).
//! Tests sharing a process therefore serialize on the handle and can
//! never see each other's sites.

use crate::rng::mix64;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

const UNINIT: u8 = 0;
const OFF: u8 = 1;
const ON: u8 = 2;

/// Fast-path gate: UNINIT until the registry is first used, then OFF or
/// ON. Only written while holding the [`REGISTRY`] lock.
static STATE: AtomicU8 = AtomicU8::new(UNINIT);

static REGISTRY: Mutex<Registry> = Mutex::new(Registry {
    env: Vec::new(),
    armed: Vec::new(),
});

/// The guard an [`Armed`] handle owns: at most one exists per process.
static ARM_GUARD: Mutex<()> = Mutex::new(());

/// Seed of the deterministic per-site coin flips.
const FAILPOINT_SEED: u64 = 0x5eed_fa11_9075_c0de;

/// The two layers of configuration: the environment's sites, fixed for
/// the process lifetime, and the sites of the live [`Armed`] handle (if
/// any), which shadow same-named environment sites.
struct Registry {
    env: Vec<Site>,
    armed: Vec<Site>,
}

impl Registry {
    /// Lock the registry, resolving the `UNINIT` state first: the
    /// environment is parsed by whichever caller gets here first, under
    /// the lock, so a concurrent [`arm`] can neither be overwritten by a
    /// late initializer nor skip it.
    fn lock() -> MutexGuard<'static, Registry> {
        let mut reg = REGISTRY.lock().unwrap_or_else(|p| p.into_inner());
        if STATE.load(Ordering::Relaxed) == UNINIT {
            reg.env = parse_spec(&std::env::var("MPCSKEW_FAILPOINTS").unwrap_or_default());
            reg.publish();
        }
        reg
    }

    fn publish(&self) {
        let idle = self.env.is_empty() && self.armed.is_empty();
        STATE.store(if idle { OFF } else { ON }, Ordering::Relaxed);
    }

    fn site(&mut self, name: &str) -> Option<&mut Site> {
        self.armed
            .iter_mut()
            .chain(self.env.iter_mut())
            .find(|s| s.name == name)
    }
}

#[derive(Debug)]
struct Site {
    name: String,
    action: Action,
    /// `panic` fires when `mix64(seed ^ hits) < threshold`; probability 1
    /// stores `u64::MAX` and always fires.
    threshold: u64,
    hits: u64,
    fires: u64,
}

#[derive(Clone, Copy, Debug)]
enum Action {
    Panic,
    Delay(Duration),
}

/// Mark a named failpoint site. Free when no failpoints are configured.
#[inline]
pub fn hit(site: &str) {
    if STATE.load(Ordering::Relaxed) == OFF {
        return;
    }
    hit_slow(site);
}

#[cold]
fn hit_slow(site: &str) {
    let action = {
        let mut reg = Registry::lock();
        let Some(s) = reg.site(site) else {
            return;
        };
        let roll = mix64(s.hits.wrapping_mul(0x9e37_79b9_7f4a_7c15), FAILPOINT_SEED);
        s.hits += 1;
        if s.threshold != u64::MAX && roll >= s.threshold {
            return;
        }
        s.fires += 1;
        s.action
    };
    match action {
        Action::Panic => std::panic::panic_any(format!("failpoint `{site}` injected panic")),
        Action::Delay(d) => std::thread::sleep(d),
    }
}

/// Exclusive ownership of the armed layer of the registry; see [`arm`].
pub struct Armed {
    _guard: MutexGuard<'static, ()>,
}

/// Take the process-wide failpoint guard — blocking while another
/// [`Armed`] handle is alive — and arm the sites of a
/// `site:action[:arg],...` spec on top of the environment's. The sites
/// are removed when the handle drops. An empty spec arms nothing: the
/// handle then only keeps other tests' sites out of the caller's way.
/// Unparseable entries panic — a chaos run with a typo'd spec should fail
/// loudly, not silently test nothing.
pub fn arm(spec: &str) -> Armed {
    // Parse first: a typo'd spec panics with nothing held.
    let sites = parse_spec(spec);
    // A test that failed while armed poisons the guard; the unit value
    // behind it has no state to be torn.
    let guard = ARM_GUARD.lock().unwrap_or_else(|p| p.into_inner());
    install(sites);
    Armed { _guard: guard }
}

impl Armed {
    /// Replace this handle's sites with those of `spec` (per-site hit and
    /// fire counters start over), keeping the guard.
    pub fn rearm(&mut self, spec: &str) {
        install(parse_spec(spec));
    }
}

impl Drop for Armed {
    fn drop(&mut self) {
        install(Vec::new());
    }
}

/// Replace the armed layer. Callers hold [`ARM_GUARD`].
fn install(sites: Vec<Site>) {
    let mut reg = Registry::lock();
    reg.armed = sites;
    reg.publish();
}

fn parse_spec(spec: &str) -> Vec<Site> {
    let mut sites = Vec::new();
    for entry in spec.split(',') {
        let entry = entry.trim();
        if entry.is_empty() {
            continue;
        }
        let mut parts = entry.splitn(3, ':');
        let name = parts.next().expect("split yields at least one part");
        let action = parts.next().unwrap_or_else(|| {
            panic!("failpoint entry `{entry}` is missing an action (site:action[:arg])")
        });
        let arg = parts.next();
        let (action, threshold) = match action {
            "panic" => {
                let prob: f64 = arg.map_or(1.0, |a| {
                    a.parse()
                        .unwrap_or_else(|_| panic!("failpoint `{entry}`: bad probability `{a}`"))
                });
                let threshold = if prob >= 1.0 {
                    u64::MAX
                } else {
                    (prob.max(0.0) * u64::MAX as f64) as u64
                };
                (Action::Panic, threshold)
            }
            "delay" => {
                let d = arg.map_or(Duration::from_millis(1), |a| {
                    parse_duration(a)
                        .unwrap_or_else(|| panic!("failpoint `{entry}`: bad duration `{a}`"))
                });
                (Action::Delay(d), u64::MAX)
            }
            other => panic!("failpoint `{entry}`: unknown action `{other}` (panic|delay)"),
        };
        sites.push(Site {
            name: name.to_string(),
            action,
            threshold,
            hits: 0,
            fires: 0,
        });
    }
    sites
}

/// How many times `site` has fired (panicked or delayed) since it was
/// armed. 0 for unknown sites.
pub fn fires(site: &str) -> u64 {
    Registry::lock().site(site).map_or(0, |s| s.fires)
}

fn parse_duration(s: &str) -> Option<Duration> {
    let (num, unit) = s.split_at(s.find(|c: char| c.is_ascii_alphabetic())?);
    let n: u64 = num.parse().ok()?;
    match unit {
        "ns" => Some(Duration::from_nanos(n)),
        "us" => Some(Duration::from_micros(n)),
        "ms" => Some(Duration::from_millis(n)),
        "s" => Some(Duration::from_secs(n)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_durations() {
        assert_eq!(parse_duration("5ms"), Some(Duration::from_millis(5)));
        assert_eq!(parse_duration("250us"), Some(Duration::from_micros(250)));
        assert_eq!(parse_duration("2s"), Some(Duration::from_secs(2)));
        assert_eq!(parse_duration("7"), None);
        assert_eq!(parse_duration("5min"), None);
    }

    /// Panics injected out of 64 hits of `site`.
    fn panics_in_64_hits(site: &'static str) -> u64 {
        (0..64)
            .filter(|_| std::panic::catch_unwind(|| hit(site)).is_err())
            .count() as u64
    }

    #[test]
    fn unconfigured_site_is_silent_and_probability_is_deterministic() {
        let mut armed = arm("here:panic:0.5");
        hit("elsewhere"); // not configured: no-op
        let fired = panics_in_64_hits("here");
        assert_eq!(fired, fires("here"));
        assert!(fired > 0 && fired < 64, "p=0.5 fired {fired}/64");
        armed.rearm("");
        hit("here"); // disarmed: no-op
        assert_eq!(fires("here"), 0);
        // Re-arming resets the per-site counter: the same spec fires on
        // the same hits again.
        armed.rearm("here:panic:0.5");
        assert_eq!(panics_in_64_hits("here"), fired);
    }

    #[test]
    fn delay_site_sleeps_and_counts() {
        let _armed = arm("slow:delay:1ms");
        let t = std::time::Instant::now();
        hit("slow");
        hit("slow");
        assert!(t.elapsed() >= Duration::from_millis(2));
        assert_eq!(fires("slow"), 2);
    }

    #[test]
    fn armed_handles_serialize_across_threads() {
        use std::sync::atomic::AtomicBool;
        use std::sync::mpsc::channel;

        let first = arm("one:panic");
        let released = AtomicBool::new(false);
        let (started_tx, started_rx) = channel();
        std::thread::scope(|scope| {
            let second = scope.spawn(|| {
                started_tx.send(()).expect("main is waiting");
                let _second = arm("two:panic"); // blocks until `first` drops
                assert!(
                    released.load(Ordering::SeqCst),
                    "second handle armed while the first was alive"
                );
                hit("one"); // the first handle's site left with it
                assert!(std::panic::catch_unwind(|| hit("two")).is_err());
            });
            started_rx.recv().expect("second thread started");
            // The second thread is now at (or inside) its `arm` call; had
            // it got through, `one` would be gone and these hits silent.
            assert_eq!(panics_in_64_hits("one"), 64);
            assert_eq!(fires("two"), 0);
            released.store(true, Ordering::SeqCst);
            drop(first);
            second.join().expect("second thread's assertions hold");
        });
        hit("two"); // dropped with the second handle
    }
}
