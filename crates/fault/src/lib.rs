//! `vega-fault` — seed-deterministic fault injection for chaos testing.
//!
//! Disks lie, sockets drop, and worker threads panic; the serving stack has
//! to recover from all of it without giving up byte-identical outputs. This
//! crate is the substrate the whole workspace uses to *prove* that: named
//! fault **sites** are threaded through corpus VFS reads, checkpoint
//! save/load, `vega-par` workers, and the vega-serve connection path, and a
//! [`FaultPlan`] decides — purely as a function of `(seed, site, hit index)`
//! — which hits fail. Two runs with the same plan and workload therefore
//! inject the *identical* fault sequence, which turns chaos tests from
//! flaky-sleep lotteries into ordinary deterministic assertions.
//!
//! Design points:
//!
//! * **Zero cost when disabled.** With no plan installed, [`check`] is a
//!   single relaxed atomic load returning `None`; no site allocates, locks,
//!   or branches further. Production behaviour with `VEGA_FAULT_PLAN` unset
//!   is bit-identical to a build without the instrumentation.
//! * **Seeded, counted decisions.** Each site keeps a hit counter inside the
//!   plan; hit `i` of site `s` fires iff `mix(seed, fnv(s), i)` falls under
//!   the site's configured rate (or `i` equals an explicit `@index`
//!   trigger). No wall clocks, no OS randomness.
//! * **Observable.** Every fired fault bumps the `fault.injected.<site>`
//!   counter on the global [`vega_obs`] handle (plus a debug event), leaves
//!   a `site#hit` record in the [`vega_obs::flight`] recorder stamped with
//!   the active trace context when the recorder is enabled, and
//!   recovery paths report [`recovered`] into `fault.recovered.<site>`, so a
//!   JSONL trace shows exactly what was injected and what was survived —
//!   recovery behaviour is itself assertable.
//! * **Env or in-process.** The daemon reads the `VEGA_FAULT_PLAN` env var
//!   once on first use; tests install plans directly with [`set_plan`] and
//!   clear them with `set_plan(None)`.
//!
//! Plan syntax (clauses separated by `;`):
//!
//! ```text
//! VEGA_FAULT_PLAN="seed=7;serve.conn.drop=0.2;serve.conn.stall=0.1:25;ckpt.save.crash=@0"
//! ```
//!
//! * `seed=<u64>` — the plan seed (default 0).
//! * `<site>=<rate>` — fire each hit independently with probability `rate`
//!   (a float in `[0, 1]`), decided by the seeded hash. `<site>` must be
//!   one of [`sites::ALL`]; any other name is rejected, so a typo cannot
//!   parse into a plan that never fires.
//! * `<site>=@<index>` — fire exactly the `<index>`-th hit of the site
//!   (0-based), once.
//! * An optional `:<arg>` suffix carries a site-specific integer argument
//!   (milliseconds for stall sites).
//!
//! The well-known sites are listed in [`sites`].

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Once};

/// Well-known site names, so call sites and plans cannot drift apart.
pub mod sites {
    /// A corpus [`VirtualFs`](../vega_corpus) read; recovery = bounded retry.
    pub const VFS_READ: &str = "vfs.read";
    /// A `vega-par` worker task; recovery = bounded deterministic retry,
    /// then clean panic propagation.
    pub const PAR_TASK: &str = "par.task";
    /// A crash in the middle of writing a checkpoint temp file; recovery =
    /// the previous checkpoint file is left intact.
    pub const CKPT_SAVE_CRASH: &str = "ckpt.save.crash";
    /// A vega-serve connection dropped before the response is written;
    /// recovery = client reconnect + resend with backoff.
    pub const SERVE_CONN_DROP: &str = "serve.conn.drop";
    /// A vega-serve response stalled by the site argument in milliseconds;
    /// recovery = the response still arrives within the read timeout.
    pub const SERVE_CONN_STALL: &str = "serve.conn.stall";
    /// A malformed frame written instead of the response; recovery = client
    /// detects the bad frame and resends.
    pub const SERVE_CONN_CORRUPT: &str = "serve.conn.corrupt";
    /// The client-side recovery counter shared by the drop and corrupt
    /// sites (one recovery per failed-then-retried attempt).
    pub const SERVE_CONN: &str = "serve.conn";
    /// A vega-serve hot model swap failing after the new checkpoint was
    /// loaded but before the flip; recovery = the old model keeps serving.
    pub const SERVE_SWAP: &str = "serve.swap";

    /// Every site [`check`](crate::check) is called with: the names a
    /// [`FaultPlan`](crate::FaultPlan) may name. [`SERVE_CONN`] is absent —
    /// it only counts client-side recoveries and never fires.
    pub const ALL: &[&str] = &[
        VFS_READ,
        PAR_TASK,
        CKPT_SAVE_CRASH,
        SERVE_CONN_DROP,
        SERVE_CONN_STALL,
        SERVE_CONN_CORRUPT,
        SERVE_SWAP,
    ];
}

/// A fault [`check`] decided to fire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fault {
    /// Site-specific integer argument from the plan clause (`:<arg>`), 0
    /// when absent. Stall sites read it as milliseconds.
    pub arg: u64,
    /// Which hit of the site this was (0-based), for diagnostics.
    pub hit: u64,
}

/// A malformed `VEGA_FAULT_PLAN` / [`FaultPlan::parse`] input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanError {
    /// What was malformed, naming the offending clause.
    pub msg: String,
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "fault plan: {}", self.msg)
    }
}

impl std::error::Error for PlanError {}

/// When a site's hits fire.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Trigger {
    /// Each hit fires independently with this probability.
    Rate(f64),
    /// Exactly this hit index fires, once.
    At(u64),
}

#[derive(Debug)]
struct SiteRule {
    trigger: Trigger,
    arg: u64,
    hits: AtomicU64,
}

/// A parsed fault plan: a seed plus per-site trigger rules and hit counters.
#[derive(Debug)]
pub struct FaultPlan {
    seed: u64,
    rules: BTreeMap<String, SiteRule>,
    /// Every fired `(site, hit index)`, for determinism assertions.
    fired: Mutex<Vec<(String, u64)>>,
}

/// 64-bit FNV-1a over raw bytes — the workspace's stable hash primitive
/// (also used as the checkpoint integrity digest in `vega-model`).
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// splitmix64 finalizer — decorrelates the (seed, site, hit) key.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl FaultPlan {
    /// Parses the `VEGA_FAULT_PLAN` syntax described in the crate docs.
    ///
    /// # Errors
    /// [`PlanError`] naming the malformed clause, including a clause whose
    /// site is not in [`sites::ALL`].
    pub fn parse(spec: &str) -> Result<FaultPlan, PlanError> {
        let mut seed = 0u64;
        let mut rules = BTreeMap::new();
        for clause in spec.split(';') {
            let clause = clause.trim();
            if clause.is_empty() {
                continue;
            }
            let Some((site, rhs)) = clause.split_once('=') else {
                return Err(PlanError {
                    msg: format!("clause `{clause}` is not `name=value`"),
                });
            };
            let (site, rhs) = (site.trim(), rhs.trim());
            if site == "seed" {
                seed = rhs.parse().map_err(|_| PlanError {
                    msg: format!("seed `{rhs}` is not a u64"),
                })?;
                continue;
            }
            if !sites::ALL.contains(&site) {
                return Err(PlanError {
                    msg: format!(
                        "`{clause}`: unknown site `{site}` (known sites: {})",
                        sites::ALL.join(", ")
                    ),
                });
            }
            let (trigger_str, arg_str) = match rhs.split_once(':') {
                Some((t, a)) => (t.trim(), Some(a.trim())),
                None => (rhs, None),
            };
            let trigger = if let Some(ix) = trigger_str.strip_prefix('@') {
                Trigger::At(ix.parse().map_err(|_| PlanError {
                    msg: format!("`{clause}`: `@{ix}` is not a u64 hit index"),
                })?)
            } else {
                let rate: f64 = trigger_str.parse().map_err(|_| PlanError {
                    msg: format!("`{clause}`: `{trigger_str}` is neither a rate nor `@index`"),
                })?;
                if !(0.0..=1.0).contains(&rate) {
                    return Err(PlanError {
                        msg: format!("`{clause}`: rate {rate} outside [0, 1]"),
                    });
                }
                Trigger::Rate(rate)
            };
            let arg = match arg_str {
                Some(a) => a.parse().map_err(|_| PlanError {
                    msg: format!("`{clause}`: arg `{a}` is not a u64"),
                })?,
                None => 0,
            };
            rules.insert(
                site.to_string(),
                SiteRule {
                    trigger,
                    arg,
                    hits: AtomicU64::new(0),
                },
            );
        }
        Ok(FaultPlan {
            seed,
            rules,
            fired: Mutex::new(Vec::new()),
        })
    }

    /// The plan seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Records one hit of `site` and decides whether it fires.
    fn check(&self, site: &str) -> Option<Fault> {
        let rule = self.rules.get(site)?;
        let hit = rule.hits.fetch_add(1, Ordering::Relaxed);
        let fires = match rule.trigger {
            Trigger::At(ix) => hit == ix,
            Trigger::Rate(rate) => {
                let h = mix(self.seed ^ fnv1a_64(site.as_bytes()) ^ hit.wrapping_mul(0x9E39));
                (h as f64 / u64::MAX as f64) < rate
            }
        };
        if !fires {
            return None;
        }
        self.fired
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push((site.to_string(), hit));
        Some(Fault { arg: rule.arg, hit })
    }

    /// Every fired `(site, hit index)` so far, sorted — the deterministic
    /// fault sequence two same-seed runs must agree on.
    pub fn fired_log(&self) -> Vec<(String, u64)> {
        let mut log = self.fired.lock().unwrap_or_else(|e| e.into_inner()).clone();
        log.sort();
        log
    }
}

/// Whether any plan is installed (fast path for the disabled case).
static ENABLED: AtomicBool = AtomicBool::new(false);
/// The installed plan; `Mutex` so tests can swap it.
static PLAN: Mutex<Option<Arc<FaultPlan>>> = Mutex::new(None);
/// Reads `VEGA_FAULT_PLAN` exactly once, unless [`set_plan`] ran first.
static ENV_INIT: Once = Once::new();

fn init_from_env() {
    ENV_INIT.call_once(|| {
        let Ok(spec) = std::env::var("VEGA_FAULT_PLAN") else {
            return;
        };
        if spec.trim().is_empty() {
            return;
        }
        match FaultPlan::parse(&spec) {
            Ok(plan) => {
                vega_obs::info!("[vega-fault] plan active (seed {})", plan.seed());
                *PLAN.lock().unwrap_or_else(|e| e.into_inner()) = Some(Arc::new(plan));
                ENABLED.store(true, Ordering::Release);
            }
            Err(e) => {
                // A malformed plan must never silently disable chaos runs.
                vega_obs::error!("[vega-fault] ignoring malformed VEGA_FAULT_PLAN: {e}");
            }
        }
    });
}

/// Installs (or with `None` removes) a plan in-process, overriding the
/// environment. Intended for tests; takes effect for all subsequent
/// [`check`] calls in the process.
pub fn set_plan(plan: Option<FaultPlan>) {
    ENV_INIT.call_once(|| {}); // the explicit plan wins over the env
    let mut slot = PLAN.lock().unwrap_or_else(|e| e.into_inner());
    ENABLED.store(plan.is_some(), Ordering::Release);
    *slot = plan.map(Arc::new);
}

/// The currently installed plan, if any (reading `VEGA_FAULT_PLAN` on first
/// use). Lets tests inspect [`FaultPlan::fired_log`] after a run.
pub fn active_plan() -> Option<Arc<FaultPlan>> {
    init_from_env();
    if !ENABLED.load(Ordering::Acquire) {
        return None;
    }
    PLAN.lock().unwrap_or_else(|e| e.into_inner()).clone()
}

/// Records one hit of `site` against the installed plan and returns the
/// fault to simulate, if the plan fires. With no plan installed this is one
/// relaxed atomic load — instrumented sites cost nothing in production.
///
/// A fired fault bumps the `fault.injected.<site>` counter and emits a
/// debug event on the global obs handle.
pub fn check(site: &str) -> Option<Fault> {
    if !ENABLED.load(Ordering::Relaxed) {
        init_from_env();
        if !ENABLED.load(Ordering::Relaxed) {
            return None;
        }
    }
    let plan = PLAN.lock().unwrap_or_else(|e| e.into_inner()).clone()?;
    let fault = plan.check(site)?;
    let obs = vega_obs::global();
    obs.counter_add(&format!("fault.injected.{site}"), 1);
    vega_obs::flight::record_event(
        vega_obs::flight::FlightKind::Fault,
        &format!("{site}#{}", fault.hit),
        obs.current_trace(),
    );
    if obs.enabled(vega_obs::Level::Debug) {
        obs.event(
            vega_obs::Level::Debug,
            format!("[vega-fault] injected {site} (hit {})", fault.hit),
        );
    }
    Some(fault)
}

/// Reports that one previously injected fault at `site` was recovered from
/// (`fault.recovered.<site>` counter). No-op when no plan is installed, so
/// recovery paths may call it unconditionally.
pub fn recovered(site: &str) {
    recovered_n(site, 1);
}

/// As [`recovered`], counting `n` recoveries at once.
pub fn recovered_n(site: &str, n: u64) {
    if n == 0 || !ENABLED.load(Ordering::Relaxed) {
        return;
    }
    vega_obs::global().counter_add(&format!("fault.recovered.{site}"), n);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_rates_indices_and_args() {
        let plan =
            FaultPlan::parse("seed=9; vfs.read=0.5 ; serve.swap=@3:250; serve.conn.stall=1.0:7")
                .unwrap();
        assert_eq!(plan.seed(), 9);
        assert_eq!(plan.rules.len(), 3);
        assert_eq!(plan.rules["serve.swap"].trigger, Trigger::At(3));
        assert_eq!(plan.rules["serve.swap"].arg, 250);
        assert_eq!(plan.rules["serve.conn.stall"].trigger, Trigger::Rate(1.0));
        assert_eq!(plan.rules["serve.conn.stall"].arg, 7);
    }

    #[test]
    fn parse_accepts_only_known_sites() {
        for site in sites::ALL {
            let plan = FaultPlan::parse(&format!("{site}=0.5")).unwrap();
            assert!(plan.rules.contains_key(*site), "{site}");
        }
        for bad in ["serve.batch=0.2", "serve.conn.drpo=0.1", "serve.conn=@0"] {
            let err = FaultPlan::parse(bad).unwrap_err();
            let clause = bad.split('=').next().unwrap();
            assert!(err.msg.contains(clause), "{bad}: {}", err.msg);
        }
    }

    #[test]
    fn parse_rejects_malformed_clauses() {
        for bad in [
            "nonsense",
            "seed=x",
            "vfs.read=1.5",
            "vfs.read=-0.1",
            "vfs.read=@x",
            "vfs.read=0.5:x",
            "vfs.read=notanumber",
        ] {
            let err = FaultPlan::parse(bad).unwrap_err();
            assert!(!err.msg.is_empty(), "{bad} should not parse");
        }
        // Empty specs and stray separators are fine (no rules).
        assert!(FaultPlan::parse("").unwrap().rules.is_empty());
        assert!(FaultPlan::parse(" ; ;").unwrap().rules.is_empty());
    }

    #[test]
    fn decisions_are_a_pure_function_of_seed_site_and_hit() {
        let (x, y) = (sites::VFS_READ, sites::PAR_TASK);
        let a = FaultPlan::parse(&format!("seed=7;{x}=0.5;{y}=0.5")).unwrap();
        let b = FaultPlan::parse(&format!("seed=7;{x}=0.5;{y}=0.5")).unwrap();
        let seq_a: Vec<bool> = (0..200).map(|_| a.check(x).is_some()).collect();
        let seq_b: Vec<bool> = (0..200).map(|_| b.check(x).is_some()).collect();
        assert_eq!(seq_a, seq_b, "same seed must fire the same hits");
        assert!(seq_a.iter().any(|&f| f) && seq_a.iter().any(|&f| !f));
        // Different sites and different seeds give different sequences.
        let seq_y: Vec<bool> = (0..200).map(|_| a.check(y).is_some()).collect();
        assert_ne!(seq_a, seq_y);
        let seq_y_b: Vec<bool> = (0..200).map(|_| b.check(y).is_some()).collect();
        assert_eq!(seq_y, seq_y_b);
        let c = FaultPlan::parse(&format!("seed=8;{x}=0.5")).unwrap();
        let seq_c: Vec<bool> = (0..200).map(|_| c.check(x).is_some()).collect();
        assert_ne!(seq_a, seq_c);
        assert_eq!(a.fired_log(), b.fired_log());
    }

    #[test]
    fn at_index_fires_exactly_once() {
        let s = sites::SERVE_SWAP;
        let plan = FaultPlan::parse(&format!("{s}=@2:99")).unwrap();
        let fires: Vec<Option<Fault>> = (0..6).map(|_| plan.check(s)).collect();
        assert!(fires[0].is_none() && fires[1].is_none());
        assert_eq!(fires[2], Some(Fault { arg: 99, hit: 2 }));
        assert!(fires[3..].iter().all(Option::is_none));
    }

    #[test]
    fn rate_extremes_always_and_never_fire() {
        let (all, none) = (sites::SERVE_CONN_DROP, sites::SERVE_CONN_CORRUPT);
        let plan = FaultPlan::parse(&format!("{all}=1.0;{none}=0.0")).unwrap();
        assert!((0..50).all(|_| plan.check(all).is_some()));
        assert!((0..50).all(|_| plan.check(none).is_none()));
        assert!(plan.check(sites::SERVE_SWAP).is_none());
    }

    #[test]
    fn global_install_check_and_clear() {
        let site = sites::CKPT_SAVE_CRASH;
        set_plan(Some(
            FaultPlan::parse(&format!("seed=1;{site}=1.0")).unwrap(),
        ));
        let f = check(site).expect("rate 1.0 fires");
        assert_eq!(f.hit, 0);
        recovered(site);
        let obs = vega_obs::global();
        assert!(obs.counter(&format!("fault.injected.{site}")) >= 1);
        assert!(obs.counter(&format!("fault.recovered.{site}")) >= 1);
        let log = active_plan().unwrap().fired_log();
        assert_eq!(log, vec![(site.to_string(), 0)]);
        set_plan(None);
        assert!(check(site).is_none());
        assert!(active_plan().is_none());
    }

    #[test]
    fn fnv_golden_vectors() {
        // Pinned constants: the checkpoint digest format depends on them.
        assert_eq!(fnv1a_64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_64(b"abc"), 0xe71f_a219_0541_574b);
    }
}
