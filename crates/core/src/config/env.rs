//! Unified, strictly-typed parsing of the `FFTX_*` environment knobs.
//!
//! Every knob the workspace reads — `FFTX_SCHEDULER`, `FFTX_CHAOS_SEED` /
//! `FFTX_CHAOS_PROFILE`, the `FFTX_RECOVERY_*` budgets,
//! `FFTX_ARENA_POISON`, `FFTX_DECOMP`, and the fleet-capacity set
//! (`FFTX_FLEET_MIN` / `FFTX_FLEET_MAX`, `FFTX_SCALE_UP_AT` /
//! `FFTX_SCALE_DOWN_AT`, `FFTX_STEAL`, `FFTX_PLAN_ITERS` /
//! `FFTX_PLAN_SEED`) — is parsed here through one entry point with typed
//! errors. The ABFT verify mode is not a knob: callers pass it to
//! [`crate::run_verified`]. The lower-level crates keep two lenient
//! readers (`ChaosConfig::from_env`, `plan::arena_poison`) because library
//! code deep in a run has no good way to report a typo. The
//! `FFTX_RECOVERY_*` budgets and `FFTX_SCHEDULER` have no such reader and
//! are parsed only here: the recovery budgets reach a run through
//! [`EnvKnobs::recovery`], which the `recovery` and `integrity` bench
//! binaries read. The *binaries* (`fftx`, `fftx-serve` and those two
//! benches) call [`load`] up front and refuse to start on an invalid value
//! instead of silently falling back — the failure mode this module exists
//! to kill.

use crate::config::{valid_decomps, DecompChoice, SchedulerPolicy};
use fftx_fault::{ChaosConfig, RecoveryConfig};
use std::fmt;

/// A knob carried an unparsable or out-of-vocabulary value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnvError {
    /// The environment variable.
    pub key: &'static str,
    /// The rejected value.
    pub value: String,
    /// Human-readable description of what would have been accepted.
    pub expected: String,
}

impl fmt::Display for EnvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}='{}' is invalid: expected {}",
            self.key, self.value, self.expected
        )
    }
}

impl std::error::Error for EnvError {}

/// Comma-separated list of the valid `FFTX_SCHEDULER` / `--mode` policy
/// names — the vocabulary CLI error messages print.
pub fn valid_policies() -> String {
    SchedulerPolicy::ALL
        .iter()
        .map(|p| p.name())
        .collect::<Vec<_>>()
        .join(", ")
}

/// The fleet-capacity knob set, all optional: unset knobs leave the
/// consumer's own default in place (CLI flags override these in the
/// serving binary). Cross-field consistency (`min <= max`,
/// `down_at < up_at`) is validated where the values meet the autoscaler
/// config; this parser enforces each knob's own domain.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FleetKnobs {
    /// `FFTX_FLEET_MIN`: autoscaler floor on active shards (>= 1).
    pub min: Option<usize>,
    /// `FFTX_FLEET_MAX`: autoscaler ceiling on active shards (>= 1).
    pub max: Option<usize>,
    /// `FFTX_SCALE_UP_AT`: scale-up pressure threshold in (0, 1].
    pub up_at: Option<f64>,
    /// `FFTX_SCALE_DOWN_AT`: scale-down pressure threshold in (0, 1].
    pub down_at: Option<f64>,
    /// `FFTX_STEAL`: cross-shard work stealing, `on` or `off`.
    pub steal: Option<bool>,
    /// `FFTX_PLAN_ITERS`: Monte-Carlo iterations of the capacity planner
    /// (>= 1).
    pub plan_iters: Option<usize>,
    /// `FFTX_PLAN_SEED`: base seed of the planner's traffic iterations.
    pub plan_seed: Option<u64>,
}

/// The fully-parsed knob set.
#[derive(Debug, Clone, PartialEq)]
pub struct EnvKnobs {
    /// `FFTX_SCHEDULER`: default scheduler policy, when set.
    pub scheduler: Option<SchedulerPolicy>,
    /// `FFTX_CHAOS_SEED` + `FFTX_CHAOS_PROFILE`: transport chaos, when a
    /// seed is set and the profile is not `off`.
    pub chaos: Option<ChaosConfig>,
    /// `FFTX_RECOVERY_*`: recovery budgets (defaults where unset).
    pub recovery: RecoveryConfig,
    /// `FFTX_ARENA_POISON`: NaN-poison reused scatter staging buffers.
    pub arena_poison: bool,
    /// `FFTX_DECOMP`: scatter decomposition request (slab/pencil/auto),
    /// when set. Callers keep their own default when unset — `slab` for
    /// the direct driver, `auto` for the serving layer's tuner.
    pub decomp: Option<DecompChoice>,
    /// The fleet-capacity knob set (autoscaler bounds and thresholds,
    /// work stealing, planner iterations).
    pub fleet: FleetKnobs,
}

/// Parses every knob from the process environment.
///
/// # Errors
/// Returns the first [`EnvError`] encountered; the message names the
/// variable, the rejected value, and the accepted vocabulary.
pub fn load() -> Result<EnvKnobs, EnvError> {
    load_from(|k| std::env::var(k).ok())
}

/// [`load`] with an injectable variable source, so tests validate the
/// parser without mutating the process environment.
///
/// # Errors
/// Returns the first [`EnvError`] encountered.
pub(crate) fn load_from(get: impl Fn(&str) -> Option<String>) -> Result<EnvKnobs, EnvError> {
    let scheduler = match get("FFTX_SCHEDULER") {
        None => None,
        Some(v) => Some(SchedulerPolicy::parse(&v).ok_or_else(|| EnvError {
            key: "FFTX_SCHEDULER",
            value: v,
            expected: format!("one of: {}", valid_policies()),
        })?),
    };

    let seed = match get("FFTX_CHAOS_SEED") {
        None => None,
        Some(v) => Some(v.parse::<u64>().map_err(|_| EnvError {
            key: "FFTX_CHAOS_SEED",
            value: v,
            expected: "an unsigned 64-bit integer seed".into(),
        })?),
    };
    let profile = get("FFTX_CHAOS_PROFILE");
    let chaos = match (seed, profile.as_deref()) {
        (_, Some(p)) if !matches!(p, "off" | "light" | "aggressive") => {
            return Err(EnvError {
                key: "FFTX_CHAOS_PROFILE",
                value: p.into(),
                expected: "one of: off, light, aggressive".into(),
            });
        }
        (None, _) | (_, Some("off")) => None,
        (Some(s), Some("light")) => Some(ChaosConfig::light(s)),
        (Some(s), _) => Some(ChaosConfig::aggressive(s)),
    };

    let d = RecoveryConfig::default();
    let recovery = RecoveryConfig {
        max_retries: knob(&get, "FFTX_RECOVERY_MAX_RETRIES", d.max_retries)?,
        base_backoff: std::time::Duration::from_micros(knob(
            &get,
            "FFTX_RECOVERY_BACKOFF_US",
            d.base_backoff.as_micros() as u64,
        )?),
        max_backoff: std::time::Duration::from_micros(knob(
            &get,
            "FFTX_RECOVERY_MAX_BACKOFF_US",
            d.max_backoff.as_micros() as u64,
        )?),
        max_rollbacks: knob(&get, "FFTX_RECOVERY_MAX_ROLLBACKS", d.max_rollbacks)?,
        prefer_t: knob(&get, "FFTX_RECOVERY_PREFER_T", d.prefer_t)?,
    };

    let arena_poison = match get("FFTX_ARENA_POISON").as_deref() {
        None | Some("0") => false,
        Some("1") => true,
        Some(v) => {
            return Err(EnvError {
                key: "FFTX_ARENA_POISON",
                value: v.into(),
                expected: "0 or 1".into(),
            });
        }
    };

    let decomp = match get("FFTX_DECOMP") {
        None => None,
        Some(v) => Some(DecompChoice::parse(&v).ok_or_else(|| EnvError {
            key: "FFTX_DECOMP",
            value: v,
            expected: format!("one of: {}", valid_decomps()),
        })?),
    };

    let fleet = FleetKnobs {
        min: opt_knob(&get, "FFTX_FLEET_MIN", "a shard count >= 1", |n: &usize| *n >= 1)?,
        max: opt_knob(&get, "FFTX_FLEET_MAX", "a shard count >= 1", |n: &usize| *n >= 1)?,
        up_at: opt_knob(&get, "FFTX_SCALE_UP_AT", "a pressure fraction in (0, 1]", frac)?,
        down_at: opt_knob(&get, "FFTX_SCALE_DOWN_AT", "a pressure fraction in (0, 1]", frac)?,
        steal: match get("FFTX_STEAL").as_deref() {
            None => None,
            Some("on") => Some(true),
            Some("off") => Some(false),
            Some(v) => {
                return Err(EnvError {
                    key: "FFTX_STEAL",
                    value: v.into(),
                    expected: "one of: on, off".into(),
                });
            }
        },
        plan_iters: opt_knob(
            &get,
            "FFTX_PLAN_ITERS",
            "an iteration count >= 1",
            |n: &usize| *n >= 1,
        )?,
        plan_seed: opt_knob(&get, "FFTX_PLAN_SEED", "an unsigned 64-bit integer seed", |_| {
            true
        })?,
    };

    Ok(EnvKnobs {
        scheduler,
        chaos,
        recovery,
        arena_poison,
        decomp,
        fleet,
    })
}

/// `true` when `x` is a usable pressure fraction: finite and in `(0, 1]`.
fn frac(x: &f64) -> bool {
    x.is_finite() && *x > 0.0 && *x <= 1.0
}

/// Parses one numeric knob strictly: unset → default, set-but-unparsable →
/// typed error (where the lenient low-level readers silently fall back).
fn knob<T: std::str::FromStr + Copy>(
    get: &impl Fn(&str) -> Option<String>,
    key: &'static str,
    default: T,
) -> Result<T, EnvError> {
    match get(key) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| EnvError {
            key,
            value: v,
            expected: "an unsigned integer".into(),
        }),
    }
}

/// Parses one optional knob with a per-key domain: unset → `None`,
/// set-but-unparsable or outside `admit` → typed error naming `expected`.
fn opt_knob<T: std::str::FromStr>(
    get: &impl Fn(&str) -> Option<String>,
    key: &'static str,
    expected: &str,
    admit: impl Fn(&T) -> bool,
) -> Result<Option<T>, EnvError> {
    match get(key) {
        None => Ok(None),
        Some(v) => match v.parse::<T>() {
            Ok(parsed) if admit(&parsed) => Ok(Some(parsed)),
            _ => Err(EnvError {
                key,
                value: v,
                expected: expected.into(),
            }),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn env<'a>(pairs: &'a [(&'a str, &'a str)]) -> impl Fn(&str) -> Option<String> + 'a {
        move |k| pairs.iter().find(|(key, _)| *key == k).map(|(_, v)| v.to_string())
    }

    #[test]
    fn empty_environment_yields_defaults() {
        let knobs = load_from(|_| None).expect("defaults");
        assert_eq!(knobs.scheduler, None);
        assert_eq!(knobs.chaos, None);
        assert_eq!(knobs.recovery, RecoveryConfig::default());
        assert!(!knobs.arena_poison);
        assert_eq!(knobs.decomp, None);
        assert_eq!(knobs.fleet, FleetKnobs::default());
    }

    #[test]
    fn fleet_knobs_parse_when_set() {
        let knobs = load_from(env(&[
            ("FFTX_FLEET_MIN", "2"),
            ("FFTX_FLEET_MAX", "6"),
            ("FFTX_SCALE_UP_AT", "0.7"),
            ("FFTX_SCALE_DOWN_AT", "0.2"),
            ("FFTX_STEAL", "on"),
            ("FFTX_PLAN_ITERS", "8"),
            ("FFTX_PLAN_SEED", "2017"),
        ]))
        .expect("valid");
        assert_eq!(
            knobs.fleet,
            FleetKnobs {
                min: Some(2),
                max: Some(6),
                up_at: Some(0.7),
                down_at: Some(0.2),
                steal: Some(true),
                plan_iters: Some(8),
                plan_seed: Some(2017),
            }
        );
        let off = load_from(env(&[("FFTX_STEAL", "off")])).expect("off");
        assert_eq!(off.fleet.steal, Some(false));
    }

    #[test]
    fn fleet_knob_domains_are_enforced() {
        for (key, value) in [
            ("FFTX_FLEET_MIN", "0"),
            ("FFTX_FLEET_MAX", "lots"),
            ("FFTX_SCALE_UP_AT", "1.5"),
            ("FFTX_SCALE_UP_AT", "nan"),
            ("FFTX_SCALE_DOWN_AT", "0"),
            ("FFTX_SCALE_DOWN_AT", "-0.1"),
            ("FFTX_PLAN_ITERS", "0"),
            ("FFTX_PLAN_SEED", "lucky"),
        ] {
            let err = load_from(env(&[(key, value)])).expect_err(key);
            assert_eq!(err.key, key, "{value}");
            assert!(!err.expected.is_empty());
        }
        let err = load_from(env(&[("FFTX_STEAL", "maybe")])).expect_err("steal vocab");
        assert_eq!(err.key, "FFTX_STEAL");
        let msg = err.to_string();
        assert!(msg.contains("on") && msg.contains("off"), "{msg}");
    }

    #[test]
    fn decomp_vocabulary_is_enforced() {
        for (v, want) in [
            ("slab", DecompChoice::Slab),
            ("pencil", DecompChoice::Pencil),
            ("auto", DecompChoice::Auto),
        ] {
            let knobs = load_from(env(&[("FFTX_DECOMP", v)])).expect("valid");
            assert_eq!(knobs.decomp, Some(want));
        }
        let err = load_from(env(&[("FFTX_DECOMP", "ring")])).expect_err("strict");
        assert_eq!(err.key, "FFTX_DECOMP");
        let msg = err.to_string();
        for name in ["slab", "pencil", "auto"] {
            assert!(msg.contains(name), "message must list '{name}': {msg}");
        }
    }

    #[test]
    fn scheduler_parses_and_rejects() {
        let knobs = load_from(env(&[("FFTX_SCHEDULER", "hybrid")])).expect("valid");
        assert_eq!(knobs.scheduler, Some(SchedulerPolicy::Hybrid));

        let err = load_from(env(&[("FFTX_SCHEDULER", "turbo")])).expect_err("invalid");
        assert_eq!(err.key, "FFTX_SCHEDULER");
        let msg = err.to_string();
        for name in ["serial", "step", "fft", "async", "hybrid"] {
            assert!(msg.contains(name), "message must list '{name}': {msg}");
        }
    }

    #[test]
    fn chaos_profile_vocabulary_is_enforced() {
        let agg = load_from(env(&[("FFTX_CHAOS_SEED", "7")])).expect("seed only");
        assert_eq!(agg.chaos, Some(ChaosConfig::aggressive(7)));

        let light = load_from(env(&[
            ("FFTX_CHAOS_SEED", "7"),
            ("FFTX_CHAOS_PROFILE", "light"),
        ]))
        .expect("light");
        assert_eq!(light.chaos, Some(ChaosConfig::light(7)));

        let off = load_from(env(&[
            ("FFTX_CHAOS_SEED", "7"),
            ("FFTX_CHAOS_PROFILE", "off"),
        ]))
        .expect("off");
        assert_eq!(off.chaos, None);

        // A bad profile is an error even without a seed — the lenient
        // low-level reader would have silently picked `aggressive`.
        let err = load_from(env(&[("FFTX_CHAOS_PROFILE", "chaotic")])).expect_err("bad profile");
        assert_eq!(err.key, "FFTX_CHAOS_PROFILE");
        let err = load_from(env(&[("FFTX_CHAOS_SEED", "not-a-seed")])).expect_err("bad seed");
        assert_eq!(err.key, "FFTX_CHAOS_SEED");
    }

    #[test]
    fn recovery_knobs_are_strict() {
        let knobs = load_from(env(&[
            ("FFTX_RECOVERY_MAX_RETRIES", "5"),
            ("FFTX_RECOVERY_BACKOFF_US", "10"),
            ("FFTX_RECOVERY_MAX_BACKOFF_US", "80"),
            ("FFTX_RECOVERY_MAX_ROLLBACKS", "9"),
            ("FFTX_RECOVERY_PREFER_T", "4"),
        ]))
        .expect("valid");
        assert_eq!(knobs.recovery.max_retries, 5);
        assert_eq!(knobs.recovery.base_backoff, Duration::from_micros(10));
        assert_eq!(knobs.recovery.max_backoff, Duration::from_micros(80));
        assert_eq!(knobs.recovery.max_rollbacks, 9);
        assert_eq!(knobs.recovery.prefer_t, 4);

        let err =
            load_from(env(&[("FFTX_RECOVERY_MAX_ROLLBACKS", "many")])).expect_err("strict");
        assert_eq!(err.key, "FFTX_RECOVERY_MAX_ROLLBACKS");
    }

    #[test]
    fn arena_poison_is_binary() {
        assert!(load_from(env(&[("FFTX_ARENA_POISON", "1")])).expect("on").arena_poison);
        assert!(!load_from(env(&[("FFTX_ARENA_POISON", "0")])).expect("off").arena_poison);
        let err = load_from(env(&[("FFTX_ARENA_POISON", "yes")])).expect_err("strict");
        assert_eq!(err.key, "FFTX_ARENA_POISON");
    }

    #[test]
    fn valid_policy_list_matches_the_policy_set() {
        let list = valid_policies();
        assert_eq!(list, "serial, step, fft, async, hybrid");
    }
}
