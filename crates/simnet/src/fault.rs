//! Deterministic fault injection (smoltcp-style: drop chance, delay,
//! rate limiting, connection resets, mid-crawl instance death) applied in
//! front of the instance API.
//!
//! # Taxonomy
//!
//! | Decision      | Wire behaviour                 | Crawler sees        |
//! |---------------|--------------------------------|---------------------|
//! | `Pass`        | serve normally                 | 2xx/4xx per route   |
//! | `Delay`       | virtual-time sleep, then serve | slow response       |
//! | `ServerError` | `500`                          | transient failure   |
//! | `RateLimited` | `429` + `retry-after`          | back off and retry  |
//! | `Reset`       | RST, nothing written           | connection error    |
//!
//! Two distinct sources produce `Reset`: a transient connection reset
//! (`reset_prob`, recoverable on retry) and *instance death*
//! (`death_prob`): once an instance draws death, every later request to it
//! resets forever — the mid-crawl disappearance §3 of the paper had to
//! tolerate.
//!
//! # Determinism
//!
//! Decisions derive from `mix(seed, counter)` — no RNG state beyond one
//! atomic counter, so the same seed yields the same fault transcript on
//! every run regardless of task interleaving (the executor is
//! single-threaded and deterministic, so interleaving is fixed too).
//!
//! # Budgets
//!
//! Per-epoch request budgets live here (not in `SimState`) and are keyed
//! by the [`SimClock`] epoch: advancing the virtual clock — never wall
//! time — resets every instance's allowance.

use crate::clock::SimClock;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Sentinel instance id for calls that are not attributable to an instance.
const NO_INSTANCE: u32 = u32::MAX;

/// What the fault layer decided to do with a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultDecision {
    /// Serve normally.
    Pass,
    /// Delay by the given duration, then serve.
    Delay(Duration),
    /// Fail with a 500 (models transient backend errors).
    ServerError,
    /// Fail with a 429 (rate limit exceeded).
    RateLimited,
    /// Reset the connection without answering (RST / abrupt death).
    Reset,
}

/// Fault plan configuration.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// Probability of a transient 500.
    pub error_prob: f64,
    /// Probability of an artificial delay.
    pub delay_prob: f64,
    /// Delay bounds.
    pub delay_min: Duration,
    /// Upper delay bound.
    pub delay_max: Duration,
    /// Probability of a transient connection reset (recoverable).
    pub reset_prob: f64,
    /// Probability that a request *kills* its instance: this and all later
    /// requests to the same instance reset (permanent, unrecoverable).
    pub death_prob: f64,
    /// Probability of a spurious 429 independent of the budget.
    pub rate_limit_prob: f64,
    /// Requests allowed per instance per virtual epoch before 429s
    /// (0 = unlimited).
    pub per_epoch_budget: u32,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self {
            error_prob: 0.0,
            delay_prob: 0.0,
            delay_min: Duration::from_millis(1),
            delay_max: Duration::from_millis(20),
            reset_prob: 0.0,
            death_prob: 0.0,
            rate_limit_prob: 0.0,
            per_epoch_budget: 0,
        }
    }
}

impl FaultPlan {
    /// A mildly hostile network: 2% errors, 10% delays, 1% resets, 1%
    /// spurious rate limits. Every fault here is *recoverable*, so a
    /// retrying crawler recovers the ground truth exactly.
    pub fn flaky() -> Self {
        Self {
            error_prob: 0.02,
            delay_prob: 0.10,
            reset_prob: 0.01,
            rate_limit_prob: 0.01,
            ..Self::default()
        }
    }

    /// A genuinely hostile network: heavy errors and resets, tight budgets,
    /// and permanent instance death. Full recovery is impossible by
    /// construction — this plan exercises graceful degradation and the
    /// coverage report, not bit-identical reconstruction.
    pub fn harsh() -> Self {
        Self {
            error_prob: 0.10,
            delay_prob: 0.10,
            reset_prob: 0.05,
            death_prob: 0.0005,
            rate_limit_prob: 0.03,
            per_epoch_budget: 64,
            ..Self::default()
        }
    }

    /// Does this plan inject any fault at all?
    pub fn is_quiet(&self) -> bool {
        self.error_prob == 0.0
            && self.delay_prob == 0.0
            && self.reset_prob == 0.0
            && self.death_prob == 0.0
            && self.rate_limit_prob == 0.0
            && self.per_epoch_budget == 0
    }
}

/// Stateful injector: deterministic decisions derived from a seed and a
/// request counter (no global RNG locking on the hot path).
#[derive(Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    seed: u64,
    counter: AtomicU64,
    /// Virtual clock driving per-epoch budget resets. Without one, budgets
    /// never reset (epoch is pinned to 0).
    clock: Option<SimClock>,
    /// Instances that drew permanent death; all their requests reset.
    dead: Mutex<HashSet<u32>>,
    /// Per-instance (epoch, used) budget accounting.
    budgets: Mutex<HashMap<u32, (u32, u32)>>,
}

/// Serialized mutable state of a [`FaultInjector`] — everything its
/// decisions depend on besides the immutable `(plan, seed)` pair. Part
/// of crawl checkpoints: resuming a fault-injected crawl on a fresh
/// executor must continue the *same* fault transcript, or harsh plans
/// (permanent death, budgets) would diverge from the uninterrupted run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct InjectorState {
    /// Decision counter (the whole RNG state).
    pub counter: u64,
    /// Instances that drew permanent death, ascending.
    pub dead: Vec<u32>,
    /// Per-instance `(epoch, used)` budget windows.
    pub budgets: BTreeMap<u32, (u32, u32)>,
}

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl FaultInjector {
    /// New injector.
    pub fn new(plan: FaultPlan, seed: u64) -> Self {
        Self {
            plan,
            seed,
            counter: AtomicU64::new(0),
            clock: None,
            dead: Mutex::new(HashSet::new()),
            budgets: Mutex::new(HashMap::new()),
        }
    }

    /// Attach the virtual clock whose epoch transitions reset the
    /// per-instance request budgets.
    pub fn with_clock(mut self, clock: SimClock) -> Self {
        self.clock = Some(clock);
        self
    }

    /// The configured plan.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Decide the fate of the next request, unattributed to an instance
    /// (death is never drawn — there is nothing to kill).
    pub fn decide(&self) -> FaultDecision {
        self.decide_for(NO_INSTANCE)
    }

    /// Decide the fate of the next request against `instance`.
    pub fn decide_for(&self, instance: u32) -> FaultDecision {
        if instance != NO_INSTANCE && self.dead.lock().contains(&instance) {
            return FaultDecision::Reset;
        }
        let n = self.counter.fetch_add(1, Ordering::Relaxed);
        let h = mix(self.seed ^ n.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let u = (h >> 11) as f64 / (1u64 << 53) as f64; // uniform [0,1)
        let mut threshold = 0.0;

        // Death first: permanent, so it must not be shadowed by the
        // transient faults when probabilities overlap.
        if instance != NO_INSTANCE {
            threshold += self.plan.death_prob;
            if u < threshold {
                self.dead.lock().insert(instance);
                return FaultDecision::Reset;
            }
        }
        threshold += self.plan.reset_prob;
        if u < threshold {
            return FaultDecision::Reset;
        }
        threshold += self.plan.error_prob;
        if u < threshold {
            return FaultDecision::ServerError;
        }
        threshold += self.plan.rate_limit_prob;
        if u < threshold {
            return FaultDecision::RateLimited;
        }
        threshold += self.plan.delay_prob;
        if u < threshold {
            let span = self
                .plan
                .delay_max
                .saturating_sub(self.plan.delay_min)
                .as_millis() as u64;
            let extra = if span == 0 { 0 } else { mix(h) % span };
            return FaultDecision::Delay(self.plan.delay_min + Duration::from_millis(extra));
        }
        FaultDecision::Pass
    }

    /// Has `instance` drawn permanent death?
    pub fn is_dead(&self, instance: u32) -> bool {
        self.dead.lock().contains(&instance)
    }

    /// Number of instances that have died so far.
    pub fn death_count(&self) -> usize {
        self.dead.lock().len()
    }

    /// Capture the injector's mutable state for a checkpoint. The counter
    /// *is* the RNG — decisions are `mix(seed, counter)` — so a restored
    /// injector continues the exact fault transcript the dead one would
    /// have produced; the dead set and budget windows ride along so
    /// permanent deaths stay permanent and allowances don't refill.
    /// (Hash containers are emitted sorted: deterministic bytes.)
    pub fn export_state(&self) -> InjectorState {
        let mut dead: Vec<u32> = self.dead.lock().iter().copied().collect();
        dead.sort_unstable();
        InjectorState {
            counter: self.counter.load(Ordering::Relaxed),
            dead,
            budgets: self.budgets.lock().iter().map(|(&k, &v)| (k, v)).collect(),
        }
    }

    /// Load a captured [`InjectorState`] into this (fresh) injector,
    /// continuing the decision stream where the snapshot left off.
    pub fn restore_state(&self, state: &InjectorState) {
        self.counter.store(state.counter, Ordering::Relaxed);
        *self.dead.lock() = state.dead.iter().copied().collect();
        *self.budgets.lock() = state.budgets.iter().map(|(&k, &v)| (k, v)).collect();
    }

    /// Enforce the per-epoch request budget for `instance`. Returns `false`
    /// when the request should be rejected with 429. A budget of 0 means
    /// unlimited. The allowance resets when the attached [`SimClock`]
    /// advances to a new epoch — virtual time, never wall time.
    pub fn consume_budget(&self, instance: u32) -> bool {
        let budget = self.plan.per_epoch_budget;
        if budget == 0 {
            return true;
        }
        let epoch = self.clock.as_ref().map(|c| c.now().0).unwrap_or(0);
        let mut map = self.budgets.lock();
        let entry = map.entry(instance).or_insert((epoch, 0));
        if entry.0 != epoch {
            *entry = (epoch, 0);
        }
        entry.1 += 1;
        entry.1 <= budget
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fediscope_model::time::Epoch;

    #[test]
    fn default_plan_always_passes() {
        let inj = FaultInjector::new(FaultPlan::default(), 1);
        for _ in 0..1000 {
            assert_eq!(inj.decide(), FaultDecision::Pass);
        }
        assert!(FaultPlan::default().is_quiet());
        assert!(!FaultPlan::flaky().is_quiet());
    }

    #[test]
    fn error_rate_respected() {
        let plan = FaultPlan {
            error_prob: 0.3,
            ..FaultPlan::default()
        };
        let inj = FaultInjector::new(plan, 42);
        let errs = (0..10_000)
            .filter(|_| inj.decide() == FaultDecision::ServerError)
            .count();
        let rate = errs as f64 / 10_000.0;
        assert!((rate - 0.3).abs() < 0.03, "error rate {rate}");
    }

    #[test]
    fn delays_within_bounds() {
        let plan = FaultPlan {
            delay_prob: 1.0,
            delay_min: Duration::from_millis(5),
            delay_max: Duration::from_millis(10),
            ..FaultPlan::default()
        };
        let inj = FaultInjector::new(plan, 7);
        for _ in 0..100 {
            match inj.decide() {
                FaultDecision::Delay(d) => {
                    assert!(d >= Duration::from_millis(5) && d <= Duration::from_millis(10));
                }
                other => panic!("expected delay, got {other:?}"),
            }
        }
    }

    #[test]
    fn deterministic_sequence() {
        let mk = || FaultInjector::new(FaultPlan::flaky(), 99);
        let a: Vec<FaultDecision> = (0..50).map(|_| mk().decide()).collect();
        // same seed, same first decision each time
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        let i1 = mk();
        let i2 = mk();
        let s1: Vec<FaultDecision> = (0..50).map(|_| i1.decide()).collect();
        let s2: Vec<FaultDecision> = (0..50).map(|_| i2.decide()).collect();
        assert_eq!(s1, s2);
    }

    #[test]
    fn resets_drawn_at_configured_rate() {
        let plan = FaultPlan {
            reset_prob: 0.2,
            ..FaultPlan::default()
        };
        let inj = FaultInjector::new(plan, 5);
        let resets = (0..10_000)
            .filter(|_| inj.decide() == FaultDecision::Reset)
            .count();
        let rate = resets as f64 / 10_000.0;
        assert!((rate - 0.2).abs() < 0.03, "reset rate {rate}");
    }

    #[test]
    fn death_is_permanent_and_per_instance() {
        let plan = FaultPlan {
            death_prob: 0.05,
            ..FaultPlan::default()
        };
        let inj = FaultInjector::new(plan, 11);
        // Hammer instance 3 until it dies.
        let mut died_at = None;
        for i in 0..10_000 {
            if inj.decide_for(3) == FaultDecision::Reset {
                died_at = Some(i);
                break;
            }
        }
        assert!(died_at.is_some(), "death_prob=0.05 never fired in 10k");
        assert!(inj.is_dead(3));
        assert_eq!(inj.death_count(), 1);
        // Every subsequent request to 3 resets, forever.
        for _ in 0..100 {
            assert_eq!(inj.decide_for(3), FaultDecision::Reset);
        }
        // Other instances are unaffected until they draw their own death.
        assert!(!inj.is_dead(4));
        // Unattributed decisions never draw death.
        let inj2 = FaultInjector::new(
            FaultPlan {
                death_prob: 1.0,
                ..FaultPlan::default()
            },
            1,
        );
        for _ in 0..100 {
            assert_eq!(inj2.decide(), FaultDecision::Pass);
        }
        assert_eq!(inj2.death_count(), 0);
    }

    #[test]
    fn spurious_rate_limits_drawn() {
        let plan = FaultPlan {
            rate_limit_prob: 1.0,
            ..FaultPlan::default()
        };
        let inj = FaultInjector::new(plan, 2);
        assert_eq!(inj.decide(), FaultDecision::RateLimited);
    }

    /// Satellite 1: the per-epoch budget is driven by SimClock epoch
    /// transitions — advancing *virtual* time resets the allowance; more
    /// requests within the same epoch never do.
    #[test]
    fn budget_resets_on_virtual_epoch_transition() {
        let clock = SimClock::new();
        let plan = FaultPlan {
            per_epoch_budget: 3,
            ..FaultPlan::default()
        };
        let inj = FaultInjector::new(plan, 1).with_clock(clock.clone());
        // Three allowed, the fourth (and onward) rejected — same epoch.
        for _ in 0..3 {
            assert!(inj.consume_budget(0));
        }
        assert!(!inj.consume_budget(0));
        assert!(!inj.consume_budget(0));
        // A *different* instance has its own allowance.
        assert!(inj.consume_budget(1));
        // Advance the virtual clock: instance 0's allowance is restored.
        clock.set(Epoch(1));
        for _ in 0..3 {
            assert!(inj.consume_budget(0));
        }
        assert!(!inj.consume_budget(0));
        // Jumping backwards (tests rewind clocks) also re-keys the window.
        clock.set(Epoch(0));
        assert!(inj.consume_budget(0));
    }

    #[test]
    fn budget_without_clock_never_resets() {
        let plan = FaultPlan {
            per_epoch_budget: 2,
            ..FaultPlan::default()
        };
        let inj = FaultInjector::new(plan, 1); // no clock attached
        assert!(inj.consume_budget(7));
        assert!(inj.consume_budget(7));
        assert!(!inj.consume_budget(7));
    }

    /// Checkpoint/resume pin: a restored injector continues the exact
    /// decision stream — counter, permanent deaths, and *in-window budget
    /// usage* all survive; nothing resets just because the process did.
    #[test]
    fn export_restore_continues_the_stream() {
        let clock = SimClock::new();
        let plan = FaultPlan {
            per_epoch_budget: 5,
            ..FaultPlan::harsh()
        };
        let a = FaultInjector::new(plan.clone(), 33).with_clock(clock.clone());
        // burn some decisions, kill an instance, use some budget
        for i in 0..500 {
            let _ = a.decide_for(i % 7);
        }
        for _ in 0..3 {
            let _ = a.consume_budget(2);
        }
        let state = a.export_state();
        // serde round trip (the exact path the checkpoint frame takes)
        let v = serde::Serialize::to_json_value(&state);
        let state: InjectorState = serde::Deserialize::from_json_value(&v).unwrap();

        let b = FaultInjector::new(plan, 33).with_clock(clock.clone());
        b.restore_state(&state);
        assert_eq!(b.export_state(), state);
        // identical future: decisions, death persistence, budget windows
        for i in 0..500 {
            assert_eq!(a.decide_for(i % 7), b.decide_for(i % 7), "decision {i}");
        }
        // remaining allowance matches (5 budget, 3 used): 2 more pass
        assert_eq!(a.consume_budget(2), b.consume_budget(2));
        assert_eq!(a.consume_budget(2), b.consume_budget(2));
        assert!(
            !b.consume_budget(2),
            "restored budget window must not refill"
        );
        // a fresh injector WITHOUT restore diverges (proves state matters)
        let fresh = FaultInjector::new(FaultPlan::harsh(), 33);
        assert_eq!(fresh.export_state().counter, 0);
    }

    #[test]
    fn zero_budget_is_unlimited() {
        let inj = FaultInjector::new(FaultPlan::default(), 1);
        for _ in 0..1000 {
            assert!(inj.consume_budget(0));
        }
    }
}
