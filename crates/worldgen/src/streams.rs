//! Scenario-facing generation streams: keyed per-instance draws layered
//! on top of an already-generated world.
//!
//! The correlated-failure scenario engine
//! (`fediscope_replication::scenario`) consumes world facts the base
//! generator does not decide — most importantly *rebirth*: the paper's
//! churn model (§4, 4.5% of instances retiring per month) only records
//! when an instance disappears, but a scenario that models churn as
//! permanent loss overstates damage, because some retired instances come
//! back under the same domain. This module generates those extra streams
//! deterministically: every draw is keyed by `(master seed, instance id)`
//! via [`sub_seed`], so the stream is independent of evaluation order and
//! of every other stream derived from the same master seed.

use crate::config::sub_seed;
use fediscope_model::schedule::AvailabilitySchedule;
use fediscope_model::time::{Day, WINDOW_DAYS};
use rand::prelude::*;

/// Stream tag for rebirth draws (keeps them out of phase with the base
/// generator's per-instance streams derived from the same master seed).
const REBIRTH_STREAM: u64 = 0x5265_4269_7274_6800;

/// Default fraction of churned instances that come back before the end
/// of the window.
pub const DEFAULT_REBIRTH_FRAC: f64 = 0.25;

/// For each instance, the day it comes back from retirement — `None` for
/// instances that never retired or stay gone. Each retired instance is
/// reborn with probability `rebirth_frac`, on a uniform day in
/// `(retired, WINDOW_DAYS)`; instances retiring on the window's last day
/// have no room to return and stay gone.
///
/// Deterministic and order-independent: instance `i`'s draw depends only
/// on `(seed, i)`, never on how many other instances retired.
pub fn rebirth_days(
    schedules: &[AvailabilitySchedule],
    seed: u64,
    rebirth_frac: f64,
) -> Vec<Option<Day>> {
    rebirth_days_with_block(schedules, seed, rebirth_frac, crate::shard::INSTANCE_BLOCK)
}

/// [`rebirth_days`] with an explicit block size, fanned out over
/// [`fediscope_graph::par::parallel_map`]. The keyed per-instance draws
/// make any partition bit-identical to the serial walk.
pub fn rebirth_days_with_block(
    schedules: &[AvailabilitySchedule],
    seed: u64,
    rebirth_frac: f64,
    block: usize,
) -> Vec<Option<Day>> {
    let frac = rebirth_frac.clamp(0.0, 1.0);
    let segments = fediscope_graph::par::parallel_map(
        &crate::shard::blocks(schedules.len(), block),
        |&(lo, hi)| {
            schedules[lo..hi]
                .iter()
                .enumerate()
                .map(|(k, sch)| rebirth_one(sch, seed, frac, lo + k))
                .collect::<Vec<_>>()
        },
    );
    segments.into_iter().flatten().collect()
}

fn rebirth_one(sch: &AvailabilitySchedule, seed: u64, frac: f64, i: usize) -> Option<Day> {
    let retired = sch.retired?;
    if retired.0 + 1 >= WINDOW_DAYS {
        return None;
    }
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, REBIRTH_STREAM ^ i as u64));
    if !rng.gen_bool(frac) {
        return None;
    }
    Some(Day(rng.gen_range(retired.0 + 1..WINDOW_DAYS)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Generator, WorldConfig};

    fn schedules(seed: u64) -> Vec<AvailabilitySchedule> {
        let mut cfg = WorldConfig::tiny(seed);
        cfg.n_instances = 64;
        cfg.n_users = 400;
        Generator::generate_world(cfg).schedules
    }

    #[test]
    fn rebirth_only_follows_retirement() {
        let scheds = schedules(5);
        let rebirth = rebirth_days(&scheds, 99, 1.0);
        assert_eq!(rebirth.len(), scheds.len());
        let mut reborn = 0;
        for (sch, rb) in scheds.iter().zip(&rebirth) {
            match (sch.retired, rb) {
                (None, Some(_)) => panic!("rebirth without retirement"),
                (Some(ret), Some(day)) => {
                    assert!(day.0 > ret.0);
                    assert!(day.0 < WINDOW_DAYS);
                    reborn += 1;
                }
                _ => {}
            }
        }
        assert!(reborn > 0, "frac 1.0 revives every eligible instance");
    }

    #[test]
    fn frac_zero_revives_nothing_and_frac_bounds_are_clamped() {
        let scheds = schedules(7);
        assert!(rebirth_days(&scheds, 99, 0.0).iter().all(Option::is_none));
        assert!(rebirth_days(&scheds, 99, -3.0).iter().all(Option::is_none));
        // > 1.0 clamps to certainty rather than panicking in gen_bool
        let all = rebirth_days(&scheds, 99, 7.5);
        let eligible = scheds
            .iter()
            .filter(|s| s.retired.is_some_and(|r| r.0 + 1 < WINDOW_DAYS))
            .count();
        assert_eq!(all.iter().filter(|r| r.is_some()).count(), eligible);
    }

    #[test]
    fn block_size_is_unobservable() {
        let scheds = schedules(13);
        let a = rebirth_days_with_block(&scheds, 42, 0.5, 1);
        let b = rebirth_days_with_block(&scheds, 42, 0.5, 17);
        assert_eq!(a, b);
        assert_eq!(a, rebirth_days(&scheds, 42, 0.5));
    }

    #[test]
    fn deterministic_and_order_independent() {
        let scheds = schedules(11);
        let a = rebirth_days(&scheds, 42, 0.5);
        let b = rebirth_days(&scheds, 42, 0.5);
        assert_eq!(a, b);
        // a different master seed moves the draws
        assert_ne!(a, rebirth_days(&scheds, 43, 0.5));
        // keyed streams: instance i's draw survives truncating the table
        let half = rebirth_days(&scheds[..32], 42, 0.5);
        assert_eq!(&a[..32], &half[..]);
    }
}
