//! The synthetic observatory: a mnm.social-style poll feed derived from
//! ground-truth schedules.
//!
//! §3 of the paper describes 5-minute polls of every instance over the
//! 472-day window (≈0.5B poll outcomes at 2019 scale, ≈4B at the modern
//! 30k-instance tier). This module replays that feed from a generated
//! world's schedules: per instance, one [`ObservedSeries`] with a poll at
//! every `poll_stride` epochs from the instance's creation day to the end
//! of the window (retired instances keep being polled and answer `Down`,
//! like dead seed-list entries in the real monitor).
//!
//! The feed exists so the measurement path can be exercised end to end:
//! `monitor::observe::arena_from_polls_with_coverage` streams these series
//! back into a columnar `OutageArena` and the §4 sweep runs identically on
//! ground truth and on "observed" data. A full-resolution full-window
//! series is ~136K polls per instance, so the API is streaming:
//! [`series_into`] fills a caller-owned scratch series, and
//! [`for_each_series`] walks the whole population with a single reused
//! buffer — the modern tier never materialises the 4-billion-poll feed at
//! once.
//!
//! [`series_into`]: SyntheticObservatory::series_into
//! [`for_each_series`]: SyntheticObservatory::for_each_series

use fediscope_model::datasets::{InstanceApiInfo, ObservedSeries, PollResult};
use fediscope_model::ids::InstanceId;
use fediscope_model::schedule::AvailabilitySchedule;
use fediscope_model::time::{Epoch, WINDOW_EPOCHS};

/// A poll feed over a generated world's ground-truth schedules.
#[derive(Debug, Clone, Copy)]
pub struct SyntheticObservatory<'a> {
    schedules: &'a [AvailabilitySchedule],
    poll_stride: u32,
    unknown_prob: f64,
    unknown_seed: u64,
}

impl<'a> SyntheticObservatory<'a> {
    /// Full-resolution (every 5-minute epoch) observatory.
    pub fn new(schedules: &'a [AvailabilitySchedule]) -> Self {
        Self {
            schedules,
            poll_stride: 1,
            unknown_prob: 0.0,
            unknown_seed: 0,
        }
    }

    /// Poll every `stride` epochs instead of every epoch (coarser feeds
    /// for cheap tests; reconstruction is only interval-exact at stride 1).
    pub fn with_poll_stride(mut self, stride: u32) -> Self {
        assert!(stride >= 1);
        self.poll_stride = stride;
        self
    }

    /// Degrade the feed: each poll independently becomes
    /// [`PollResult::Unknown`] with probability `prob`, chosen
    /// deterministically from `seed` and the poll's (instance, epoch)
    /// coordinates. This replays a fault-injected crawl's measurement gaps
    /// offline — no listener, no executor — so the gap-tolerant
    /// reconstruction path can be exercised at any scale.
    pub fn with_unknown_mask(mut self, prob: f64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&prob));
        self.unknown_prob = prob;
        self.unknown_seed = seed;
        self
    }

    /// Number of monitored instances.
    pub fn len(&self) -> usize {
        self.schedules.len()
    }

    /// True when no instances are monitored.
    pub fn is_empty(&self) -> bool {
        self.schedules.is_empty()
    }

    /// Fill `out` with instance `i`'s poll series, reusing its buffer.
    /// The `Up` payload carries an empty [`InstanceApiInfo`] — availability
    /// reconstruction only reads the up/down bit.
    pub fn series_into(&self, i: usize, out: &mut ObservedSeries) {
        let s = &self.schedules[i];
        out.instance = InstanceId(i as u32);
        out.polls.clear();
        let from = s.birth_epoch().0;
        let mut e = from;
        while e < WINDOW_EPOCHS {
            let result = if self.masked(i, e) {
                PollResult::Unknown
            } else if s.is_up(Epoch(e)) {
                PollResult::Up(InstanceApiInfo {
                    name: String::new(),
                    version: String::new(),
                    toots: 0,
                    users: 0,
                    subscriptions: 0,
                    logins: 0,
                    registration_open: false,
                })
            } else {
                PollResult::Down
            };
            out.polls.push((Epoch(e), result));
            e += self.poll_stride;
        }
    }

    /// Does the unknown mask swallow the poll of instance `i` at epoch `e`?
    fn masked(&self, i: usize, e: u32) -> bool {
        if self.unknown_prob <= 0.0 {
            return false;
        }
        let h = splitmix(self.unknown_seed ^ ((i as u64) << 34) ^ u64::from(e));
        let u = (h >> 11) as f64 / (1u64 << 53) as f64;
        u < self.unknown_prob
    }

    /// Owned series for instance `i` (convenience for tests).
    pub fn series(&self, i: usize) -> ObservedSeries {
        let mut out = ObservedSeries::default();
        self.series_into(i, &mut out);
        out
    }

    /// Stream every instance's series through `f` with one reused buffer.
    pub fn for_each_series(&self, mut f: impl FnMut(usize, &ObservedSeries)) {
        let mut scratch = ObservedSeries::default();
        for i in 0..self.schedules.len() {
            self.series_into(i, &mut scratch);
            f(i, &scratch);
        }
    }
}

fn splitmix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fediscope_model::schedule::OutageCause;
    use fediscope_model::time::{Day, EPOCHS_PER_DAY};

    #[test]
    fn polls_cover_lifetime_and_reflect_outages() {
        let mut s = AvailabilitySchedule::new(Day(1), Some(Day(3)));
        s.add_outage(
            Day(1).start_epoch(),
            Epoch(Day(1).start_epoch().0 + 10),
            OutageCause::Organic,
        );
        let schedules = vec![s];
        let obs = SyntheticObservatory::new(&schedules);
        let series = obs.series(0);
        assert_eq!(series.instance, InstanceId(0));
        // polls run from creation to the window end
        assert_eq!(series.polls.first().unwrap().0, Day(1).start_epoch());
        assert_eq!(
            series.polls.len() as u32,
            WINDOW_EPOCHS - Day(1).start_epoch().0
        );
        // first 10 polls down, then up until retirement, then down forever
        assert!(series.polls[..10].iter().all(|(_, r)| !r.is_up()));
        assert!(series.polls[10].1.is_up());
        let death = Day(3).start_epoch().0;
        let at = |e: u32| &series.polls[(e - Day(1).start_epoch().0) as usize];
        assert!(at(death - 1).1.is_up());
        assert!(!at(death).1.is_up());
        assert!(!series.polls.last().unwrap().1.is_up());
    }

    #[test]
    fn stride_thins_the_feed() {
        let schedules = vec![AvailabilitySchedule::always_up()];
        let obs = SyntheticObservatory::new(&schedules).with_poll_stride(EPOCHS_PER_DAY);
        let series = obs.series(0);
        assert_eq!(series.polls.len() as u32, WINDOW_EPOCHS / EPOCHS_PER_DAY);
        assert!(series.polls.iter().all(|(_, r)| r.is_up()));
    }

    #[test]
    fn unknown_mask_is_deterministic_and_proportional() {
        let schedules = vec![AvailabilitySchedule::always_up()];
        let obs = SyntheticObservatory::new(&schedules)
            .with_poll_stride(13)
            .with_unknown_mask(0.2, 42);
        let a = obs.series(0);
        let b = obs.series(0);
        assert_eq!(a, b, "same seed, same mask");
        let unknown = a.polls.iter().filter(|(_, r)| !r.is_known()).count();
        let frac = unknown as f64 / a.polls.len() as f64;
        assert!((frac - 0.2).abs() < 0.03, "mask fraction {frac}");
        // surviving polls still agree with ground truth
        assert!(a
            .polls
            .iter()
            .filter(|(_, r)| r.is_known())
            .all(|(_, r)| r.is_up()));
        // a different seed masks different polls
        let other = SyntheticObservatory::new(&schedules)
            .with_poll_stride(13)
            .with_unknown_mask(0.2, 43)
            .series(0);
        assert_ne!(a, other);
    }

    #[test]
    fn for_each_reuses_scratch() {
        let schedules = vec![
            AvailabilitySchedule::always_up(),
            AvailabilitySchedule::new(Day(5), None),
        ];
        let obs = SyntheticObservatory::new(&schedules).with_poll_stride(1000);
        let mut seen = Vec::new();
        obs.for_each_series(|i, s| seen.push((i, s.instance, s.polls.len())));
        assert_eq!(seen.len(), 2);
        assert_eq!(seen[0].1, InstanceId(0));
        assert_eq!(seen[1].1, InstanceId(1));
        assert!(seen[1].2 < seen[0].2, "later-born instance has fewer polls");
    }
}
