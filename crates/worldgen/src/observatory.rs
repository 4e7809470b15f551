//! The synthetic observatory: a mnm.social-style poll feed derived from
//! ground-truth schedules.
//!
//! §3 of the paper describes 5-minute polls of every instance over the
//! 472-day window (≈0.5B poll outcomes at 2019 scale, ≈4B at the modern
//! 30k-instance tier). This module replays that feed from a generated
//! world's schedules: per instance, one [`ObservedSeries`] with a poll at
//! every epoch from the instance's creation day to the end of the window
//! (retired instances keep being polled and answer `Down`, like dead
//! seed-list entries in the real monitor).
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
}

impl<'a> SyntheticObservatory<'a> {
    /// Full-resolution (every 5-minute epoch) observatory.
    pub fn new(schedules: &'a [AvailabilitySchedule]) -> Self {
        Self { schedules }
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
            let result = if s.is_up(Epoch(e)) {
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
            e += 1;
        }
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

#[cfg(test)]
mod tests {
    use super::*;
    use fediscope_model::schedule::OutageCause;
    use fediscope_model::time::Day;

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
    fn for_each_reuses_scratch() {
        let schedules = vec![
            AvailabilitySchedule::always_up(),
            AvailabilitySchedule::new(Day(5), None),
        ];
        let obs = SyntheticObservatory::new(&schedules);
        let mut seen = Vec::new();
        obs.for_each_series(|i, s| seen.push((i, s.instance, s.polls.len())));
        assert_eq!(seen.len(), 2);
        assert_eq!(seen[0].1, InstanceId(0));
        assert_eq!(seen[1].1, InstanceId(1));
        assert!(seen[1].2 < seen[0].2, "later-born instance has fewer polls");
    }
}
