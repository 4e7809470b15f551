//! Reconstructing availability schedules from raw poll series.
//!
//! The monitor only sees poll outcomes at 5-minute ticks; this module turns
//! a tick series back into outage intervals so the downstream analytics are
//! agnostic about whether they run on ground truth or on measurements. All
//! reconstructed outages carry [`OutageCause::Organic`] — a measurement
//! cannot observe causes (attribution is a separate, inference step in
//! [`crate::certs`] and [`crate::asn`]).
//!
//! Reconstruction is **gap-tolerant**: `Unknown` polls (the measurement
//! itself failed — reset connections, exhausted retries) are skipped as if
//! the poll never happened, and [`CrawlCoverage`] reports how much of the
//! feed was lost so downstream figures can be bounded honestly instead of
//! silently absorbing measurement failures as fake outages.

use fediscope_model::datasets::ObservedSeries;
use fediscope_model::schedule::{AvailabilitySchedule, OutageArena, OutageCause};
use fediscope_model::time::{Day, Epoch};

/// Reusable scratch for batch reconstruction: holds one instance's
/// reconstructed lifetime and outage intervals so the arena path never
/// allocates per instance.
#[derive(Debug, Default)]
pub struct PollScratch {
    /// Reconstructed outage intervals, sorted and strictly separated.
    intervals: Vec<(Epoch, Epoch)>,
    /// Reconstructed creation day.
    created: Day,
    /// Reconstructed retirement day, if the series implies one.
    retired: Option<Day>,
}

impl PollScratch {
    /// Reconstructed lifetime as `[birth, death)` epochs (the same mapping
    /// [`AvailabilitySchedule`] applies to its `created`/`retired` days).
    fn lifetime(&self) -> (Epoch, Epoch) {
        let birth = self.created.start_epoch();
        let death = self
            .retired
            .map(|d| d.start_epoch())
            .unwrap_or(Epoch(fediscope_model::time::WINDOW_EPOCHS));
        (birth, death)
    }
}

/// The shared reconstruction core: decode one poll series into `scratch`.
/// Returns `false` (scratch untouched beyond clearing) for a series with no
/// *known* polls — all-`Unknown` series observed nothing.
///
/// Semantics: a run of consecutive `Down` polls becomes one outage spanning
/// from the first down poll to the next up poll (exclusive). The instance's
/// lifetime is taken as `[first poll day, one-past-last poll day)`; a series
/// that *ends* down is treated as retired at its last up poll (the paper
/// excludes "persistently failed instances" from outage statistics).
/// `Unknown` polls are skipped everywhere — they behave exactly as if the
/// monitor had never polled at that tick.
fn reconstruct_into(series: &ObservedSeries, scratch: &mut PollScratch) -> bool {
    scratch.intervals.clear();

    // One pass over the known polls for the series geometry.
    let mut first = None;
    let mut last = Epoch(0);
    let mut last_up = None;
    for &(epoch, ref result) in &series.polls {
        if !result.is_known() {
            continue;
        }
        first.get_or_insert(epoch);
        last = epoch;
        if result.is_up() {
            last_up = Some(epoch);
        }
    }
    let Some(first) = first else {
        return false;
    };

    let (lifetime_end, retired) = match last_up {
        // never seen up: degenerate; treat as retired immediately
        None => (first, Some(first.day())),
        Some(up) if up < last => (up, Some(Day(up.day().0 + 1))),
        Some(_) => (last, None),
    };
    scratch.created = first.day();
    scratch.retired = retired;

    let mut down_since: Option<Epoch> = None;
    for &(epoch, ref result) in &series.polls {
        if !result.is_known() {
            continue;
        }
        if epoch > lifetime_end {
            break;
        }
        if result.is_up() {
            if let Some(start) = down_since.take() {
                scratch.intervals.push((start, epoch));
            }
        } else if down_since.is_none() {
            down_since = Some(epoch);
        }
    }
    true
}

/// Rebuild a schedule from a poll series (see `reconstruct_into` for the
/// semantics; `None` for an empty series).
pub fn schedule_from_polls(series: &ObservedSeries) -> Option<AvailabilitySchedule> {
    let mut scratch = PollScratch::default();
    if !reconstruct_into(series, &mut scratch) {
        return None;
    }
    let mut sched = AvailabilitySchedule::new(scratch.created, scratch.retired);
    for &(start, end) in &scratch.intervals {
        sched.add_outage(start, end, OutageCause::Organic);
    }
    Some(sched)
}

/// Batch reconstruction: one schedule per input series, in input order.
/// Empty series become zero-lifetime schedules (created and retired on day
/// 0) so the output stays aligned with the instance list — they contribute
/// nothing to any §4 statistic.
pub fn schedules_from_polls(series: &[ObservedSeries]) -> Vec<AvailabilitySchedule> {
    series
        .iter()
        .map(|s| {
            schedule_from_polls(s)
                .unwrap_or_else(|| AvailabilitySchedule::new(Day(0), Some(Day(0))))
        })
        .collect()
}

/// How much of a poll feed actually observed its targets — the honesty
/// report that accompanies any reconstruction from a fault-degraded crawl.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CrawlCoverage {
    /// Number of monitored instances (series).
    pub instances: usize,
    /// Polls attempted across all series.
    pub polls: usize,
    /// Polls that observed their instance (`Up` or `Down`).
    pub known: usize,
    /// Polls lost to measurement failure (`Unknown`).
    pub unknown: usize,
    /// Series with at least one poll and zero measurement gaps — their
    /// reconstruction is exactly what a fault-free crawl would produce.
    pub fully_observed: usize,
    /// Series whose *last* poll is a gap: the retirement decision rests on
    /// an earlier poll and may lag the truth.
    pub trailing_unknown: usize,
    /// Per-series gap counts, aligned with the input order.
    pub per_instance_unknown: Vec<usize>,
}

impl CrawlCoverage {
    /// Did every poll observe its instance? When true, the reconstruction
    /// is bit-identical to a fault-free crawl of the same schedule.
    pub fn complete(&self) -> bool {
        self.unknown == 0
    }

    /// Fraction of polls that observed (`1.0` for an empty feed).
    pub fn known_fraction(&self) -> f64 {
        if self.polls == 0 {
            return 1.0;
        }
        self.known as f64 / self.polls as f64
    }
}

/// Stream a batch of poll series straight into a columnar [`OutageArena`],
/// with the [`CrawlCoverage`] accounting of how much of the feed was
/// actually observed. One reusable [`PollScratch`] feeds the arena builder,
/// so reconstruction of an entire observatory allocates nothing per
/// instance beyond the arena's own columns. The arena equals
/// `OutageArena::from_schedules(&schedules_from_polls(series))`.
pub fn arena_from_polls_with_coverage(series: &[ObservedSeries]) -> (OutageArena, CrawlCoverage) {
    let mut scratch = PollScratch::default();
    let mut b = OutageArena::builder(series.len(), 0);
    let mut cov = CrawlCoverage {
        instances: series.len(),
        per_instance_unknown: Vec::with_capacity(series.len()),
        ..CrawlCoverage::default()
    };
    for s in series {
        let unknown = s.unknown_polls();
        cov.polls += s.polls.len();
        cov.unknown += unknown;
        cov.per_instance_unknown.push(unknown);
        if unknown == 0 && !s.polls.is_empty() {
            cov.fully_observed += 1;
        }
        if s.polls.last().is_some_and(|(_, r)| !r.is_known()) {
            cov.trailing_unknown += 1;
        }
        if reconstruct_into(s, &mut scratch) {
            let (birth, death) = scratch.lifetime();
            b.push_instance(birth, death);
            for &(start, end) in &scratch.intervals {
                // clip to the lifetime exactly as `add_outage` would (a
                // trailing-down run never reaches here, but an interval can
                // butt against a mid-window retirement boundary)
                let lo = start.0.max(birth.0);
                let hi = end.0.min(death.0);
                if lo < hi {
                    b.push_outage(Epoch(lo), Epoch(hi), OutageCause::Organic);
                }
            }
        } else {
            b.push_instance(Epoch(0), Epoch(0));
        }
    }
    cov.known = cov.polls - cov.unknown;
    (b.finish(), cov)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fediscope_model::datasets::{InstanceApiInfo, PollResult};
    use fediscope_model::ids::InstanceId;

    fn up() -> PollResult {
        PollResult::Up(InstanceApiInfo {
            name: "x".into(),
            version: "v".into(),
            toots: 0,
            users: 0,
            subscriptions: 0,
            logins: 0,
            registration_open: true,
        })
    }

    fn series(polls: Vec<(u32, bool)>) -> ObservedSeries {
        ObservedSeries {
            instance: InstanceId(0),
            polls: polls
                .into_iter()
                .map(|(e, is_up)| (Epoch(e), if is_up { up() } else { PollResult::Down }))
                .collect(),
        }
    }

    #[test]
    fn empty_series_is_none() {
        assert!(schedule_from_polls(&ObservedSeries::default()).is_none());
    }

    #[test]
    fn all_up_has_no_outages() {
        let s = series(vec![(0, true), (1, true), (2, true)]);
        let sched = schedule_from_polls(&s).unwrap();
        assert_eq!(sched.outage_count(), 0);
        assert!(sched.retired.is_none());
    }

    #[test]
    fn down_run_becomes_outage() {
        let s = series(vec![(0, true), (1, false), (2, false), (3, true)]);
        let sched = schedule_from_polls(&s).unwrap();
        assert_eq!(sched.outage_count(), 1);
        let o = sched.outages()[0];
        assert_eq!((o.start, o.end), (Epoch(1), Epoch(3)));
    }

    #[test]
    fn trailing_down_is_retirement_not_outage() {
        let s = series(vec![(0, true), (300, true), (600, false), (900, false)]);
        let sched = schedule_from_polls(&s).unwrap();
        assert_eq!(sched.outage_count(), 0, "persistent failure ≠ outage");
        assert!(sched.retired.is_some());
    }

    #[test]
    fn never_up_is_degenerate() {
        let s = series(vec![(0, false), (1, false)]);
        let sched = schedule_from_polls(&s).unwrap();
        assert_eq!(sched.outage_count(), 0);
        assert_eq!(sched.lifetime_epochs(), 0);
    }

    #[test]
    fn multiple_outages_preserved() {
        let s = series(vec![
            (0, true),
            (10, false),
            (20, true),
            (30, false),
            (40, false),
            (50, true),
        ]);
        let sched = schedule_from_polls(&s).unwrap();
        assert_eq!(sched.outage_count(), 2);
        assert_eq!(sched.outages()[0].start, Epoch(10));
        assert_eq!(sched.outages()[1].start, Epoch(30));
        assert_eq!(sched.outages()[1].end, Epoch(50));
    }

    fn series_with_gaps(polls: Vec<(u32, Option<bool>)>) -> ObservedSeries {
        ObservedSeries {
            instance: InstanceId(0),
            polls: polls
                .into_iter()
                .map(|(e, r)| {
                    let r = match r {
                        Some(true) => up(),
                        Some(false) => PollResult::Down,
                        None => PollResult::Unknown,
                    };
                    (Epoch(e), r)
                })
                .collect(),
        }
    }

    #[test]
    fn unknown_polls_are_skipped_like_missing_ticks() {
        // the same observations, with and without interleaved gaps, must
        // reconstruct identically
        let clean = series(vec![(0, true), (10, false), (20, false), (30, true)]);
        let gappy = series_with_gaps(vec![
            (0, Some(true)),
            (5, None),
            (10, Some(false)),
            (15, None),
            (20, Some(false)),
            (25, None),
            (30, Some(true)),
        ]);
        assert_eq!(
            schedule_from_polls(&clean).unwrap(),
            schedule_from_polls(&gappy).unwrap()
        );
    }

    #[test]
    fn leading_and_trailing_unknowns_shrink_the_observed_lifetime() {
        // gaps at the edges: the lifetime starts at the first *known* poll
        let s = series_with_gaps(vec![
            (0, None),
            (300, Some(true)),
            (600, Some(true)),
            (900, None),
        ]);
        let sched = schedule_from_polls(&s).unwrap();
        assert_eq!(sched.created, Epoch(300).day());
        assert!(sched.retired.is_none(), "trailing gap is not retirement");
    }

    #[test]
    fn all_unknown_series_observes_nothing() {
        let s = series_with_gaps(vec![(0, None), (10, None)]);
        assert!(schedule_from_polls(&s).is_none());
    }

    #[test]
    fn coverage_accounting() {
        let batch = vec![
            series(vec![(0, true), (10, false), (20, true)]), // fully observed
            series_with_gaps(vec![(0, Some(true)), (10, None), (20, Some(true))]),
            series_with_gaps(vec![(0, Some(true)), (10, None)]), // trailing gap
            ObservedSeries::default(),                           // never polled
        ];
        let (arena, cov) = arena_from_polls_with_coverage(&batch);
        assert_eq!(cov.instances, 4);
        assert_eq!(cov.polls, 3 + 3 + 2);
        assert_eq!(cov.unknown, 2);
        assert_eq!(cov.known, 6);
        assert_eq!(cov.fully_observed, 1, "only the clean series");
        assert_eq!(cov.trailing_unknown, 1);
        assert_eq!(cov.per_instance_unknown, vec![0, 1, 1, 0]);
        assert!(!cov.complete());
        assert!((cov.known_fraction() - 6.0 / 8.0).abs() < 1e-12);
        // the arena equals the schedule-built arena
        let schedules = schedules_from_polls(&batch);
        assert_eq!(arena, OutageArena::from_schedules(&schedules));
        // a gap-free feed reports complete coverage
        let clean = vec![series(vec![(0, true), (10, true)])];
        let (_, cov) = arena_from_polls_with_coverage(&clean);
        assert!(cov.complete());
        assert_eq!(cov.known_fraction(), 1.0);
        assert_eq!(cov.fully_observed, 1);
    }

    #[test]
    fn batch_matches_single_and_feeds_arena() {
        use fediscope_model::schedule::OutageArena;
        let batch = vec![
            series(vec![(0, true), (10, false), (20, true)]),
            ObservedSeries::default(),            // never polled
            series(vec![(0, false), (5, false)]), // never up
            series(vec![(300, true), (600, false), (900, false)]), // retires
        ];
        let schedules = schedules_from_polls(&batch);
        assert_eq!(schedules.len(), batch.len());
        for (s, sched) in batch.iter().zip(&schedules) {
            match schedule_from_polls(s) {
                Some(expect) => assert_eq!(*sched, expect),
                None => assert_eq!(sched.lifetime_epochs(), 0),
            }
        }
        // the streaming arena equals the schedule-built arena exactly
        assert_eq!(
            arena_from_polls_with_coverage(&batch).0,
            OutageArena::from_schedules(&schedules)
        );
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use fediscope_model::datasets::{InstanceApiInfo, PollResult};
    use fediscope_model::ids::InstanceId;
    use fediscope_model::schedule::{OutageArena, OutageCause};
    use fediscope_model::time::EPOCHS_PER_DAY;
    use proptest::prelude::*;

    fn up() -> PollResult {
        PollResult::Up(InstanceApiInfo {
            name: String::new(),
            version: String::new(),
            toots: 0,
            users: 0,
            subscriptions: 0,
            logins: 0,
            registration_open: true,
        })
    }

    /// Poll a ground-truth schedule at every 5-minute epoch from its
    /// creation day through `horizon_day` (retired instances keep getting
    /// polled and answer Down, like the real monitor's seed list).
    fn polls_of(s: &AvailabilitySchedule, horizon_day: u32) -> ObservedSeries {
        let from = s.birth_epoch().0;
        let to = horizon_day * EPOCHS_PER_DAY;
        ObservedSeries {
            instance: InstanceId(0),
            polls: (from..to)
                .map(|e| {
                    let r = if s.is_up(Epoch(e)) {
                        up()
                    } else {
                        PollResult::Down
                    };
                    (Epoch(e), r)
                })
                .collect(),
        }
    }

    proptest! {
        /// schedule → synthetic 5-minute polls → reconstruction preserves
        /// the outage intervals and the retirement day, for any schedule
        /// whose outages do not touch its end of life (a trailing outage is
        /// *deliberately* folded into retirement by the monitor, per the
        /// paper's "persistently failed instances" rule).
        #[test]
        fn poll_round_trip(
            created in 0u32..8,
            retired in 0u32..40,
            ivs in proptest::collection::vec(
                (0u32..20 * EPOCHS_PER_DAY, 1u32..2 * EPOCHS_PER_DAY), 0..8),
        ) {
            let retired = (10..24).contains(&retired).then(|| Day(created.max(retired)));
            let mut truth = AvailabilitySchedule::new(Day(created), retired);
            let death = truth.death_epoch().0.min(25 * EPOCHS_PER_DAY);
            for &(start, len) in &ivs {
                // keep a ≥1-epoch up run before end of life so the trailing
                // run cannot be mistaken for retirement
                let end = (start + len).min(death.saturating_sub(1));
                truth.add_outage(Epoch(start), Epoch(end), OutageCause::Organic);
            }
            let series = polls_of(&truth, 25);
            let got = schedule_from_polls(&series).unwrap();
            prop_assert_eq!(got.created, truth.created);
            prop_assert_eq!(got.retired, truth.retired);
            prop_assert_eq!(got.outage_count(), truth.outage_count());
            for (a, b) in got.outages().iter().zip(truth.outages()) {
                prop_assert_eq!((a.start, a.end), (b.start, b.end));
            }
            // and the streaming arena path agrees with the schedule path
            let batch = [series];
            let arena = arena_from_polls_with_coverage(&batch).0;
            prop_assert_eq!(arena, OutageArena::from_schedules(&[got]));
        }
    }
}
