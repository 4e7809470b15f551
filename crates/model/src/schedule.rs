//! Per-instance availability schedules.
//!
//! The mnm.social feed is, per instance, a 15-month boolean time series at
//! 5-minute resolution (≈0.5B points in total). We store the equivalent
//! information sparsely: the instance's lifetime (creation day, optional
//! permanent retirement — the paper observes 21.3% of instances go offline
//! and never return) plus a sorted, non-overlapping list of [`Outage`]
//! intervals. Every derived quantity the paper uses (downtime fraction,
//! per-day downtime, continuous outage durations) is computed from this.
//!
//! Outages carry a ground-truth [`OutageCause`] so integration tests can
//! check that the *monitor* (which never sees causes) attributes failures
//! correctly.

use crate::time::{Day, Epoch, EPOCHS_PER_DAY, WINDOW_EPOCHS};
use serde::{Deserialize, Serialize};

/// Why an outage happened (ground truth; hidden from the measurement side).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OutageCause {
    /// Operator-level failure: crashed process, botched upgrade, unpaid bill…
    Organic,
    /// TLS certificate expired and nobody renewed it in time (Fig. 9b).
    CertExpiry,
    /// The hosting AS suffered a network-wide failure (Table 1).
    AsFailure,
    /// Scenario-engine provenance: a cert-lapse cascade step (the bitset-
    /// indexed Fig. 9b lapse model used as a correlated-failure trigger).
    CertLapseCascade,
    /// Scenario-engine provenance: a shared-fate event (AS-, hoster- or
    /// region-level correlated removal).
    SharedFate,
    /// Scenario-engine provenance: churn — the instance left (possibly to be
    /// reborn later in the scenario).
    Churn,
}

/// A continuous unavailability interval `[start, end)` in epochs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Outage {
    /// First unavailable epoch.
    pub start: Epoch,
    /// First available epoch after the outage.
    pub end: Epoch,
    /// Ground-truth cause.
    pub cause: OutageCause,
}

impl Outage {
    /// Length in epochs.
    pub fn len_epochs(&self) -> u32 {
        self.end.0.saturating_sub(self.start.0)
    }

    /// Length in fractional days.
    pub fn len_days(&self) -> f64 {
        self.len_epochs() as f64 / EPOCHS_PER_DAY as f64
    }
}

/// The availability history of one instance over the measurement window.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AvailabilitySchedule {
    /// Day the instance first appeared.
    pub created: Day,
    /// Day the instance permanently disappeared, if it did.
    pub retired: Option<Day>,
    outages: Vec<Outage>,
}

impl AvailabilitySchedule {
    /// A schedule for an instance alive (and outage-free) for the whole window.
    pub fn always_up() -> Self {
        Self {
            created: Day(0),
            retired: None,
            outages: Vec::new(),
        }
    }

    /// Create an empty schedule with a lifetime.
    pub fn new(created: Day, retired: Option<Day>) -> Self {
        if let Some(r) = retired {
            assert!(r.0 >= created.0, "retired before created");
        }
        Self {
            created,
            retired,
            outages: Vec::new(),
        }
    }

    /// First epoch of existence.
    pub fn birth_epoch(&self) -> Epoch {
        self.created.start_epoch()
    }

    /// One-past-the-end epoch of existence (window end if not retired).
    pub fn death_epoch(&self) -> Epoch {
        self.retired
            .map(|d| d.start_epoch())
            .unwrap_or(Epoch(WINDOW_EPOCHS))
    }

    /// Lifetime length in epochs.
    pub fn lifetime_epochs(&self) -> u32 {
        self.death_epoch().0.saturating_sub(self.birth_epoch().0)
    }

    /// Add an outage, clipping it to the instance lifetime and merging with
    /// any overlapping/adjacent existing outage. When merged intervals have
    /// different causes the earliest-starting cause wins (a pragmatic rule;
    /// cause mixing is rare in generated schedules).
    pub fn add_outage(&mut self, start: Epoch, end: Epoch, cause: OutageCause) {
        let lo = self.birth_epoch().0.max(start.0);
        let hi = self.death_epoch().0.min(end.0).min(WINDOW_EPOCHS);
        if lo >= hi {
            return; // outside lifetime or empty
        }
        let mut new = Outage {
            start: Epoch(lo),
            end: Epoch(hi),
            cause,
        };
        // Find the window of overlapping-or-adjacent outages. Outages are
        // sorted and separated by gaps, so starts and ends both increase
        // and two binary searches bound the window.
        let i = self.outages.partition_point(|o| o.end.0 < new.start.0);
        let j = i + self.outages[i..].partition_point(|o| o.start.0 <= new.end.0);
        for o in &self.outages[i..j] {
            if o.start.0 < new.start.0 {
                new.cause = o.cause;
                new.start = o.start;
            }
            if o.end.0 > new.end.0 {
                new.end = o.end;
            }
        }
        self.outages.splice(i..j, std::iter::once(new));
    }

    /// The outage list (sorted, non-overlapping, clipped to lifetime).
    pub fn outages(&self) -> &[Outage] {
        &self.outages
    }

    /// Does the instance exist (created, not retired) at `t`?
    pub fn exists_at(&self, t: Epoch) -> bool {
        t >= self.birth_epoch() && t < self.death_epoch()
    }

    /// Is the instance reachable at `t`? (exists and not in an outage)
    pub fn is_up(&self, t: Epoch) -> bool {
        if !self.exists_at(t) {
            return false;
        }
        // binary search: last outage with start <= t
        let idx = self.outages.partition_point(|o| o.start.0 <= t.0);
        if idx == 0 {
            return true;
        }
        let o = &self.outages[idx - 1];
        t.0 >= o.end.0
    }

    /// Number of down epochs within `[from, to)`, counting only epochs where
    /// the instance exists.
    pub fn down_epochs_in(&self, from: Epoch, to: Epoch) -> u32 {
        let lo = from.0.max(self.birth_epoch().0);
        let hi = to.0.min(self.death_epoch().0);
        if lo >= hi {
            return 0;
        }
        let mut down = 0;
        for o in &self.outages {
            if o.end.0 <= lo {
                continue;
            }
            if o.start.0 >= hi {
                break;
            }
            down += o.end.0.min(hi) - o.start.0.max(lo);
        }
        down
    }

    /// Number of existing epochs within `[from, to)`.
    pub fn live_epochs_in(&self, from: Epoch, to: Epoch) -> u32 {
        let lo = from.0.max(self.birth_epoch().0);
        let hi = to.0.min(self.death_epoch().0);
        hi.saturating_sub(lo)
    }

    /// Lifetime downtime fraction (0 for instances with zero lifetime).
    pub fn downtime_fraction(&self) -> f64 {
        let life = self.lifetime_epochs();
        if life == 0 {
            return 0.0;
        }
        self.down_epochs_in(self.birth_epoch(), self.death_epoch()) as f64 / life as f64
    }

    /// Downtime fraction for one day; `None` if the instance does not exist
    /// for any part of that day.
    pub fn daily_downtime(&self, day: Day) -> Option<f64> {
        let live = self.live_epochs_in(day.start_epoch(), day.end_epoch());
        if live == 0 {
            return None;
        }
        let down = self.down_epochs_in(day.start_epoch(), day.end_epoch());
        Some(down as f64 / live as f64)
    }

    /// Whether the instance is down for the entirety of `day`.
    pub fn down_whole_day(&self, day: Day) -> bool {
        self.daily_downtime(day) == Some(1.0)
    }

    /// Total number of distinct outages.
    pub fn outage_count(&self) -> usize {
        self.outages.len()
    }
}

/// Columnar interval store for a whole instance population — the §4
/// telemetry engine's backing structure.
///
/// [`AvailabilitySchedule`] is the right shape for *building* one
/// instance's history (its `add_outage` merges and clips), but a
/// population-wide analysis pass over `Vec<AvailabilitySchedule>` chases a
/// heap pointer per instance. The arena lays the same information out as
/// CSR-by-instance columns:
///
/// ```text
///             offsets:  [0,      3,    3,         7, ...]   (n + 1)
///             starts:   [s s s | · · | s s s s | ...]
///             ends:     [e e e | · · | e e e e | ...]
///             causes:   [c c c | · · | c c c c | ...]
///  per-instance birth:  [b b b b ...]                       (n)
///  per-instance death:  [d d d d ...]                       (n)
/// ```
///
/// so a sweep streams sequentially through flat `u32` columns, and an
/// instance's history is a pair of slices ([`ScheduleView`]) rather than an
/// owned struct. Invariants per instance: outages sorted, strictly
/// separated (a ≥1-epoch up gap between consecutive outages), and clipped
/// to `[birth, death)` — the same invariants `AvailabilitySchedule`
/// maintains, enforced by [`OutageArenaBuilder`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct OutageArena {
    /// CSR offsets into the interval columns, length `len() + 1`.
    offsets: Vec<u32>,
    /// First unavailable epoch per interval.
    starts: Vec<Epoch>,
    /// First available epoch after each interval.
    ends: Vec<Epoch>,
    /// Ground-truth (or reconstructed) cause per interval.
    causes: Vec<OutageCause>,
    /// First epoch of existence per instance.
    birth: Vec<Epoch>,
    /// One-past-the-end epoch of existence per instance.
    death: Vec<Epoch>,
}

impl OutageArena {
    /// Start building an arena, with capacity hints.
    pub fn builder(n_instances: usize, n_outages: usize) -> OutageArenaBuilder {
        OutageArenaBuilder {
            arena: OutageArena {
                offsets: Vec::with_capacity(n_instances + 1),
                starts: Vec::with_capacity(n_outages),
                ends: Vec::with_capacity(n_outages),
                causes: Vec::with_capacity(n_outages),
                birth: Vec::with_capacity(n_instances),
                death: Vec::with_capacity(n_instances),
            },
        }
    }

    /// Build from borrowed schedules (instance order preserved).
    pub fn from_schedules(schedules: &[AvailabilitySchedule]) -> Self {
        let n_outages = schedules.iter().map(|s| s.outage_count()).sum();
        let mut b = Self::builder(schedules.len(), n_outages);
        for s in schedules {
            b.push_schedule(s);
        }
        b.finish()
    }

    /// Number of instances.
    pub fn len(&self) -> usize {
        self.birth.len()
    }

    /// True when the arena holds no instances.
    pub fn is_empty(&self) -> bool {
        self.birth.is_empty()
    }

    /// Total interval count across all instances.
    pub fn n_outages(&self) -> usize {
        self.starts.len()
    }

    /// Borrowed view of one instance's history.
    pub fn view(&self, i: usize) -> ScheduleView<'_> {
        let lo = self.offsets[i] as usize;
        let hi = self.offsets[i + 1] as usize;
        ScheduleView {
            birth: self.birth[i],
            death: self.death[i],
            starts: &self.starts[lo..hi],
            ends: &self.ends[lo..hi],
            causes: &self.causes[lo..hi],
        }
    }

    /// Views of every instance, in instance order.
    pub fn views(&self) -> impl Iterator<Item = ScheduleView<'_>> {
        (0..self.len()).map(|i| self.view(i))
    }

    /// Build an arena from an **unsorted** interval stream — the ingest path
    /// for crawlers and overlay generators that observe outages in arrival
    /// order, not instance-then-start order.
    ///
    /// `lifetimes[i]` is instance `i`'s `[birth, death)`; each raw interval
    /// is `(instance, start, end, cause)` in any order, overlapping freely.
    /// The build is two linear passes (counting sort by instance, stable on
    /// input order) plus a per-instance sort + merge, so a pre-sorted
    /// producer is never required and never faster.
    ///
    /// The result is **bit-identical** to routing the same stream through
    /// [`AvailabilitySchedule::add_outage`] in input order and then
    /// [`OutageArena::from_schedules`] (proptest-enforced): intervals are
    /// clipped to the lifetime and the measurement window, empty intervals
    /// are dropped, overlapping/adjacent intervals merge, and a merged
    /// interval's cause is that of its earliest-starting member — with the
    /// later-arriving interval winning a start-epoch tie, exactly like
    /// repeated `add_outage` calls.
    pub fn from_unsorted(
        lifetimes: &[(Epoch, Epoch)],
        intervals: impl IntoIterator<Item = (u32, Epoch, Epoch, OutageCause)>,
    ) -> Self {
        let n = lifetimes.len();
        for &(birth, death) in lifetimes {
            assert!(birth.0 <= death.0, "birth after death");
        }
        // Pass 0: clip to lifetime + window (the add_outage rule), dropping
        // empties, so the sort only handles surviving intervals.
        let mut raw: Vec<(u32, u32, u32, OutageCause)> = Vec::new();
        for (inst, start, end, cause) in intervals {
            let i = inst as usize;
            assert!(i < n, "interval for unknown instance {inst}");
            let (birth, death) = lifetimes[i];
            let lo = birth.0.max(start.0);
            let hi = death.0.min(end.0).min(WINDOW_EPOCHS);
            if lo < hi {
                raw.push((inst, lo, hi, cause));
            }
        }
        // Pass 1+2: counting sort by instance, stable on arrival order.
        let mut counts = vec![0u32; n + 1];
        for &(inst, ..) in &raw {
            counts[inst as usize + 1] += 1;
        }
        for i in 0..n {
            counts[i + 1] += counts[i];
        }
        let mut grouped: Vec<(u32, u32, OutageCause)> =
            vec![(0, 0, OutageCause::Organic); raw.len()];
        let mut cursor = counts.clone();
        for &(inst, lo, hi, cause) in &raw {
            let c = &mut cursor[inst as usize];
            grouped[*c as usize] = (lo, hi, cause);
            *c += 1;
        }
        drop(raw);
        // Per instance: stable sort by start (ties keep arrival order, so
        // the cause tie-break below reproduces add_outage's last-arrival
        // rule), then a single merging walk.
        let mut b = Self::builder(n, grouped.len());
        for (i, &(birth, death)) in lifetimes.iter().enumerate() {
            b.push_instance(birth, death);
            let slice = &mut grouped[counts[i] as usize..counts[i + 1] as usize];
            slice.sort_by_key(|&(lo, ..)| lo);
            let mut iter = slice.iter().copied();
            let Some((mut lo, mut hi, mut cause)) = iter.next() else {
                continue;
            };
            for (nlo, nhi, ncause) in iter {
                if nlo <= hi {
                    // Overlapping or touching: extend. A start-epoch tie
                    // hands the cause to the later arrival (add_outage's
                    // strict `<` comparison does the same).
                    if nlo == lo {
                        cause = ncause;
                    }
                    hi = hi.max(nhi);
                } else {
                    b.push_outage(Epoch(lo), Epoch(hi), cause);
                    (lo, hi, cause) = (nlo, nhi, ncause);
                }
            }
            b.push_outage(Epoch(lo), Epoch(hi), cause);
        }
        b.finish()
    }
}

/// Streaming builder for [`OutageArena`]: push instances in order, then
/// intervals for the *current* instance in ascending order.
#[derive(Debug)]
pub struct OutageArenaBuilder {
    arena: OutageArena,
}

impl OutageArenaBuilder {
    /// Begin the next instance with lifetime `[birth, death)`. Returns its
    /// index.
    pub fn push_instance(&mut self, birth: Epoch, death: Epoch) -> usize {
        assert!(birth.0 <= death.0, "birth after death");
        self.arena.birth.push(birth);
        self.arena.death.push(death);
        self.arena.offsets.push(self.arena.starts.len() as u32);
        self.arena.birth.len() - 1
    }

    /// Append one outage to the most recently pushed instance. Intervals
    /// must arrive sorted, strictly separated (`start > previous end`), and
    /// inside the instance lifetime — the invariants every
    /// [`AvailabilitySchedule`] already guarantees.
    pub fn push_outage(&mut self, start: Epoch, end: Epoch, cause: OutageCause) {
        let i = self
            .arena
            .birth
            .len()
            .checked_sub(1)
            .expect("no instance pushed");
        assert!(start.0 < end.0, "empty outage");
        assert!(
            start.0 >= self.arena.birth[i].0 && end.0 <= self.arena.death[i].0,
            "outage outside lifetime"
        );
        let lo = self.arena.offsets[i] as usize;
        if let Some(prev_end) = self.arena.ends.get(lo..).and_then(|s| s.last()) {
            assert!(start.0 > prev_end.0, "outages must be strictly separated");
        }
        self.arena.starts.push(start);
        self.arena.ends.push(end);
        self.arena.causes.push(cause);
    }

    /// Append a whole schedule as the next instance.
    pub fn push_schedule(&mut self, s: &AvailabilitySchedule) {
        self.push_instance(s.birth_epoch(), s.death_epoch());
        for o in s.outages() {
            self.push_outage(o.start, o.end, o.cause);
        }
    }

    /// Finish: seal the offsets and return the arena.
    pub fn finish(mut self) -> OutageArena {
        self.arena.offsets.push(self.arena.starts.len() as u32);
        // The builder pushes one offset *before* each instance's intervals
        // plus the final seal, so offsets[i] is the start of instance i's
        // range and offsets[i+1] its end.
        debug_assert_eq!(self.arena.offsets.len(), self.arena.birth.len() + 1);
        self.arena
    }
}

/// Borrowed per-instance availability history — the arena-side equivalent
/// of [`AvailabilitySchedule`]. Every query below evaluates the *same
/// expressions* as its schedule counterpart, so derived floats are
/// bit-identical between the two representations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScheduleView<'a> {
    /// First epoch of existence.
    pub birth: Epoch,
    /// One-past-the-end epoch of existence.
    pub death: Epoch,
    /// Outage start epochs (sorted, strictly separated).
    pub starts: &'a [Epoch],
    /// Outage end epochs (aligned with `starts`).
    pub ends: &'a [Epoch],
    /// Outage causes (aligned with `starts`).
    pub causes: &'a [OutageCause],
}

impl ScheduleView<'_> {
    /// Lifetime length in epochs.
    pub fn lifetime_epochs(&self) -> u32 {
        self.death.0.saturating_sub(self.birth.0)
    }

    /// Number of distinct outages.
    pub fn outage_count(&self) -> usize {
        self.starts.len()
    }

    /// Reassemble outage `k` as an owned [`Outage`].
    pub fn outage(&self, k: usize) -> Outage {
        Outage {
            start: self.starts[k],
            end: self.ends[k],
            cause: self.causes[k],
        }
    }

    /// Does the instance exist (created, not retired) at `t`?
    pub fn exists_at(&self, t: Epoch) -> bool {
        t >= self.birth && t < self.death
    }

    /// Is the instance reachable at `t`? (exists and not in an outage)
    pub fn is_up(&self, t: Epoch) -> bool {
        if !self.exists_at(t) {
            return false;
        }
        let idx = self.starts.partition_point(|s| s.0 <= t.0);
        if idx == 0 {
            return true;
        }
        t.0 >= self.ends[idx - 1].0
    }

    /// Number of down epochs within `[from, to)`, counting only epochs
    /// where the instance exists. Mirrors
    /// [`AvailabilitySchedule::down_epochs_in`].
    pub fn down_epochs_in(&self, from: Epoch, to: Epoch) -> u32 {
        let lo = from.0.max(self.birth.0);
        let hi = to.0.min(self.death.0);
        if lo >= hi {
            return 0;
        }
        let mut down = 0;
        for (s, e) in self.starts.iter().zip(self.ends.iter()) {
            if e.0 <= lo {
                continue;
            }
            if s.0 >= hi {
                break;
            }
            down += e.0.min(hi) - s.0.max(lo);
        }
        down
    }

    /// Number of existing epochs within `[from, to)`.
    pub fn live_epochs_in(&self, from: Epoch, to: Epoch) -> u32 {
        let lo = from.0.max(self.birth.0);
        let hi = to.0.min(self.death.0);
        hi.saturating_sub(lo)
    }

    /// Lifetime downtime fraction (0 for instances with zero lifetime).
    pub fn downtime_fraction(&self) -> f64 {
        let life = self.lifetime_epochs();
        if life == 0 {
            return 0.0;
        }
        self.down_epochs_in(self.birth, self.death) as f64 / life as f64
    }

    /// Downtime fraction for one day; `None` if the instance does not exist
    /// for any part of that day.
    pub fn daily_downtime(&self, day: Day) -> Option<f64> {
        let live = self.live_epochs_in(day.start_epoch(), day.end_epoch());
        if live == 0 {
            return None;
        }
        let down = self.down_epochs_in(day.start_epoch(), day.end_epoch());
        Some(down as f64 / live as f64)
    }

    /// Whether the instance is down for the entirety of `day`.
    pub fn down_whole_day(&self, day: Day) -> bool {
        self.daily_downtime(day) == Some(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sched() -> AvailabilitySchedule {
        AvailabilitySchedule::new(Day(0), None)
    }

    #[test]
    fn fresh_schedule_is_up_everywhere() {
        let s = sched();
        assert!(s.is_up(Epoch(0)));
        assert!(s.is_up(Epoch(WINDOW_EPOCHS - 1)));
        assert_eq!(s.downtime_fraction(), 0.0);
    }

    #[test]
    fn outage_marks_down() {
        let mut s = sched();
        s.add_outage(Epoch(100), Epoch(200), OutageCause::Organic);
        assert!(s.is_up(Epoch(99)));
        assert!(!s.is_up(Epoch(100)));
        assert!(!s.is_up(Epoch(199)));
        assert!(s.is_up(Epoch(200)));
        assert_eq!(s.outage_count(), 1);
        assert_eq!(s.down_epochs_in(Epoch(0), Epoch(1000)), 100);
    }

    #[test]
    fn overlapping_outages_merge() {
        let mut s = sched();
        s.add_outage(Epoch(100), Epoch(200), OutageCause::Organic);
        s.add_outage(Epoch(150), Epoch(250), OutageCause::AsFailure);
        assert_eq!(s.outage_count(), 1);
        let o = s.outages()[0];
        assert_eq!((o.start, o.end), (Epoch(100), Epoch(250)));
        // earliest-start cause wins
        assert_eq!(o.cause, OutageCause::Organic);
    }

    #[test]
    fn touching_outages_merge() {
        let mut s = sched();
        s.add_outage(Epoch(100), Epoch(200), OutageCause::Organic);
        s.add_outage(Epoch(200), Epoch(300), OutageCause::Organic);
        assert_eq!(s.outage_count(), 1);
        assert_eq!(s.outages()[0].len_epochs(), 200);
    }

    #[test]
    fn disjoint_outages_stay_separate() {
        let mut s = sched();
        s.add_outage(Epoch(300), Epoch(400), OutageCause::Organic);
        s.add_outage(Epoch(100), Epoch(200), OutageCause::CertExpiry);
        assert_eq!(s.outage_count(), 2);
        assert_eq!(s.outages()[0].start, Epoch(100));
        assert_eq!(s.outages()[1].start, Epoch(300));
    }

    #[test]
    fn outage_clipped_to_lifetime() {
        let mut s = AvailabilitySchedule::new(Day(10), Some(Day(20)));
        s.add_outage(Epoch(0), Epoch(WINDOW_EPOCHS), OutageCause::Organic);
        assert_eq!(s.outage_count(), 1);
        let o = s.outages()[0];
        assert_eq!(o.start, Day(10).start_epoch());
        assert_eq!(o.end, Day(20).start_epoch());
        assert_eq!(s.downtime_fraction(), 1.0);
    }

    #[test]
    fn existence_bounds() {
        let s = AvailabilitySchedule::new(Day(10), Some(Day(20)));
        assert!(!s.exists_at(Epoch(0)));
        assert!(!s.is_up(Epoch(0)));
        assert!(s.is_up(Day(10).start_epoch()));
        assert!(s.is_up(Epoch(Day(20).start_epoch().0 - 1)));
        assert!(!s.exists_at(Day(20).start_epoch()));
    }

    #[test]
    fn daily_downtime_accounting() {
        let mut s = sched();
        // Half of day 1 down.
        let d1 = Day(1);
        s.add_outage(
            d1.start_epoch(),
            Epoch(d1.start_epoch().0 + EPOCHS_PER_DAY / 2),
            OutageCause::Organic,
        );
        assert_eq!(s.daily_downtime(Day(0)), Some(0.0));
        assert_eq!(s.daily_downtime(d1), Some(0.5));
        assert!(!s.down_whole_day(d1));
    }

    #[test]
    fn daily_downtime_none_before_creation() {
        let s = AvailabilitySchedule::new(Day(5), None);
        assert_eq!(s.daily_downtime(Day(4)), None);
        assert_eq!(s.daily_downtime(Day(5)), Some(0.0));
    }

    #[test]
    fn whole_day_outage_detected() {
        let mut s = sched();
        s.add_outage(
            Day(3).start_epoch(),
            Day(5).start_epoch(),
            OutageCause::Organic,
        );
        assert!(s.down_whole_day(Day(3)));
        assert!(s.down_whole_day(Day(4)));
        assert!(!s.down_whole_day(Day(5)));
    }

    #[test]
    fn downtime_fraction_matches_hand_count() {
        let mut s = AvailabilitySchedule::new(Day(0), Some(Day(10)));
        s.add_outage(Epoch(0), Epoch(288), OutageCause::Organic); // 1 day of 10
        assert!((s.downtime_fraction() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn zero_length_outage_ignored() {
        let mut s = sched();
        s.add_outage(Epoch(5), Epoch(5), OutageCause::Organic);
        assert_eq!(s.outage_count(), 0);
    }

    #[test]
    fn arena_round_trips_schedules() {
        let mut a = AvailabilitySchedule::new(Day(0), None);
        a.add_outage(Epoch(100), Epoch(200), OutageCause::Organic);
        a.add_outage(Epoch(500), Epoch(900), OutageCause::CertExpiry);
        let b = AvailabilitySchedule::new(Day(3), Some(Day(40)));
        let mut c = AvailabilitySchedule::new(Day(10), Some(Day(20)));
        c.add_outage(Epoch(0), Epoch(WINDOW_EPOCHS), OutageCause::AsFailure);
        let schedules = vec![a, b, c];

        let arena = OutageArena::from_schedules(&schedules);
        assert_eq!(arena.len(), 3);
        assert_eq!(arena.n_outages(), 3);
        for (s, v) in schedules.iter().zip(arena.views()) {
            assert_eq!(v.birth, s.birth_epoch());
            assert_eq!(v.death, s.death_epoch());
            assert_eq!(v.outage_count(), s.outage_count());
            for (k, o) in s.outages().iter().enumerate() {
                assert_eq!(v.outage(k), *o);
            }
            assert_eq!(v.downtime_fraction(), s.downtime_fraction());
        }
    }

    #[test]
    fn empty_arena() {
        let arena = OutageArena::from_schedules(&[]);
        assert!(arena.is_empty());
        assert_eq!(arena.len(), 0);
        assert_eq!(arena.n_outages(), 0);
        assert_eq!(arena.views().count(), 0);
    }

    #[test]
    fn view_queries_match_schedule_queries() {
        let mut s = AvailabilitySchedule::new(Day(2), Some(Day(9)));
        s.add_outage(Epoch(600), Epoch(700), OutageCause::Organic);
        s.add_outage(Epoch(900), Epoch(1400), OutageCause::Organic);
        let arena = OutageArena::from_schedules(std::slice::from_ref(&s));
        let v = arena.view(0);
        assert_eq!(v.lifetime_epochs(), s.lifetime_epochs());
        for e in [0u32, 576, 599, 600, 650, 700, 899, 1000, 1399, 1400, 2600] {
            assert_eq!(v.is_up(Epoch(e)), s.is_up(Epoch(e)), "epoch {e}");
            assert_eq!(v.exists_at(Epoch(e)), s.exists_at(Epoch(e)), "epoch {e}");
        }
        for d in 0..12u32 {
            assert_eq!(
                v.daily_downtime(Day(d)),
                s.daily_downtime(Day(d)),
                "day {d}"
            );
            assert_eq!(
                v.down_whole_day(Day(d)),
                s.down_whole_day(Day(d)),
                "day {d}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "strictly separated")]
    fn builder_rejects_adjacent_outages() {
        let mut b = OutageArena::builder(1, 2);
        b.push_instance(Epoch(0), Epoch(1000));
        b.push_outage(Epoch(10), Epoch(20), OutageCause::Organic);
        b.push_outage(Epoch(20), Epoch(30), OutageCause::Organic);
    }

    #[test]
    #[should_panic(expected = "outside lifetime")]
    fn builder_rejects_outage_outside_lifetime() {
        let mut b = OutageArena::builder(1, 1);
        b.push_instance(Epoch(100), Epoch(200));
        b.push_outage(Epoch(50), Epoch(150), OutageCause::Organic);
    }

    #[test]
    fn from_unsorted_matches_schedule_route() {
        // Intervals arrive interleaved across instances, out of order, and
        // overlapping; the counting-sort ingest must equal the add_outage
        // route exactly.
        let stream = [
            (1u32, Epoch(300), Epoch(400), OutageCause::AsFailure),
            (0, Epoch(100), Epoch(200), OutageCause::Organic),
            (1, Epoch(50), Epoch(310), OutageCause::CertExpiry),
            (0, Epoch(150), Epoch(250), OutageCause::AsFailure),
            (2, Epoch(0), Epoch(WINDOW_EPOCHS), OutageCause::Organic),
            (0, Epoch(900), Epoch(950), OutageCause::CertExpiry),
        ];
        let lifetimes = [
            (Epoch(0), Epoch(WINDOW_EPOCHS)),
            (Epoch(0), Epoch(WINDOW_EPOCHS)),
            (Day(10).start_epoch(), Day(20).start_epoch()),
        ];
        let mut schedules: Vec<AvailabilitySchedule> = vec![
            AvailabilitySchedule::new(Day(0), None),
            AvailabilitySchedule::new(Day(0), None),
            AvailabilitySchedule::new(Day(10), Some(Day(20))),
        ];
        for &(inst, s, e, c) in &stream {
            schedules[inst as usize].add_outage(s, e, c);
        }
        let via_schedules = OutageArena::from_schedules(&schedules);
        let via_unsorted = OutageArena::from_unsorted(&lifetimes, stream.iter().copied());
        assert_eq!(via_unsorted, via_schedules);
        // merged as expected
        assert_eq!(via_unsorted.view(0).outage_count(), 2);
        assert_eq!(via_unsorted.view(1).outage_count(), 1);
        assert_eq!(
            via_unsorted.view(1).outage(0).cause,
            OutageCause::CertExpiry
        );
    }

    #[test]
    fn from_unsorted_empty_and_out_of_lifetime() {
        let lifetimes = [(Epoch(100), Epoch(200))];
        let arena = OutageArena::from_unsorted(
            &lifetimes,
            [
                (0u32, Epoch(10), Epoch(50), OutageCause::Organic), // before birth
                (0, Epoch(500), Epoch(600), OutageCause::Organic),  // after death
                (0, Epoch(150), Epoch(150), OutageCause::Organic),  // empty
            ],
        );
        assert_eq!(arena.len(), 1);
        assert_eq!(arena.n_outages(), 0);
    }

    #[test]
    fn cascade_causes_round_trip_through_from_unsorted() {
        // The scenario engine tags intervals with cascade-provenance causes;
        // they must survive the counting-sort ingest (including the merge
        // tie-breaks) exactly like the original three causes.
        let lifetimes = [(Epoch(0), Epoch(WINDOW_EPOCHS)); 3];
        let stream = [
            (0u32, Epoch(100), Epoch(200), OutageCause::CertLapseCascade),
            (1, Epoch(50), Epoch(80), OutageCause::SharedFate),
            (2, Epoch(10), Epoch(40), OutageCause::Churn),
            // overlaps the cascade interval, starts later: earliest-start
            // cause (CertLapseCascade) must win the merge.
            (0, Epoch(150), Epoch(300), OutageCause::Organic),
        ];
        let arena = OutageArena::from_unsorted(&lifetimes, stream.iter().copied());
        assert_eq!(arena.view(0).outage_count(), 1);
        assert_eq!(arena.view(0).outage(0).cause, OutageCause::CertLapseCascade);
        assert_eq!(arena.view(1).outage(0).cause, OutageCause::SharedFate);
        assert_eq!(arena.view(2).outage(0).cause, OutageCause::Churn);
        // and the schedule route agrees (the proptest covers the general
        // case; this pins the new variants concretely).
        let mut schedules: Vec<AvailabilitySchedule> = (0..3)
            .map(|_| AvailabilitySchedule::new(Day(0), None))
            .collect();
        for &(inst, s, e, c) in &stream {
            schedules[inst as usize].add_outage(s, e, c);
        }
        assert_eq!(arena, OutageArena::from_schedules(&schedules));
    }

    #[test]
    #[should_panic(expected = "unknown instance")]
    fn from_unsorted_rejects_unknown_instance() {
        let _ = OutageArena::from_unsorted(
            &[(Epoch(0), Epoch(100))],
            [(3u32, Epoch(1), Epoch(2), OutageCause::Organic)],
        );
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    /// Reference implementation: dense boolean array.
    fn dense(s: &AvailabilitySchedule, n: u32) -> Vec<bool> {
        (0..n).map(|e| s.is_up(Epoch(e))).collect()
    }

    /// The linear-scan window search `add_outage` used before its binary
    /// searches, kept as the reference they must reproduce.
    fn add_outage_by_scan(outages: &mut Vec<Outage>, mut new: Outage) {
        let (mut i, mut j) = (0, 0);
        for (k, o) in outages.iter().enumerate() {
            if o.end.0 < new.start.0 {
                i = k + 1;
                j = k + 1;
            } else if o.start.0 <= new.end.0 {
                j = k + 1;
            } else {
                break;
            }
        }
        for o in &outages[i..j] {
            if o.start.0 < new.start.0 {
                new.cause = o.cause;
                new.start = o.start;
            }
            if o.end.0 > new.end.0 {
                new.end = o.end;
            }
        }
        outages.splice(i..j, std::iter::once(new));
    }

    proptest! {
        /// `add_outage` builds the same list, causes included, as the
        /// linear-scan window search.
        #[test]
        fn add_outage_matches_linear_scan(
            ivs in proptest::collection::vec((0u32..3000, 1u32..200, 0u8..3), 0..60)
        ) {
            let causes = [OutageCause::Organic, OutageCause::CertExpiry, OutageCause::AsFailure];
            let mut s = AvailabilitySchedule::new(Day(0), None);
            let mut reference = Vec::new();
            for &(start, len, c) in &ivs {
                let (start, end, cause) = (Epoch(start), Epoch(start + len), causes[c as usize]);
                s.add_outage(start, end, cause);
                add_outage_by_scan(&mut reference, Outage { start, end, cause });
            }
            prop_assert_eq!(s.outages(), &reference[..]);
        }

        /// After arbitrary outage insertion the interval list is sorted,
        /// non-overlapping, non-adjacent, and agrees with a dense rebuild.
        #[test]
        fn interval_invariants(
            ivs in proptest::collection::vec((0u32..2000, 0u32..2000), 0..40)
        ) {
            let mut s = AvailabilitySchedule::new(Day(0), None);
            let mut reference = vec![true; 2048];
            for &(a, b) in &ivs {
                let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
                s.add_outage(Epoch(lo), Epoch(hi), OutageCause::Organic);
                for e in lo..hi {
                    reference[e as usize] = false;
                }
            }
            // sorted + gaps between outages
            for w in s.outages().windows(2) {
                prop_assert!(w[0].end.0 < w[1].start.0, "not separated: {w:?}");
            }
            // dense equivalence
            let got = dense(&s, 2048);
            prop_assert_eq!(got, reference);
        }

        /// Arena views answer `down_epochs_in` / `daily_downtime` (and the
        /// derived lifetime fraction) bit-identically to the schedules they
        /// were built from, over random interval soups and random query
        /// ranges.
        #[test]
        fn arena_matches_schedule_queries(
            per_inst in proptest::collection::vec(
                // retirement day, with values ≥ 472 decoding to "never"
                (0u32..470, 0u32..900,
                 proptest::collection::vec((0u32..135_000, 1u32..4_000), 0..12)),
                0..8),
            from in 0u32..WINDOW_EPOCHS, to in 0u32..WINDOW_EPOCHS,
            day in 0u32..472
        ) {
            let mut schedules = Vec::new();
            for (created, retired, ivs) in per_inst {
                let retired = (retired < 472).then(|| Day(created.max(retired)));
                let mut s = AvailabilitySchedule::new(Day(created), retired);
                for &(start, len) in &ivs {
                    s.add_outage(Epoch(start), Epoch(start + len), OutageCause::Organic);
                }
                schedules.push(s);
            }
            let arena = OutageArena::from_schedules(&schedules);
            prop_assert_eq!(arena.len(), schedules.len());
            for (s, v) in schedules.iter().zip(arena.views()) {
                prop_assert_eq!(
                    v.down_epochs_in(Epoch(from), Epoch(to)),
                    s.down_epochs_in(Epoch(from), Epoch(to))
                );
                prop_assert_eq!(
                    v.live_epochs_in(Epoch(from), Epoch(to)),
                    s.live_epochs_in(Epoch(from), Epoch(to))
                );
                prop_assert_eq!(v.daily_downtime(Day(day)), s.daily_downtime(Day(day)));
                // bit-identical, not approximately equal
                prop_assert_eq!(
                    v.downtime_fraction().to_bits(),
                    s.downtime_fraction().to_bits()
                );
            }
        }

        /// The counting-sort ingest of an arbitrary unsorted interval soup
        /// is bit-identical to inserting the same stream through
        /// `add_outage` (in arrival order) and building from schedules —
        /// including merge extents and cause tie-breaks.
        #[test]
        fn unsorted_ingest_matches_sorted_build(
            n_inst in 1usize..7,
            stream in proptest::collection::vec(
                (0u32..7, 0u32..3_000, 0u32..3_000, 0usize..6), 0..60),
            lives in proptest::collection::vec((0u32..9, 0u32..12), 7),
        ) {
            let causes = [OutageCause::Organic, OutageCause::CertExpiry,
                          OutageCause::AsFailure, OutageCause::CertLapseCascade,
                          OutageCause::SharedFate, OutageCause::Churn];
            let mut schedules = Vec::new();
            let mut lifetimes = Vec::new();
            for &(created, retired) in lives.iter().take(n_inst) {
                // values ≥ 10 decode to "never retired"
                let retired = (retired < 10).then(|| Day(created.max(retired)));
                let s = AvailabilitySchedule::new(Day(created), retired);
                lifetimes.push((s.birth_epoch(), s.death_epoch()));
                schedules.push(s);
            }
            let stream: Vec<(u32, Epoch, Epoch, OutageCause)> = stream
                .into_iter()
                .map(|(inst, a, b, c)| {
                    let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
                    (inst % n_inst as u32, Epoch(lo), Epoch(hi), causes[c])
                })
                .collect();
            for &(inst, s, e, c) in &stream {
                schedules[inst as usize].add_outage(s, e, c);
            }
            let sorted_build = OutageArena::from_schedules(&schedules);
            let unsorted_build =
                OutageArena::from_unsorted(&lifetimes, stream.iter().copied());
            prop_assert_eq!(unsorted_build, sorted_build);
        }

        /// down + up epochs == live epochs over any range.
        #[test]
        fn conservation(
            ivs in proptest::collection::vec((0u32..2000, 0u32..2000), 0..20),
            from in 0u32..2000, to in 0u32..2000
        ) {
            let mut s = AvailabilitySchedule::new(Day(0), None);
            for &(a, b) in &ivs {
                let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
                s.add_outage(Epoch(lo), Epoch(hi), OutageCause::Organic);
            }
            let (f, t) = if from <= to { (from, to) } else { (to, from) };
            let down = s.down_epochs_in(Epoch(f), Epoch(t));
            let live = s.live_epochs_in(Epoch(f), Epoch(t));
            let up = (f..t).filter(|&e| s.is_up(Epoch(e))).count() as u32;
            prop_assert_eq!(down + up, live);
        }
    }
}
