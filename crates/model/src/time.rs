//! The study's virtual clock.
//!
//! mnm.social polled every instance **every five minutes** between
//! **2017-04-11** and **2018-07-27** (§3). We therefore discretise time into
//! 5-minute [`Epoch`]s across a 472-day window. A [`Day`] is 288 epochs.
//!
//! Civil-date conversion uses Howard Hinnant's `days_from_civil` algorithm so
//! we can print human-readable dates ("23 July 2018") without a chrono
//! dependency.

use serde::{Deserialize, Serialize};

/// Number of 5-minute epochs per day.
pub const EPOCHS_PER_DAY: u32 = 288;

/// Days in the measurement window (2017-04-11 → 2018-07-27 inclusive start,
/// exclusive end).
pub const WINDOW_DAYS: u32 = 472;

/// Total 5-minute epochs in the measurement window.
pub const WINDOW_EPOCHS: u32 = WINDOW_DAYS * EPOCHS_PER_DAY;

/// The civil date of day 0 of the window.
pub const WINDOW_START: (i32, u32, u32) = (2017, 4, 11);

/// A 5-minute polling epoch, counted from the window start.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default,
)]
pub struct Epoch(pub u32);

/// A day offset from the window start.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default,
)]
pub struct Day(pub u32);

impl Epoch {
    /// The day this epoch falls in.
    pub fn day(self) -> Day {
        Day(self.0 / EPOCHS_PER_DAY)
    }

    /// First epoch of the window.
    pub const ZERO: Epoch = Epoch(0);

    /// Minutes since the window start.
    pub fn minutes(self) -> u64 {
        self.0 as u64 * 5
    }

    /// Saturating addition of `n` epochs, clamped to the window end.
    pub fn saturating_add(self, n: u32) -> Epoch {
        Epoch((self.0.saturating_add(n)).min(WINDOW_EPOCHS))
    }
}

impl Day {
    /// First epoch of this day.
    pub fn start_epoch(self) -> Epoch {
        Epoch(self.0 * EPOCHS_PER_DAY)
    }

    /// One-past-the-end epoch of this day.
    pub fn end_epoch(self) -> Epoch {
        Epoch((self.0 + 1) * EPOCHS_PER_DAY)
    }

    /// The civil date `(year, month, day)` of this day offset.
    pub fn civil(self) -> (i32, u32, u32) {
        let base = days_from_civil(WINDOW_START.0, WINDOW_START.1, WINDOW_START.2);
        civil_from_days(base + self.0 as i64)
    }

    /// ISO-8601 `YYYY-MM-DD` representation.
    pub fn iso(self) -> String {
        let (y, m, d) = self.civil();
        format!("{y:04}-{m:02}-{d:02}")
    }

    /// Build a `Day` from a civil date, if within the window.
    pub fn from_civil(y: i32, m: u32, d: u32) -> Option<Day> {
        let base = days_from_civil(WINDOW_START.0, WINDOW_START.1, WINDOW_START.2);
        let days = days_from_civil(y, m, d) - base;
        if (0..WINDOW_DAYS as i64).contains(&days) {
            Some(Day(days as u32))
        } else {
            None
        }
    }
}

impl std::fmt::Display for Day {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.iso())
    }
}

/// Days since 1970-01-01 for a civil date (proleptic Gregorian).
///
/// Howard Hinnant's algorithm, <http://howardhinnant.github.io/date_algorithms.html>.
pub fn days_from_civil(y: i32, m: u32, d: u32) -> i64 {
    let y = if m <= 2 { y - 1 } else { y } as i64;
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = y - era * 400; // [0, 399]
    let mp = ((m + 9) % 12) as i64; // [0, 11]
    let doy = (153 * mp + 2) / 5 + d as i64 - 1; // [0, 365]
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy; // [0, 146096]
    era * 146_097 + doe - 719_468
}

/// Civil date for days since 1970-01-01 (inverse of [`days_from_civil`]).
pub fn civil_from_days(z: i64) -> (i32, u32, u32) {
    let z = z + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = z - era * 146_097; // [0, 146096]
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365; // [0, 399]
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
    let mp = (5 * doy + 2) / 153; // [0, 11]
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32; // [1, 31]
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32; // [1, 12]
    let y = if m <= 2 { y + 1 } else { y };
    (y as i32, m, d)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_is_472_days() {
        // 2017-04-11 .. 2018-07-27
        let start = days_from_civil(2017, 4, 11);
        let end = days_from_civil(2018, 7, 27);
        assert_eq!(end - start, WINDOW_DAYS as i64);
    }

    #[test]
    fn epoch_day_mapping() {
        assert_eq!(Epoch(0).day(), Day(0));
        assert_eq!(Epoch(287).day(), Day(0));
        assert_eq!(Epoch(288).day(), Day(1));
        assert_eq!(Day(1).start_epoch(), Epoch(288));
        assert_eq!(Day(0).end_epoch(), Epoch(288));
    }

    #[test]
    fn civil_round_trip_epoch_zero() {
        assert_eq!(Day(0).civil(), (2017, 4, 11));
        assert_eq!(Day(0).iso(), "2017-04-11");
    }

    #[test]
    fn known_paper_dates() {
        // "In the worst case we find 105 instances to be down on one day
        // (23 July 2018)" — that date must be inside the window.
        let d = Day::from_civil(2018, 7, 23).expect("2018-07-23 in window");
        assert_eq!(d.iso(), "2018-07-23");
        // "one day (April 15, 2017) where 6% of all toots were unavailable"
        let d2 = Day::from_civil(2017, 4, 15).unwrap();
        assert_eq!(d2, Day(4));
        // Outside the window:
        assert_eq!(Day::from_civil(2018, 7, 27), None);
        assert_eq!(Day::from_civil(2017, 4, 10), None);
    }

    #[test]
    fn civil_conversion_round_trips() {
        for z in [-1_000_000i64, -1, 0, 1, 365, 100_000, 2_000_000] {
            let (y, m, d) = civil_from_days(z);
            assert_eq!(days_from_civil(y, m, d), z);
        }
    }

    #[test]
    fn unix_epoch_is_1970() {
        assert_eq!(civil_from_days(0), (1970, 1, 1));
        assert_eq!(days_from_civil(1970, 1, 1), 0);
    }

    #[test]
    fn leap_year_handling() {
        // 2016 was a leap year.
        let feb28 = days_from_civil(2016, 2, 28);
        let mar01 = days_from_civil(2016, 3, 1);
        assert_eq!(mar01 - feb28, 2); // Feb 29 exists
        let feb28_17 = days_from_civil(2017, 2, 28);
        let mar01_17 = days_from_civil(2017, 3, 1);
        assert_eq!(mar01_17 - feb28_17, 1);
    }

    #[test]
    fn saturating_add_clamps() {
        assert_eq!(Epoch(5).saturating_add(10), Epoch(15));
        assert_eq!(
            Epoch(WINDOW_EPOCHS - 1).saturating_add(100),
            Epoch(WINDOW_EPOCHS)
        );
    }

    #[test]
    fn minutes_accumulate() {
        assert_eq!(Epoch(0).minutes(), 0);
        assert_eq!(Epoch(12).minutes(), 60);
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn civil_round_trip(z in -1_000_000i64..1_000_000) {
            let (y, m, d) = civil_from_days(z);
            prop_assert!((1..=12).contains(&m));
            prop_assert!((1..=31).contains(&d));
            prop_assert_eq!(days_from_civil(y, m, d), z);
        }

        #[test]
        fn day_iso_parses_back(day in 0u32..WINDOW_DAYS) {
            let d = Day(day);
            let (y, m, dd) = d.civil();
            prop_assert_eq!(Day::from_civil(y, m, dd), Some(d));
        }
    }
}
