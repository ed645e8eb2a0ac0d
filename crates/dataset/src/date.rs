//! A minimal proleptic-Gregorian calendar date.
//!
//! Examination records in the paper carry "the type and date of every
//! exam". We only need day-level resolution, ordering, day arithmetic and
//! an ISO-8601 textual form for CSV round-trips, so a tiny hand-rolled
//! date type keeps the crate dependency-free.

use std::fmt;
use std::str::FromStr;

use crate::error::DatasetError;

/// Days in each month of a non-leap year.
const MONTH_DAYS: [u8; 12] = [31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31];

/// A calendar date (proleptic Gregorian), valid from year 1 to 9999.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Date {
    year: u16,
    month: u8,
    day: u8,
}

impl Date {
    /// Creates a date, validating the year/month/day combination.
    ///
    /// # Errors
    /// Returns [`DatasetError::InvalidDate`] when the combination does not
    /// name a real calendar day (e.g. 2015-02-29 or month 13).
    pub fn new(year: u16, month: u8, day: u8) -> Result<Self, DatasetError> {
        if year == 0
            || year > 9999
            || month == 0
            || month > 12
            || day == 0
            || day > days_in_month(year, month)
        {
            return Err(DatasetError::InvalidDate { year, month, day });
        }
        Ok(Self { year, month, day })
    }

    /// The calendar year.
    pub fn year(self) -> u16 {
        self.year
    }

    /// The calendar month (1–12).
    pub fn month(self) -> u8 {
        self.month
    }

    /// The day of the month (1–31).
    pub fn day(self) -> u8 {
        self.day
    }

    /// Day of year, 1-based (January 1st is 1).
    pub fn ordinal(self) -> u16 {
        let mut days = 0u16;
        for m in 1..self.month {
            days += u16::from(days_in_month(self.year, m));
        }
        days + u16::from(self.day)
    }

    /// Builds a date from a year and a 1-based day-of-year ordinal.
    ///
    /// # Errors
    /// Returns [`DatasetError::InvalidDate`] when `ordinal` is 0 or exceeds
    /// the number of days in `year`.
    pub fn from_ordinal(year: u16, ordinal: u16) -> Result<Self, DatasetError> {
        let total = if is_leap(year) { 366 } else { 365 };
        if year == 0 || year > 9999 || ordinal == 0 || ordinal > total {
            return Err(DatasetError::InvalidDate {
                year,
                month: 0,
                day: 0,
            });
        }
        let mut remaining = ordinal;
        for month in 1u8..=12 {
            let len = u16::from(days_in_month(year, month));
            if remaining <= len {
                return Date::new(year, month, remaining as u8);
            }
            remaining -= len;
        }
        unreachable!("ordinal bounds checked above")
    }

    /// Number of days since 0001-01-01 (which maps to 0). Useful as a
    /// total order and for day-difference arithmetic.
    pub fn days_since_epoch(self) -> i64 {
        let y = i64::from(self.year) - 1;
        // Whole years before this one, with Gregorian leap rules.
        let days_in_prior_years = y * 365 + y / 4 - y / 100 + y / 400;
        days_in_prior_years + i64::from(self.ordinal()) - 1
    }

    /// Adds (or subtracts, when negative) a number of days.
    ///
    /// # Errors
    /// Returns [`DatasetError::InvalidDate`] when the result falls outside
    /// the supported year range (1–9999).
    pub fn add_days(self, delta: i64) -> Result<Self, DatasetError> {
        let target = self.days_since_epoch() + delta;
        Date::from_days_since_epoch(target)
    }

    /// Inverse of [`Date::days_since_epoch`].
    ///
    /// # Errors
    /// Returns [`DatasetError::InvalidDate`] when `days` falls outside the
    /// supported year range.
    pub fn from_days_since_epoch(days: i64) -> Result<Self, DatasetError> {
        if days < 0 {
            return Err(DatasetError::InvalidDate {
                year: 0,
                month: 0,
                day: 0,
            });
        }
        // 400-year Gregorian cycle = 146_097 days.
        let mut year = 1u32 + (days / 146_097) as u32 * 400;
        let mut remaining = days % 146_097;
        loop {
            let len = if is_leap(year as u16) { 366 } else { 365 };
            if remaining < len {
                break;
            }
            remaining -= len;
            year += 1;
            if year > 9999 {
                return Err(DatasetError::InvalidDate {
                    year: 9999,
                    month: 0,
                    day: 0,
                });
            }
        }
        Date::from_ordinal(year as u16, remaining as u16 + 1)
    }

    /// Difference in days (`self - other`).
    pub fn days_between(self, other: Date) -> i64 {
        self.days_since_epoch() - other.days_since_epoch()
    }
}

/// True when `year` is a Gregorian leap year.
pub fn is_leap(year: u16) -> bool {
    (year.is_multiple_of(4) && !year.is_multiple_of(100)) || year.is_multiple_of(400)
}

/// Number of days in the given month of the given year.
pub fn days_in_month(year: u16, month: u8) -> u8 {
    if month == 2 && is_leap(year) {
        29
    } else {
        MONTH_DAYS[(month - 1) as usize]
    }
}

impl fmt::Display for Date {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:04}-{:02}-{:02}", self.year, self.month, self.day)
    }
}

impl FromStr for Date {
    type Err = DatasetError;

    /// Parses an ISO-8601 `YYYY-MM-DD` date.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut parts = s.split('-');
        let bad = || DatasetError::DateParse(s.to_owned());
        let year: u16 = parts.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
        let month: u8 = parts.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
        let day: u8 = parts.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
        if parts.next().is_some() {
            return Err(bad());
        }
        Date::new(year, month, day).map_err(|_| bad())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructs_valid_dates() {
        let d = Date::new(2015, 6, 30).unwrap();
        assert_eq!((d.year(), d.month(), d.day()), (2015, 6, 30));
    }

    #[test]
    fn rejects_invalid_dates() {
        assert!(Date::new(2015, 2, 29).is_err()); // not a leap year
        assert!(Date::new(2016, 2, 29).is_ok()); // leap year
        assert!(Date::new(2015, 13, 1).is_err());
        assert!(Date::new(2015, 0, 1).is_err());
        assert!(Date::new(2015, 4, 31).is_err());
        assert!(Date::new(0, 1, 1).is_err());
    }

    #[test]
    fn ordinal_round_trip() {
        for year in [2015u16, 2016] {
            let total = if is_leap(year) { 366 } else { 365 };
            for ord in 1..=total {
                let d = Date::from_ordinal(year, ord).unwrap();
                assert_eq!(d.ordinal(), ord, "year {year} ordinal {ord}");
            }
        }
    }

    #[test]
    fn epoch_round_trip() {
        for (y, m, d) in [
            (1u16, 1u8, 1u8),
            (2015, 3, 14),
            (2016, 2, 29),
            (9999, 12, 31),
        ] {
            let date = Date::new(y, m, d).unwrap();
            let back = Date::from_days_since_epoch(date.days_since_epoch()).unwrap();
            assert_eq!(date, back);
        }
    }

    #[test]
    fn day_arithmetic() {
        let d = Date::new(2015, 12, 31).unwrap();
        assert_eq!(d.add_days(1).unwrap(), Date::new(2016, 1, 1).unwrap());
        assert_eq!(d.add_days(-365).unwrap(), Date::new(2014, 12, 31).unwrap());
        let a = Date::new(2016, 3, 1).unwrap();
        let b = Date::new(2016, 2, 28).unwrap();
        assert_eq!(a.days_between(b), 2); // leap day in between
    }

    #[test]
    fn ordering_follows_calendar() {
        let a = Date::new(2015, 1, 31).unwrap();
        let b = Date::new(2015, 2, 1).unwrap();
        let c = Date::new(2016, 1, 1).unwrap();
        assert!(a < b && b < c);
    }

    #[test]
    fn display_and_parse_round_trip() {
        let d = Date::new(2015, 7, 4).unwrap();
        let s = d.to_string();
        assert_eq!(s, "2015-07-04");
        assert_eq!(s.parse::<Date>().unwrap(), d);
    }

    #[test]
    fn parse_rejects_garbage() {
        for s in ["", "2015", "2015-1", "2015-02-30", "a-b-c", "2015-07-04-1"] {
            assert!(s.parse::<Date>().is_err(), "{s:?} should not parse");
        }
    }

    #[test]
    fn leap_year_rules() {
        assert!(is_leap(2016));
        assert!(!is_leap(2015));
        assert!(!is_leap(1900));
        assert!(is_leap(2000));
    }
}
