//! TLS certificates and certificate authorities (Fig. 9).
//!
//! Mastodon uses HTTPS by default; the paper finds Let's Encrypt behind more
//! than 85% of instances and attributes 6.3% of observed outages to expired
//! certificates — most dramatically a bulk expiry taking 105 instances down
//! on the same day (23 July 2018, the 90-day Let's Encrypt policy expiring a
//! cohort simultaneously).

use crate::time::Day;
use serde::{Deserialize, Serialize};

/// Certificate authorities observed in Fig. 9(a), plus a tail bucket.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum CertificateAuthority {
    LetsEncrypt,
    Comodo,
    Amazon,
    Cloudflare,
    DigiCert,
    Other,
}

impl CertificateAuthority {
    /// All CAs in Fig. 9(a) order.
    pub const ALL: [CertificateAuthority; 6] = [
        CertificateAuthority::LetsEncrypt,
        CertificateAuthority::Comodo,
        CertificateAuthority::Amazon,
        CertificateAuthority::Cloudflare,
        CertificateAuthority::DigiCert,
        CertificateAuthority::Other,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            CertificateAuthority::LetsEncrypt => "Let's Encrypt",
            CertificateAuthority::Comodo => "COMODO",
            CertificateAuthority::Amazon => "Amazon",
            CertificateAuthority::Cloudflare => "CloudFlare",
            CertificateAuthority::DigiCert => "DigiCert",
            CertificateAuthority::Other => "Other",
        }
    }

    /// Certificate validity period issued by this CA, in days.
    ///
    /// Let's Encrypt certificates live 90 days ("the Let's Encrypt CA short
    /// expiry policy (90 days)"); commercial CAs of the era issued 1-year
    /// (and longer) certificates.
    pub fn validity_days(self) -> u32 {
        match self {
            CertificateAuthority::LetsEncrypt => 90,
            _ => 365,
        }
    }
}

/// A certificate installed on an instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Certificate {
    /// Issuing CA.
    pub ca: CertificateAuthority,
    /// Day (window-relative; may notionally pre-date the window as day 0) the
    /// current certificate chain started.
    pub issued: Day,
    /// Whether the administrator configured automated renewal. Instances
    /// without it go down when the certificate expires, until a human
    /// notices.
    pub auto_renew: bool,
}

impl Certificate {
    /// Expiry day of the certificate issued on `issued`.
    pub fn expires(&self) -> Day {
        Day(self.issued.0 + self.ca.validity_days())
    }

    /// Days in the window on which this certificate chain *lapses*, assuming
    /// the admin manually renews `lapse_fix_days` after each expiry-outage
    /// begins. With `auto_renew` the list is empty.
    ///
    /// `horizon` bounds the simulation (typically [`crate::time::WINDOW_DAYS`]).
    pub fn lapse_days(&self, lapse_fix_days: u32, horizon: u32) -> Vec<Day> {
        if self.auto_renew {
            return Vec::new();
        }
        let mut out = Vec::new();
        let period = self.ca.validity_days() + lapse_fix_days;
        let mut expiry = self.expires().0;
        while expiry < horizon {
            out.push(Day(expiry));
            expiry += period;
        }
        out
    }

    /// The same lapse calendar as [`Certificate::lapse_days`], indexed as a
    /// day [`LapseBitset`] — the Fig. 9b representation the scenario engine
    /// uses as its cascade trigger: "which instances lapse in day range
    /// `[a, b)`" becomes a word-wise scan instead of a per-instance `Vec`
    /// walk.
    pub fn lapse_bitset(&self, lapse_fix_days: u32, horizon: u32) -> LapseBitset {
        let mut bits = LapseBitset::empty(horizon);
        for d in self.lapse_days(lapse_fix_days, horizon) {
            bits.set(d);
        }
        bits
    }
}

/// A bitset over window days — one bit per [`Day`] below the horizon.
///
/// Used to index certificate-lapse calendars (Fig. 9b): bit `d` set means
/// "the certificate chain lapses on day `d`". Queries are word-wise, so
/// range scans over a 472-day window touch at most 8 words.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LapseBitset {
    /// Number of days covered (bits beyond `horizon` are always zero).
    pub horizon: u32,
    /// Little-endian 64-day words, length `ceil(horizon / 64)`.
    pub words: Vec<u64>,
}

impl LapseBitset {
    /// An all-zero bitset covering `horizon` days.
    pub fn empty(horizon: u32) -> Self {
        Self {
            horizon,
            words: vec![0u64; horizon.div_ceil(64) as usize],
        }
    }

    /// Set the bit for `day` (ignored beyond the horizon).
    pub fn set(&mut self, day: Day) {
        if day.0 < self.horizon {
            self.words[(day.0 / 64) as usize] |= 1u64 << (day.0 % 64);
        }
    }

    /// Is the bit for `day` set?
    pub fn contains(&self, day: Day) -> bool {
        day.0 < self.horizon && self.words[(day.0 / 64) as usize] >> (day.0 % 64) & 1 == 1
    }

    /// Number of set days.
    pub fn count(&self) -> u32 {
        self.words.iter().map(|w| w.count_ones()).sum()
    }

    /// True when no day is set.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// First set day in `[from, horizon)`, scanning whole words.
    pub fn first_set_at_or_after(&self, from: Day) -> Option<Day> {
        if from.0 >= self.horizon {
            return None;
        }
        let mut wi = (from.0 / 64) as usize;
        let mut word = self.words[wi] & (u64::MAX << (from.0 % 64));
        loop {
            if word != 0 {
                let day = wi as u32 * 64 + word.trailing_zeros();
                return (day < self.horizon).then_some(Day(day));
            }
            wi += 1;
            if wi >= self.words.len() {
                return None;
            }
            word = self.words[wi];
        }
    }

    /// Iterate all set days in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = Day> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut word = w;
            std::iter::from_fn(move || {
                if word == 0 {
                    return None;
                }
                let bit = word.trailing_zeros();
                word &= word - 1;
                Some(Day(wi as u32 * 64 + bit))
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lets_encrypt_is_90_days() {
        assert_eq!(CertificateAuthority::LetsEncrypt.validity_days(), 90);
        assert_eq!(CertificateAuthority::DigiCert.validity_days(), 365);
    }

    #[test]
    fn expiry_day_offsets_by_validity() {
        let c = Certificate {
            ca: CertificateAuthority::LetsEncrypt,
            issued: Day(10),
            auto_renew: true,
        };
        assert_eq!(c.expires(), Day(100));
    }

    #[test]
    fn auto_renew_never_lapses() {
        let c = Certificate {
            ca: CertificateAuthority::LetsEncrypt,
            issued: Day(0),
            auto_renew: true,
        };
        assert!(c.lapse_days(3, 472).is_empty());
    }

    #[test]
    fn manual_renewal_lapses_periodically() {
        let c = Certificate {
            ca: CertificateAuthority::LetsEncrypt,
            issued: Day(0),
            auto_renew: false,
        };
        // expiry at 90, fixed after 3 days -> next issue at 93, expiry 183...
        let lapses = c.lapse_days(3, 472);
        assert_eq!(
            lapses,
            vec![Day(90), Day(183), Day(276), Day(369), Day(462)]
        );
    }

    #[test]
    fn lapses_respect_horizon() {
        let c = Certificate {
            ca: CertificateAuthority::Comodo,
            issued: Day(0),
            auto_renew: false,
        };
        let lapses = c.lapse_days(5, 400);
        assert_eq!(lapses, vec![Day(365)]);
        assert!(c.lapse_days(5, 300).is_empty());
    }

    #[test]
    fn lapse_bitset_matches_lapse_days() {
        for (ca, auto_renew, issued) in [
            (CertificateAuthority::LetsEncrypt, false, 0u32),
            (CertificateAuthority::LetsEncrypt, true, 0),
            (CertificateAuthority::Comodo, false, 30),
            (CertificateAuthority::Other, false, 460),
        ] {
            let c = Certificate {
                ca,
                issued: Day(issued),
                auto_renew,
            };
            let days = c.lapse_days(3, 472);
            let bits = c.lapse_bitset(3, 472);
            assert_eq!(bits.iter().collect::<Vec<_>>(), days);
            assert_eq!(bits.count() as usize, days.len());
            assert_eq!(bits.is_empty(), days.is_empty());
            for d in 0..472 {
                assert_eq!(bits.contains(Day(d)), days.contains(&Day(d)), "day {d}");
            }
        }
    }

    #[test]
    fn lapse_bitset_first_set_scans_words() {
        let c = Certificate {
            ca: CertificateAuthority::LetsEncrypt,
            issued: Day(0),
            auto_renew: false,
        };
        // lapses at 90, 183, 276, 369, 462
        let bits = c.lapse_bitset(3, 472);
        assert_eq!(bits.first_set_at_or_after(Day(0)), Some(Day(90)));
        assert_eq!(bits.first_set_at_or_after(Day(90)), Some(Day(90)));
        assert_eq!(bits.first_set_at_or_after(Day(91)), Some(Day(183)));
        assert_eq!(bits.first_set_at_or_after(Day(463)), None);
        assert_eq!(bits.first_set_at_or_after(Day(9999)), None);
        assert_eq!(LapseBitset::empty(472).first_set_at_or_after(Day(0)), None);
    }

    #[test]
    fn lapse_bitset_horizon_edges() {
        let mut b = LapseBitset::empty(65);
        b.set(Day(0));
        b.set(Day(64));
        b.set(Day(65)); // beyond horizon: ignored
        assert_eq!(b.count(), 2);
        assert!(b.contains(Day(64)));
        assert!(!b.contains(Day(65)));
        assert_eq!(b.first_set_at_or_after(Day(1)), Some(Day(64)));
    }

    #[test]
    fn ca_names() {
        assert_eq!(CertificateAuthority::LetsEncrypt.name(), "Let's Encrypt");
        assert_eq!(CertificateAuthority::ALL.len(), 6);
    }
}
