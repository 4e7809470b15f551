//! The instance record: one row per Mastodon/Pleroma server.

use crate::certs::Certificate;
use crate::geo::Country;
use crate::ids::{AsId, InstanceId};
use crate::taxonomy::{CategorySet, PolicySet};
use crate::time::Day;
use serde::{Deserialize, Serialize};

/// Server software. Since 2017 Mastodon and Pleroma federate over the same
/// protocol, so "from a user's perspective, there is little difference"
/// (§3); the paper's population is 96.9% Mastodon / 3.1% Pleroma.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum Software {
    Mastodon,
    Pleroma,
}

impl Software {
    /// Version string reported by the instance API.
    pub fn version_string(self) -> &'static str {
        match self {
            Software::Mastodon => "2.4.0",
            Software::Pleroma => "0.9.9 (compat 2.2.0)",
        }
    }
}

/// Registration policy (§4.1): open lets anybody sign up; closed requires an
/// administrator invitation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum Registration {
    Open,
    Closed,
}

/// Who runs the instance (Table 2's "Run by" column).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum OperatorKind {
    Individual,
    Company,
    CrowdFunded,
    Unknown,
}

/// Ground-truth record of one instance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Instance {
    /// Dense identifier.
    pub id: InstanceId,
    /// Domain name, e.g. `mstdn-0042.example`.
    pub domain: String,
    /// Server software.
    pub software: Software,
    /// Registration policy.
    pub registration: Registration,
    /// Whether the instance self-declares a category at all (the paper's
    /// 697-instance subset). A declaring instance with an empty
    /// [`CategorySet`] corresponds to the "generic" label (51.7% of the
    /// categorised population).
    pub declares_categories: bool,
    /// Self-declared categories (empty for undeclared instances *and* for
    /// "generic" ones; check [`Instance::declares_categories`]).
    pub categories: CategorySet,
    /// Explicit allowed/prohibited activities (meaningful only for
    /// categorised instances, mirroring the paper's §4.2 subset).
    pub policies: PolicySet,
    /// Hosting country (via the provider).
    pub country: Country,
    /// Hosting AS.
    pub asn: AsId,
    /// Dense index of the provider in the catalog.
    pub provider_index: u32,
    /// Synthetic IPv4 address.
    pub ip: u32,
    /// TLS certificate in effect.
    pub certificate: Certificate,
    /// Day the instance came online.
    pub created: Day,
    /// Who operates it.
    pub operator: OperatorKind,
    /// Total registered accounts at crawl time (ground truth).
    pub user_count: u32,
    /// Total *local* toots ever posted on this instance at crawl time.
    pub toot_count: u64,
    /// Boosted (re-shared) toots among them.
    pub boosted_toots: u64,
    /// Maximum weekly active-user percentage (Fig. 2c), in `[0, 100]`.
    pub active_user_pct: f64,
    /// Whether the instance permits API crawling of its toots. The paper
    /// could only gather 62% of toots; the rest were private (~20% of the
    /// missing) or hosted on instances that blocked crawling.
    pub crawl_allowed: bool,
    /// Fraction of this instance's toots marked private.
    pub private_toot_frac: f64,
}

impl Instance {
    /// Is registration open?
    pub fn is_open(&self) -> bool {
        self.registration == Registration::Open
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::certs::CertificateAuthority;

    fn demo() -> Instance {
        Instance {
            id: InstanceId(0),
            domain: "demo.example".into(),
            software: Software::Mastodon,
            registration: Registration::Open,
            declares_categories: false,
            categories: CategorySet::empty(),
            policies: PolicySet::unstated(),
            country: Country::Japan,
            asn: AsId(9370),
            provider_index: 0,
            ip: 0x0a00_0001,
            certificate: Certificate {
                ca: CertificateAuthority::LetsEncrypt,
                issued: Day(0),
                auto_renew: true,
            },
            created: Day(0),
            operator: OperatorKind::Individual,
            user_count: 100,
            toot_count: 1000,
            boosted_toots: 100,
            active_user_pct: 50.0,
            crawl_allowed: true,
            private_toot_frac: 0.2,
        }
    }

    #[test]
    fn open_check() {
        let mut i = demo();
        assert!(i.is_open());
        i.registration = Registration::Closed;
        assert!(!i.is_open());
    }

    #[test]
    fn software_versions() {
        assert!(Software::Mastodon.version_string().starts_with('2'));
        assert!(Software::Pleroma.version_string().contains("compat"));
    }

    #[test]
    fn serde_round_trip() {
        let i = demo();
        let json = serde_json::to_string(&i).unwrap();
        let back: Instance = serde_json::from_str(&json).unwrap();
        assert_eq!(back, i);
    }
}
