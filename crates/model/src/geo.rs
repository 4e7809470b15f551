//! Countries, hosting providers (Autonomous Systems) and synthetic IP space.
//!
//! Substitutes for the paper's Maxmind lookups (§3): instead of resolving a
//! live instance's IP, every synthetic instance is allocated an address from
//! its hosting provider's block at creation, so the analysis-side mapping
//! IP → (country, AS) is exact by construction.

use crate::ids::AsId;
use serde::{Deserialize, Serialize};

/// Countries that matter to the study (Fig. 5 top-5 plus a tail bucket).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum Country {
    Japan,
    UnitedStates,
    France,
    Germany,
    Netherlands,
    UnitedKingdom,
    Canada,
    Other,
}

impl Country {
    /// All modelled countries.
    pub const ALL: [Country; 8] = [
        Country::Japan,
        Country::UnitedStates,
        Country::France,
        Country::Germany,
        Country::Netherlands,
        Country::UnitedKingdom,
        Country::Canada,
        Country::Other,
    ];

    /// ISO 3166-1 alpha-2 code ("XX" for the tail bucket).
    pub fn code(self) -> &'static str {
        match self {
            Country::Japan => "JP",
            Country::UnitedStates => "US",
            Country::France => "FR",
            Country::Germany => "DE",
            Country::Netherlands => "NL",
            Country::UnitedKingdom => "GB",
            Country::Canada => "CA",
            Country::Other => "XX",
        }
    }

    /// Full English name as used in Fig. 5.
    pub fn name(self) -> &'static str {
        match self {
            Country::Japan => "Japan",
            Country::UnitedStates => "United States",
            Country::France => "France",
            Country::Germany => "Germany",
            Country::Netherlands => "Netherlands",
            Country::UnitedKingdom => "United Kingdom",
            Country::Canada => "Canada",
            Country::Other => "Other",
        }
    }
}

/// Static facts about a hosting provider (one AS).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProviderInfo {
    /// Autonomous System number.
    pub asn: AsId,
    /// Organisation name.
    pub name: String,
    /// Country the provider's capacity is mapped to.
    pub country: Country,
    /// CAIDA AS rank (lower = larger transit footprint); `0` = unranked.
    pub caida_rank: u32,
    /// Number of peering networks (Table 1's "Peers" column).
    pub peers: u32,
    /// First address of the provider's synthetic IPv4 block.
    pub ip_base: u32,
}

impl ProviderInfo {
    /// Synthesise the IP for the `n`-th instance hosted by this provider.
    pub fn ip_for(&self, n: u32) -> u32 {
        self.ip_base.wrapping_add(n)
    }
}

/// The provider catalog: a fixed set of real-world-named ASes (the ones the
/// paper calls out) plus procedurally added tail ASes so the total reaches
/// the paper's 351.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ProviderCatalog {
    providers: Vec<ProviderInfo>,
}

/// Named providers the paper references, with Table 1 rank/peer values where
/// given. `(asn, name, country, caida_rank, peers)`.
const NAMED: &[(u32, &str, Country, u32, u32)] = &[
    // Fig. 5 top-5 by users.
    (16509, "Amazon.com, Inc.", Country::UnitedStates, 18, 432),
    (13335, "Cloudflare, Inc.", Country::UnitedStates, 112, 312),
    (9370, "SAKURA Internet Inc.", Country::Japan, 2000, 10),
    (16276, "OVH SAS", Country::France, 118, 170),
    (14061, "DigitalOcean, LLC", Country::UnitedStates, 79, 120),
    // §5.1 top-5 by instances adds these.
    (12876, "Scaleway (Online SAS)", Country::France, 250, 90),
    (24940, "Hetzner Online GmbH", Country::Germany, 140, 200),
    (7506, "GMO Internet, Inc.", Country::Japan, 600, 40),
    // Table 1 additions.
    (20473, "Choopa (Vultr)", Country::UnitedStates, 143, 150),
    (
        8075,
        "Microsoft Corporation",
        Country::UnitedStates,
        2100,
        257,
    ),
    (12322, "Free SAS", Country::France, 3200, 63),
    (2516, "KDDI Corporation", Country::Japan, 70, 123),
    (9371, "SAKURA Internet Inc. (2)", Country::Japan, 2400, 3),
    // Table 2 additions.
    (15169, "Google LLC", Country::UnitedStates, 3, 500),
    // A few well-known extras for breadth.
    (63949, "Linode, LLC", Country::UnitedStates, 210, 100),
    (51167, "Contabo GmbH", Country::Germany, 1800, 20),
    (197540, "netcup GmbH", Country::Germany, 2500, 15),
    (2519, "ARTERIA Networks", Country::Japan, 900, 30),
    (49981, "WorldStream B.V.", Country::Netherlands, 1300, 45),
    (
        60781,
        "LeaseWeb Netherlands",
        Country::Netherlands,
        220,
        150,
    ),
];

impl ProviderCatalog {
    /// Catalog containing only the named providers.
    pub fn named_only() -> Self {
        let providers = NAMED
            .iter()
            .enumerate()
            .map(|(i, &(asn, name, country, rank, peers))| ProviderInfo {
                asn: AsId(asn),
                name: name.to_string(),
                country,
                caida_rank: rank,
                peers,
                // Give each provider a disjoint /16: 10.0.0.0 + i << 16.
                ip_base: 0x0a00_0000 + ((i as u32) << 16),
            })
            .collect();
        Self { providers }
    }

    /// Catalog with `total` providers: the named ones plus procedurally
    /// generated tail ASes spread over countries round-robin. The paper
    /// observes 351 ASes hosting instances.
    pub fn with_tail(total: usize) -> Self {
        let mut cat = Self::named_only();
        let tail_countries = [
            Country::Japan,
            Country::UnitedStates,
            Country::France,
            Country::Germany,
            Country::Netherlands,
            Country::UnitedKingdom,
            Country::Canada,
            Country::Other,
        ];
        let mut i = 0usize;
        while cat.providers.len() < total {
            let asn = 64_512 + i as u32; // private-use ASN range
            let country = tail_countries[i % tail_countries.len()];
            let idx = cat.providers.len() as u32;
            cat.providers.push(ProviderInfo {
                asn: AsId(asn),
                name: format!("Tail Hosting {asn}"),
                country,
                caida_rank: 5_000 + i as u32,
                peers: 2 + (i % 13) as u32,
                ip_base: 0x0a00_0000 + (idx << 16),
            });
            i += 1;
        }
        cat
    }

    /// All providers, index-addressable.
    pub fn providers(&self) -> &[ProviderInfo] {
        &self.providers
    }

    /// Number of providers.
    pub fn len(&self) -> usize {
        self.providers.len()
    }

    /// Whether the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.providers.is_empty()
    }

    /// Look up by ASN.
    pub fn by_asn(&self, asn: AsId) -> Option<&ProviderInfo> {
        self.providers.iter().find(|p| p.asn == asn)
    }

    /// Provider by dense index.
    pub fn get(&self, idx: usize) -> &ProviderInfo {
        &self.providers[idx]
    }

    /// Dense index of a named provider (for calibration code).
    pub fn index_of_name(&self, name_prefix: &str) -> Option<usize> {
        self.providers
            .iter()
            .position(|p| p.name.starts_with(name_prefix))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn named_catalog_contains_paper_ases() {
        let cat = ProviderCatalog::named_only();
        for asn in [9370, 20473, 8075, 12322, 2516, 9371] {
            assert!(
                cat.by_asn(AsId(asn)).is_some(),
                "Table 1 AS{asn} missing from catalog"
            );
        }
        // Fig. 5 names.
        assert!(cat.index_of_name("Amazon").is_some());
        assert!(cat.index_of_name("Cloudflare").is_some());
        assert!(cat.index_of_name("OVH").is_some());
        assert!(cat.index_of_name("DigitalOcean").is_some());
        assert!(cat.index_of_name("SAKURA").is_some());
    }

    #[test]
    fn tail_reaches_requested_total() {
        let cat = ProviderCatalog::with_tail(351);
        assert_eq!(cat.len(), 351);
        // All ASNs unique.
        let mut asns: Vec<u32> = cat.providers().iter().map(|p| p.asn.0).collect();
        asns.sort_unstable();
        asns.dedup();
        assert_eq!(asns.len(), 351);
    }

    #[test]
    fn ip_blocks_disjoint() {
        let cat = ProviderCatalog::with_tail(100);
        let mut bases: Vec<u32> = cat.providers().iter().map(|p| p.ip_base).collect();
        bases.sort_unstable();
        for w in bases.windows(2) {
            assert!(w[1] - w[0] >= 1 << 16, "blocks overlap");
        }
    }

    #[test]
    fn provider_ip_for_offsets_within_block() {
        let cat = ProviderCatalog::named_only();
        let p = cat.get(0);
        assert_eq!(p.ip_for(0), p.ip_base);
        assert_eq!(p.ip_for(7), p.ip_base + 7);
    }

    #[test]
    fn country_codes_and_names() {
        assert_eq!(Country::Japan.code(), "JP");
        assert_eq!(Country::Netherlands.name(), "Netherlands");
        assert_eq!(Country::ALL.len(), 8);
    }

    #[test]
    fn with_tail_smaller_than_named_keeps_named() {
        let cat = ProviderCatalog::with_tail(3);
        // never truncates the named set
        assert!(cat.len() >= NAMED.len());
    }
}
