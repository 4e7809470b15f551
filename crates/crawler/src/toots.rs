//! The toot crawler: walks every reachable instance's public timeline.
//!
//! Mirrors §3's methodology: start from the seed list, skip instances that
//! are offline at crawl time, page through the timeline "iterating over the
//! entire history of toots on the instance", insert artificial delays
//! between calls, and record per-author counts. Instances that block
//! crawling (403) are recorded as not crawled — the source of the paper's
//! 62% coverage.

use crate::discovery::{Seed, SeedList};
use crate::politeness::Politeness;
use crate::retry::{fetch_with_retry, FetchResult};
use fediscope_httpwire::Client;
use fediscope_model::datasets::{TootCrawlRecord, TootsDataset};
use fediscope_model::ids::UserId;
use std::collections::HashMap;
use std::sync::Arc;
use tokio::sync::Semaphore;

/// Page size the crawler requests.
const PAGE_LIMIT: usize = 100;
/// Safety valve: maximum pages per instance (prevents a buggy server from
/// trapping the crawler; generously above anything the tests generate).
const MAX_PAGES: usize = 100_000;

/// Crawl all seeds; one worker per instance, bounded by
/// `politeness.concurrency` (the paper's 10-threads-by-7-machines pool).
pub async fn crawl_toots(
    seeds: &SeedList,
    politeness: &Politeness,
    client: &Client,
) -> TootsDataset {
    let sem = Arc::new(Semaphore::new(politeness.concurrency));
    let mut joins = Vec::with_capacity(seeds.len());
    for seed in seeds.entries() {
        let seed = seed.clone();
        let sem = sem.clone();
        let client = client.clone();
        let politeness = politeness.clone();
        joins.push(tokio::spawn(async move {
            let _permit = sem.acquire_owned().await.expect("semaphore open");
            crawl_instance(&client, &politeness, &seed).await
        }));
    }
    let mut records = Vec::with_capacity(seeds.len());
    for j in joins {
        records.push(j.await.expect("crawl task panicked"));
    }
    records.sort_by_key(|r| r.instance);
    TootsDataset { records }
}

/// Crawl a single instance's public timeline.
pub async fn crawl_instance(
    client: &Client,
    politeness: &Politeness,
    seed: &Seed,
) -> TootCrawlRecord {
    let mut record = TootCrawlRecord {
        instance: seed.instance,
        crawled: false,
        home_toots: 0,
        remote_toots: 0,
        tooting_users: 0,
        user_toots: Vec::new(),
    };
    let mut per_user: HashMap<u32, u32> = HashMap::new();
    let mut max_id: Option<u64> = None;
    let mut pages = 0usize;
    loop {
        if pages >= MAX_PAGES {
            break;
        }
        let path = match max_id {
            None => format!("/api/v1/timelines/public?local=true&limit={PAGE_LIMIT}"),
            Some(m) => {
                format!("/api/v1/timelines/public?local=true&limit={PAGE_LIMIT}&max_id={m}")
            }
        };
        let page = fetch_page(client, politeness, seed, pages as u64, &path).await;
        let Some(toots) = page else {
            // offline / blocked mid-crawl: keep whatever was gathered but
            // flag not-crawled only if nothing arrived at all
            record.crawled = pages > 0;
            break;
        };
        record.crawled = true;
        if toots.is_empty() {
            break;
        }
        pages += 1;
        for toot in &toots {
            max_id = Some(toot.id);
            if toot.remote {
                record.remote_toots += 1;
            } else {
                record.home_toots += 1;
                *per_user.entry(toot.author).or_insert(0) += 1;
            }
        }
        if politeness.per_call_delay > std::time::Duration::ZERO {
            tokio::time::sleep(politeness.per_call_delay).await;
        }
    }
    record.tooting_users = per_user.len() as u32;
    let mut user_toots: Vec<(UserId, u32)> =
        per_user.into_iter().map(|(u, c)| (UserId(u), c)).collect();
    user_toots.sort_unstable();
    record.user_toots = user_toots;
    record
}

/// A parsed timeline entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimelineToot {
    /// Toot id (pagination cursor).
    pub id: u64,
    /// Author's local user index (`u<idx>` handles).
    pub author: u32,
    /// Whether the author lives on another instance (acct contains `@`).
    pub remote: bool,
}

async fn fetch_page(
    client: &Client,
    politeness: &Politeness,
    seed: &Seed,
    page: u64,
    path: &str,
) -> Option<Vec<TimelineToot>> {
    // jitter token: instance in the high half, page number in the low half,
    // so every (instance, page) pair waits its own deterministic schedule
    let token = (u64::from(seed.instance.0) << 32) | (page & 0xffff_ffff);
    match fetch_with_retry(client, politeness, None, seed, token, path).await {
        FetchResult::Ok(resp) => parse_timeline(&resp.text()),
        FetchResult::Denied(_) => None, // 403 blocked, 503 down, …
        FetchResult::Unreachable => None,
    }
}

/// Parse a timeline page.
pub fn parse_timeline(body: &str) -> Option<Vec<TimelineToot>> {
    let v: serde_json::Value = serde_json::from_str(body).ok()?;
    let arr = v.as_array()?;
    let mut out = Vec::with_capacity(arr.len());
    for t in arr {
        let id: u64 = t["id"].as_str()?.parse().ok()?;
        let acct = t["account"]["acct"].as_str()?;
        let (handle, remote) = match acct.split_once('@') {
            Some((h, _domain)) => (h, true),
            None => (acct, false),
        };
        let author: u32 = handle.strip_prefix('u')?.parse().ok()?;
        out.push(TimelineToot { id, author, remote });
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_timeline_page() {
        let body = r#"[
            {"id": "41", "account": {"acct": "u7"}, "content": "x"},
            {"id": "40", "account": {"acct": "u9@other.test"}, "content": "y"}
        ]"#;
        let toots = parse_timeline(body).unwrap();
        assert_eq!(toots.len(), 2);
        assert_eq!(
            toots[0],
            TimelineToot {
                id: 41,
                author: 7,
                remote: false
            }
        );
        assert_eq!(
            toots[1],
            TimelineToot {
                id: 40,
                author: 9,
                remote: true
            }
        );
    }

    #[test]
    fn parse_rejects_bad_pages() {
        assert!(parse_timeline("{}").is_none());
        assert!(parse_timeline(r#"[{"id": 41}]"#).is_none());
        assert!(parse_timeline(r#"[{"id": "x", "account": {"acct": "u1"}}]"#).is_none());
    }

    #[test]
    fn empty_page_is_empty_vec() {
        assert_eq!(parse_timeline("[]"), Some(vec![]));
    }

    #[test]
    fn deeply_nested_page_is_rejected() {
        for open in ["[", r#"{"a":"#] {
            assert_eq!(parse_timeline(&open.repeat(100_000)), None, "{open}");
        }
    }
}
