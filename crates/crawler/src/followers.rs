//! The follower scraper: builds the *Graphs* dataset.
//!
//! §3: "we scraped the follower relationships for the 239K users we
//! encountered who have tooted at least once … simply paging through their
//! follower list. This provided us with the ego networks for each user."
//! The induced graph therefore contains every *scraped* user plus every
//! account observed following them (853K accounts vs 239K scraped).

use crate::discovery::{Seed, SeedList};
use crate::politeness::Politeness;
use crate::retry::{fetch_with_retry, FetchResult};
use fediscope_httpwire::Client;
use fediscope_model::datasets::GraphDataset;
use fediscope_model::ids::{InstanceId, UserId};
use std::collections::HashMap;
use std::sync::Arc;
use tokio::sync::Semaphore;

/// Scrape the follower lists of `targets` (user id + home instance pairs,
/// typically the tooting users discovered by the toot crawl).
pub async fn scrape_followers(
    seeds: &SeedList,
    targets: &[(UserId, InstanceId)],
    politeness: &Politeness,
    client: &Client,
) -> GraphDataset {
    let by_instance: HashMap<InstanceId, Seed> = seeds
        .entries()
        .iter()
        .map(|s| (s.instance, s.clone()))
        .collect();
    let sem = Arc::new(Semaphore::new(politeness.concurrency));
    let mut joins = Vec::with_capacity(targets.len());
    for &(user, instance) in targets {
        let Some(seed) = by_instance.get(&instance).cloned() else {
            continue;
        };
        let sem = sem.clone();
        let client = client.clone();
        let politeness = politeness.clone();
        joins.push(tokio::spawn(async move {
            let _permit = sem.acquire_owned().await.expect("semaphore open");
            let followers = scrape_user(&client, &politeness, &seed, user).await;
            (user, followers)
        }));
    }
    let mut dataset = GraphDataset::default();
    for j in joins {
        let (user, followers) = j.await.expect("scrape task panicked");
        dataset.accounts.push(user);
        for f in followers {
            dataset.accounts.push(f);
            dataset.follows.push((f, user));
        }
    }
    dataset.normalise();
    dataset
}

/// GET through the shared retry engine ([`crate::retry`]); `None` when the
/// resource is unreachable or persistently failing.
async fn get_with_retry(
    client: &Client,
    politeness: &Politeness,
    seed: &Seed,
    user: UserId,
    page: u64,
    path: &str,
) -> Option<String> {
    let token = (u64::from(user.0) << 24) ^ page;
    match fetch_with_retry(client, politeness, None, seed, token, path).await {
        FetchResult::Ok(resp) => Some(resp.text()),
        FetchResult::Denied(_) | FetchResult::Unreachable => None,
    }
}

/// Page through one user's follower list; returns follower user ids
/// (partial on mid-scrape failure, like the real scraper).
pub async fn scrape_user(
    client: &Client,
    politeness: &Politeness,
    seed: &Seed,
    user: UserId,
) -> Vec<UserId> {
    let mut out = Vec::new();
    let mut page = 1u64;
    loop {
        let path = format!("/users/u{}/followers?page={page}", user.0);
        let Some(body) = get_with_retry(client, politeness, seed, user, page, &path).await else {
            return out;
        };
        let Some((items, next)) = parse_followers_page(&body) else {
            return out;
        };
        out.extend(items);
        if politeness.per_call_delay > std::time::Duration::ZERO {
            tokio::time::sleep(politeness.per_call_delay).await;
        }
        // Only forward: a `next` at or behind this page would loop forever.
        match next {
            Some(n) if n > page => page = n,
            _ => break,
        }
    }
    out
}

/// Parse one follower page: returns `(follower ids, next page)`.
pub fn parse_followers_page(body: &str) -> Option<(Vec<UserId>, Option<u64>)> {
    let v: serde_json::Value = serde_json::from_str(body).ok()?;
    let items = v["items"].as_array()?;
    let mut out = Vec::with_capacity(items.len());
    for item in items {
        let addr = item.as_str()?;
        let handle = match addr.split_once('@') {
            Some((h, _domain)) => h,
            None => addr,
        };
        let id: u32 = handle.strip_prefix('u')?.parse().ok()?;
        out.push(UserId(id));
    }
    Some((out, v["next"].as_u64()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_page_with_next() {
        let body = r#"{"items": ["u3", "u8@other.test"], "next": 2, "totalItems": 90}"#;
        let (items, next) = parse_followers_page(body).unwrap();
        assert_eq!(items, vec![UserId(3), UserId(8)]);
        assert_eq!(next, Some(2));
    }

    #[test]
    fn parse_last_page() {
        let body = r#"{"items": [], "next": null, "totalItems": 0}"#;
        let (items, next) = parse_followers_page(body).unwrap();
        assert!(items.is_empty());
        assert_eq!(next, None);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse_followers_page("[]").is_none());
        assert!(parse_followers_page(r#"{"items": [7]}"#).is_none());
        assert!(parse_followers_page(r#"{"items": ["x3"]}"#).is_none());
    }

    /// A server whose `next` points back at the first page three times
    /// before it ends the list: the scrape takes one page and stops.
    #[tokio::test]
    async fn backward_next_ends_the_scrape() {
        use fediscope_httpwire::{Response, Server};
        use std::sync::atomic::{AtomicUsize, Ordering};
        let served = Arc::new(AtomicUsize::new(0));
        let counter = served.clone();
        let server = Server::new(move |_req| {
            let looping = counter.fetch_add(1, Ordering::SeqCst) < 3;
            let next = if looping { "1" } else { "null" };
            async move { Response::json(format!(r#"{{"items":["u1"],"next":{next}}}"#)) }
        });
        let handle = server.bind("127.0.0.1:0").await.unwrap();
        let seed = Seed {
            instance: InstanceId(0),
            domain: "loop.test".into(),
            addr: handle.addr(),
        };
        let got = scrape_user(&Client::default(), &Politeness::fast(), &seed, UserId(7)).await;
        assert_eq!(got, vec![UserId(1)]);
        assert_eq!(served.load(Ordering::SeqCst), 1);
        handle.shutdown().await;
    }
}
