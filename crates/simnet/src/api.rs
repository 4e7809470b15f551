//! The Mastodon-compatible HTTP API served by every simulated instance.
//!
//! Endpoints (the subset the study's measurement used, §3):
//! - `GET /api/v1/instance` — the metadata mnm.social polled every 5 min,
//! - `GET /api/v1/timelines/public?local=true&max_id=&limit=` — the paged
//!   timeline the toot crawler walks,
//! - `GET /users/:name/followers?page=` — the follower lists the graph
//!   scraper walks,
//! - `GET /users/:name` — ActivityPub actor document,
//! - `GET /.well-known/webfinger?resource=acct:…` — account resolution,
//! - `POST /users/:name/inbox` — ActivityPub delivery (Follow is answered
//!   with an in-process Accept back to the origin instance).
//!
//! Cross-cutting behaviour: unknown `Host` → 404; instance down at the
//! current virtual epoch → 503; fault injection may turn any request into a
//! delayed response or a transient 500; per-epoch rate limits yield 429;
//! instances that block crawling answer 403 on the timeline endpoint.
//!
//! Simplification (documented): the `local=false` federated view pages the
//! same local sequence; the *remote replica volume* that the real federated
//! timeline would add is exposed as `fediscope_remote_toots` in the instance
//! metadata (Fig. 14 consumes aggregate counts, not individual replicas).

use crate::fault::FaultDecision;
use crate::state::SimState;
use fediscope_activitypub::actor::{parse_actor_id, Actor};
use fediscope_activitypub::webfinger::{parse_resource, WebFingerDoc};
use fediscope_activitypub::Activity;
use fediscope_httpwire::{Method, Request, Response, StatusCode};
use fediscope_model::ids::InstanceId;
use serde_json::json;
use std::sync::Arc;

/// Default and maximum page sizes (Mastodon uses 20/40; we allow more for
/// faster tests).
const DEFAULT_LIMIT: usize = 40;
const MAX_LIMIT: usize = 200;
/// Follower-list page size (the HTML pages the paper scraped held 40).
const FOLLOWER_PAGE: usize = 40;

/// Handle one request against the simulated fediverse.
pub async fn handle(state: Arc<SimState>, req: Request) -> Response {
    // Virtual-host resolution.
    let Some(host) = req.host().map(str::to_string) else {
        return Response::status(StatusCode::BAD_REQUEST);
    };
    let Some(instance) = state.instance_by_domain(&host) else {
        return Response::status(StatusCode::NOT_FOUND);
    };

    // Fault injection runs *before* the availability check: the network
    // path (load balancer, rate limiter, dying box) fails you before the
    // application gets a say. A dead instance resets even while its
    // schedule says "up".
    match state.faults.decide_for(instance.0) {
        FaultDecision::Pass => {}
        FaultDecision::Delay(d) => tokio::time::sleep(d).await,
        FaultDecision::ServerError => return Response::status(StatusCode::INTERNAL_SERVER_ERROR),
        FaultDecision::RateLimited => return rate_limited(),
        FaultDecision::Reset => return Response::hangup(),
    }
    if !state.consume_budget(instance) {
        return rate_limited();
    }

    // Availability at virtual time.
    if !state.is_up(instance) {
        return Response::status(StatusCode::SERVICE_UNAVAILABLE);
    }

    route(state, instance, &host, req).await
}

/// A 429 carrying the `retry-after` hint real Mastodon rate limiters send.
fn rate_limited() -> Response {
    Response::status(StatusCode::TOO_MANY_REQUESTS).with_header("retry-after", "1")
}

async fn route(state: Arc<SimState>, instance: InstanceId, host: &str, req: Request) -> Response {
    let path = req.path.trim_end_matches('/');
    match (req.method, path) {
        (Method::Get, "/api/v1/instance") => {
            Response::json(state.instance_documents()[instance.index()].clone())
        }
        (Method::Get, "/api/v1/timelines/public") => timeline(&state, instance, &req),
        (Method::Get, "/.well-known/webfinger") => webfinger(&state, instance, host, &req),
        (Method::Get, p) => {
            let segs: Vec<&str> = p.split('/').filter(|s| !s.is_empty()).collect();
            match segs.as_slice() {
                ["users", name] => actor_doc(&state, instance, host, name),
                ["users", name, "followers"] => followers(&state, instance, host, name, &req),
                _ => Response::status(StatusCode::NOT_FOUND),
            }
        }
        (Method::Post, p) => {
            let segs: Vec<&str> = p.split('/').filter(|s| !s.is_empty()).collect();
            match segs.as_slice() {
                ["users", name, "inbox"] => inbox(&state, instance, name, &req),
                _ => Response::status(StatusCode::NOT_FOUND),
            }
        }
        _ => Response::status(StatusCode::NOT_FOUND),
    }
}

/// Resolve a local handle (`u<id>`) to a user index on this instance.
fn resolve_user(state: &SimState, instance: InstanceId, name: &str) -> Option<usize> {
    let idx: usize = name.strip_prefix('u')?.parse().ok()?;
    let user = state.world.users.get(idx)?;
    (user.instance == instance).then_some(idx)
}

fn timeline(state: &SimState, instance: InstanceId, req: &Request) -> Response {
    let inst = &state.world.instances[instance.index()];
    if !inst.crawl_allowed {
        return Response::status(StatusCode::FORBIDDEN);
    }
    let limit = req
        .query_param("limit")
        .and_then(|l| l.parse::<usize>().ok())
        .unwrap_or(DEFAULT_LIMIT)
        .clamp(1, MAX_LIMIT);
    let max_id = req
        .query_param("max_id")
        .and_then(|m| m.parse::<u64>().ok())
        .unwrap_or(u64::MAX);
    let tl = state.timeline(instance);
    let toots: Vec<serde_json::Value> = tl
        .page(max_id, limit)
        .into_iter()
        .map(|id| {
            let author = tl.author_of(id).expect("page ids are valid");
            json!({
                "id": id.to_string(),
                "account": {
                    "username": format!("u{author}"),
                    "acct": format!("u{author}"), // local author: bare handle
                },
                "content": "<p>…</p>", // content withheld (ethics, §3)
                "favourites_count": 0,
                "reblog": null,
            })
        })
        .collect();
    Response::json(serde_json::Value::Array(toots).to_string())
}

fn webfinger(state: &SimState, instance: InstanceId, host: &str, req: &Request) -> Response {
    let Some(resource) = req.query_param("resource") else {
        return Response::status(StatusCode::BAD_REQUEST);
    };
    let Some((handle, domain)) = parse_resource(resource) else {
        return Response::status(StatusCode::BAD_REQUEST);
    };
    if domain != host || resolve_user(state, instance, &handle).is_none() {
        return Response::status(StatusCode::NOT_FOUND);
    }
    let doc = WebFingerDoc::for_account(&handle, host);
    Response::json(serde_json::to_string(&doc).expect("webfinger serialises"))
}

fn actor_doc(state: &SimState, instance: InstanceId, host: &str, name: &str) -> Response {
    if resolve_user(state, instance, name).is_none() {
        return Response::status(StatusCode::NOT_FOUND);
    }
    let actor = Actor::person(name, host);
    Response::json(serde_json::to_string(&actor).expect("actor serialises"))
}

fn followers(
    state: &SimState,
    instance: InstanceId,
    host: &str,
    name: &str,
    req: &Request,
) -> Response {
    let Some(user_idx) = resolve_user(state, instance, name) else {
        return Response::status(StatusCode::NOT_FOUND);
    };
    let page: usize = req
        .query_param("page")
        .and_then(|p| p.parse().ok())
        .unwrap_or(1)
        .max(1);
    let all = state.followers_of().row(user_idx);
    // The page number comes off the wire: saturate, so a huge page lands
    // past the end (an empty last page) instead of overflowing, and form
    // `page + 1` only when there is a next page.
    let start = (page - 1).saturating_mul(FOLLOWER_PAGE);
    let items: Vec<String> = all
        .iter()
        .skip(start)
        .take(FOLLOWER_PAGE)
        .map(|&f| {
            let finst = state.world.users[f as usize].instance;
            if finst == instance {
                format!("u{f}")
            } else {
                format!("u{f}@{}", state.world.instances[finst.index()].domain)
            }
        })
        .collect();
    let next = (start.saturating_add(FOLLOWER_PAGE) < all.len()).then(|| page + 1);
    let body = json!({
        "partOf": format!("https://{host}/users/{name}/followers"),
        "totalItems": all.len(),
        "items": items,
        "next": next,
    });
    Response::json(body.to_string())
}

fn inbox(state: &SimState, instance: InstanceId, name: &str, req: &Request) -> Response {
    if resolve_user(state, instance, name).is_none() {
        return Response::status(StatusCode::NOT_FOUND);
    }
    let Ok(value) = serde_json::from_slice::<serde_json::Value>(&req.body) else {
        return Response::status(StatusCode::BAD_REQUEST);
    };
    let Ok(activity) = Activity::from_json(&value) else {
        return Response::status(StatusCode::BAD_REQUEST);
    };
    // Record receipt.
    state.deliver(instance, activity.clone());
    // Follow requests are auto-accepted back to the origin instance.
    if let Activity::Follow { id, actor, object } = &activity {
        if let Some((_, origin_domain)) = parse_actor_id(actor) {
            if let Some(origin) = state.instance_by_domain(&origin_domain) {
                state.deliver(
                    origin,
                    Activity::Accept {
                        id: format!("{object}#accept-{}", id.len()),
                        actor: object.clone(),
                        object: id.clone(),
                    },
                );
            }
        }
    }
    Response {
        status: StatusCode(202),
        headers: vec![("content-type".into(), "application/json".into())],
        body: bytes::Bytes::from_static(b"{}"),
        hangup: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use fediscope_worldgen::{Generator, WorldConfig};
    use std::sync::Arc;

    pub(super) fn state() -> Arc<SimState> {
        let mut cfg = WorldConfig::tiny(33);
        cfg.n_instances = 12;
        cfg.n_users = 300;
        // make everything reliably up for routing tests
        cfg.churn_frac = 0.0;
        let mut world = Generator::generate_world(cfg);
        for s in &mut world.schedules {
            *s = fediscope_model::schedule::AvailabilitySchedule::always_up();
        }
        SimState::new(Arc::new(world), FaultPlan::default(), 7)
    }

    fn get(state: &Arc<SimState>, host: &str, path: &str) -> Response {
        let rt = tokio::runtime::Builder::new_current_thread()
            .enable_time()
            .build()
            .unwrap();
        rt.block_on(handle(state.clone(), Request::get(host, path)))
    }

    #[test]
    fn unknown_host_404() {
        let s = state();
        let resp = get(&s, "nope.example", "/api/v1/instance");
        assert_eq!(resp.status, StatusCode::NOT_FOUND);
    }

    #[test]
    fn instance_info_payload() {
        let s = state();
        let inst = &s.world.instances[0];
        let resp = get(&s, &inst.domain, "/api/v1/instance");
        assert_eq!(resp.status, StatusCode::OK);
        let v: serde_json::Value = serde_json::from_str(&resp.text()).unwrap();
        assert_eq!(v["uri"].as_str().unwrap(), inst.domain);
        assert_eq!(
            v["stats"]["user_count"].as_u64().unwrap(),
            inst.user_count as u64
        );
        assert_eq!(
            v["stats"]["status_count"].as_u64().unwrap(),
            inst.toot_count
        );
        assert_eq!(v["registrations"].as_bool().unwrap(), inst.is_open());
    }

    #[test]
    fn served_instance_documents_equal_fresh_renders() {
        let s = state();
        for inst in &s.world.instances {
            let resp = get(&s, &inst.domain, "/api/v1/instance");
            assert_eq!(resp.status, StatusCode::OK);
            assert_eq!(
                resp.body,
                s.render_instance_document(inst.id),
                "{}",
                inst.domain
            );
        }
    }

    #[test]
    fn up_instance_serves_identical_bytes_across_epochs() {
        let s = state();
        let domain = s.world.instances[3].domain.clone();
        s.clock.set(fediscope_model::time::Epoch(0));
        let early = get(&s, &domain, "/api/v1/instance");
        s.clock.set(fediscope_model::time::Epoch(100_000));
        let late = get(&s, &domain, "/api/v1/instance");
        assert_eq!(early.status, StatusCode::OK);
        assert_eq!(late.status, StatusCode::OK);
        assert_eq!(early.body, late.body);
    }

    #[test]
    fn down_instance_returns_503() {
        let s = state();
        // inject an outage manually through a bespoke state
        let mut cfg = WorldConfig::tiny(34);
        cfg.n_instances = 4;
        cfg.n_users = 40;
        let mut world = Generator::generate_world(cfg);
        for sch in &mut world.schedules {
            *sch = fediscope_model::schedule::AvailabilitySchedule::always_up();
        }
        world.schedules[0].add_outage(
            fediscope_model::time::Epoch(0),
            fediscope_model::time::Epoch(10),
            fediscope_model::schedule::OutageCause::Organic,
        );
        let domain = world.instances[0].domain.clone();
        let s2 = SimState::new(Arc::new(world), FaultPlan::default(), 1);
        let resp = get(&s2, &domain, "/api/v1/instance");
        assert_eq!(resp.status, StatusCode::SERVICE_UNAVAILABLE);
        s2.clock.set(fediscope_model::time::Epoch(10));
        let resp = get(&s2, &domain, "/api/v1/instance");
        assert_eq!(resp.status, StatusCode::OK);
        drop(s);
    }

    #[test]
    fn timeline_pages_and_dedupes() {
        let s = state();
        let inst = s
            .world
            .instances
            .iter()
            .find(|i| i.crawl_allowed && s.timeline(i.id).total_public > 10)
            .expect("crawlable instance");
        let mut seen = std::collections::HashSet::new();
        let mut max_id = u64::MAX;
        loop {
            let path = if max_id == u64::MAX {
                "/api/v1/timelines/public?local=true&limit=7".to_string()
            } else {
                format!("/api/v1/timelines/public?local=true&limit=7&max_id={max_id}")
            };
            let resp = get(&s, &inst.domain, &path);
            assert_eq!(resp.status, StatusCode::OK);
            let toots: Vec<serde_json::Value> = serde_json::from_str(&resp.text()).unwrap();
            if toots.is_empty() {
                break;
            }
            for t in &toots {
                let id: u64 = t["id"].as_str().unwrap().parse().unwrap();
                assert!(seen.insert(id), "duplicate toot id {id}");
                max_id = id;
            }
        }
        assert_eq!(seen.len() as u64, s.timeline(inst.id).total_public);
    }

    #[test]
    fn blocked_instance_forbids_crawl() {
        let s = state();
        if let Some(inst) = s.world.instances.iter().find(|i| !i.crawl_allowed) {
            let resp = get(&s, &inst.domain, "/api/v1/timelines/public");
            assert_eq!(resp.status, StatusCode::FORBIDDEN);
            // but the instance API still answers
            let resp = get(&s, &inst.domain, "/api/v1/instance");
            assert_eq!(resp.status, StatusCode::OK);
        }
    }

    #[test]
    fn followers_paging_complete() {
        let s = state();
        let rev = s.followers_of();
        let (uidx, total) = (0..rev.n_rows())
            .map(|u| (u, rev.row(u).len()))
            .max_by_key(|&(_, len)| len)
            .unwrap();
        assert!(total > 0);
        let inst = s.world.users[uidx].instance;
        let domain = s.world.instances[inst.index()].domain.clone();
        let mut got = Vec::new();
        let mut page = 1usize;
        loop {
            let resp = get(
                &s,
                &domain,
                &format!("/users/u{uidx}/followers?page={page}"),
            );
            assert_eq!(resp.status, StatusCode::OK);
            let v: serde_json::Value = serde_json::from_str(&resp.text()).unwrap();
            assert_eq!(v["totalItems"].as_u64().unwrap() as usize, total);
            for item in v["items"].as_array().unwrap() {
                got.push(item.as_str().unwrap().to_string());
            }
            match v["next"].as_u64() {
                Some(n) => page = n as usize,
                None => break,
            }
        }
        assert_eq!(got.len(), total);
        // Past the last page, however far: an empty page with no next. From
        // page `usize::MAX / 40 + 1` the page's end overflows, one further
        // its start does too.
        for past in [page + 1, usize::MAX / FOLLOWER_PAGE + 1, usize::MAX] {
            let path = format!("/users/u{uidx}/followers?page={past}");
            let resp = get(&s, &domain, &path);
            assert_eq!(resp.status, StatusCode::OK, "page {past}");
            let v: serde_json::Value = serde_json::from_str(&resp.text()).unwrap();
            assert_eq!(v["items"].as_array().map(Vec::len), Some(0), "page {past}");
            assert!(v["next"].is_null(), "page {past}");
        }
    }

    #[test]
    fn webfinger_resolves_local_accounts() {
        let s = state();
        let u = &s.world.users[0];
        let domain = s.world.instances[u.instance.index()].domain.clone();
        let resp = get(
            &s,
            &domain,
            &format!("/.well-known/webfinger?resource=acct:u0@{domain}"),
        );
        assert_eq!(resp.status, StatusCode::OK);
        let doc: fediscope_activitypub::WebFingerDoc = serde_json::from_str(&resp.text()).unwrap();
        assert_eq!(
            doc.actor_url().unwrap(),
            format!("https://{domain}/users/u0")
        );
        // wrong domain → 404
        let other = s
            .world
            .instances
            .iter()
            .find(|i| i.id != u.instance)
            .unwrap();
        let resp = get(
            &s,
            &other.domain,
            &format!("/.well-known/webfinger?resource=acct:u0@{domain}"),
        );
        assert_eq!(resp.status, StatusCode::NOT_FOUND);
    }

    #[test]
    fn follow_inbox_round_trip() {
        let s = state();
        // pick a cross-instance follow edge
        let &(a, b) = s
            .world
            .follows
            .iter()
            .find(|&&(a, b)| s.world.instance_of(a) != s.world.instance_of(b))
            .expect("cross-instance edge");
        let a_dom = s.world.instances[s.world.instance_of(a).index()]
            .domain
            .clone();
        let b_dom = s.world.instances[s.world.instance_of(b).index()]
            .domain
            .clone();
        let follow = Activity::Follow {
            id: format!("https://{a_dom}/act/1"),
            actor: format!("https://{a_dom}/users/u{}", a.0),
            object: format!("https://{b_dom}/users/u{}", b.0),
        };
        let rt = tokio::runtime::Builder::new_current_thread()
            .enable_time()
            .build()
            .unwrap();
        let mut req = Request::get(&b_dom, &format!("/users/u{}/inbox", b.0));
        req.method = Method::Post;
        req.body = bytes::Bytes::from(follow.to_json().to_string());
        let resp = rt.block_on(handle(s.clone(), req));
        assert_eq!(resp.status.0, 202);
        // followee's instance recorded the Follow
        let b_inst = s.world.instance_of(b);
        let received = s.drain_inbox(b_inst);
        assert!(matches!(received[0], Activity::Follow { .. }));
        // origin instance got the Accept
        let a_inst = s.world.instance_of(a);
        let accepts = s.drain_inbox(a_inst);
        assert!(accepts.iter().any(|x| matches!(x, Activity::Accept { .. })));
    }

    #[test]
    fn unknown_user_paths_404() {
        let s = state();
        let domain = s.world.instances[0].domain.clone();
        assert_eq!(
            get(&s, &domain, "/users/u999999").status,
            StatusCode::NOT_FOUND
        );
        assert_eq!(
            get(&s, &domain, "/users/notahandle/followers").status,
            StatusCode::NOT_FOUND
        );
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;
    use serde_json::Value;

    fn status(state: &Arc<SimState>, req: Request) -> u16 {
        let rt = tokio::runtime::Builder::new_current_thread()
            .enable_time()
            .build()
            .unwrap();
        rt.block_on(handle(state.clone(), req)).status.0
    }

    /// Splices: values of the wrong JSON type, numbers past `u64` and
    /// `f64`, and fragments that leave the document unbalanced.
    const TOKENS: [&str; 12] = [
        "18446744073709551616",
        "-9223372036854775809",
        "1e400",
        "[]",
        "{}",
        "null",
        "true",
        "\"\\ud800\"",
        "\"",
        "[",
        "{\"type\":",
        ",",
    ];

    /// Whole member values of the wrong type.
    fn wrong_value(k: usize) -> Value {
        match k % 6 {
            0 => Value::from(u64::MAX),
            1 => Value::from(-1i64),
            2 => Value::from(1.5f64),
            3 => Value::Array(vec![Value::Null]),
            4 => Value::Bool(false),
            _ => Value::Null,
        }
    }

    /// One edit of an inbox body: cut it, swap two bytes, write a byte
    /// that is never valid UTF-8, splice in a token, or give one member
    /// of the parsed object a value of the wrong type.
    fn mutate(body: &mut Vec<u8>, op: u8, at: usize, x: u64) {
        let len = body.len();
        match op % 5 {
            0 => body.truncate(at % (len + 1)),
            1 if len > 0 => body.swap(at % len, x as usize % len),
            2 if len > 0 => body[at % len] = 0xF8 | (x as u8 & 0x07),
            3 => {
                let token = TOKENS[x as usize % TOKENS.len()].as_bytes();
                let at = at % (len + 1);
                body.splice(at..at, token.iter().copied());
            }
            4 => {
                if let Ok(Value::Object(mut map)) = serde_json::from_slice::<Value>(body) {
                    let keys: Vec<String> = map.iter().map(|(k, _)| k.clone()).collect();
                    if !keys.is_empty() {
                        map.insert(keys[at % keys.len()].clone(), wrong_value(x as usize));
                        *body = Value::Object(map).to_string().into_bytes();
                    }
                }
            }
            _ => {}
        }
    }

    /// Pieces of `resource=` values: the account form's own parts,
    /// percent escapes, query syntax and characters outside ASCII.
    const PARTS: [&str; 14] = [
        "acct:",
        "@",
        "u",
        "0",
        "%",
        "%FF",
        "%4",
        "+",
        "&",
        "=",
        "#",
        "/",
        "é",
        "\u{10FFFF}",
    ];

    proptest! {
        /// Every edited inbox delivery and every `resource=` value gets a
        /// 2xx or 4xx answer: the handler, the vendored JSON parser and
        /// the ActivityPub and WebFinger parsers never panic on them.
        #[test]
        fn edited_requests_never_panic(
            ops in proptest::collection::vec((any::<u8>(), any::<usize>(), any::<u64>()), 1..12),
            resource in proptest::collection::vec(any::<u32>(), 0..24),
        ) {
            let s = super::tests::state();
            let answered = |code: u16| (200..300).contains(&code) || (400..500).contains(&code);

            let &(a, b) = s
                .world
                .follows
                .iter()
                .find(|&&(a, b)| s.world.instance_of(a) != s.world.instance_of(b))
                .expect("cross-instance edge");
            let domain = |u: fediscope_model::ids::UserId| {
                s.world.instances[s.world.instance_of(u).index()].domain.clone()
            };
            let (a_dom, b_dom) = (domain(a), domain(b));
            let follow = Activity::Follow {
                id: format!("https://{a_dom}/act/1"),
                actor: format!("https://{a_dom}/users/u{}", a.0),
                object: format!("https://{b_dom}/users/u{}", b.0),
            };
            let mut body = follow.to_json().to_string().into_bytes();
            for &(op, at, x) in &ops {
                mutate(&mut body, op, at, x);
                let mut req = Request::get(&b_dom, &format!("/users/u{}/inbox", b.0));
                req.method = Method::Post;
                req.body = bytes::Bytes::from(body.clone());
                let code = status(&s, req);
                prop_assert!(answered(code), "status {code} for body {:?}", String::from_utf8_lossy(&body));
            }

            let value: String = resource
                .iter()
                .map(|&x| match char::from_u32(x >> 1) {
                    Some(c) if x & 1 == 1 => c.to_string(),
                    _ => PARTS[x as usize % PARTS.len()].to_string(),
                })
                .collect();
            for value in [value.clone(), format!("acct:u0@{value}"), format!("acct:{value}@{b_dom}")] {
                // straight into the parsed query, and through the target parser
                let mut req = Request::get(&b_dom, "/.well-known/webfinger");
                req.query = vec![("resource".into(), value.clone())];
                let code = status(&s, req);
                prop_assert!(answered(code), "status {code} for resource {value:?}");
                let req = Request::get(&b_dom, &format!("/.well-known/webfinger?resource={value}"));
                let code = status(&s, req);
                prop_assert!(answered(code), "status {code} for target resource={value:?}");
            }
        }
    }
}
