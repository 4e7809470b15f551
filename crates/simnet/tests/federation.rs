//! Socket-level federation tests: WebFinger discovery, actor fetch, and a
//! Follow→Accept exchange over real TCP — the §2 subscription flow.

use fediscope_activitypub::actor::actor_id;
use fediscope_activitypub::{Activity, WebFingerDoc};
use fediscope_httpwire::{Client, Method, Request};
use fediscope_model::schedule::AvailabilitySchedule;
use fediscope_simnet::{launch, FaultPlan};
use fediscope_worldgen::{Generator, WorldConfig};
use std::sync::Arc;

async fn boot() -> (
    Arc<fediscope_model::world::World>,
    fediscope_simnet::SimNetHandle,
) {
    let mut cfg = WorldConfig::tiny(606);
    cfg.n_instances = 6;
    cfg.n_users = 120;
    let mut world = Generator::generate_world(cfg);
    for s in &mut world.schedules {
        *s = AvailabilitySchedule::always_up();
    }
    let world = Arc::new(world);
    let net = launch(world.clone(), FaultPlan::default(), 2)
        .await
        .unwrap();
    (world, net)
}

#[tokio::test]
async fn webfinger_then_actor_then_follow() {
    let (world, net) = boot().await;
    let client = Client::default();

    // pick a cross-instance pair (a follows b in ground truth)
    let &(a, b) = world
        .follows
        .iter()
        .find(|&&(x, y)| world.instance_of(x) != world.instance_of(y))
        .expect("cross-instance follow");
    let a_dom = world.instances[world.instance_of(a).index()].domain.clone();
    let b_dom = world.instances[world.instance_of(b).index()].domain.clone();

    // 1. WebFinger: a's instance resolves b's account.
    let resp = client
        .get(
            net.addr(),
            &b_dom,
            &format!("/.well-known/webfinger?resource=acct:u{}@{}", b.0, b_dom),
        )
        .await
        .unwrap();
    assert!(resp.status.is_success());
    let doc: WebFingerDoc = serde_json::from_str(&resp.text()).unwrap();
    let actor_url = doc.actor_url().unwrap().to_string();
    assert_eq!(actor_url, actor_id(&format!("u{}", b.0), &b_dom));

    // 2. Actor fetch: the document advertises the inbox.
    let resp = client
        .get(net.addr(), &b_dom, &format!("/users/u{}", b.0))
        .await
        .unwrap();
    assert!(resp.status.is_success());
    let actor: fediscope_activitypub::Actor = serde_json::from_str(&resp.text()).unwrap();
    assert!(actor.inbox.ends_with("/inbox"));

    // 3. Follow delivery over the wire.
    let follow = Activity::Follow {
        id: format!("https://{a_dom}/activities/1"),
        actor: actor_id(&format!("u{}", a.0), &a_dom),
        object: actor_url,
    };
    let mut req = Request::get(&b_dom, &format!("/users/u{}/inbox", b.0));
    req.method = Method::Post;
    req.headers
        .push(("content-type".into(), "application/activity+json".into()));
    req.body = bytes::Bytes::from(follow.to_json().to_string());
    let resp = client.request(net.addr(), req).await.unwrap();
    assert_eq!(resp.status.0, 202);

    // 4. The followee's instance recorded the Follow; the follower's
    //    instance got an Accept back (in-process federation transport).
    let received = net.state.drain_inbox(world.instance_of(b));
    assert!(matches!(received[0], Activity::Follow { .. }));
    let accepts = net.state.drain_inbox(world.instance_of(a));
    assert!(
        accepts.iter().any(|x| matches!(x, Activity::Accept { .. })),
        "origin instance must receive the Accept"
    );
    net.shutdown().await;
}

#[tokio::test]
async fn malformed_activity_rejected() {
    let (world, net) = boot().await;
    let client = Client::default();
    let u = &world.users[0];
    let dom = world.instances[u.instance.index()].domain.clone();
    let mut req = Request::get(&dom, &format!("/users/u{}/inbox", u.id.0));
    req.method = Method::Post;
    req.body = bytes::Bytes::from_static(b"{\"type\": \"Dance\"}");
    let resp = client.request(net.addr(), req).await.unwrap();
    assert_eq!(resp.status.0, 400);
    net.shutdown().await;
}

#[tokio::test]
async fn inbox_of_unknown_user_404s() {
    let (world, net) = boot().await;
    let client = Client::default();
    let dom = world.instances[0].domain.clone();
    let mut req = Request::get(&dom, "/users/u999999/inbox");
    req.method = Method::Post;
    req.body = bytes::Bytes::from_static(b"{}");
    let resp = client.request(net.addr(), req).await.unwrap();
    assert_eq!(resp.status.0, 404);
    net.shutdown().await;
}
