//! Crash/resume identity for the fault-injected crawl pipeline.
//!
//! The monitoring campaign checkpoints at sweep boundaries: a frame holds
//! the accumulated dataset, the breaker-bank rows, and the fault
//! injector's state (its decision counter *is* its RNG). The property
//! under test is the `crates/recover` headline guarantee applied to the
//! crawler: kill the campaign at any sweep drawn from `mix(seed,
//! counter)`, bring up a **fresh executor and a fresh listener**, resume
//! from the newest good frame, and the finished dataset is bit-identical
//! to the campaign that never crashed — under recoverable *and* harsh
//! fault plans, with torn final checkpoints falling back to the previous
//! good frame, and the all-torn case honestly restarting from scratch.

use fediscope_crawler::discovery::SeedList;
use fediscope_crawler::monitor::{InstanceMonitor, MonitorState};
use fediscope_crawler::politeness::Politeness;
use fediscope_model::datasets::InstancesDataset;
use fediscope_model::time::Epoch;
use fediscope_model::world::World;
use fediscope_recover::{encode_frame, recover_latest, CrashPlan, MemStore, SnapshotStore};
use fediscope_simnet::{launch, FaultPlan, InjectorState, SimNetHandle};
use fediscope_worldgen::{Generator, WorldConfig};
use proptest::prelude::*;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

const KIND: &str = "crawl-monitor";
const STATE_VERSION: u32 = 1;
/// Epochs between sweeps (mnm.social polled every 5 minutes; the test
/// campaign strides faster to keep runtimes sane).
const STRIDE: u32 = 96;
/// Sweeps in a full campaign (6 virtual days).
const TOTAL_SWEEPS: u32 = 18;

/// One crawl checkpoint: everything a fresh process needs to continue the
/// campaign — monitor accumulation, breaker cooldowns, injector RNG.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct CrawlCheckpoint {
    sweeps_done: u32,
    monitor: MonitorState,
    injector: InjectorState,
}

fn frame_for(ckpt: &CrawlCheckpoint) -> Vec<u8> {
    encode_frame(
        KIND,
        STATE_VERSION,
        ckpt.sweeps_done as u64,
        &ckpt.to_json_value(),
    )
}

fn checkpoint(net: &SimNetHandle, monitor: &InstanceMonitor, sweeps_done: u32) -> CrawlCheckpoint {
    CrawlCheckpoint {
        sweeps_done,
        monitor: monitor.capture(),
        injector: net.state.faults.export_state(),
    }
}

/// Newest good checkpoint in the store, plus how many torn frames were
/// skipped on the way down.
fn recover(store: &MemStore) -> (Option<CrawlCheckpoint>, u32) {
    let rec = recover_latest(store, KIND, STATE_VERSION);
    let ckpt = rec.good.as_ref().map(|(meta, value)| {
        let c = CrawlCheckpoint::from_json_value(value).expect("checksummed frame decodes");
        assert_eq!(
            c.sweeps_done as u64, meta.tick,
            "frame header lies about its tick"
        );
        c
    });
    (ckpt, rec.torn_skipped)
}

/// Same tiny world as `crawl_faults.rs`.
fn tiny_world(seed: u64) -> Arc<World> {
    let mut cfg = WorldConfig::tiny(seed);
    cfg.n_instances = 6;
    cfg.n_users = 80;
    cfg.toots_per_user_open = 4.0;
    cfg.toots_per_user_closed = 6.0;
    Arc::new(Generator::generate_world(cfg))
}

/// Run the campaign on a fresh executor + fresh listener, checkpointing
/// every `interval` sweeps, dying on cue when `crash` fires (mirroring
/// `run_checkpointed`'s semantics: the crash is checked *before* a sweep,
/// a torn final frame is the one mid-write at the crash). `resume`
/// continues from a recovered checkpoint. Returns the finished dataset,
/// or `None` if the crash plan killed the run.
fn run_crawl(
    world: Arc<World>,
    plan: FaultPlan,
    injector_seed: u64,
    store: &mut MemStore,
    interval: u32,
    crash: Option<CrashPlan>,
    resume: Option<CrawlCheckpoint>,
) -> Option<InstancesDataset> {
    let rt = tokio::runtime::Runtime::new().unwrap();
    rt.block_on(async move {
        let net = launch(world, plan, injector_seed).await.unwrap();
        let seeds = SeedList::for_simnet(&net.state.world, net.addr());
        let (mut monitor, mut sweep) = match &resume {
            Some(ckpt) => {
                net.state.faults.restore_state(&ckpt.injector);
                let m = InstanceMonitor::resume(seeds, Politeness::hostile(), &ckpt.monitor)
                    .expect("snapshot fits the seed list");
                (m, ckpt.sweeps_done)
            }
            None => (InstanceMonitor::new(seeds, Politeness::hostile()), 0),
        };
        let mut out = None;
        loop {
            if sweep >= TOTAL_SWEEPS {
                out = Some(monitor.into_dataset());
                break;
            }
            if let Some(p) = crash {
                if p.fires_at(sweep as u64) {
                    if p.torn_final {
                        let frame = frame_for(&checkpoint(&net, &monitor, sweep));
                        store.put(sweep as u64, &frame[..frame.len() / 2]).unwrap();
                    }
                    break;
                }
            }
            let epoch = Epoch(sweep * STRIDE);
            net.state.clock.set(epoch);
            monitor.poll_all(epoch).await;
            sweep += 1;
            if sweep % interval == 0 {
                let frame = frame_for(&checkpoint(&net, &monitor, sweep));
                store.put(sweep as u64, &frame).unwrap();
            }
        }
        net.shutdown().await;
        out
    })
}

/// Crash the campaign per `crash`, then resume from the store on a fresh
/// executor and finish. Returns the final dataset and where resume landed.
fn crash_then_resume(
    world: Arc<World>,
    plan: FaultPlan,
    injector_seed: u64,
    interval: u32,
    crash: CrashPlan,
) -> (InstancesDataset, Option<u32>, u32) {
    let mut store = MemStore::new();
    if let Some(done) = run_crawl(
        world.clone(),
        plan.clone(),
        injector_seed,
        &mut store,
        interval,
        Some(crash),
        None,
    ) {
        // the drawn crash tick sat at the campaign's natural end: nothing
        // to resume, the "crashed" run simply completed
        return (done, None, 0);
    }
    let (ckpt, torn_skipped) = recover(&store);
    let resumed_from = ckpt.as_ref().map(|c| c.sweeps_done);
    let done = run_crawl(world, plan, injector_seed, &mut store, interval, None, ckpt)
        .expect("no crash plan on the resumed run");
    (done, resumed_from, torn_skipped)
}

fn uninterrupted(world: Arc<World>, plan: FaultPlan, injector_seed: u64) -> InstancesDataset {
    run_crawl(
        world,
        plan,
        injector_seed,
        &mut MemStore::new(),
        u32::MAX,
        None,
        None,
    )
    .expect("uninterrupted run completes")
}

proptest! {
    /// Random worlds × random seeds × flaky-or-harsh plans × random crash
    /// sweeps and checkpoint cadences: the crashed-then-resumed campaign
    /// produces the byte-identical dataset, torn final frames included.
    #[test]
    fn crash_then_resume_crawl_is_bit_identical(
        world_seed in 0u64..1_000,
        injector_seed in 0u64..1_000,
        crash_counter in 0u64..10_000,
        interval in 1u32..7,
        harsh in any::<bool>(),
    ) {
        let plan = if harsh {
            FaultPlan::harsh()
        } else {
            FaultPlan {
                error_prob: 0.10,
                delay_prob: 0.10,
                reset_prob: 0.015,
                rate_limit_prob: 0.015,
                ..FaultPlan::default()
            }
        };
        let world = tiny_world(world_seed);
        let crash = CrashPlan::drawn(injector_seed, crash_counter, TOTAL_SWEEPS as u64);
        let (resumed, _, _) =
            crash_then_resume(world.clone(), plan.clone(), injector_seed, interval, crash);
        let clean = uninterrupted(world, plan, injector_seed);
        prop_assert_eq!(&resumed, &clean, "crash {:?} diverged from the uninterrupted crawl", crash);
    }
}

/// A torn final checkpoint is skipped and recovery lands on the previous
/// good frame — and the finished dataset is still identical.
#[test]
fn torn_final_crawl_checkpoint_falls_back() {
    let world = tiny_world(77);
    let plan = FaultPlan::harsh();
    let crash = CrashPlan {
        crash_tick: 12,
        torn_final: true,
    };
    let (resumed, resumed_from, torn_skipped) =
        crash_then_resume(world.clone(), plan.clone(), 9, 4, crash);
    assert_eq!(
        torn_skipped, 1,
        "the mid-write frame at sweep 12 must read as torn"
    );
    assert_eq!(resumed_from, Some(8), "fall back to the sweep-8 frame");
    assert_eq!(resumed, uninterrupted(world, plan, 9));
}

/// Every frame torn: recovery honestly reports nothing usable and the
/// campaign restarts from scratch — same bytes, no panic, no garbage.
#[test]
fn all_torn_crawl_store_restarts_from_scratch() {
    let world = tiny_world(31);
    let plan = FaultPlan::harsh();
    let mut store = MemStore::new();
    let crashed = run_crawl(
        world.clone(),
        plan.clone(),
        5,
        &mut store,
        3,
        Some(CrashPlan::at(10)),
        None,
    );
    assert!(crashed.is_none(), "the plan must kill the first run");
    let n_frames = store.len() as u32;
    assert!(n_frames > 0);
    for tick in store.ticks() {
        store.tear_truncate(tick, 7);
    }
    let (ckpt, torn_skipped) = recover(&store);
    assert!(ckpt.is_none(), "no torn frame may masquerade as good");
    assert_eq!(torn_skipped, n_frames);
    let restarted = run_crawl(world.clone(), plan.clone(), 5, &mut store, 3, None, None)
        .expect("restart completes");
    assert_eq!(restarted, uninterrupted(world, plan, 5));
}
