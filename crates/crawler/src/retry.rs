//! The shared retry engine: every crawler fetch goes through here.
//!
//! One function, [`fetch_with_retry`], implements the full robustness
//! state machine the three crawlers (monitor, toots, followers) share:
//!
//! ```text
//!            ┌──────────── breaker open? ── yes ──► Unreachable (fast-fail)
//!            ▼
//!   GET ──► 2xx ─────────────────────────────────► Ok(response)
//!    ▲       429 ── waits left? ── sleep(retry-after, capped) ──┐
//!    │       5xx transient ── retries left? ── sleep(backoff+jitter) ──┐
//!    │       other status ───────────────────────► Denied(status)      │
//!    │       connection error ── retries left? ── sleep(backoff+jitter)│
//!    │                          └─ exhausted ────► Unreachable         │
//!    └─────────────────────────────────────────────────────────────────┘
//! ```
//!
//! The circuit breaker counts only *connection-level* failures
//! (refused/reset/timeout). A well-formed 503 is an answer — the instance
//! is reachable and merely down, which is signal the monitor must keep
//! seeing — so it never trips the breaker.
//!
//! Waits are virtual-time sleeps with deterministic jitter
//! ([`Politeness::backoff_jittered`]), so a crawl under any fault plan
//! replays byte-identically from the same seed.

use crate::discovery::Seed;
use crate::politeness::Politeness;
use fediscope_httpwire::{Client, Response, StatusCode};
use std::collections::HashMap;
use std::sync::Mutex;

/// Outcome of a fetch after the retry budget is spent.
#[derive(Debug)]
pub enum FetchResult {
    /// A 2xx response.
    Ok(Response),
    /// The server answered, persistently, with this non-2xx status.
    Denied(StatusCode),
    /// Connection-level failure (refused, reset, timeout) outlived every
    /// retry — or the instance's circuit breaker was open.
    Unreachable,
}

impl FetchResult {
    /// Did the fetch produce a usable response?
    pub fn is_ok(&self) -> bool {
        matches!(self, FetchResult::Ok(_))
    }
}

/// Per-instance circuit-breaker state.
#[derive(Debug, Default, Clone, Copy)]
struct Breaker {
    /// Consecutive connection-level fetch failures.
    consecutive: u32,
    /// Fast-fails remaining before a probe is let through.
    cooldown: u32,
}

/// Circuit breakers for a whole crawl, keyed by instance id. Cooldowns are
/// counted in *requests*, not time: the bank behaves identically under
/// virtual and wall clocks, and an idle crawler holds no stale open
/// breakers.
#[derive(Debug, Default)]
pub struct BreakerBank {
    inner: Mutex<HashMap<u32, Breaker>>,
}

impl BreakerBank {
    /// Fresh bank with every breaker closed.
    pub fn new() -> Self {
        Self::default()
    }

    /// May a request to `instance` proceed? Open breakers fast-fail
    /// `breaker_cooldown` requests, then admit one half-open probe.
    fn admit(&self, pol: &Politeness, instance: u32) -> bool {
        if pol.breaker_threshold == 0 {
            return true;
        }
        let mut map = self.inner.lock().expect("breaker bank poisoned");
        let b = map.entry(instance).or_default();
        if b.consecutive < pol.breaker_threshold {
            return true;
        }
        if b.cooldown > 0 {
            b.cooldown -= 1;
            return false;
        }
        true // half-open probe
    }

    /// Record a reachable instance (any HTTP response): closes the breaker.
    fn record_reachable(&self, pol: &Politeness, instance: u32) {
        if pol.breaker_threshold == 0 {
            return;
        }
        let mut map = self.inner.lock().expect("breaker bank poisoned");
        map.remove(&instance);
    }

    /// Record a connection-level fetch failure; (re)opens the breaker once
    /// the threshold is crossed.
    fn record_unreachable(&self, pol: &Politeness, instance: u32) {
        if pol.breaker_threshold == 0 {
            return;
        }
        let mut map = self.inner.lock().expect("breaker bank poisoned");
        let b = map.entry(instance).or_default();
        b.consecutive = b.consecutive.saturating_add(1);
        if b.consecutive >= pol.breaker_threshold {
            b.cooldown = pol.breaker_cooldown;
        }
    }

    /// Snapshot the bank as `(instance, consecutive, cooldown)` rows,
    /// sorted by instance id. All-zero rows (a closed breaker with no
    /// failure history — behaviourally identical to an absent entry) are
    /// omitted, so two banks that behave identically export identically.
    pub fn export_state(&self) -> Vec<(u32, u32, u32)> {
        let map = self.inner.lock().expect("breaker bank poisoned");
        let mut rows: Vec<(u32, u32, u32)> = map
            .iter()
            .filter(|(_, b)| b.consecutive != 0 || b.cooldown != 0)
            .map(|(&id, b)| (id, b.consecutive, b.cooldown))
            .collect();
        rows.sort_unstable();
        rows
    }

    /// Rebuild a bank from exported rows (checkpoint resume). Failure
    /// counts and cooldown budgets continue exactly where they stopped —
    /// an open breaker stays open for the *remaining* fast-fails, never a
    /// fresh full cooldown.
    pub fn restore_state(rows: &[(u32, u32, u32)]) -> Self {
        let bank = Self::new();
        {
            let mut map = bank.inner.lock().expect("breaker bank poisoned");
            for &(id, consecutive, cooldown) in rows {
                map.insert(
                    id,
                    Breaker {
                        consecutive,
                        cooldown,
                    },
                );
            }
        }
        bank
    }

    /// Number of currently open breakers (diagnostics).
    pub fn open_count(&self, pol: &Politeness) -> usize {
        if pol.breaker_threshold == 0 {
            return 0;
        }
        self.inner
            .lock()
            .expect("breaker bank poisoned")
            .values()
            .filter(|b| b.consecutive >= pol.breaker_threshold)
            .count()
    }
}

/// Is this status a transient server-side failure worth retrying?
fn is_transient(status: StatusCode) -> bool {
    matches!(status.0, 500 | 502 | 504)
}

/// GET `path` from `seed` with the full retry/backoff/breaker state
/// machine. `jitter_token` seeds the deterministic jitter stream — pass
/// something stable per call site (instance id, page number) so replays
/// wait identically.
pub async fn fetch_with_retry(
    client: &Client,
    pol: &Politeness,
    breakers: Option<&BreakerBank>,
    seed: &Seed,
    jitter_token: u64,
    path: &str,
) -> FetchResult {
    if let Some(bank) = breakers {
        if !bank.admit(pol, seed.instance.0) {
            return FetchResult::Unreachable;
        }
    }
    let mut attempt = 0u32;
    let mut rate_limit_waits = 0u32;
    loop {
        match client.get(seed.addr, &seed.domain, path).await {
            Ok(resp) => {
                if let Some(bank) = breakers {
                    bank.record_reachable(pol, seed.instance.0);
                }
                if resp.status.is_success() {
                    return FetchResult::Ok(resp);
                }
                if resp.status == StatusCode::TOO_MANY_REQUESTS {
                    // 429s ride their own budget: honour retry-after
                    // (capped) so a budgeted epoch can still be drained.
                    if rate_limit_waits < pol.rate_limit_waits {
                        rate_limit_waits += 1;
                        let wait = match resp
                            .header("retry-after")
                            .and_then(|v| v.trim().parse::<u64>().ok())
                        {
                            Some(secs) => pol.clamp_retry_after(secs),
                            None => pol.backoff_jittered(rate_limit_waits - 1, jitter_token),
                        };
                        tokio::time::sleep(wait).await;
                        continue;
                    }
                    return FetchResult::Denied(resp.status);
                }
                if is_transient(resp.status) && attempt < pol.retries {
                    tokio::time::sleep(pol.backoff_jittered(attempt, jitter_token)).await;
                    attempt += 1;
                    continue;
                }
                return FetchResult::Denied(resp.status);
            }
            Err(_) => {
                if attempt < pol.retries {
                    tokio::time::sleep(pol.backoff_jittered(attempt, jitter_token)).await;
                    attempt += 1;
                    continue;
                }
                if let Some(bank) = breakers {
                    bank.record_unreachable(pol, seed.instance.0);
                }
                return FetchResult::Unreachable;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fediscope_model::ids::InstanceId;

    fn pol() -> Politeness {
        Politeness {
            breaker_threshold: 3,
            breaker_cooldown: 4,
            ..Politeness::fast()
        }
    }

    fn seed_id(i: u32) -> u32 {
        // breakers key on raw instance ids
        InstanceId(i).0
    }

    #[test]
    fn breaker_opens_after_threshold_and_probes_after_cooldown() {
        let p = pol();
        let bank = BreakerBank::new();
        let id = seed_id(7);
        // below threshold: always admitted
        for _ in 0..2 {
            assert!(bank.admit(&p, id));
            bank.record_unreachable(&p, id);
        }
        assert!(bank.admit(&p, id));
        bank.record_unreachable(&p, id); // third failure: opens
        assert_eq!(bank.open_count(&p), 1);
        // cooldown: the next 4 requests fast-fail
        for _ in 0..4 {
            assert!(!bank.admit(&p, id));
        }
        // then one probe is admitted
        assert!(bank.admit(&p, id));
        // a failing probe re-opens for another full cooldown
        bank.record_unreachable(&p, id);
        assert!(!bank.admit(&p, id));
    }

    #[test]
    fn any_response_closes_the_breaker() {
        let p = pol();
        let bank = BreakerBank::new();
        let id = seed_id(1);
        for _ in 0..3 {
            bank.record_unreachable(&p, id);
        }
        assert_eq!(bank.open_count(&p), 1);
        bank.record_reachable(&p, id);
        assert_eq!(bank.open_count(&p), 0);
        assert!(bank.admit(&p, id));
    }

    #[test]
    fn disabled_breaker_never_blocks() {
        let p = Politeness::fast(); // threshold 0
        let bank = BreakerBank::new();
        for _ in 0..100 {
            bank.record_unreachable(&p, 0);
            assert!(bank.admit(&p, 0));
        }
        assert_eq!(bank.open_count(&p), 0);
    }

    #[test]
    fn breakers_are_per_instance() {
        let p = pol();
        let bank = BreakerBank::new();
        for _ in 0..3 {
            bank.record_unreachable(&p, 5);
        }
        assert!(!bank.admit(&p, 5));
        assert!(bank.admit(&p, 6), "instance 6 unaffected");
    }

    #[test]
    fn export_restore_does_not_reset_cooldowns() {
        let p = pol();
        let bank = BreakerBank::new();
        // instance 3: open, with 2 of 4 cooldown fast-fails already spent
        for _ in 0..3 {
            bank.record_unreachable(&p, 3);
        }
        assert!(!bank.admit(&p, 3));
        assert!(!bank.admit(&p, 3));
        // instance 9: one failure, still closed
        bank.record_unreachable(&p, 9);
        // instance 5: failed then recovered — must not appear in the export
        bank.record_unreachable(&p, 5);
        bank.record_reachable(&p, 5);

        let rows = bank.export_state();
        assert_eq!(rows, vec![(3, 3, 2), (9, 1, 0)]);

        let restored = BreakerBank::restore_state(&rows);
        assert_eq!(restored.export_state(), rows, "export is a fixpoint");
        // the open breaker serves exactly its REMAINING 2 fast-fails, then
        // admits the half-open probe — the cooldown did not refill
        assert!(!restored.admit(&p, 3));
        assert!(!restored.admit(&p, 3));
        assert!(restored.admit(&p, 3));
        // the closed breaker opens after 2 more failures, not 3
        assert!(restored.admit(&p, 9));
        restored.record_unreachable(&p, 9);
        restored.record_unreachable(&p, 9);
        assert_eq!(restored.open_count(&p), 2);
    }

    #[test]
    fn transient_statuses() {
        assert!(is_transient(StatusCode(500)));
        assert!(is_transient(StatusCode(502)));
        assert!(!is_transient(StatusCode(503)), "503 is real downtime");
        assert!(!is_transient(StatusCode(403)));
        assert!(
            !is_transient(StatusCode::TOO_MANY_REQUESTS),
            "429 has its own path"
        );
    }
}
