//! Layer spans and counts, recorded from the benchmark's side of each call
//! into a workspace crate.
//!
//! A span is named `<layer>.<what>_s`, where the layer is the crate the
//! call enters. Spans nest: a span's self time is its duration minus the
//! time its child spans cover, and each span also records how far the
//! process's peak resident set (`VmHWM`) rose while it ran, net of its
//! children. With tracing off, [`Tracer::time`] only runs the closure.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// Peak resident set size of this process in bytes (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .map_or(0, |kb| kb * 1024)
}

/// One iteration's per-layer values, keyed by metric name.
pub type Values = BTreeMap<String, f64>;

struct Open {
    start: Instant,
    hwm: u64,
    child_s: f64,
    child_hwm: u64,
}

#[derive(Default)]
struct State {
    open: Vec<Open>,
    /// Time covered by spans with no parent.
    top_level_s: f64,
    values: Values,
}

/// Records spans and counts for one iteration at a time.
pub struct Tracer {
    on: bool,
    state: RefCell<State>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            state: RefCell::new(State::default()),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Run `f` inside the span `name`: `<layer>.<what>_s`, or
    /// `<layer>.<what>_s.t1` for a repeat at a one-thread budget.
    pub fn time<R>(&self, name: &str, f: impl FnOnce() -> R) -> R {
        self.enter();
        let out = f();
        self.exit(name);
        out
    }

    /// Open a span; [`exit`](Self::exit) closes and names it. The pair
    /// brackets code that awaits, which a closure cannot hold.
    pub fn enter(&self) {
        if !self.on {
            return;
        }
        self.state.borrow_mut().open.push(Open {
            start: Instant::now(),
            hwm: peak_rss_bytes(),
            child_s: 0.0,
            child_hwm: 0,
        });
    }

    /// Close the innermost open span as `name`.
    pub fn exit(&self, name: &str) {
        if !self.on {
            return;
        }
        let hwm = peak_rss_bytes();
        let mut st = self.state.borrow_mut();
        let open = st.open.pop().expect("span stack underflow");
        let dur = open.start.elapsed().as_secs_f64();
        let rise = hwm.saturating_sub(open.hwm);
        match st.open.last_mut() {
            Some(parent) => {
                parent.child_s += dur;
                parent.child_hwm += rise;
            }
            None => st.top_level_s += dur,
        }
        let layer = name.split('.').next().expect("span names carry a layer");
        *st.values.entry(name.to_string()).or_default() += dur;
        // Thread-scaling repeats (`<span>.t1`) report no self time.
        if let Some(stem) = name.strip_suffix("_s") {
            *st.values.entry(format!("{stem}.self_s")).or_default() += dur - open.child_s;
        }
        *st.values
            .entry(format!("{layer}.hwm_delta_mb"))
            .or_default() += rise.saturating_sub(open.child_hwm) as f64 / (1024.0 * 1024.0);
    }

    /// Set a per-layer count or ratio for this iteration.
    pub fn set(&self, name: &str, value: f64) {
        if self.on {
            self.state
                .borrow_mut()
                .values
                .insert(name.to_string(), value);
        }
    }

    /// Close the iteration that ran for `wall_s`: report the wall time no
    /// top-level span covers as `other`, and hand back every value.
    pub fn finish_iteration(&self, wall_s: f64) -> Values {
        let mut st = self.state.borrow_mut();
        assert!(st.open.is_empty(), "iteration ended inside a span");
        let other = (wall_s - st.top_level_s).max(0.0);
        st.values.insert("other_s".into(), other);
        st.values.insert("other.frac".into(), other / wall_s);
        st.top_level_s = 0.0;
        std::mem::take(&mut st.values)
    }
}
