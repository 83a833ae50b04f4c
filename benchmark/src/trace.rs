//! Outside-in tracing: spans recorded by the benchmark around its calls
//! into each layer, kept in memory and written when the run ends.
//!
//! Nothing here touches the crates under test. Host-side time inside
//! `net.run()` is observed by [`TimedHost`], a `HostApp` wrapper the
//! benchmark hands to `deploy` in place of the bare application.

use ncl::nctel::scope::Json;
use ncl::netsim::{HostApp, HostCtx, Packet};
use std::any::Any;
use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Instant;

/// One timed interval at a layer boundary.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// What ran.
    pub name: &'static str,
    /// The layer (crate or module) the time is charged to; one Chrome
    /// `pid` per layer.
    pub layer: &'static str,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// The job all spans of one request share.
    pub job: u32,
}

impl Span {
    /// Duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Spans kept before host callbacks stop being recorded one by one and
/// only add to the per-job totals: a 1,024-window job makes ~10⁴
/// callbacks, and keeping every job's would make the traced run measure
/// its own memory.
const DETAIL_CAP: usize = 20_000;

/// Span store plus the running host-side totals of the current job.
pub struct Tracer {
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    current: Cell<Option<usize>>,
    job: Cell<u32>,
    host_busy_ns: Cell<u64>,
    host_calls: Cell<u64>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            current: Cell::new(None),
            job: Cell::new(0),
            host_busy_ns: Cell::new(0),
            host_calls: Cell::new(0),
        }
    }
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new() -> Rc<Tracer> {
        Rc::new(Tracer::default())
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Starts the next job: its spans carry the next job id and the
    /// host-side totals restart.
    pub fn begin_job(&self) {
        self.job.set(self.job.get() + 1);
        self.host_busy_ns.set(0);
        self.host_calls.set(0);
    }

    /// Runs `f` as a child span of the current span and returns its
    /// result with the span's duration in ns.
    pub fn span<T>(
        &self,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> (T, u64) {
        let parent = self.current.get();
        let id = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name,
                layer,
                start_ns: self.now_ns(),
                end_ns: 0,
                parent,
                job: self.job.get(),
            });
            spans.len() - 1
        };
        self.current.set(Some(id));
        let out = f();
        self.current.set(parent);
        let end = self.now_ns();
        let mut spans = self.spans.borrow_mut();
        spans[id].end_ns = end;
        (out, spans[id].dur_ns())
    }

    /// Times one host callback: always added to the job's host-busy
    /// total, recorded as a span until [`DETAIL_CAP`] spans are held.
    fn host_call(&self, name: &'static str, f: impl FnOnce()) {
        let ns = if self.spans.borrow().len() < DETAIL_CAP {
            self.span("core.runtime", name, f).1
        } else {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as u64
        };
        self.host_busy_ns.set(self.host_busy_ns.get() + ns);
        self.host_calls.set(self.host_calls.get() + 1);
    }

    /// `(busy ns, callbacks)` of host applications since `begin_job`.
    pub fn host_totals(&self) -> (u64, u64) {
        (self.host_busy_ns.get(), self.host_calls.get())
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }
}

/// Per-span self time: duration minus the part covered by child spans.
/// Children of one parent never overlap (everything traced runs on one
/// thread), so the covered part is the sum of their durations.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.dur_ns());
        }
    }
    own
}

/// Renders spans in Chrome `trace_event` form (complete events, one
/// `pid` per layer, `tid` = job), openable in Perfetto beside an
/// ncscope export.
pub fn chrome_trace(spans: &[Span]) -> String {
    let mut layers: Vec<&'static str> = Vec::new();
    for s in spans {
        if !layers.contains(&s.layer) {
            layers.push(s.layer);
        }
    }
    let num = |n: f64| Json::Num(n);
    let mut events: Vec<Json> = layers
        .iter()
        .enumerate()
        .map(|(pid, layer)| {
            Json::Obj(vec![
                ("name".into(), Json::Str("process_name".into())),
                ("ph".into(), Json::Str("M".into())),
                ("pid".into(), num(pid as f64)),
                (
                    "args".into(),
                    Json::Obj(vec![("name".into(), Json::Str((*layer).into()))]),
                ),
            ])
        })
        .collect();
    let own = self_times(spans);
    for (i, s) in spans.iter().enumerate() {
        let pid = layers
            .iter()
            .position(|l| *l == s.layer)
            .expect("listed above");
        events.push(Json::Obj(vec![
            ("name".into(), Json::Str(s.name.into())),
            ("cat".into(), Json::Str(s.layer.into())),
            ("ph".into(), Json::Str("X".into())),
            ("ts".into(), num(s.start_ns as f64 / 1e3)),
            ("dur".into(), num(s.dur_ns() as f64 / 1e3)),
            ("pid".into(), num(pid as f64)),
            ("tid".into(), num(f64::from(s.job))),
            (
                "args".into(),
                Json::Obj(vec![
                    ("span".into(), num(i as f64)),
                    (
                        "parent".into(),
                        s.parent.map_or(Json::Null, |p| num(p as f64)),
                    ),
                    ("self_us".into(), num(own[i] as f64 / 1e3)),
                ]),
            ),
        ]));
    }
    Json::Obj(vec![("traceEvents".into(), Json::Arr(events))]).render()
}

/// Payloads a host received, kept for checking after the run.
pub type Tap = Rc<RefCell<Vec<Vec<u8>>>>;

/// A `HostApp` wrapper owned by the benchmark: times every callback of
/// the wrapped application when given a [`Tracer`], copies received
/// payloads into a [`Tap`] when given one, and forwards `as_any` to the
/// wrapped application so `Network::host_app::<A>()` still finds it.
pub struct TimedHost<A> {
    inner: A,
    tracer: Option<Rc<Tracer>>,
    tap: Option<Tap>,
}

impl<A: HostApp + 'static> TimedHost<A> {
    /// Wraps `inner`, boxed for `deploy`.
    pub fn boxed(inner: A, tracer: Option<Rc<Tracer>>, tap: Option<Tap>) -> Box<dyn HostApp> {
        Box::new(TimedHost { inner, tracer, tap })
    }

    fn timed(&mut self, name: &'static str, f: impl FnOnce(&mut A)) {
        match self.tracer.clone() {
            Some(t) => t.host_call(name, || f(&mut self.inner)),
            None => f(&mut self.inner),
        }
    }
}

impl<A: HostApp + 'static> HostApp for TimedHost<A> {
    fn on_start(&mut self, ctx: &mut HostCtx) {
        self.timed("on_start", |a| a.on_start(ctx));
    }

    fn on_packet(&mut self, ctx: &mut HostCtx, pkt: &Packet) {
        if let Some(tap) = &self.tap {
            tap.borrow_mut().push(pkt.payload.clone());
        }
        self.timed("on_packet", |a| a.on_packet(ctx, pkt));
    }

    fn on_timer(&mut self, ctx: &mut HostCtx, token: u64) {
        self.timed("on_timer", |a| a.on_timer(ctx, token));
    }

    fn as_any(&self) -> &dyn Any {
        self.inner.as_any()
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self.inner.as_any_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let t = Tracer::new();
        t.begin_job();
        t.span("bench", "job", || {
            t.span("netsim", "run", || {
                t.span("core.runtime", "on_packet", || std::hint::black_box(1 + 1));
            });
            t.span("bench", "check", || ());
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[3].parent, Some(0));
        let own = self_times(&spans);
        assert_eq!(
            own[0],
            spans[0].dur_ns() - spans[1].dur_ns() - spans[3].dur_ns()
        );
        assert_eq!(own[1], spans[1].dur_ns() - spans[2].dur_ns());
        assert_eq!(own[2], spans[2].dur_ns());
    }

    #[test]
    fn chrome_export_parses_and_has_one_pid_per_layer() {
        let t = Tracer::new();
        t.begin_job();
        t.span("bench", "job", || t.span("netsim", "run", || ()));
        let text = chrome_trace(&t.spans());
        let doc = ncl::nctel::scope::json::parse(&text).expect("valid JSON");
        let events = doc
            .get("traceEvents")
            .and_then(Json::as_arr)
            .expect("events");
        let meta = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("M"))
            .count();
        assert_eq!(meta, 2, "bench and netsim");
        assert_eq!(events.len(), 4);
    }
}
