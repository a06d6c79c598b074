//! The traced run's instruments, all living in the benchmark: spans
//! around every call it makes into the program, a [`Recorder`] that
//! files the engine's reported phases under the span that caused them,
//! and a metric wrapper that counts and times every distance call.
//!
//! Nothing here runs in the untraced run: spans are dropped unless
//! [`enable`] was called, and only the traced run's metric pass
//! (`run::count_pass`) builds an engine over [`Traced`].

use std::cell::RefCell;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use metric_dbscan::core::{Event, Phase, Recorder};
use metric_dbscan::metric::{BatchMetric, GridCompatible, Metric, MetricTag, PersistMetric};
use metric_dbscan::persist::{ByteReader, ByteWriter, PersistError, SharedBytes};

/// What the benchmark is doing when a distance call happens; the metric
/// wrapper files each call under the current stage.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stage {
    Setup,
    Exact,
    Approx,
    CoverTree,
    Streaming,
}

pub const STAGES: [Stage; 5] = [
    Stage::Setup,
    Stage::Exact,
    Stage::Approx,
    Stage::CoverTree,
    Stage::Streaming,
];

impl Stage {
    pub fn name(self) -> &'static str {
        match self {
            Stage::Setup => "setup",
            Stage::Exact => "exact",
            Stage::Approx => "approx",
            Stage::CoverTree => "covertree",
            Stage::Streaming => "streaming",
        }
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static STAGE: AtomicUsize = AtomicUsize::new(Stage::Setup as usize);
static NEXT_OP: AtomicU64 = AtomicU64::new(1);

/// One scalar distance call in `SAMPLE` is timed and counted `SAMPLE`
/// times: timing every call of a 2-D kernel costs many times the call.
/// Batch calls are always timed.
const SAMPLE: u64 = 16;

/// Nanoseconds one `Instant::now()` pair reads on an empty interval,
/// subtracted from every timed call so a few-nanosecond kernel is not
/// reported at the clock's cost.
fn clock_nanos() -> u64 {
    static CLOCK: OnceLock<u64> = OnceLock::new();
    *CLOCK.get_or_init(|| {
        (0..1000)
            .map(|_| {
                let t = Instant::now();
                t.elapsed().as_nanos() as u64
            })
            .min()
            .unwrap_or(0)
    })
}

/// One thread's metric tallies. Only the owning thread writes them
/// (a plain load and store, no locked add); readers sum every slot after
/// the engine call that made them has joined its threads.
#[derive(Default)]
struct Slot {
    evals: [AtomicU64; STAGES.len()],
    calls: [AtomicU64; STAGES.len()],
    nanos: [AtomicU64; STAGES.len()],
    scalar_calls: AtomicU64,
}

fn bump(a: &AtomicU64, v: u64) -> u64 {
    let n = a.load(Ordering::Relaxed) + v;
    a.store(n, Ordering::Relaxed);
    n
}

fn slots() -> &'static Mutex<Vec<Arc<Slot>>> {
    static SLOTS: OnceLock<Mutex<Vec<Arc<Slot>>>> = OnceLock::new();
    SLOTS.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    /// This thread's slot, registered in [`slots`] on first use.
    static LOCAL: Arc<Slot> = {
        let slot = Arc::new(Slot::default());
        slots().lock().expect("slot list lock poisoned").push(slot.clone());
        slot
    };
}

fn origin() -> Instant {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    *ORIGIN.get_or_init(Instant::now)
}

fn spans() -> &'static Mutex<Vec<Span>> {
    static SPANS: OnceLock<Mutex<Vec<Span>>> = OnceLock::new();
    SPANS.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    /// Open spans of this thread, innermost last: (index, operation id).
    static STACK: RefCell<Vec<(usize, u64)>> = const { RefCell::new(Vec::new()) };
}

/// Turns span recording on or off for the whole process.
pub fn enable(on: bool) {
    ENABLED.store(on, Ordering::SeqCst);
}

/// Sets the stage later distance calls are counted under.
pub fn set_stage(stage: Stage) {
    STAGE.store(stage as usize, Ordering::SeqCst);
}

/// Distance evaluations, calls and seconds inside the metric, per stage.
#[derive(Clone, Copy, Debug, Default)]
pub struct MetricTally {
    pub evals: u64,
    pub calls: u64,
    pub secs: f64,
}

pub fn metric_tally(stage: Stage) -> MetricTally {
    let i = stage as usize;
    let mut t = MetricTally::default();
    for slot in slots().lock().expect("slot list lock poisoned").iter() {
        t.evals += slot.evals[i].load(Ordering::Relaxed);
        t.calls += slot.calls[i].load(Ordering::Relaxed);
        t.secs += slot.nanos[i].load(Ordering::Relaxed) as f64 * 1e-9;
    }
    t
}

/// One recorded interval. `parent` indexes the span list; spans of one
/// operation share `op`.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    pub start: Duration,
    pub end: Duration,
}

/// Closes its span when dropped.
pub struct SpanGuard(Option<usize>);

/// Opens a span named `name` under this thread's innermost open span,
/// or as the root of a new operation.
pub fn span(name: &'static str) -> SpanGuard {
    if !ENABLED.load(Ordering::Relaxed) {
        return SpanGuard(None);
    }
    let start = origin().elapsed();
    let parent = STACK.with(|s| s.borrow().last().copied());
    let op = parent.map_or_else(|| NEXT_OP.fetch_add(1, Ordering::Relaxed), |(_, op)| op);
    let idx = {
        let mut all = spans().lock().expect("span list lock poisoned");
        all.push(Span {
            name,
            op,
            parent: parent.map(|(i, _)| i),
            start,
            end: start,
        });
        all.len() - 1
    };
    STACK.with(|s| s.borrow_mut().push((idx, op)));
    SpanGuard(Some(idx))
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(idx) = self.0 {
            let end = origin().elapsed();
            STACK.with(|s| s.borrow_mut().pop());
            if let Ok(mut all) = spans().lock() {
                all[idx].end = end;
            }
        }
    }
}

/// Records an already-finished child interval ending now.
fn closed_span(name: &'static str, elapsed: Duration) {
    if !ENABLED.load(Ordering::Relaxed) {
        return;
    }
    let end = origin().elapsed();
    let parent = STACK.with(|s| s.borrow().last().copied());
    let op = parent.map_or_else(|| NEXT_OP.fetch_add(1, Ordering::Relaxed), |(_, op)| op);
    let mut all = spans().lock().expect("span list lock poisoned");
    all.push(Span {
        name,
        op,
        parent: parent.map(|(i, _)| i),
        start: end.saturating_sub(elapsed),
        end,
    });
}

/// All spans as JSON lines, each with its self time (duration minus
/// the part its children cover).
pub fn dump_spans() -> String {
    let all = spans().lock().expect("span list lock poisoned");
    let mut child_secs = vec![0.0f64; all.len()];
    for s in all.iter() {
        if let Some(p) = s.parent {
            child_secs[p] += (s.end - s.start).as_secs_f64();
        }
    }
    let mut out = String::new();
    for (i, s) in all.iter().enumerate() {
        let dur = (s.end - s.start).as_secs_f64();
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\": {i}, \"name\": \"{}\", \"op\": {}, \"parent\": {parent}, \"start_s\": {}, \"end_s\": {}, \"self_s\": {}}}",
            s.name,
            s.op,
            s.start.as_secs_f64(),
            s.end.as_secs_f64(),
            (dur - child_secs[i]).max(0.0)
        );
    }
    out
}

/// Files every phase the engine reports as a closed child span of the
/// benchmark's open span on the reporting thread, and keeps per-phase
/// totals. Events are not used: the same counts come from `CacheStats`
/// and the run reports.
#[derive(Default)]
pub struct SpanRecorder {
    phase_nanos: [AtomicU64; Phase::ALL.len()],
    phase_count: [AtomicU64; Phase::ALL.len()],
}

impl SpanRecorder {
    pub fn shared() -> Arc<SpanRecorder> {
        Arc::new(SpanRecorder::default())
    }

    /// Total seconds and count reported for `phase` so far.
    pub fn phase_total(&self, phase: Phase) -> (f64, u64) {
        let i = Phase::ALL.iter().position(|p| *p == phase).expect("phase");
        (
            self.phase_nanos[i].load(Ordering::Relaxed) as f64 * 1e-9,
            self.phase_count[i].load(Ordering::Relaxed),
        )
    }
}

impl Recorder for SpanRecorder {
    fn phase(&self, phase: Phase, elapsed: Duration) {
        let i = Phase::ALL.iter().position(|p| *p == phase).expect("phase");
        self.phase_nanos[i].fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
        self.phase_count[i].fetch_add(1, Ordering::Relaxed);
        closed_span(phase.name(), elapsed);
    }

    fn event(&self, _event: Event, _n: u64) {}
}

/// A metric wrapper that counts and times every call into the wrapped
/// metric. It forwards the coordinate view, the artifact tag and the
/// metric codec, so the grid and RP gates and the artifacts behave as
/// they do for the unwrapped metric.
#[derive(Clone, Debug)]
pub struct Traced<M>(pub M);

impl<M> Traced<M> {
    #[inline]
    fn tally<T>(&self, evals: usize, f: impl FnOnce(&M) -> T) -> T {
        let stage = STAGE.load(Ordering::Relaxed);
        LOCAL.with(|slot| {
            bump(&slot.evals[stage], evals as u64);
            bump(&slot.calls[stage], 1);
            let weight = if evals > 1 {
                1
            } else if bump(&slot.scalar_calls, 1).is_multiple_of(SAMPLE) {
                SAMPLE
            } else {
                0
            };
            if weight == 0 {
                return f(&self.0);
            }
            let started = Instant::now();
            let out = f(&self.0);
            let nanos = (started.elapsed().as_nanos() as u64).saturating_sub(clock_nanos());
            bump(&slot.nanos[stage], nanos * weight);
            out
        })
    }
}

impl<P: ?Sized, M: Metric<P>> Metric<P> for Traced<M> {
    fn distance(&self, a: &P, b: &P) -> f64 {
        self.tally(1, |m| m.distance(a, b))
    }

    fn distance_leq(&self, a: &P, b: &P, bound: f64) -> Option<f64> {
        self.tally(1, |m| m.distance_leq(a, b, bound))
    }
}

impl<P, M: GridCompatible<P>> GridCompatible<P> for Traced<M> {
    fn grid_coords(&self, points: &[P], out: &mut Vec<f64>) -> Option<usize> {
        self.0.grid_coords(points, out)
    }
}

impl<P, M: BatchMetric<P>> BatchMetric<P> for Traced<M> {
    fn dist_many(&self, points: &[P], query: &P, ids: &[u32], out: &mut Vec<f64>) {
        self.tally(ids.len(), |m| m.dist_many(points, query, ids, out))
    }

    fn dist_many_within(
        &self,
        points: &[P],
        query: &P,
        ids: &[u32],
        bound: f64,
        out: &mut Vec<f64>,
    ) {
        self.tally(ids.len(), |m| {
            m.dist_many_within(points, query, ids, bound, out)
        })
    }
}

impl<M: MetricTag> MetricTag for Traced<M> {
    const METRIC_TAG: &'static str = M::METRIC_TAG;
}

impl<M: PersistMetric> PersistMetric for Traced<M> {
    fn encode_metric(&self, out: &mut ByteWriter) {
        self.0.encode_metric(out)
    }

    fn decode_metric(
        r: &mut ByteReader<'_>,
        src: Option<&Arc<SharedBytes>>,
    ) -> Result<Self, PersistError> {
        M::decode_metric(r, src).map(Traced)
    }

    fn shared_state_bytes(&self) -> usize {
        self.0.shared_state_bytes()
    }
}
