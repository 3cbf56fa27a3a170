//! The timing decorator: a [`RouteProvider`] that wraps
//! [`SafetyService`] and times every call the event loop makes into it.
//!
//! Untraced, it only stamps the two ends of each publication (from
//! `publish_next` entry to the end of the audit it triggers) and
//! otherwise forwards calls untouched. Traced, it records one span per
//! call, keeps the gaps between calls as the event loop's self time,
//! and archives every published snapshot so the probe pass can re-time
//! the sub-calls on the exact same inputs.

use hypersafe_core::{SafetyService, SafetyState};
use hypersafe_simkit::service::{
    AttemptOutcome, AttemptVerdict, Epoch, RedundantOutcome, RouteProvider,
};
use hypersafe_topology::NodeId;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

/// Which call a span covers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpanName {
    /// The whole timed phase (`RoutingService::run` or the fan loop).
    Run,
    /// `RouteProvider::attempt`.
    Attempt,
    /// `RouteProvider::attempt_redundant`.
    AttemptRedundant,
    /// `RouteProvider::apply_churn`.
    ApplyChurn,
    /// `RouteProvider::publish_next` (that published an epoch).
    PublishNext,
    /// `RouteProvider::check_invariants` (the full audit).
    CheckInvariants,
}

impl SpanName {
    /// The span's name in the written-out trace.
    pub fn as_str(self) -> &'static str {
        match self {
            SpanName::Run => "bench.run",
            SpanName::Attempt => "core.service.attempt",
            SpanName::AttemptRedundant => "core.service.attempt_redundant",
            SpanName::ApplyChurn => "core.service.apply_churn",
            SpanName::PublishNext => "core.service.publish",
            SpanName::CheckInvariants => "core.safety.audit",
        }
    }
}

/// Marks an absent span field.
pub const NONE: u64 = u64::MAX;

/// One recorded call. Times are ns since the round's origin.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// The call.
    pub name: SpanName,
    /// Entry time.
    pub start: u64,
    /// Return time.
    pub end: u64,
    /// Index of the span that caused this one: the run, or for a
    /// publication the churn it publishes, for an audit the
    /// publication it checks.
    pub parent: u32,
    /// Source node (churn, publication: the node), or [`NONE`].
    pub src: u64,
    /// Destination node, or [`NONE`].
    pub dst: u64,
    /// Epoch the call read or published, or [`NONE`].
    pub epoch: u64,
    /// Fan request index (the benchmark's own id), or [`NONE`].
    pub req: u64,
    /// Call outcome: verdict code for `attempt`, copies delivered for
    /// `attempt_redundant`, 1 = applied / fault / violation otherwise.
    pub aux: u32,
}

impl Span {
    /// Duration in ns.
    pub fn ns(&self) -> u64 {
        self.end - self.start
    }
}

/// Verdict code stored in an attempt span's `aux`.
fn verdict_code(v: AttemptVerdict) -> u32 {
    match v {
        AttemptVerdict::Delivered { .. } => 0,
        AttemptVerdict::Stale => 1,
        AttemptVerdict::Unreachable => 2,
        AttemptVerdict::SourceFaulty => 3,
        AttemptVerdict::DestinationFaulty => 4,
    }
}

/// One publication seen by a traced round: the epoch it produced and
/// the churn event it folded in.
#[derive(Clone, Copy, Debug)]
pub struct Publication {
    /// Epoch published.
    pub epoch: u64,
    /// Node of the churn event.
    pub node: NodeId,
    /// `true` = fault, `false` = recover.
    pub fault: bool,
}

/// The in-memory trace of one round.
pub struct Trace {
    origin: Instant,
    last_exit: u64,
    /// Time between provider calls: the event loop's own work.
    pub loop_self_ns: u64,
    /// Time spent recording spans and archiving snapshots.
    pub tracing_ns: u64,
    /// Wall time of the round, origin to [`Timed::end`].
    pub wall_ns: u64,
    /// Spans in record order; index 0 is the run.
    pub spans: Vec<Span>,
    /// Applied churn spans awaiting publication, FIFO.
    churn: VecDeque<(u32, NodeId, bool)>,
    /// The publication whose audit has not run yet.
    open_publish: Option<u32>,
    /// The snapshot current when the decorator was built, then every
    /// snapshot published since (see [`Trace::snapshot_at`]).
    archive: Vec<Arc<Epoch<SafetyState>>>,
    /// Every publication, in order.
    pub publications: Vec<Publication>,
    fans: u64,
}

impl Trace {
    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// The archived snapshot of `epoch`.
    pub fn snapshot_at(&self, epoch: u64) -> &SafetyState {
        let first = self.archive[0].epoch;
        &self.archive[(epoch - first) as usize].data
    }

    /// Starts a call: the time since the previous call returned is
    /// loop self time.
    fn enter(&mut self) -> u64 {
        let t = self.now();
        self.loop_self_ns += t - self.last_exit;
        t
    }

    /// Ends a call: records its span and charges the bookkeeping since
    /// the call returned to tracing.
    fn exit(&mut self, span: Span) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(span);
        self.last_exit = self.now();
        self.tracing_ns += self.last_exit - span.end;
        id
    }

    fn span(&self, name: SpanName, start: u64, parent: u32) -> Span {
        Span {
            name,
            start,
            end: self.now(),
            parent,
            src: NONE,
            dst: NONE,
            epoch: NONE,
            req: NONE,
            aux: 0,
        }
    }

    /// Spans named `name`.
    pub fn spans_named(&self, name: SpanName) -> impl Iterator<Item = &Span> {
        self.spans.iter().filter(move |s| s.name == name)
    }
}

/// The benchmark-owned decorator around [`SafetyService`].
pub struct Timed {
    inner: SafetyService,
    /// Publication costs (ns): `publish_next` entry to the end of the
    /// audit it triggers.
    pub publish_ns: Vec<u64>,
    open_publish: Option<Instant>,
    trace: Option<Box<Trace>>,
}

impl Timed {
    /// Wraps `inner`; `traced` turns span recording on.
    pub fn new(inner: SafetyService, traced: bool) -> Self {
        let trace = traced.then(|| {
            Box::new(Trace {
                origin: Instant::now(),
                last_exit: 0,
                loop_self_ns: 0,
                tracing_ns: 0,
                wall_ns: 0,
                spans: Vec::new(),
                churn: VecDeque::new(),
                open_publish: None,
                archive: vec![inner.snapshot()],
                publications: Vec::new(),
                fans: 0,
            })
        });
        Timed {
            inner,
            publish_ns: Vec::new(),
            open_publish: None,
            trace,
        }
    }

    /// Marks the start of the timed phase (the trace's time origin).
    pub fn begin(&mut self) {
        if let Some(tr) = self.trace.as_mut() {
            tr.origin = Instant::now();
            tr.last_exit = 0;
            let run = tr.span(SpanName::Run, 0, 0);
            tr.spans.push(run);
        }
    }

    /// Marks the end of the timed phase.
    pub fn end(&mut self) {
        if let Some(tr) = self.trace.as_mut() {
            let t = tr.now();
            tr.loop_self_ns += t - tr.last_exit;
            tr.wall_ns = t;
            tr.spans[0].end = t;
        }
    }

    /// The wrapped service.
    pub fn inner(&self) -> &SafetyService {
        &self.inner
    }

    /// The round's trace, if traced.
    pub fn trace(&self) -> Option<&Trace> {
        self.trace.as_deref()
    }
}

impl RouteProvider for Timed {
    fn attempt(&mut self, s: NodeId, d: NodeId) -> AttemptOutcome {
        let Some(tr) = self.trace.as_mut() else {
            return self.inner.attempt(s, d);
        };
        let start = tr.enter();
        let out = self.inner.attempt(s, d);
        let mut span = tr.span(SpanName::Attempt, start, 0);
        span.src = s.raw();
        span.dst = d.raw();
        span.epoch = out.epoch;
        span.aux = verdict_code(out.verdict);
        tr.exit(span);
        out
    }

    fn attempt_redundant(&mut self, s: NodeId, d: NodeId, k: u8) -> RedundantOutcome {
        let Some(tr) = self.trace.as_mut() else {
            return self.inner.attempt_redundant(s, d, k);
        };
        let start = tr.enter();
        let out = self.inner.attempt_redundant(s, d, k);
        let mut span = tr.span(SpanName::AttemptRedundant, start, 0);
        span.src = s.raw();
        span.dst = d.raw();
        span.epoch = out.epoch;
        span.req = tr.fans;
        span.aux = out.delivered_paths;
        tr.fans += 1;
        tr.exit(span);
        out
    }

    fn apply_churn(&mut self, node: NodeId, fault: bool) -> bool {
        let Some(tr) = self.trace.as_mut() else {
            return self.inner.apply_churn(node, fault);
        };
        let start = tr.enter();
        let applied = self.inner.apply_churn(node, fault);
        let mut span = tr.span(SpanName::ApplyChurn, start, 0);
        span.src = node.raw();
        span.aux = u32::from(applied);
        let id = tr.exit(span);
        if applied {
            tr.churn.push_back((id, node, fault));
        }
        applied
    }

    fn publish_next(&mut self) -> Option<u64> {
        let Some(tr) = self.trace.as_mut() else {
            let t0 = Instant::now();
            let e = self.inner.publish_next();
            if e.is_some() {
                self.open_publish = Some(t0);
            }
            return e;
        };
        let start = tr.enter();
        let e = self.inner.publish_next();
        let mut span = tr.span(SpanName::PublishNext, start, 0);
        let Some(epoch) = e else {
            // Nothing pending: not a publication, loop time.
            tr.loop_self_ns += span.end - start;
            tr.last_exit = span.end;
            return None;
        };
        let (cause, node, fault) = tr.churn.pop_front().expect("a publication follows a churn");
        span.parent = cause;
        span.src = node.raw();
        span.epoch = epoch;
        span.aux = u32::from(fault);
        let id = tr.exit(span);
        // Archiving is bookkeeping: charge it to tracing.
        let t = tr.now();
        tr.archive.push(self.inner.snapshot());
        tr.publications.push(Publication { epoch, node, fault });
        tr.open_publish = Some(id);
        tr.last_exit = tr.now();
        tr.tracing_ns += tr.last_exit - t;
        e
    }

    fn current_epoch(&self) -> u64 {
        self.inner.current_epoch()
    }

    fn check_invariants(&mut self) -> Result<(), String> {
        let Some(tr) = self.trace.as_mut() else {
            let r = self.inner.check_invariants();
            if let Some(t0) = self.open_publish.take() {
                self.publish_ns.push(t0.elapsed().as_nanos() as u64);
            }
            return r;
        };
        let start = tr.enter();
        let r = self.inner.check_invariants();
        let parent = tr.open_publish.take();
        let mut span = tr.span(SpanName::CheckInvariants, start, parent.unwrap_or(0));
        span.epoch = self.inner.current_epoch();
        span.aux = u32::from(r.is_err());
        if let Some(p) = parent {
            self.publish_ns.push(span.end - tr.spans[p as usize].start);
        }
        tr.exit(span);
        r
    }
}
