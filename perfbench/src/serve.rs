//! The serve phases: two open loops (`lo` read-only, `hi` beside a
//! writer thread) and one closed loop (`peak`), all against one
//! in-process `ServeEngine`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use egraph_core::serve::{Query, QueryKind, ServeEngine};
use egraph_parallel::{with_pool, ThreadPool};

use crate::inputs::{self, QuerySpec};
use crate::oracle::Update;
use crate::trace::{Span, Tracer};

/// A send later than this share of the period is late. A try of a
/// phase with more than one late send in a hundred (and at least one)
/// is invalid: its generator did not keep to its schedule.
pub const MAX_LAG_SHARE: f64 = 0.5;

/// Span id of the next query sent; a plain counter.
static NEXT_QUERY_ID: AtomicU64 = AtomicU64::new(0);

/// Queries the closed loop keeps in flight: one full wave.
pub const PEAK_INFLIGHT: usize = 64;

/// One query as sent and as answered.
#[derive(Debug, Clone)]
pub struct QueryRecord {
    /// What was asked.
    pub spec: QuerySpec,
    /// When it was due to be sent (open loop) or was sent (closed
    /// loop), seconds since the run's origin.
    pub due: f64,
    /// Published epoch read just before `submit`.
    pub epoch_before: u64,
    /// Whether the query recorded a span.
    pub traced: bool,
    /// The answer, if one arrived.
    pub answer: Option<Answer>,
    /// Why no answer arrived.
    pub error: Option<String>,
}

/// An answered query.
#[derive(Debug, Clone)]
pub struct Answer {
    /// When the answer was received.
    pub done: f64,
    /// Published epoch read just after receipt.
    pub epoch_after: u64,
    /// The engine's checksum of the answer.
    pub checksum: u64,
    /// Queries that shared the wave.
    pub wave_size: usize,
    /// Seconds queued before the wave launched.
    pub wait: f64,
    /// Seconds the wave's kernel ran.
    pub exec: f64,
    /// Seconds from kernel end to this answer's send.
    pub demux: f64,
}

impl QueryRecord {
    /// Latency from the due time, seconds.
    pub fn latency(&self) -> Option<f64> {
        self.answer.as_ref().map(|a| a.done - self.due)
    }
}

/// One phase's record.
#[derive(Debug, Clone, Default)]
pub struct PhaseRecord {
    /// Every query sent, in send order.
    pub queries: Vec<QueryRecord>,
    /// Phase length, seconds.
    pub seconds: f64,
    /// Largest delay between a query's due time and its `submit`.
    pub gen_lag_max: f64,
    /// Sends later than [`MAX_LAG_SHARE`] of the period.
    pub late_sends: usize,
    /// The send period (0 for the closed loop).
    pub period: f64,
    /// Queries admitted but unanswered when sending stopped (the largest
    /// over the phase's rounds).
    pub inflight_end: u64,
    /// Queue depth when sending stopped (the largest over the rounds).
    pub queue_depth_end: u64,
    /// Largest queue depth seen at a send.
    pub queue_depth_max: u64,
    /// Answers received (closed loop).
    pub completed: usize,
    /// From the phase's start to its last answer (closed loop). Sending
    /// stops at the phase's end and the loop drains, so the window ends
    /// with a whole wave rather than cutting one.
    pub window: f64,
}

impl PhaseRecord {
    /// Pools a later segment of the same phase into `self`.
    pub fn absorb(&mut self, other: PhaseRecord) {
        self.queries.extend(other.queries);
        self.seconds += other.seconds;
        self.gen_lag_max = self.gen_lag_max.max(other.gen_lag_max);
        self.late_sends += other.late_sends;
        self.period = other.period;
        self.inflight_end = self.inflight_end.max(other.inflight_end);
        self.queue_depth_end = self.queue_depth_end.max(other.queue_depth_end);
        self.queue_depth_max = self.queue_depth_max.max(other.queue_depth_max);
        self.completed += other.completed;
        self.window += other.window;
    }

    /// Whether the generator kept to its schedule.
    pub fn valid(&self) -> bool {
        self.late_sends <= (self.queries.len() / 100).max(1)
    }
}

/// One update batch as applied.
#[derive(Debug, Clone)]
pub struct WriteRecord {
    /// Seconds in `apply_update`.
    pub apply: f64,
    /// Seconds in `compact`.
    pub compact: f64,
    /// From `apply_update` start until `compact` published the epoch.
    pub visible: f64,
    /// Ops merged by the compaction.
    pub merged_ops: usize,
    /// Resident bytes after the compaction.
    pub resident_bytes: u64,
    /// The epoch the compaction published.
    pub epoch: u64,
    /// The update's rejection, if any.
    pub error: Option<String>,
}

fn query(spec: QuerySpec) -> Query {
    Query {
        kind: if spec.depth.is_some() {
            QueryKind::KHop
        } else {
            QueryKind::Bfs
        },
        source: spec.source,
        depth: spec.depth.unwrap_or(0),
    }
}

/// Sends `spec` and hands its receipt to a waiter thread in `scope`,
/// which reports `(index, record)` on `done` once the answer (or the
/// channel's end) arrives. The span is recorded when `traced`.
#[allow(clippy::too_many_arguments)]
fn send<'s, 'e: 's>(
    scope: &'s std::thread::Scope<'s, 'e>,
    engine: &'e ServeEngine,
    tracer: &'e Tracer,
    traced: bool,
    index: usize,
    spec: QuerySpec,
    due: f64,
    done: mpsc::Sender<(usize, QueryRecord)>,
) {
    let id = NEXT_QUERY_ID.fetch_add(1, Ordering::Relaxed);
    let epoch_before = engine.epoch();
    let submitted_at = Instant::now();
    let submitted = tracer.at(submitted_at);
    let mut record = QueryRecord {
        spec,
        due,
        epoch_before,
        traced,
        answer: None,
        error: None,
    };
    match engine.submit(query(spec)) {
        Err(e) => {
            record.error = Some(e.to_string());
            let _ = done.send((index, record));
        }
        Ok(rx) => {
            scope.spawn(move || {
                match rx.recv() {
                    Ok(outcome) => {
                        let done_at = Instant::now();
                        record.answer = Some(Answer {
                            done: tracer.at(done_at),
                            epoch_after: engine.epoch(),
                            checksum: outcome.checksum,
                            wave_size: outcome.wave_size,
                            wait: outcome.wait_seconds,
                            exec: outcome.exec_seconds,
                            demux: outcome.demux_seconds,
                        });
                        if traced {
                            tracer.record(Span {
                                layer: "serve",
                                name: "serve.query",
                                start: submitted,
                                end: tracer.at(done_at),
                                parent: None,
                                query: Some(id),
                            });
                        }
                    }
                    Err(_) => record.error = Some("query unanswered".into()),
                }
                let _ = done.send((index, record));
            });
        }
    }
}

fn collect(rx: mpsc::Receiver<(usize, QueryRecord)>, n: usize) -> Vec<QueryRecord> {
    let mut out: Vec<Option<QueryRecord>> = vec![None; n];
    for (i, r) in rx {
        out[i] = Some(r);
    }
    out.into_iter()
        .map(|r| r.expect("every sent query reports back"))
        .collect()
}

/// An open loop: `rate` queries/s for `seconds`, each timed from its
/// due time. `traced(i)` says whether query `i` records a span.
pub fn open_loop(
    engine: &ServeEngine,
    tracer: &Tracer,
    rate: f64,
    seconds: f64,
    queries: &mut dyn Iterator<Item = QuerySpec>,
    traced: &dyn Fn(usize) -> bool,
) -> PhaseRecord {
    let period = 1.0 / rate;
    let n = (rate * seconds).round().max(1.0) as usize;
    let mut phase = PhaseRecord {
        period,
        seconds,
        ..PhaseRecord::default()
    };
    let start = Instant::now();
    let (tx, rx) = mpsc::channel();
    std::thread::scope(|scope| {
        for (i, spec) in queries.take(n).enumerate() {
            let due_at = start + Duration::from_secs_f64(i as f64 * period);
            if let Some(wait) = due_at.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            let lag = Instant::now()
                .saturating_duration_since(due_at)
                .as_secs_f64();
            phase.gen_lag_max = phase.gen_lag_max.max(lag);
            phase.late_sends += usize::from(lag > MAX_LAG_SHARE * period);
            phase.queue_depth_max = phase.queue_depth_max.max(engine.queue_depth());
            send(
                scope,
                engine,
                tracer,
                traced(i),
                i,
                spec,
                tracer.at(due_at),
                tx.clone(),
            );
        }
        let end_at = start + Duration::from_secs_f64(seconds);
        if let Some(wait) = end_at.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        phase.inflight_end = engine.inflight();
        phase.queue_depth_end = engine.queue_depth();
        drop(tx);
        phase.queries = collect(rx, n);
    });
    phase
}

/// A closed loop that keeps [`PEAK_INFLIGHT`] queries in flight for
/// `seconds`, then drains.
pub fn closed_loop(
    engine: &ServeEngine,
    tracer: &Tracer,
    seconds: f64,
    queries: &mut dyn Iterator<Item = QuerySpec>,
) -> PhaseRecord {
    let mut phase = PhaseRecord {
        seconds,
        ..PhaseRecord::default()
    };
    let start = Instant::now();
    let end_at = start + Duration::from_secs_f64(seconds);
    let begin = tracer.at(start);
    let (tx, rx) = mpsc::channel();
    let mut sent = 0usize;
    let mut records = Vec::new();
    std::thread::scope(|scope| {
        let mut issue = |sent: &mut usize, queue_depth_max: &mut u64| {
            let spec = queries.next().expect("the query stream is endless");
            *queue_depth_max = (*queue_depth_max).max(engine.queue_depth());
            send(
                scope,
                engine,
                tracer,
                true,
                *sent,
                spec,
                tracer.at(Instant::now()),
                tx.clone(),
            );
            *sent += 1;
        };
        for _ in 0..PEAK_INFLIGHT {
            issue(&mut sent, &mut phase.queue_depth_max);
        }
        let mut received = 0usize;
        let mut stopped = false;
        while received < sent {
            let (i, r) = rx.recv().expect("a sender is held until the loop ends");
            received += 1;
            if let Some(a) = &r.answer {
                phase.completed += 1;
                phase.window = phase.window.max(a.done - begin);
            }
            records.push((i, r));
            if Instant::now() < end_at {
                issue(&mut sent, &mut phase.queue_depth_max);
            } else if !stopped {
                stopped = true;
                phase.inflight_end = engine.inflight();
                phase.queue_depth_end = engine.queue_depth();
            }
        }
    });
    records.sort_by_key(|(i, _)| *i);
    phase.queries = records.into_iter().map(|(_, r)| r).collect();
    phase
}

/// Applies batches from `updates` and compacts each, on `pool`, for
/// `seconds`: the first at once, each later one after a pause of
/// `(1 / duty - 1)` times the previous write's duration, so writes fill
/// about `duty` of the phase on any graph and host. Runs on its own
/// thread so `compact` never stalls the query generator. Returns each
/// write with the batch it applied, in order.
pub fn writer(
    engine: &ServeEngine,
    tracer: &Tracer,
    pool: &ThreadPool,
    updates: &mut dyn Iterator<Item = Vec<Update>>,
    seconds: f64,
    duty: f64,
) -> Vec<(WriteRecord, Vec<Update>)> {
    let end = Instant::now() + Duration::from_secs_f64(seconds);
    let mut out = Vec::new();
    with_pool(pool, || {
        let mut due = Instant::now();
        while due < end {
            let batch = updates.next().expect("the update stream is endless");
            let text = inputs::ndjson(&batch);
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            let write = tracer.span("delta", "delta.update", None, |parent| {
                let t = Instant::now();
                let applied = tracer.span("delta", "serve.apply_update", parent, |_| {
                    engine.apply_update(&text)
                });
                let apply = t.elapsed().as_secs_f64();
                let tc = Instant::now();
                let c = tracer.span("delta", "serve.compact", parent, |_| engine.compact());
                WriteRecord {
                    apply,
                    compact: tc.elapsed().as_secs_f64(),
                    visible: t.elapsed().as_secs_f64(),
                    merged_ops: c.merged_ops,
                    resident_bytes: c.resident_bytes,
                    epoch: c.epoch,
                    error: applied.err().map(|e| e.to_string()),
                }
            });
            due = Instant::now() + Duration::from_secs_f64(write.visible * (1.0 / duty - 1.0));
            out.push((write, batch));
        }
    });
    out
}
