//! The open-loop serving stream: generation from the seed and the drive
//! loop through `Server::step`, with per-item outcomes kept for the
//! metrics and for the rejection records.

use crate::trace;
use hongtu_core::{ServeMask, Session};
use hongtu_delta::{toggle_workload, DeltaMix, DynamicGraph};
use hongtu_serving::{
    AdmissionControl, Request, Server, UpdateRejectReason, UpdateRequest, WorkItem,
};
use hongtu_sim::SimError;
use hongtu_tensor::{Matrix, SeededRng};
use std::time::Instant;

/// Vertices per query, all drawn from one chunk's destination set.
const QUERY_VERTICES: usize = 16;
/// Every tenth item is an update, the other nine are queries.
const UPDATE_EVERY: usize = 10;
/// Deltas per update. Several per update make an update's replay cone
/// the union of several random cones, so its cost varies less between
/// updates than one hub-or-leaf vertex's cone would.
const DELTAS_PER_UPDATE: usize = 4;
/// Poisson arrivals per full-sweep simulated time. At 2 the server ran
/// close to saturation, and over ten seeds the p95 query latency and the
/// median update latency spread by 0.19 and 0.21 (interquartile distance
/// over median); at 1 both spread by 0.05.
const ARRIVALS_PER_SWEEP: f64 = 1.0;
/// Most queries one pruned sweep may pack.
const BATCH_WINDOW: usize = 8;

/// A clustered query: `QUERY_VERTICES` distinct destinations of one
/// uniformly chosen chunk of the session's plan.
pub fn clustered_query(session: &Session, rng: &mut SeededRng) -> Vec<usize> {
    let plan = session.plans().partition;
    let chunk = &plan.chunks[rng.index(plan.m)][rng.index(plan.n)];
    let k = QUERY_VERTICES.min(chunk.dests.len());
    rng.sample_indices(chunk.dests.len(), k)
        .into_iter()
        .map(|i| chunk.dests[i] as usize)
        .collect()
}

/// `count` items with exponential inter-arrival times at
/// `ARRIVALS_PER_SWEEP / full_sweep` per simulated second. Item `k` is
/// an update (`DELTAS_PER_UPDATE` deltas of kind `mix`) when `k % UPDATE_EVERY` is the
/// last slot, otherwise a clustered query.
pub fn stream(
    session: &Session,
    dg: &DynamicGraph,
    count: usize,
    mix: DeltaMix,
    full_sweep: f64,
    rng: &mut SeededRng,
) -> Vec<WorkItem> {
    let rate = ARRIVALS_PER_SWEEP / full_sweep;
    let updates = count / UPDATE_EVERY;
    let mut batches = toggle_workload(
        dg.graph(),
        dg.features().cols(),
        updates,
        DELTAS_PER_UPDATE,
        mix,
        &mut rng.fork(1),
    )
    .into_iter();
    let mut t = 0.0f64;
    (0..count)
        .map(|k| {
            t += -(1.0 - rng.uniform() as f64).ln() / rate;
            let id = k as u64;
            if k % UPDATE_EVERY == UPDATE_EVERY - 1 {
                WorkItem::Update(UpdateRequest {
                    id,
                    deltas: batches.next().expect("one delta batch per update"),
                    arrival: t,
                })
            } else {
                WorkItem::Query(Request {
                    id,
                    vertices: clustered_query(session, rng),
                    arrival: t,
                })
            }
        })
        .collect()
}

/// A query or update the server refused, with the reason and the
/// per-GPU overshoot `cone_bytes - budget_bytes` where one applies.
#[derive(Debug, Clone)]
pub struct Rejection {
    pub id: u64,
    pub kind: &'static str,
    pub reason: String,
    pub overshoot: Vec<i64>,
}

fn overshoot(cone: &[usize], budget: &[usize]) -> Vec<i64> {
    cone.iter()
        .zip(budget)
        .map(|(&c, &b)| c as i64 - b as i64)
        .collect()
}

/// Everything one drive of a stream produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Simulated latency per attempted query in seconds, `None` if refused.
    pub query_lat: Vec<Option<f64>>,
    /// Simulated commit latency per attempted update, `None` if refused.
    pub update_lat: Vec<Option<f64>>,
    /// Host seconds of each step that ran a query sweep.
    pub query_steps: Vec<f64>,
    /// Host seconds of each step that committed an update.
    pub commit_steps: Vec<f64>,
    pub batch_sizes: Vec<usize>,
    pub sweep_active: usize,
    pub sweep_total: usize,
    pub commit_active: usize,
    pub commit_total: usize,
    pub dirty_vertices: usize,
    pub rebuilt_chunks: usize,
    /// Ids of committed updates, in commit order.
    pub committed: Vec<u64>,
    pub rejections: Vec<Rejection>,
    /// Host seconds of the whole drive loop.
    pub host_s: f64,
    /// The latest served query since the last commit: its vertices and
    /// the logits rows it was served.
    pub last_served: Option<(Vec<usize>, Matrix)>,
}

impl Outcome {
    pub fn completed(&self) -> usize {
        self.query_lat
            .iter()
            .chain(&self.update_lat)
            .flatten()
            .count()
    }
}

/// Drives `items` (sorted by arrival) through a `Server` on the
/// simulated clock: items are enqueued as the clock passes their
/// arrival, the server batches work-conservingly, and the clock idles
/// forward when the queue runs dry. The admission budget is the
/// session's own staging budget.
pub fn drive(
    session: &mut Session,
    dg: &mut DynamicGraph,
    items: Vec<WorkItem>,
) -> Result<Outcome, SimError> {
    let vertices_of: std::collections::HashMap<u64, Vec<usize>> = items
        .iter()
        .filter_map(|w| match w {
            WorkItem::Query(r) => Some((r.id, r.vertices.clone())),
            WorkItem::Update(_) => None,
        })
        .collect();
    let admission = AdmissionControl::from_session(session);
    let mut server = Server::with_graph(session, dg, admission, BATCH_WINDOW);
    let mut out = Outcome::default();
    let mut pending = items.into_iter().peekable();
    let start = Instant::now();
    loop {
        while pending
            .peek()
            .is_some_and(|w| w.arrival() <= server.clock())
        {
            server.submit_work(pending.next().expect("peeked"));
        }
        if server.queue_len() == 0 {
            match pending.next() {
                Some(w) => {
                    server.advance_to(w.arrival());
                    server.submit_work(w);
                }
                None => break,
            }
        }
        let (report, secs) = trace::timed("serving.step", || server.step());
        let Some(b) = report? else { continue };
        for o in &b.rejected {
            out.query_lat.push(None);
            out.rejections.push(Rejection {
                id: o.id,
                kind: "query",
                reason: "Overloaded".to_string(),
                overshoot: overshoot(&o.cone_bytes, &o.budget_bytes),
            });
        }
        for u in &b.rejected_updates {
            out.update_lat.push(None);
            let (reason, over) = match &u.reason {
                UpdateRejectReason::OverBudget {
                    cone_bytes,
                    budget_bytes,
                } => (
                    "OverBudget".to_string(),
                    overshoot(cone_bytes, budget_bytes),
                ),
                UpdateRejectReason::Invalid(e) => (format!("Invalid: {e}"), Vec::new()),
            };
            out.rejections.push(Rejection {
                id: u.id,
                kind: "update",
                reason,
                overshoot: over,
            });
        }
        if !b.committed.is_empty() {
            out.commit_steps.push(secs);
            out.commit_active += b.active_steps;
            out.commit_total += b.total_steps;
            out.last_served = None;
            for c in &b.committed {
                out.update_lat.push(Some(c.latency));
                out.dirty_vertices += c.dirty_vertices;
                out.rebuilt_chunks += c.rebuilt_chunks;
                out.committed.push(c.id);
            }
        }
        if b.batch_size > 0 {
            out.query_steps.push(secs);
            out.batch_sizes.push(b.batch_size);
            out.sweep_active += b.active_steps;
            out.sweep_total += b.total_steps;
            for s in &b.served {
                out.query_lat.push(Some(s.latency));
            }
            if let Some(s) = b.served.last() {
                out.last_served = Some((vertices_of[&s.id].clone(), s.logits.clone()));
            }
        }
    }
    out.host_s = start.elapsed().as_secs_f64();
    Ok(out)
}

/// Median host seconds to price one query's cone: the mask from the
/// plan plus its per-GPU staging cost, the work admission repeats for
/// every candidate it considers.
pub fn cone_seconds(session: &Session, items: &[WorkItem]) -> f64 {
    let layers = session.model().num_layers();
    let times: Vec<f64> = items
        .iter()
        .filter_map(|w| match w {
            WorkItem::Query(r) => Some(&r.vertices),
            WorkItem::Update(_) => None,
        })
        .map(|v| {
            trace::timed("serving.cone", || {
                let mask = ServeMask::from_queries(session.plans().partition, layers, v);
                std::hint::black_box(session.serve_cone_cost(&mask))
            })
            .1
        })
        .collect();
    crate::stats::median(&times)
}

/// Host seconds of `DynamicGraph::stage` for each update of the stream,
/// replayed on a copy of the starting graph in stream order, committing
/// exactly the updates the server committed.
pub fn stage_seconds(start: &DynamicGraph, items: &[WorkItem], committed: &[u64]) -> Vec<f64> {
    let mut dg = start.clone();
    let mut times = Vec::new();
    for w in items {
        let WorkItem::Update(u) = w else { continue };
        let (staged, secs) = trace::timed_item("delta.stage", Some(u.id), || dg.stage(&u.deltas));
        times.push(secs);
        if let (Ok(staged), true) = (staged, committed.contains(&u.id)) {
            dg.commit(staged);
        }
    }
    times
}
