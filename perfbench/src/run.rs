//! One run of one workload, phase by phase: set-up, certification,
//! full-graph epochs, queries and updates, then the metrics.

use crate::layers;
use crate::serve::{self, Outcome, Rejection};
use crate::stats::{self, median, quantile, quantile_with_misses, MB};
use crate::trace::{self, timed};
use crate::workloads::{config, Spec, CHUNKS, GPUS, HIDDEN, LAYERS};
use hongtu_cache::{load_sets, CacheEvent, LoadPattern};
use hongtu_core::{HongTuConfig, Session};
use hongtu_datasets::{load, Dataset, DatasetKey};
use hongtu_delta::DynamicGraph;
use hongtu_partition::TwoLevelPartition;
use hongtu_serving::WorkItem;
use hongtu_sim::{SimError, TimeBuckets, Trace};
use hongtu_tensor::{Adam, Matrix, SeededRng};
use std::collections::BTreeSet;
use std::time::Instant;

/// Set-ups per run: at least `MIN_SETUPS`, more until `SETUP_SECONDS`
/// have been spent setting up, at most `MAX_SETUPS`; `setup_s` is their
/// median. Cheap set-ups get more samples over a longer stretch of time.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 9;
const SETUP_SECONDS: f64 = 8.0;
/// Certification rounds on each freshly set-up session; `certify_s` is
/// the median over all of them.
const CERTIFY_ROUNDS: usize = 2;
/// Fewest full-graph epochs timed after the first one.
const MIN_EPOCHS: usize = 3;
/// Stream items per second of `--seconds` on serving workloads.
const ITEMS_PER_SECOND: usize = 33;
/// Items of the short serving probe a traced training run drives.
const PROBE_ITEMS: usize = 20;
/// Query latency limit, in full-sweep simulated times.
const SLO_SWEEPS: f64 = 3.0;

/// Metrics, checks and records of one run.
pub struct Run {
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
    /// Deterministic outputs: equal for two runs with the same seed.
    pub deterministic: Vec<(&'static str, String)>,
    pub rejections: Vec<Rejection>,
    pub notes: Vec<String>,
}

impl Run {
    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        if !value.is_finite() {
            eprintln!("metric {name} is not finite: {value}");
            self.correct = false;
        }
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.push((name, value, unit));
    }

    /// A correctness check: one attempted operation, failed if `ok` is false.
    fn check(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.correct = false;
            eprintln!("check failed: {what}");
        }
    }

    fn det(&mut self, name: &'static str, value: impl std::fmt::Display) {
        self.deterministic.push((name, value.to_string()));
    }

    fn samples(&mut self, name: &str, xs: &[f64]) {
        let mut v = xs.to_vec();
        v.sort_by(f64::total_cmp);
        self.notes
            .push(format!("{name}: {} samples {v:.4?}", v.len()));
    }
}

/// The set-up phase: several sessions built from the same dataset,
/// the last one kept.
struct SetUp {
    session: Session,
    /// Simulated and host seconds of the kept session's priming
    /// inference sweep (serving workloads need it before the first delta).
    prime: Option<(f64, f64)>,
    setup_s: Vec<f64>,
    build_s: Vec<f64>,
    with_plan_s: Vec<f64>,
    /// `CERTIFY_ROUNDS` certification rounds of every fresh session.
    certified: Vec<Certified>,
}

fn set_up(ds: &Dataset, spec: &Spec, cfg: &HongTuConfig, r: &mut Run) -> Result<SetUp, SimError> {
    let mut kept = None;
    let mut first_print = None;
    let (mut setup_s, mut build_s, mut with_plan_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut certified = Vec::new();
    while setup_s.len() < MIN_SETUPS
        || (setup_s.iter().sum::<f64>() < SETUP_SECONDS && setup_s.len() < MAX_SETUPS)
    {
        drop(kept.take()); // free the previous session before building the next
        let (built, secs) = timed("setup", || -> Result<_, SimError> {
            let (plan, b) = timed("partition.build", || {
                TwoLevelPartition::build(&ds.graph, GPUS, CHUNKS, ds.seed)
            });
            let (session, w) = timed("session.with_plan", || {
                Session::with_plan(ds, spec.model, HIDDEN, LAYERS, plan, cfg.clone())
            });
            let mut session = session?;
            let prime = if spec.train {
                None
            } else {
                let (rep, secs) = timed("engine.infer_epoch", || session.infer_epoch());
                Some((rep?.time, secs))
            };
            Ok((session, prime, b, w))
        });
        let (session, prime, b, w) = built?;
        setup_s.push(secs);
        build_s.push(b);
        with_plan_s.push(w);
        let print = fingerprint(&session);
        let same = *first_print.get_or_insert_with(|| print.clone()) == print;
        r.check("set-ups of one seed build the same plans", same);
        for _ in 0..CERTIFY_ROUNDS {
            certified.push(certify(&session, r)?);
        }
        kept = Some((session, prime));
    }
    let (session, prime) = kept.expect("MIN_SETUPS > 0");
    Ok(SetUp {
        session,
        prime,
        setup_s,
        build_s,
        with_plan_s,
        certified,
    })
}

/// What identifies a session's plans: equal across set-ups of one seed.
fn fingerprint(s: &Session) -> String {
    format!(
        "{:?} {:?} {:?} {:?}",
        s.preprocessing().volumes,
        s.staging_budget(),
        s.static_memory_bound(),
        s.plans().cache.map(|c| c.total_rows())
    )
}

/// Host seconds of each pass of one certification round.
struct Certified {
    schedule_s: f64,
    dataflow_s: f64,
    cache_s: f64,
}

/// One round of `certify_schedule(None)`, `certify_dataflow()` and
/// `certify_cache()`, each report checked.
fn certify(session: &Session, r: &mut Run) -> Result<Certified, SimError> {
    let (rep, schedule_s) = timed("verify.schedule", || session.certify_schedule(None));
    r.check("schedule certification is ok", rep?.is_ok());
    let (rep, dataflow_s) = timed("verify.dataflow", || session.certify_dataflow());
    r.check("dataflow certification is ok", rep?.is_ok());
    let (rep, cache_s) = timed("verify.cache", || session.certify_cache());
    r.check("cache certification is ok", rep.is_ok());
    Ok(Certified {
        schedule_s,
        dataflow_s,
        cache_s,
    })
}

/// Cumulative (hit rows, load rows) of the session's cache.
fn cache_counts(s: &Session) -> (usize, usize) {
    s.cache()
        .map_or((0, 0), |c| (c.total_hits(), c.total_loads()))
}

/// The full-graph epoch phase.
struct Epochs {
    epoch_s: Vec<f64>,
    epoch_cpu_s: Vec<f64>,
    first_s: f64,
    /// Simulated time and buckets of the second training epoch, or of
    /// the first sweep after priming.
    sim_time: f64,
    buckets: TimeBuckets,
    /// Cache counts after the first epoch or the priming sweep.
    cache_first: (usize, usize),
    /// Host and simulated seconds of full inference sweeps: one after
    /// each timed training epoch, or the timed sweeps themselves.
    sweep_s: Vec<f64>,
    sweep_sim: Vec<f64>,
}

/// Host seconds (wall and process CPU) of the epochs timed so far.
#[derive(Default)]
struct EpochTimes {
    wall: Vec<f64>,
    cpu: Vec<f64>,
}

impl EpochTimes {
    fn time<R>(
        &mut self,
        name: &'static str,
        f: impl FnOnce() -> Result<R, SimError>,
    ) -> Result<R, SimError> {
        let cpu = stats::cpu_seconds();
        let (rep, secs) = timed(name, f);
        self.cpu.push(stats::cpu_seconds() - cpu);
        self.wall.push(secs);
        rep
    }
}

/// Training: a first epoch, then `count` more, each followed by one full
/// inference sweep, so both kinds of samples spread over the run; losses
/// checked. Inference: `count` sweeps after the priming one.
fn epochs(
    session: &mut Session,
    spec: &Spec,
    prime_s: Option<f64>,
    count: usize,
    r: &mut Run,
) -> Result<Epochs, SimError> {
    let mut times = EpochTimes::default();
    let mut steady = None;
    let (mut sweep_s, mut sweep_sim) = (Vec::new(), Vec::new());
    let first_s;
    let cache_first;
    if spec.train {
        // `Session::train_epoch` with an optimizer held here is what
        // `Trainer::epoch` runs; holding it lets sweeps run in between.
        let mut opt = Adam::new(session.config().lr);
        let (first, secs) = timed("engine.first_epoch", || session.train_epoch(&mut opt));
        first_s = secs;
        let mut losses = vec![first?.loss.loss];
        cache_first = cache_counts(session);
        for _ in 0..count {
            let rep = times.time("engine.epoch", || session.train_epoch(&mut opt))?;
            losses.push(rep.loss.loss);
            steady.get_or_insert((rep.time, rep.buckets));
            let (sweep, secs) = timed("engine.infer_epoch", || session.infer_epoch());
            sweep_sim.push(sweep?.time);
            sweep_s.push(secs);
        }
        for (k, l) in losses.iter().enumerate() {
            r.check(&format!("epoch {k} loss is finite"), l.is_finite());
        }
        r.check(
            "last epoch's loss is below the first",
            losses.last() < losses.first(),
        );
        let bits = losses.iter().map(|l| u64::from(l.to_bits()));
        r.det("loss_digest", format!("{:016x}", stats::digest(bits)));
        let logits = stats::digest_f32(session.logits().as_slice());
        r.det("logits_digest", format!("{logits:016x}"));
    } else {
        first_s = prime_s.expect("serving set-ups prime");
        cache_first = cache_counts(session);
        for _ in 0..count {
            let rep = times.time("engine.infer_epoch", || session.infer_epoch())?;
            sweep_sim.push(rep.time);
            if steady.is_none() {
                let digest = stats::digest_f32(rep.logits.as_slice());
                r.det("logits_digest", format!("{digest:016x}"));
                steady = Some((rep.time, rep.buckets));
            }
        }
        sweep_s = times.wall.clone();
    }
    let (sim_time, buckets) = steady.expect("at least one epoch is timed");
    Ok(Epochs {
        epoch_s: times.wall,
        epoch_cpu_s: times.cpu,
        first_s,
        sim_time,
        buckets,
        cache_first,
        sweep_s,
        sweep_sim,
    })
}

/// The queries-and-updates phase.
struct Items {
    /// Simulated time of a full inference sweep; the latency limit is
    /// `SLO_SWEEPS` of these.
    full_sweep: f64,
    query_lat: Vec<Option<f64>>,
    update_lat: Vec<Option<f64>>,
    items_per_s: f64,
    /// The serving stream, the graph it started from, and what driving
    /// it produced (serving workloads only).
    stream: Option<(Vec<WorkItem>, DynamicGraph, Outcome)>,
    /// A query's vertices and the rows it was served, for the bitwise
    /// check against a full sweep.
    served: (Vec<usize>, Matrix),
}

/// Serving workloads drive the open-loop stream through the serving
/// layer. Training workloads have no serving layer in their path: every
/// item there is answered by a full inference sweep of the model (the
/// sweeps of the epoch phase), so serving and delta changes read no
/// change on them.
fn items(
    session: &mut Session,
    ds: &Dataset,
    spec: &Spec,
    prime_sim: Option<f64>,
    ep: &Epochs,
    seconds: f64,
    rng: &mut SeededRng,
) -> Result<Items, SimError> {
    let Some(full_sweep) = prime_sim else {
        let q = serve::clustered_query(session, rng);
        let served = session.serve(&q)?.logits;
        let query_lat: Vec<Option<f64>> = ep.sweep_sim.iter().copied().map(Some).collect();
        return Ok(Items {
            full_sweep: ep.sweep_sim[0],
            update_lat: query_lat.clone(),
            query_lat,
            items_per_s: 1.0 / median(&ep.sweep_s),
            stream: None,
            served: (q, served),
        });
    };
    let mut dg = DynamicGraph::from_dataset(ds);
    let start = dg.clone();
    let count = ITEMS_PER_SECOND * seconds.round().max(1.0) as usize;
    let stream = serve::stream(session, &dg, count, spec.mix, full_sweep, &mut rng.fork(2));
    let (o, _) = timed("serving.drive", || {
        serve::drive(session, &mut dg, stream.clone())
    });
    let mut o = o?;
    let served = match o.last_served.take() {
        Some(s) => s,
        None => {
            // Nothing was served after the last commit: serve one query
            // directly so the comparison sees the final graph.
            let q = serve::clustered_query(session, rng);
            let rows = session.serve(&q)?.logits;
            (q, rows)
        }
    };
    Ok(Items {
        full_sweep,
        query_lat: o.query_lat.clone(),
        update_lat: o.update_lat.clone(),
        items_per_s: o.completed() as f64 / o.host_s,
        stream: Some((stream, start, o)),
        served,
    })
}

fn bits_equal(a: &Matrix, b: &Matrix) -> bool {
    a.shape() == b.shape()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Runs one workload. End-to-end metrics always come from an untraced
/// run; a traced run reports the per-layer metrics instead.
pub fn run(spec: &Spec, seed: u64, seconds: f64, traced: bool) -> Result<Run, SimError> {
    let wall = Instant::now();
    let mut r = Run {
        metrics: Vec::new(),
        attempted: 0,
        failed: 0,
        correct: true,
        deterministic: Vec::new(),
        rejections: Vec::new(),
        notes: Vec::new(),
    };
    let mut rng = SeededRng::new(seed ^ 0x5eed_5eed);
    let (ds, generate_s) = timed("datasets.generate", || {
        load(spec.dataset, &mut SeededRng::new(seed))
    });
    let cfg = config(spec, GPUS);

    let set = set_up(&ds, spec, &cfg, &mut r)?;
    let mut session = set.session;
    let certified = set.certified;
    // A fixed count per workload, sized to `seconds` on a 2-vCPU host, so
    // that every simulator reading after the epochs repeats exactly.
    let count = (spec.epochs_per_10s as f64 * seconds / 10.0).round() as usize;
    let prime_s = set.prime.map(|p| p.1);
    let ep = epochs(&mut session, spec, prime_s, count.max(MIN_EPOCHS), &mut r)?;
    let prime_sim = set.prime.map(|p| p.0);
    let it = items(&mut session, &ds, spec, prime_sim, &ep, seconds, &mut rng)?;

    // Deterministic readings, taken before the checks below add sweeps.
    let peak_gpu = session.machine().max_gpu_peak();
    let peak_host = session.machine().host_memory().peak();
    r.det("sim_epoch_s", ep.sim_time);
    r.det("peak_bytes", format!("{peak_gpu} {peak_host}"));
    let b = &ep.buckets;
    r.det(
        "epoch_bytes",
        format!(
            "{} {} {} {}",
            b.bytes_h2d, b.bytes_d2h, b.bytes_d2d, b.bytes_reuse
        ),
    );
    let lat_bits = it
        .query_lat
        .iter()
        .chain(&it.update_lat)
        .map(|l| l.map_or(u64::MAX, f64::to_bits));
    r.det(
        "item_latency_digest",
        format!("{:016x}", stats::digest(lat_bits)),
    );
    let cache_end = cache_counts(&session);

    // The served rows against a full sweep on the same graph state, and
    // a last certification of the final state.
    let (q, rows) = &it.served;
    let full = session.infer_epoch()?;
    r.check(
        "served rows equal the same rows of a full inference sweep",
        bits_equal(rows, &full.logits.gather_rows(q)),
    );
    certify(&session, &mut r)?;

    // Every query and update is an attempted operation; a refused one failed.
    if let Some((_, _, o)) = &it.stream {
        r.attempted += (o.query_lat.len() + o.update_lat.len()) as u64;
        r.failed += o.rejections.len() as u64;
        r.rejections = o.rejections.clone();
        r.det(
            "rejected",
            format!(
                "{} of {}",
                o.rejections.len(),
                o.query_lat.len() + o.update_lat.len()
            ),
        );
    }

    let certify_s: Vec<f64> = certified
        .iter()
        .map(|c| c.schedule_s + c.dataflow_s + c.cache_s)
        .collect();
    let limit = SLO_SWEEPS * it.full_sweep;
    r.samples("setup_s", &set.setup_s);
    r.samples("epoch_s", &ep.epoch_s);
    r.samples("certify_s", &certify_s);
    r.samples("full inference sweeps", &ep.sweep_s);
    r.notes.push(format!(
        "{} queries, {} updates; latency limit {:.4} ms",
        it.query_lat.len(),
        it.update_lat.len(),
        limit * 1e3
    ));

    if !traced {
        let within = it
            .query_lat
            .iter()
            .flatten()
            .filter(|&&l| l <= limit)
            .count();
        r.metric("setup_s", median(&set.setup_s), "s");
        r.metric("sim_epoch_ms", ep.sim_time * 1e3, "ms");
        r.metric("peak_gpu_mb", peak_gpu as f64 / MB, "MB");
        r.metric("peak_host_mb", peak_host as f64 / MB, "MB");
        r.metric("rss_peak_mb", stats::rss_peak_mb(), "MB");
        let queries = it.query_lat.len().max(1) as f64;
        r.metric("query_slo_share", within as f64 / queries, "ratio");
        let q50 = quantile_with_misses(&it.query_lat, 0.5, limit);
        r.metric("query_sim_p50_ms", q50 * 1e3, "ms");
        let q95 = quantile_with_misses(&it.query_lat, 0.95, limit);
        r.metric("query_sim_p95_ms", q95 * 1e3, "ms");
        let u50 = quantile_with_misses(&it.update_lat, 0.5, limit);
        r.metric("update_sim_p50_ms", u50 * 1e3, "ms");
        r.notes.push(format!(
            "host, reported and not gated: epoch_s {:.4} s, certify_s {:.4} s, \
             serve_items_per_s {:.3} 1/s",
            median(&ep.epoch_s),
            median(&certify_s),
            it.items_per_s
        ));
        return Ok(r);
    }

    // ================= traced run: per-layer metrics =================
    r.metric("datasets.generate_s", generate_s, "s");
    partition_metrics(
        &mut r,
        &ds,
        &cfg,
        median(&set.build_s),
        median(&set.with_plan_s),
        &session,
    );

    let (synth, synthesize_s) = timed("verify.synthesize", || session.synthesize_schedule());
    r.metric("verify.synthesize_s", synthesize_s, "s");
    let pick = |f: fn(&Certified) -> f64| median(&certified.iter().map(f).collect::<Vec<_>>());
    r.metric("verify.schedule_s", pick(|c| c.schedule_s), "s");
    r.metric("verify.dataflow_s", pick(|c| c.dataflow_s), "s");
    r.metric("verify.cache_s", pick(|c| c.cache_s), "s");
    let synth = synth?;
    r.metric("verify.events", synth.len() as f64, "count");
    r.metric("verify.certify_s", median(&certify_s), "s");
    r.metric(
        "session.preprocessing_modelled_s",
        session.preprocessing().seconds,
        "s",
    );

    let epoch = median(&ep.epoch_s);
    r.metric("engine.epoch_s", epoch, "s");
    r.metric("engine.first_epoch_s", ep.first_s, "s");
    r.metric("engine.infer_epoch_s", median(&ep.sweep_s), "s");
    r.metric("engine.epoch_cpu_s", median(&ep.epoch_cpu_s), "s");

    let dims = ds.model_dims(HIDDEN, LAYERS);
    let k = layers::replay_kernels(session.plans().partition, &dims, spec.model, spec.train);
    r.metric("tensor.spmm_s", k.spmm.secs, "s");
    r.metric("tensor.spmm_gflops", k.spmm.gflops(), "GFLOP/s");
    r.metric("tensor.matmul_s", k.matmul.secs, "s");
    r.metric("tensor.matmul_gflops", k.matmul.gflops(), "GFLOP/s");
    r.metric("tensor.softmax_s", k.softmax.secs, "s");
    r.metric("tensor.gather_s", k.gather.secs, "s");
    r.metric("tensor.gflop", k.model.flops * 1e-9, "GFLOP");
    r.metric("tensor.moved_mb", k.model.bytes / MB, "MB");
    r.metric("tensor.kernel_share", k.model.secs / epoch, "ratio");

    sim_metrics(&mut r, &ep, &session, &synth, &ds, spec)?;
    cache_metrics(&mut r, &session, ep.cache_first, cache_end);

    // Training workloads measure the serving and delta layers on a short
    // probe stream against the trained model.
    let (stream, start, o) = match it.stream {
        Some(s) => s,
        None => {
            let mut dg = DynamicGraph::from_dataset(&ds);
            let start = dg.clone();
            let stream = serve::stream(
                &session,
                &dg,
                PROBE_ITEMS,
                spec.mix,
                it.full_sweep,
                &mut rng.fork(3),
            );
            let (o, _) = timed("serving.drive", || {
                serve::drive(&mut session, &mut dg, stream.clone())
            });
            let o = o?;
            r.rejections = o.rejections.clone();
            (stream, start, o)
        }
    };
    serving_metrics(&mut r, &session, &stream, &start, &o);

    let overhead = trace::count() as f64 * trace::span_cost(100_000) / wall.elapsed().as_secs_f64();
    r.metric("trace.overhead_share", overhead, "ratio");
    Ok(r)
}

/// Partition, reorganization, dedup, buffer and plan-verification
/// metrics, each stage rerun on its own on the workload's graph.
fn partition_metrics(
    r: &mut Run,
    ds: &Dataset,
    cfg: &HongTuConfig,
    build_s: f64,
    with_plan_s: f64,
    session: &Session,
) {
    let parts = layers::partition_parts(&ds.graph, GPUS, CHUNKS, ds.seed);
    r.metric("partition.build_s", build_s, "s");
    r.metric("partition.multilevel_s", parts.multilevel_s, "s");
    r.metric("partition.range_s", parts.range_s, "s");
    r.metric("partition.chunking_s", parts.chunking_s, "s");
    r.metric(
        "partition.multilevel_cut",
        parts.multilevel_cut as f64,
        "count",
    );
    r.metric("partition.range_cut", parts.range_cut as f64, "count");
    r.metric("partition.discarded_s", parts.discarded_s(), "s");
    r.metric("partition.imbalance", parts.imbalance, "ratio");
    r.metric("partition.replication", parts.replication, "ratio");
    let kept = if parts.kept_range {
        "range"
    } else {
        "multilevel"
    };
    r.notes.push(format!(
        "the partition portfolio kept the {kept} assignment"
    ));
    r.det("partition_kept", kept);
    r.check(
        "the portfolio rerun keeps the session's assignment",
        parts.plan.assignment == session.plans().partition.assignment,
    );

    let row_bytes = ds.feat_dim() * std::mem::size_of::<f32>();
    let st = layers::plan_stages(&ds.graph, &parts.plan, cfg, row_bytes);
    r.check("verifier passes 1-4 accept the plan", st.verify_ok);
    r.metric("reorg.s", st.reorg_s, "s");
    r.metric("reorg.eq4_before_ms", st.eq4_before_s * 1e3, "ms");
    r.metric("reorg.eq4_after_ms", st.eq4_after_s * 1e3, "ms");
    r.metric("reorg.accepted", f64::from(u8::from(st.accepted)), "count");
    r.metric("dedup.build_s", st.dedup_s, "s");
    r.metric("dedup.v_ori", st.volumes.v_ori as f64, "count");
    r.metric("dedup.v_p2p", st.volumes.v_p2p as f64, "count");
    r.metric("dedup.v_ru", st.volumes.v_ru as f64, "count");
    r.metric("dedup.h2d_reduction", st.volumes.h2d_reduction(), "ratio");
    r.metric("buffers.build_s", st.buffers_s, "s");
    r.metric("buffers.rows_written", st.rows_written as f64, "count");
    r.metric("verify.plan_s", st.verify_s, "s");
    r.metric("session.with_plan_s", with_plan_s, "s");
    let stages = st.reorg_s + st.dedup_s + st.buffers_s + st.verify_s;
    r.metric("session.residual_s", with_plan_s - stages, "s");
}

/// Simulator buckets of the steady epoch, the overlap estimate and the
/// single-GPU reference.
fn sim_metrics(
    r: &mut Run,
    ep: &Epochs,
    session: &Session,
    synth: &Trace,
    ds: &Dataset,
    spec: &Spec,
) -> Result<(), SimError> {
    let b = &ep.buckets;
    let per_gpu = |x: f64| x / GPUS as f64;
    r.metric("sim.h2d_ms", b.h2d * 1e3, "ms");
    r.metric("sim.d2d_ms", b.d2d * 1e3, "ms");
    r.metric("sim.gpu_ms", b.gpu * 1e3, "ms");
    r.metric("sim.cpu_ms", b.cpu * 1e3, "ms");
    r.metric("sim.reuse_ms", b.reuse * 1e3, "ms");
    r.metric("sim.h2d_mb", b.bytes_h2d as f64 / MB, "MB");
    r.metric("sim.d2h_mb", b.bytes_d2h as f64 / MB, "MB");
    r.metric("sim.d2d_mb", b.bytes_d2d as f64 / MB, "MB");
    r.metric("sim.reuse_mb", b.bytes_reuse as f64 / MB, "MB");
    r.metric(
        "sim.gpu_idle_share",
        1.0 - per_gpu(b.gpu) / ep.sim_time,
        "ratio",
    );
    let scaling = if spec.dataset == DatasetKey::Opr {
        single_gpu_epoch(ds, spec)? / ep.sim_time
    } else {
        0.0
    };
    r.metric("sim.scaling_1gpu_x", scaling, "x");

    let staging: usize = session.staging_budget().iter().map(|b| 2 * b).sum();
    r.metric("stream.staging_mb", staging as f64 / MB, "MB");
    let hidden = layers::hidden_comm_share(synth);
    r.metric("stream.hidden_comm_share", hidden, "ratio");
    Ok(())
}

/// Simulated time of a steady training epoch on a 1-GPU machine of the
/// same kind, the reference `sim.scaling_1gpu_x` divides by.
fn single_gpu_epoch(ds: &Dataset, spec: &Spec) -> Result<f64, SimError> {
    let (s, _) = timed("sim.single_gpu_setup", || {
        let plan = TwoLevelPartition::build(&ds.graph, 1, CHUNKS, ds.seed);
        Session::with_plan(ds, spec.model, HIDDEN, LAYERS, plan, config(spec, 1))
    });
    let mut s = s?;
    let mut tr = s.trainer();
    tr.epoch()?;
    let (rep, _) = timed("sim.single_gpu_epoch", || tr.epoch());
    Ok(rep?.time)
}

fn cache_metrics(r: &mut Run, session: &Session, first: (usize, usize), end: (usize, usize)) {
    let plans = session.plans();
    let admitted = plans.cache.map_or(0, |c| c.total_rows());
    let sets = load_sets(
        plans.partition,
        plans.dedup,
        plans.buffers,
        LoadPattern::P2pRu,
    );
    let candidates: usize = sets
        .iter()
        .map(|per_batch| per_batch.iter().flatten().collect::<BTreeSet<_>>().len())
        .sum();
    let invalidated: usize = session.cache().map_or(0, |c| {
        c.log()
            .events
            .iter()
            .map(|e| match e {
                CacheEvent::Invalidate { removed, .. } => removed.iter().map(Vec::len).sum(),
                CacheEvent::Sweep { .. } => 0,
            })
            .sum()
    });
    r.metric("cache.admitted_rows", admitted as f64, "count");
    r.metric(
        "cache.admitted_share",
        admitted as f64 / candidates.max(1) as f64,
        "ratio",
    );
    let loads = (end.1 - first.1).max(1) as f64;
    r.metric(
        "cache.steady_hit_rate",
        (end.0 - first.0) as f64 / loads,
        "ratio",
    );
    r.metric("cache.invalidated_rows", invalidated as f64, "count");
}

fn serving_metrics(
    r: &mut Run,
    session: &Session,
    stream: &[WorkItem],
    start: &DynamicGraph,
    o: &Outcome,
) {
    let completed = o.completed() as f64 / o.host_s;
    r.metric("serving.items_per_s", completed, "1/s");
    r.metric("serving.step_p50_ms", median(&o.query_steps) * 1e3, "ms");
    r.metric(
        "serving.step_p90_ms",
        quantile(&o.query_steps, 0.9) * 1e3,
        "ms",
    );
    let batches = o.batch_sizes.len().max(1) as f64;
    let packed = o.batch_sizes.iter().sum::<usize>() as f64;
    r.metric("serving.batch_mean", packed / batches, "count");
    let active = o.sweep_active as f64 / o.sweep_total.max(1) as f64;
    r.metric("serving.pruned_share", 1.0 - active, "ratio");
    r.metric("serving.cone_s", serve::cone_seconds(session, stream), "s");
    let refused = |lat: &[Option<f64>]| lat.iter().filter(|l| l.is_none()).count() as f64;
    r.metric("serving.rejected", refused(&o.query_lat), "count");
    let stage = serve::stage_seconds(start, stream, &o.committed);
    r.metric("delta.stage_s", median(&stage), "s");
    r.metric("delta.apply_p50_ms", median(&o.commit_steps) * 1e3, "ms");
    let replayed = o.commit_active as f64 / o.commit_total.max(1) as f64;
    r.metric("delta.active_share", replayed, "ratio");
    let commits = o.committed.len().max(1) as f64;
    r.metric(
        "delta.dirty_vertices",
        o.dirty_vertices as f64 / commits,
        "count",
    );
    r.metric("delta.rebuilt_chunks", o.rebuilt_chunks as f64, "count");
    r.metric("delta.rejected", refused(&o.update_lat), "count");
}
