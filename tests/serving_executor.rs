//! Certification of the serving path: `Session::serve` must return
//! logits bitwise identical to a full `infer_epoch` restricted to the
//! queried vertices across the full {model × gpus × overlap} matrix,
//! the ≤ L-hop cone mask must cover a brute-force BFS oracle on random
//! graphs, every batch admitted against the session's own staging
//! budget must run within the static memory bound, and a served batch's
//! synthesized schedule must certify clean under the static passes —
//! including Paranoid, which re-certifies inside `serve` itself.
//!
//! The bitwise comparison works because the serve session and the
//! reference inference session are seeded identically by the dataset:
//! two fresh sessions hold the same initial weights, and the pruned
//! sweep computes exactly the same floating-point operations for the
//! rows it keeps.

use hongtu::core::{
    CommMode, HongTuConfig, Mode, OverlapMode, ServeMask, Session, ValidationLevel,
};
use hongtu::datasets::dataset::{with_self_loops, Dataset, DatasetKey, Splits};
use hongtu::datasets::load;
use hongtu::graph::generators;
use hongtu::nn::ModelKind;
use hongtu::partition::TwoLevelPartition;
use hongtu::serving::AdmissionControl;
use hongtu::sim::{MachineConfig, SimError};
use hongtu::tensor::{Matrix, SeededRng};
use hongtu::verify::DEFAULT_EXPLORE_BUDGET;
use proptest::prelude::*;

fn test_seed() -> u64 {
    std::env::var("HONGTU_TEST_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(99)
}

fn dataset() -> Dataset {
    load(DatasetKey::Rdt, &mut SeededRng::new(test_seed()))
}

fn config(gpus: usize, overlap: OverlapMode) -> HongTuConfig {
    HongTuConfig::builder()
        .machine(MachineConfig::scaled(gpus, 512 << 20))
        .comm(CommMode::P2pRu)
        .reorganize(true)
        .overlap(overlap)
        .mode(Mode::Infer)
        .build()
        .expect("valid config")
}

fn session(ds: &Dataset, kind: ModelKind, gpus: usize, overlap: OverlapMode) -> Session {
    Session::new(ds, kind, 16, 2, 4, config(gpus, overlap)).expect("session")
}

/// A query subset clustered in batch 0 (the regime where the cone
/// actually prunes) plus a couple of scattered vertices.
fn mixed_queries(session: &Session, count: usize, seed: u64) -> Vec<usize> {
    let mut pool: Vec<usize> = session
        .plans()
        .partition
        .all_chunks()
        .filter(|c| c.chunk == 0)
        .flat_map(|c| c.dests.iter().map(|&v| v as usize))
        .collect();
    pool.sort_unstable();
    let mut rng = SeededRng::new(seed);
    let mut q: Vec<usize> = rng
        .sample_indices(pool.len(), count.min(pool.len()))
        .into_iter()
        .map(|k| pool[k])
        .collect();
    q.push(0);
    q.dedup();
    q
}

/// Served logits are bitwise equal to `infer_epoch` restricted to the
/// queried rows, across every model, GPU count and overlap mode. The
/// serve runs first on its own fresh session so nothing about the full
/// sweep can leak into the pruned one.
#[test]
fn served_logits_match_infer_epoch_across_matrix() {
    let ds = dataset();
    for kind in [ModelKind::Gcn, ModelKind::Gat, ModelKind::Sage] {
        for gpus in [1usize, 2, 4] {
            for overlap in [OverlapMode::Off, OverlapMode::DoubleBuffer] {
                let (served, vertices) = {
                    let mut s = session(&ds, kind, gpus, overlap);
                    let vertices = mixed_queries(&s, 24, test_seed());
                    let report = s.serve(&vertices).expect("serve");
                    assert_eq!(report.logits.rows(), vertices.len());
                    assert!(report.active_steps <= report.total_steps);
                    (report.logits, vertices)
                };
                let full = {
                    let mut s = session(&ds, kind, gpus, overlap);
                    s.infer_epoch().expect("infer epoch").logits
                };
                assert_eq!(
                    served,
                    full.gather_rows(&vertices),
                    "{} / {gpus} GPUs / {overlap:?}: served logits diverged from infer_epoch",
                    kind.name()
                );
            }
        }
    }
}

/// The chunk-granular cone mask covers the exact vertex-level ≤ L-hop
/// dependency ball: at the step computing `h^{l+1}`, every vertex whose
/// row the queries transitively need (BFS over in-edges from the query
/// set, one hop per layer above `l`) must live in an active batch. The
/// mask may be larger (batch granularity), never smaller.
#[test]
fn cone_mask_covers_bfs_oracle_on_random_graphs() {
    for seed in [3u64, 17, 42] {
        let mut rng = SeededRng::new(seed);
        let g = generators::erdos_renyi(160 + rng.index(120), 4.0, &mut rng.fork(1));
        let n = g.num_vertices();
        for (m, chunks) in [(1usize, 4usize), (2, 4), (4, 2)] {
            let plan = TwoLevelPartition::build(&g, m, chunks, seed);
            let mut batch_of = vec![0usize; n];
            for c in plan.all_chunks() {
                for &v in &c.dests {
                    batch_of[v as usize] = c.chunk;
                }
            }
            for layers in [1usize, 2, 3] {
                let mut qrng = rng.fork(100 + layers as u64);
                let count = 1 + qrng.index(4);
                let queries = qrng.sample_indices(n, count);
                let mask = ServeMask::from_queries(&plan, layers, &queries);
                assert_eq!(mask.layers(), layers);

                let mut ball = vec![false; n];
                for &q in &queries {
                    ball[q] = true;
                }
                for l in (0..layers).rev() {
                    for v in 0..n {
                        if ball[v] {
                            assert!(
                                mask.active(l, batch_of[v]),
                                "seed {seed}, {m}x{chunks}, L={layers}: vertex {v} needed at \
                                 layer {l} but batch {} inactive",
                                batch_of[v]
                            );
                        }
                    }
                    let snapshot: Vec<usize> = (0..n).filter(|&v| ball[v]).collect();
                    for v in snapshot {
                        for &u in g.in_neighbors(v as u32) {
                            ball[u as usize] = true;
                        }
                    }
                }
                // Downward closure: a batch active at layer l+1 is
                // active at layer l.
                for l in 0..layers.saturating_sub(1) {
                    for j in 0..mask.batches() {
                        assert!(!mask.active(l + 1, j) || mask.active(l, j));
                    }
                }
            }
        }
    }
}

/// A served batch's synthesized schedule certifies clean under the
/// static passes (6–8 with exhaustive interleaving exploration on the
/// ≤ 2 GPU × 2 layer session, plus pass-9 dataflow conservation), and
/// Paranoid validation re-certifies inside `serve` itself.
#[test]
fn served_batch_schedule_certifies_with_paranoid() {
    let ds = dataset();
    let cfg = HongTuConfig::builder()
        .machine(MachineConfig::scaled(2, 512 << 20))
        .comm(CommMode::P2pRu)
        .reorganize(true)
        .overlap(OverlapMode::DoubleBuffer)
        .validation(ValidationLevel::Paranoid)
        .infer()
        .build()
        .expect("valid config");
    let mut session = Session::new(&ds, ModelKind::Gcn, 16, 2, 4, cfg).expect("session");
    let vertices = mixed_queries(&session, 16, test_seed());

    assert!(session.exhaustive_exploration_feasible());
    let report = session
        .certify_serve(&vertices, Some(DEFAULT_EXPLORE_BUDGET))
        .expect("schedule synthesis");
    assert!(report.is_ok(), "{}", report.render());

    // Paranoid re-runs schedule + dataflow certification inside the
    // epoch wrapper; a clean return IS the certificate.
    let served = session.serve(&vertices).expect("serve under Paranoid");
    assert_eq!(served.logits.rows(), vertices.len());
}

/// A sweep pruned to a clustered query set executes strictly fewer sim
/// events than the full inference sweep on an identical session.
#[test]
fn pruned_sweep_runs_strictly_fewer_events() {
    let ds = dataset();
    for overlap in [OverlapMode::Off, OverlapMode::DoubleBuffer] {
        let serve_events = {
            let mut s = session(&ds, ModelKind::Gcn, 4, overlap);
            let vertices = mixed_queries(&s, 16, test_seed());
            s.machine_mut().enable_unbounded_trace();
            let report = s.serve(&vertices).expect("serve");
            assert!(report.active_steps < report.total_steps);
            s.machine().trace().len()
        };
        let infer_events = {
            let mut s = session(&ds, ModelKind::Gcn, 4, overlap);
            s.machine_mut().enable_unbounded_trace();
            s.infer_epoch().expect("infer epoch");
            s.machine().trace().len()
        };
        assert!(
            serve_events < infer_events,
            "{overlap:?}: pruned sweep {serve_events} events !< full sweep {infer_events}"
        );
    }
}

/// An empty vertex set is a typed error from every entry point that
/// takes one, and leaves the session usable.
#[test]
fn empty_vertex_set_is_a_typed_error() {
    let ds = dataset();
    let mut s = session(&ds, ModelKind::Gcn, 2, OverlapMode::Off);
    let query = SimError::EmptyVertexSet { what: "query" };
    let dirty = SimError::EmptyVertexSet { what: "dirty set" };
    assert_eq!(s.serve(&[]).err(), Some(query.clone()));
    assert_eq!(s.synthesize_serve_schedule(&[]).err(), Some(query.clone()));
    assert_eq!(s.certify_serve(&[], None).err(), Some(query));
    assert_eq!(s.synthesize_delta_schedule(&[]).err(), Some(dirty.clone()));
    assert_eq!(s.certify_delta(&[], None).err(), Some(dirty));
    s.serve(&[0]).expect("session still serves");
}

/// A vertex id past the graph is a typed error from every entry point
/// that takes a vertex set, and leaves the session usable.
#[test]
fn out_of_range_vertex_is_a_typed_error() {
    let ds = dataset();
    let mut s = session(&ds, ModelKind::Gcn, 2, OverlapMode::Off);
    let n = ds.graph.num_vertices();
    let bad = [0, n];
    let err = |what| SimError::VertexOutOfRange {
        what,
        vertex: n,
        num_vertices: n,
    };
    assert_eq!(s.serve(&bad).err(), Some(err("query")));
    assert_eq!(s.synthesize_serve_schedule(&bad).err(), Some(err("query")));
    assert_eq!(s.certify_serve(&bad, None).err(), Some(err("query")));
    assert_eq!(
        s.synthesize_delta_schedule(&bad).err(),
        Some(err("dirty set"))
    );
    assert_eq!(s.certify_delta(&bad, None).err(), Some(err("dirty set")));
    s.serve(&[0]).expect("session still serves");
}

/// An ad-hoc random dataset (not from the registry).
fn random_dataset(seed: u64, n: usize) -> Dataset {
    let rng = SeededRng::new(seed);
    let g = generators::erdos_renyi(n, 5.0, &mut rng.fork(1));
    let graph = with_self_loops(&g);
    let mut frng = rng.fork(2);
    let features = Matrix::from_fn(n, 6, |_, _| frng.normal() * 0.5);
    let mut lrng = rng.fork(3);
    let labels: Vec<u32> = (0..n).map(|_| lrng.index(3) as u32).collect();
    let splits = Splits::random(n, 0.4, 0.2, &mut rng.fork(4));
    Dataset {
        key: DatasetKey::Rdt,
        graph,
        features,
        labels,
        splits,
        num_classes: 3,
        seed,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Any batch admitted against the session's own staging budget runs
    /// within the static memory bound: the cone cost the admission
    /// check uses is the same per-batch arithmetic the bound charges,
    /// so admission can never let an over-budget sweep through.
    #[test]
    fn admitted_batches_fit_static_memory_bound(
        seed in 0u64..200,
        n in 140usize..320,
        chunks in 2usize..5,
        queries in 1usize..12,
        overlap_sel in 0usize..2,
    ) {
        let overlap = [OverlapMode::Off, OverlapMode::DoubleBuffer][overlap_sel];
        let ds = random_dataset(seed, n);
        let cfg = HongTuConfig::builder()
            .machine(MachineConfig::scaled(2, 512 << 20))
            .comm(CommMode::P2pRu)
            .reorganize(true)
            .overlap(overlap)
            .infer()
            .build()
            .expect("valid config");
        let mut session = Session::new(&ds, ModelKind::Gcn, 8, 2, chunks, cfg).expect("session");
        let vertices = SeededRng::new(seed ^ 0xabcd).sample_indices(n, queries);
        let mask = ServeMask::from_queries(session.plans().partition, 2, &vertices);

        // The cone is a subset of the full sweep the staging slots were
        // sized for, so the session's own budget always admits it.
        let admission = AdmissionControl::from_session(&session);
        prop_assert!(admission.admits(&session, &mask));
        for (cost, budget) in session.serve_cone_cost(&mask).iter().zip(admission.budget()) {
            prop_assert!(cost <= budget);
        }

        let bound = session.static_memory_bound();
        let report = session.serve(&vertices).expect("serve");
        let worst = bound.gpu.iter().copied().max().unwrap_or(0);
        prop_assert!(
            report.peak_gpu_bytes <= worst,
            "measured GPU peak {} exceeds static bound {}",
            report.peak_gpu_bytes,
            worst
        );
        prop_assert_eq!(report.logits.rows(), vertices.len());
    }
}
