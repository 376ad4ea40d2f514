//! Standalone per-layer measurements for the traced run. Each one times
//! the public calls a session makes during set-up (or the kernels an
//! epoch runs) on the workload's own graph and plan, so the layer's cost
//! can be read apart from the session that wraps it.

use crate::trace::timed;
use hongtu_core::{
    comm_cost_cached, reorganize_guarded_cached, CommVolumes, DedupPlan, GpuBufferPlan,
    HongTuConfig,
};
use hongtu_graph::Graph;
use hongtu_nn::ModelKind;
use hongtu_partition::multilevel::metis_like;
use hongtu_partition::{range_partition, PartitionQuality, TwoLevelPartition};
use hongtu_sim::{Device, EventKind, Trace};
use hongtu_tensor::ops::{softmax_backward_segment, softmax_in_place};
use hongtu_tensor::{CsrMatrix, Matrix};
use std::collections::BTreeMap;
use std::hint::black_box;

/// The partitioner portfolio of `TwoLevelPartition::build`, taken apart:
/// both level-1 candidates timed on their own, their cuts, which one the
/// portfolio keeps (the smaller cut; the multilevel one on a tie), and
/// the level-2 chunking of the kept assignment.
pub struct PartitionParts {
    pub multilevel_s: f64,
    pub range_s: f64,
    pub chunking_s: f64,
    pub multilevel_cut: usize,
    pub range_cut: usize,
    pub kept_range: bool,
    pub imbalance: f64,
    pub replication: f64,
    pub plan: TwoLevelPartition,
}

impl PartitionParts {
    /// Seconds spent on the candidate the portfolio threw away.
    pub fn discarded_s(&self) -> f64 {
        if self.kept_range {
            self.multilevel_s
        } else {
            self.range_s
        }
    }
}

pub fn partition_parts(g: &Graph, m: usize, n: usize, seed: u64) -> PartitionParts {
    let (ml, multilevel_s) = timed("partition.multilevel", || metis_like(g, m, seed));
    let (range, range_s) = timed("partition.range", || range_partition(g.num_vertices(), m));
    let multilevel_cut = PartitionQuality::measure(g, &ml).cut_edges;
    let range_cut = PartitionQuality::measure(g, &range).cut_edges;
    let kept_range = range_cut < multilevel_cut;
    let kept = if kept_range { range } else { ml };
    let imbalance = PartitionQuality::measure(g, &kept).imbalance;
    let (plan, chunking_s) = timed("partition.chunking", || {
        TwoLevelPartition::from_assignment(g, kept, n)
    });
    PartitionParts {
        multilevel_s,
        range_s,
        chunking_s,
        multilevel_cut,
        range_cut,
        kept_range,
        imbalance,
        replication: plan.v_ori() as f64 / g.num_vertices() as f64,
        plan,
    }
}

/// The planning stages `Session::with_plan` runs before allocation,
/// each timed on its own: the guarded reorganization with Equation 4
/// before and after, the dedup plan, the buffer plans, and verifier
/// passes 1-4.
pub struct PlanStages {
    pub reorg_s: f64,
    pub eq4_before_s: f64,
    pub eq4_after_s: f64,
    pub accepted: bool,
    pub dedup_s: f64,
    pub volumes: CommVolumes,
    pub buffers_s: f64,
    pub rows_written: usize,
    pub verify_s: f64,
    pub verify_ok: bool,
}

/// `row_bytes` is the layer-0 feature row size; the reorganization's
/// cache-row budget follows the session's own rule (half the device in
/// feature rows when a cache policy is on, else none).
pub fn plan_stages(
    g: &Graph,
    plan: &TwoLevelPartition,
    cfg: &HongTuConfig,
    row_bytes: usize,
) -> PlanStages {
    let budget = if cfg.cache.enabled() {
        cfg.machine.gpu_memory / 2 / row_bytes.max(1)
    } else {
        0
    };
    let eq4 = |d: &DedupPlan| {
        comm_cost_cached(CommVolumes::from_plan(d), budget, &cfg.machine, row_bytes)
    };
    let eq4_before_s = eq4(&DedupPlan::build(plan));
    let (reorganized, reorg_s) = timed("reorg", || {
        reorganize_guarded_cached(plan.clone(), &cfg.machine, budget)
    });
    let accepted = reorganized
        .all_chunks()
        .zip(plan.all_chunks())
        .any(|(a, b)| a.dests != b.dests);
    let (dedup, dedup_s) = timed("dedup.build", || DedupPlan::build(&reorganized));
    let (bufs, buffers_s) = timed("buffers.build", || {
        GpuBufferPlan::build_all(&reorganized, &dedup)
    });
    let (report, verify_s) = timed("verify.plan", || {
        hongtu_verify::verify_all(g, &reorganized, &dedup, &bufs)
    });
    PlanStages {
        reorg_s,
        eq4_before_s,
        eq4_after_s: eq4(&dedup),
        accepted,
        dedup_s,
        volumes: CommVolumes::from_plan(&dedup),
        buffers_s,
        rows_written: bufs.iter().map(GpuBufferPlan::rows_written).sum(),
        verify_s,
        verify_ok: report.is_ok(),
    }
}

/// Time, floating-point operations and computed bytes moved of one
/// kernel family over the replay.
#[derive(Default, Clone, Copy)]
pub struct KernelTotals {
    pub secs: f64,
    pub flops: f64,
    pub bytes: f64,
}

impl KernelTotals {
    fn add(&mut self, secs: f64, flops: f64, bytes: f64) {
        self.secs += secs;
        self.flops += flops;
        self.bytes += bytes;
    }

    pub fn gflops(&self) -> f64 {
        if self.secs > 0.0 {
            self.flops / self.secs * 1e-9
        } else {
            0.0
        }
    }
}

/// Kernel replay totals: every family over the whole replay, plus the
/// share that belongs to the workload's own model.
#[derive(Default)]
pub struct KernelReplay {
    pub spmm: KernelTotals,
    pub matmul: KernelTotals,
    pub softmax: KernelTotals,
    pub gather: KernelTotals,
    pub model: KernelTotals,
}

const F32: f64 = 4.0;

/// Adds one kernel call to its family's totals and to its model path's.
fn charge(family: &mut KernelTotals, path: &mut KernelTotals, secs: f64, flops: f64, bytes: f64) {
    family.add(secs, flops, bytes);
    path.add(secs, flops, bytes);
}

fn operand(rows: usize, cols: usize, salt: usize) -> Matrix {
    Matrix::from_fn(rows, cols, |r, c| {
        ((r * 31 + c * 17 + salt) % 97) as f32 / 97.0 - 0.5
    })
}

/// Runs every chunk of `plan` at every layer of `dims` through the
/// public `hongtu_tensor` kernels: the GCN path (SpMM aggregation, dense
/// update) and the GAT path (projection, edge gather, per-destination
/// softmax, scatter-add aggregation). With `train`, each path also runs
/// its backward kernels, and GAT recomputes its forward first as the
/// engine does. Both paths run on every workload; only the path of
/// `kind` counts towards `model`. Operands are synthetic (the kernels'
/// cost does not depend on the values); bytes moved are computed from
/// operand sizes, not measured.
pub fn replay_kernels(
    plan: &TwoLevelPartition,
    dims: &[usize],
    kind: ModelKind,
    train: bool,
) -> KernelReplay {
    let mut k = KernelReplay::default();
    for chunk in plan.all_chunks() {
        let a: CsrMatrix = chunk.to_csr_matrix();
        let (d, n, e) = (chunk.num_dests(), chunk.num_neighbors(), chunk.num_edges());
        let nbr: Vec<usize> = chunk.nbr_index.iter().map(|&u| u as usize).collect();
        let dest_of_edge: Vec<usize> = (0..d)
            .flat_map(|r| chunk.in_edges_of(r).map(move |_| r))
            .collect();
        for (l, w) in dims.windows(2).enumerate() {
            let (din, dout) = (w[0], w[1]);
            let x = operand(n, din, l);
            let wt = operand(din, dout, l + 1);
            let mut gcn = KernelTotals::default();
            let mut gat = KernelTotals::default();

            // GCN: Z = (A X) W, backward dAX = dZ Wᵀ, dW = (AX)ᵀ dZ, dX = Aᵀ dAX.
            let spmm_cost = (
                2.0 * (e * din) as f64,
                (e as f64) * (2.0 * F32 + din as f64 * F32) + (d * din) as f64 * F32,
            );
            let mm = |r: usize, i: usize, o: usize| {
                (
                    2.0 * (r * i * o) as f64,
                    ((r * i + i * o + r * o) as f64) * F32,
                )
            };
            let (ax, s) = timed("tensor.spmm", || a.spmm(&x));
            charge(&mut k.spmm, &mut gcn, s, spmm_cost.0, spmm_cost.1);
            let (z, s) = timed("tensor.matmul", || ax.matmul(&wt));
            let c = mm(d, din, dout);
            charge(&mut k.matmul, &mut gcn, s, c.0, c.1);
            if train {
                let (dax, s1) = timed("tensor.matmul", || z.matmul_transpose(&wt));
                let (dw, s2) = timed("tensor.matmul", || ax.transpose_matmul(&z));
                black_box(dw);
                charge(&mut k.matmul, &mut gcn, s1 + s2, 2.0 * c.0, 2.0 * c.1);
                let (dx, s) = timed("tensor.spmm", || a.transpose_spmm(&dax));
                black_box(dx);
                charge(&mut k.spmm, &mut gcn, s, spmm_cost.0, spmm_cost.1);
            }
            black_box(z);

            // GAT: G = X W, gather G by edge source, softmax per
            // destination segment, scatter-add the weighted rows.
            let passes = if train { 2 } else { 1 };
            for _ in 0..passes {
                let (g, s) = timed("tensor.matmul", || x.matmul(&wt));
                let c = mm(n, din, dout);
                charge(&mut k.matmul, &mut gat, s, c.0, c.1);
                let (mut ge, s) = timed("tensor.gather", || g.gather_rows(&nbr));
                let moved = (2 * e * dout) as f64 * F32;
                charge(&mut k.gather, &mut gat, s, 0.0, moved);
                let mut alpha: Vec<f32> = (0..e).map(|i| ge.row(i).iter().sum()).collect();
                let (_, s) = timed("tensor.softmax", || {
                    for r in 0..d {
                        softmax_in_place(&mut alpha[chunk.in_edges_of(r)]);
                    }
                });
                charge(
                    &mut k.softmax,
                    &mut gat,
                    s,
                    4.0 * e as f64,
                    2.0 * e as f64 * F32,
                );
                for (i, a) in alpha.iter().enumerate() {
                    ge.row_mut(i).iter_mut().for_each(|v| *v *= a);
                }
                let mut out = Matrix::zeros(d, dout);
                let (_, s) = timed("tensor.gather", || out.scatter_add_rows(&dest_of_edge, &ge));
                let c = ((e * dout) as f64, (2 * e * dout) as f64 * F32);
                charge(&mut k.gather, &mut gat, s, c.0, c.1);
                black_box(out);
            }
            if train {
                let dy: Vec<f32> = (0..e).map(|i| (i % 7) as f32 * 0.1).collect();
                let mut dx = vec![0.0f32; e];
                let (_, s) = timed("tensor.softmax", || {
                    for r in 0..d {
                        let rg = chunk.in_edges_of(r);
                        softmax_backward_segment(&dy[rg.clone()], &dy[rg.clone()], &mut dx[rg]);
                    }
                });
                charge(
                    &mut k.softmax,
                    &mut gat,
                    s,
                    4.0 * e as f64,
                    3.0 * e as f64 * F32,
                );
                let upstream = operand(e, dout, l + 2);
                let mut grad_g = Matrix::zeros(n, dout);
                let (_, s) = timed("tensor.gather", || grad_g.scatter_add_rows(&nbr, &upstream));
                let c = ((e * dout) as f64, (2 * e * dout) as f64 * F32);
                charge(&mut k.gather, &mut gat, s, c.0, c.1);
                let (gx, s1) = timed("tensor.matmul", || grad_g.matmul_transpose(&wt));
                let (gw, s2) = timed("tensor.matmul", || x.transpose_matmul(&grad_g));
                black_box((gx, gw));
                let c = mm(n, din, dout);
                charge(&mut k.matmul, &mut gat, s1 + s2, 2.0 * c.0, 2.0 * c.1);
            }

            let own = if kind == ModelKind::Gat { gat } else { gcn };
            k.model.add(own.secs, own.flops, own.bytes);
        }
    }
    k
}

/// Share of the GPUs' communication time that runs while the same GPU
/// computes, read from an epoch's event timeline: per GPU, the union of
/// H2D, D2H and D2D intervals intersected with the union of compute
/// intervals, over the length of the communication union.
pub fn hidden_comm_share(trace: &Trace) -> f64 {
    let mut comm: BTreeMap<u32, Vec<(f64, f64)>> = BTreeMap::new();
    let mut compute: BTreeMap<u32, Vec<(f64, f64)>> = BTreeMap::new();
    for e in trace.events() {
        let Device::Gpu(g) = e.device else { continue };
        let span = (e.at - e.seconds, e.at);
        match e.kind {
            EventKind::H2D | EventKind::D2H | EventKind::D2D => {
                comm.entry(g).or_default().push(span)
            }
            EventKind::GpuCompute => compute.entry(g).or_default().push(span),
            _ => {}
        }
    }
    let (mut hidden, mut total) = (0.0, 0.0);
    for (g, spans) in comm {
        let c = union(spans);
        let k = union(compute.remove(&g).unwrap_or_default());
        total += c.iter().map(|(a, b)| b - a).sum::<f64>();
        hidden += overlap(&c, &k);
    }
    if total > 0.0 {
        hidden / total
    } else {
        0.0
    }
}

/// Sorted, disjoint union of intervals.
fn union(mut spans: Vec<(f64, f64)>) -> Vec<(f64, f64)> {
    spans.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut out: Vec<(f64, f64)> = Vec::new();
    for (a, b) in spans {
        match out.last_mut() {
            Some(last) if a <= last.1 => last.1 = last.1.max(b),
            _ => out.push((a, b)),
        }
    }
    out
}

/// Total length of the intersection of two sorted, disjoint unions.
fn overlap(x: &[(f64, f64)], y: &[(f64, f64)]) -> f64 {
    let (mut i, mut j, mut sum) = (0, 0, 0.0);
    while i < x.len() && j < y.len() {
        let lo = x[i].0.max(y[j].0);
        let hi = x[i].1.min(y[j].1);
        if hi > lo {
            sum += hi - lo;
        }
        if x[i].1 < y[j].1 {
            i += 1;
        } else {
            j += 1;
        }
    }
    sum
}
