//! The workloads and the session configuration each one runs.

use hongtu_core::{
    CommMode, ExecutionMode, FrequencyRanked, HongTuConfig, MemoryStrategy, Mode, OverlapMode,
};
use hongtu_datasets::DatasetKey;
use hongtu_delta::DeltaMix;
use hongtu_nn::ModelKind;
use std::sync::Arc;

pub const GPUS: usize = 4;
pub const CHUNKS: usize = 8;
pub const LAYERS: usize = 2;
pub const HIDDEN: usize = 32;

/// One workload. All of them share 4 simulated GPUs x 8 chunks, P2P+RU
/// communication, hybrid memory, sequential execution, 2 layers and
/// hidden width 32; they differ where a layer is exercised or bypassed.
pub struct Spec {
    pub name: &'static str,
    pub dataset: DatasetKey,
    pub model: ModelKind,
    /// Training session (epochs) or inference session (a serving stream).
    pub train: bool,
    pub overlap: OverlapMode,
    /// `FrequencyRanked` hot-vertex cache, or none.
    pub cache: bool,
    pub gpu_mem_mb: usize,
    /// Full-graph epochs (training) or sweeps (inference) timed per 10 s
    /// of `--seconds`, sized to about that long on a 2-vCPU host.
    pub epochs_per_10s: usize,
    /// Kind of the stream's updates (serving workloads, and the probe a
    /// traced training run drives).
    pub mix: DeltaMix,
}

pub const WORKLOADS: [Spec; 4] = [
    // The largest proxy: its partitioner dominates set-up, and light
    // SpMM compute leaves dedup, communication and host bookkeeping as
    // the big shares. Bypasses overlap, cache, attention, serving and
    // deltas, so changes there should read no change here.
    Spec {
        name: "train-opr-gcn",
        dataset: DatasetKey::Opr,
        model: ModelKind::Gcn,
        train: true,
        overlap: OverlapMode::Off,
        cache: false,
        gpu_mem_mb: 256,
        epochs_per_10s: 11,
        mix: DeltaMix::Feature,
    },
    // Worst replication (rmat social graph), attention kernels, the
    // double-buffered stream scheduler and the heaviest D2D traffic.
    // At 34 MiB per GPU the cache admits part of the hot rows: staging
    // stops fitting near 32 MiB and every load hits from about 36 MiB.
    Spec {
        name: "train-fds-gat",
        dataset: DatasetKey::Fds,
        model: ModelKind::Gat,
        train: true,
        overlap: OverlapMode::DoubleBuffer,
        cache: true,
        gpu_mem_mb: 34,
        epochs_per_10s: 5,
        mix: DeltaMix::Feature,
    },
    // The read path (cone pruning, batching, admission) beside the
    // feature-delta write path (cache invalidation, in-place patches).
    Spec {
        name: "serve-it-feature",
        dataset: DatasetKey::It,
        model: ModelKind::Gcn,
        train: false,
        overlap: OverlapMode::Off,
        cache: true,
        gpu_mem_mb: 256,
        epochs_per_10s: 21,
        mix: DeltaMix::Feature,
    },
    // The same stream with edge toggles and no cache: topology staging,
    // chunk rebuild and admission after a topology change. Whether the
    // admission budget goes stale depends on where the toggled edges
    // land, so its refused share swings between seeds; it is a
    // diagnostic workload that reports every refusal, not one of the
    // gated workloads in BENCHMARK.json.
    Spec {
        name: "churn-it-edge",
        dataset: DatasetKey::It,
        model: ModelKind::Gcn,
        train: false,
        overlap: OverlapMode::Off,
        cache: false,
        gpu_mem_mb: 256,
        epochs_per_10s: 21,
        mix: DeltaMix::Edge,
    },
];

/// The session configuration of `spec` on a machine of `gpus` GPUs.
pub fn config(spec: &Spec, gpus: usize) -> HongTuConfig {
    let mut b = HongTuConfig::builder()
        .gpus(gpus)
        .gpu_mem_mb(spec.gpu_mem_mb)
        .comm(CommMode::P2pRu)
        .memory(MemoryStrategy::Hybrid)
        .exec(ExecutionMode::Sequential)
        .overlap(spec.overlap)
        .mode(if spec.train { Mode::Train } else { Mode::Infer });
    if spec.cache {
        b = b.cache(Arc::new(FrequencyRanked));
    }
    b.build().expect("workload configurations are valid")
}
