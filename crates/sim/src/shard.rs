//! Per-GPU timeline shards: where every per-GPU executor step charges.
//!
//! The engine runs each step of a batch (load, compute, evict; or one
//! pipeline role under double buffering) once per GPU. Each run owns a
//! [`GpuShard`] — that GPU's stream clocks, memory tracker, time buckets,
//! and a private event log — so no charging method touches shared state
//! and the m runs may execute inline or on m worker threads alike.
//! [`Machine::fork_shards`](crate::machine::Machine::fork_shards) splits
//! the machine into shards at a phase boundary and
//! [`Machine::join_shards`](crate::machine::Machine::join_shards) merges
//! them back **in GPU index order**, so clocks, buckets, and the trace do
//! not depend on which thread ran which GPU, or when.
//!
//! One operation cannot be charged shard-locally: the *naive* schedule's
//! source-side serving stall (GPU `k` stalls while GPU `i` fetches from
//! it). A shard for GPU `i` must not touch GPU `k`'s clock, so
//! [`GpuShard::source_stall`] defers the charge and the join applies the
//! deferred stalls after merging. No barrier falls inside a phase, so
//! each GPU's clock at the next barrier carries the same charges; the
//! stall events follow the phase's other events in the trace.

use crate::config::MachineConfig;
use crate::machine::{TimeBuckets, NUM_STREAMS};
use crate::memory::{MemoryTracker, SimError};
use crate::trace::{Access, Device, Event, EventKind};

/// One GPU's private slice of the simulated machine, detached for the
/// duration of one executor phase. Built by
/// [`Machine::fork_shards`](crate::machine::Machine::fork_shards); every
/// charging method asserts it is addressed as its own GPU.
#[derive(Debug)]
pub struct GpuShard {
    pub(crate) gpu: usize,
    pub(crate) config: MachineConfig,
    pub(crate) clock: [f64; NUM_STREAMS],
    pub(crate) stream: u8,
    pub(crate) buckets: TimeBuckets,
    pub(crate) memory: MemoryTracker,
    pub(crate) tracing: bool,
    pub(crate) events: Vec<Event>,
    pub(crate) pending: Vec<Access>,
    /// `(src, bytes)` serving stalls to apply at the join.
    pub(crate) deferred_stalls: Vec<(usize, usize)>,
}

impl GpuShard {
    /// The GPU index this shard owns.
    pub fn gpu(&self) -> usize {
        self.gpu
    }

    /// The shard's current clock (seconds): the furthest-ahead of its
    /// streams.
    pub fn clock(&self) -> f64 {
        self.clock.iter().copied().fold(0.0, f64::max)
    }

    /// The shard's clock on one specific stream.
    pub fn stream_clock(&self, stream: u8) -> f64 {
        self.clock[stream as usize]
    }

    /// The shard's memory tracker.
    pub fn memory(&self) -> &MemoryTracker {
        &self.memory
    }

    #[track_caller]
    fn own(&self, gpu: usize) {
        assert_eq!(
            gpu, self.gpu,
            "GpuShard for GPU {} charged as GPU {gpu}: shards are strictly per-GPU",
            self.gpu
        );
    }

    fn record(&mut self, kind: EventKind, bytes: usize, seconds: f64) {
        if !self.tracing {
            return;
        }
        let accesses = std::mem::take(&mut self.pending);
        self.events.push(
            Event::new(
                kind,
                Device::Gpu(self.gpu as u32),
                bytes,
                seconds,
                self.clock[self.stream as usize],
            )
            .on_stream(self.stream)
            .with_accesses(accesses),
        );
    }

    /// The machine configuration (cost model parameters).
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// Stages access annotations for the next charged operation (no-op
    /// while tracing is off).
    pub fn tag<I: IntoIterator<Item = Access>>(&mut self, accesses: I) {
        if !self.tracing {
            return;
        }
        self.pending.extend(accesses);
    }

    /// Selects the stream subsequent charges are issued on (see
    /// [`NUM_STREAMS`]). A fresh shard starts on the default stream.
    pub fn set_stream(&mut self, stream: u8) {
        assert!(
            (stream as usize) < NUM_STREAMS,
            "stream {stream} out of range (NUM_STREAMS = {NUM_STREAMS})"
        );
        self.stream = stream;
    }

    /// Makes this GPU's current stream wait for everything issued so far
    /// on its `upstream` stream: a zero-cost cross-stream dependency that
    /// joins the current stream's clock up to the upstream's and records
    /// an [`EventKind::StreamWait`] ordering edge.
    pub fn stream_wait(&mut self, gpu: usize, upstream: u8) {
        self.own(gpu);
        let cur = self.stream as usize;
        self.clock[cur] = self.clock[cur].max(self.clock[upstream as usize]);
        self.record(EventKind::StreamWait { upstream }, 0, 0.0);
    }

    /// Allocates `bytes` on this GPU.
    pub fn alloc(&mut self, gpu: usize, bytes: usize, label: &str) -> Result<(), SimError> {
        self.own(gpu);
        self.memory.alloc(bytes, label)
    }

    /// Frees `bytes` on this GPU.
    pub fn free(&mut self, gpu: usize, bytes: usize) {
        self.own(gpu);
        self.memory.free(bytes);
    }

    /// Charges a host→GPU transfer of `bytes`.
    pub fn h2d(&mut self, gpu: usize, bytes: usize) -> f64 {
        self.own(gpu);
        let t = self.config.pcie_transfer_seconds(bytes);
        self.clock[self.stream as usize] += t;
        self.buckets.h2d += t;
        self.buckets.bytes_h2d += bytes as u64;
        self.record(EventKind::H2D, bytes, t);
        t
    }

    /// Charges a host→GPU transfer with `remote_bytes` crossing sockets.
    pub fn h2d_mixed(&mut self, gpu: usize, bytes: usize, remote_bytes: usize) -> f64 {
        self.own(gpu);
        let t = self.config.mixed_pcie_transfer_seconds(bytes, remote_bytes);
        self.clock[self.stream as usize] += t;
        self.buckets.h2d += t;
        self.buckets.bytes_h2d += bytes as u64;
        self.record(EventKind::H2D, bytes, t);
        t
    }

    /// Charges a GPU→host transfer of `bytes`.
    pub fn d2h(&mut self, gpu: usize, bytes: usize) -> f64 {
        self.own(gpu);
        let t = self.config.pcie_transfer_seconds(bytes);
        self.clock[self.stream as usize] += t;
        self.buckets.h2d += t;
        self.buckets.bytes_d2h += bytes as u64;
        self.record(EventKind::D2H, bytes, t);
        t
    }

    /// Charges a GPU→host transfer with `remote_bytes` crossing sockets.
    pub fn d2h_mixed(&mut self, gpu: usize, bytes: usize, remote_bytes: usize) -> f64 {
        self.own(gpu);
        let t = self.config.mixed_pcie_transfer_seconds(bytes, remote_bytes);
        self.clock[self.stream as usize] += t;
        self.buckets.h2d += t;
        self.buckets.bytes_d2h += bytes as u64;
        self.record(EventKind::D2H, bytes, t);
        t
    }

    /// Charges a GPU↔GPU transfer of `bytes` to the initiating GPU `dst`
    /// (pull semantics), which must be this shard's GPU.
    pub fn d2d(&mut self, _src: usize, dst: usize, bytes: usize) -> f64 {
        self.own(dst);
        let t = self.config.nvlink_transfer_seconds(bytes);
        self.clock[self.stream as usize] += t;
        self.buckets.d2d += t;
        self.buckets.bytes_d2d += bytes as u64;
        self.record(EventKind::D2D, bytes, t);
        t
    }

    /// Charges a source-side serving stall: GPU `src` is busy for the
    /// duration of a `bytes` transfer it serves to another GPU (the naive
    /// schedule's contention cost). Charged inline when `src` is this
    /// shard's GPU, otherwise deferred to the join.
    pub fn source_stall(&mut self, src: usize, bytes: usize) {
        if src == self.gpu {
            self.d2d(src, src, bytes);
        } else {
            self.deferred_stalls.push((src, bytes));
        }
    }

    /// Charges an intra-GPU buffer reuse of `bytes`.
    pub fn reuse(&mut self, gpu: usize, bytes: usize) -> f64 {
        self.own(gpu);
        let t = self.config.reuse_seconds(bytes);
        self.clock[self.stream as usize] += t;
        self.buckets.reuse += t;
        self.buckets.bytes_reuse += bytes as u64;
        self.record(EventKind::Reuse, bytes, t);
        t
    }

    /// Charges `flops` of dense GPU work.
    pub fn gpu_dense(&mut self, gpu: usize, flops: f64) -> f64 {
        self.own(gpu);
        let t = self.config.gpu_dense_seconds(flops);
        self.clock[self.stream as usize] += t;
        self.buckets.gpu += t;
        self.record(EventKind::GpuCompute, 0, t);
        t
    }

    /// Charges `flops` of irregular edge-parallel GPU work.
    pub fn gpu_edge(&mut self, gpu: usize, flops: f64) -> f64 {
        self.own(gpu);
        let t = self.config.gpu_edge_seconds(flops);
        self.clock[self.stream as usize] += t;
        self.buckets.gpu += t;
        self.record(EventKind::GpuCompute, 0, t);
        t
    }

    /// Charges `flops` of host CPU work serialized onto this GPU.
    pub fn cpu_compute(&mut self, waiting_gpu: usize, flops: f64) -> f64 {
        self.own(waiting_gpu);
        let t = self.config.cpu_compute_seconds(flops);
        self.clock[self.stream as usize] += t;
        self.buckets.cpu += t;
        self.record(EventKind::CpuCompute, 0, t);
        t
    }

    /// Charges a host-side gradient accumulation of `bytes` onto this GPU.
    pub fn cpu_accumulate(&mut self, waiting_gpu: usize, bytes: usize) -> f64 {
        self.own(waiting_gpu);
        let t = self.config.cpu_accumulate_seconds(bytes);
        self.clock[self.stream as usize] += t;
        self.buckets.cpu += t;
        self.record(EventKind::CpuCompute, bytes, t);
        t
    }
}
