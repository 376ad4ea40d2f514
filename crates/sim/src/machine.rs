//! The simulated machine: per-GPU clocks, memory trackers, and the
//! time/volume accounting that backs every performance number in the
//! benchmark harness.

use crate::config::MachineConfig;
use crate::memory::{MemoryTracker, SimError};
use crate::shard::GpuShard;
use crate::trace::{Access, BarrierScope, Device, Event, EventKind, Trace};

/// Number of hardware streams modeled per GPU. Stream 0 is the compute /
/// default stream; the overlap executor issues H2D prefetches on stream 1
/// (copy-in) and D2H drains on stream 2 (copy-out). Streams advance
/// independent clocks that only join at cross-stream waits
/// ([`EventKind::StreamWait`]) and barriers, so a GPU's time at a barrier
/// is the *maximum* over its streams — `max(transfer, compute)` instead of
/// their sum, the overlap discipline of the paper's §6 implementation.
pub const NUM_STREAMS: usize = 3;

/// Time attributed to each of the paper's breakdown components (Figure 9),
/// in seconds, plus the transferred byte volumes.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TimeBuckets {
    /// Host↔GPU communication time (H2D + D2H; the paper's "H2D" bar).
    pub h2d: f64,
    /// Inter-GPU communication time (the paper's "D2D" bar).
    pub d2d: f64,
    /// GPU compute time.
    pub gpu: f64,
    /// CPU compute time (host-side gradient accumulation).
    pub cpu: f64,
    /// Intra-GPU reuse time (tiny; folded into "GPU" in the paper's plots).
    pub reuse: f64,
    /// Host→GPU bytes.
    pub bytes_h2d: u64,
    /// GPU→host bytes.
    pub bytes_d2h: u64,
    /// GPU↔GPU bytes.
    pub bytes_d2d: u64,
    /// Bytes served by intra-GPU reuse instead of a transfer.
    pub bytes_reuse: u64,
}

impl TimeBuckets {
    /// Total attributed time (sum over devices, not the critical path).
    pub fn total_time(&self) -> f64 {
        self.h2d + self.d2d + self.gpu + self.cpu + self.reuse
    }

    /// Total communication time (H2D + D2D), the quantity §7.3 reports.
    pub fn comm_time(&self) -> f64 {
        self.h2d + self.d2d
    }

    /// Element-wise accumulation.
    pub fn add(&mut self, other: &TimeBuckets) {
        self.h2d += other.h2d;
        self.d2d += other.d2d;
        self.gpu += other.gpu;
        self.cpu += other.cpu;
        self.reuse += other.reuse;
        self.bytes_h2d += other.bytes_h2d;
        self.bytes_d2h += other.bytes_d2h;
        self.bytes_d2d += other.bytes_d2d;
        self.bytes_reuse += other.bytes_reuse;
    }
}

/// The simulated multi-GPU machine.
#[derive(Debug, Clone)]
pub struct Machine {
    config: MachineConfig,
    gpus: Vec<MemoryTracker>,
    host: MemoryTracker,
    clocks: Vec<[f64; NUM_STREAMS]>,
    stream: u8,
    buckets: TimeBuckets,
    trace: Trace,
    pending: Vec<Access>,
}

impl Machine {
    /// Builds a machine from a validated config.
    ///
    /// # Panics
    /// Panics if the config is invalid (see [`MachineConfig::validate`]).
    pub fn new(config: MachineConfig) -> Self {
        config
            .validate()
            .unwrap_or_else(|e| panic!("invalid MachineConfig: {e}"));
        let gpus = (0..config.num_gpus)
            .map(|i| MemoryTracker::new(format!("GPU{i}"), config.gpu_memory))
            .collect();
        let host = MemoryTracker::new("host", config.host_memory);
        let clocks = vec![[0.0; NUM_STREAMS]; config.num_gpus];
        Machine {
            config,
            gpus,
            host,
            clocks,
            stream: 0,
            buckets: TimeBuckets::default(),
            trace: Trace::disabled(),
            pending: Vec::new(),
        }
    }

    /// The machine configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// Number of GPUs.
    pub fn num_gpus(&self) -> usize {
        self.config.num_gpus
    }

    /// Enables event tracing with the given capacity.
    pub fn enable_trace(&mut self, capacity: usize) {
        self.trace = Trace::with_capacity(capacity);
    }

    /// Enables unbounded event tracing (required for trace certification —
    /// see [`Trace::unbounded`]).
    pub fn enable_unbounded_trace(&mut self) {
        self.trace = Trace::unbounded();
    }

    /// The event trace.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Swaps in a different trace, returning the previous one. Lets a
    /// verification run temporarily install an unbounded trace without
    /// discarding the user's.
    pub fn replace_trace(&mut self, trace: Trace) -> Trace {
        self.pending.clear();
        std::mem::replace(&mut self.trace, trace)
    }

    /// Stages access annotations for the *next* charged operation. The
    /// annotations are attached to the next recorded event and cleared.
    /// No-op while tracing is disabled, so annotation is free on the
    /// benchmark path.
    pub fn tag<I: IntoIterator<Item = Access>>(&mut self, accesses: I) {
        if !self.trace.is_enabled() {
            return;
        }
        self.pending.extend(accesses);
    }

    fn check_gpu(&self, gpu: usize) -> Result<(), SimError> {
        if gpu >= self.gpus.len() {
            Err(SimError::NoSuchDevice {
                index: gpu,
                available: self.gpus.len(),
            })
        } else {
            Ok(())
        }
    }

    fn record(&mut self, kind: EventKind, device: Device, bytes: usize, seconds: f64) {
        if !self.trace.is_enabled() {
            return;
        }
        let cur = self.stream as usize;
        let at = match device {
            Device::Gpu(g) if (g as usize) < self.clocks.len() => self.clocks[g as usize][cur],
            _ => 0.0,
        };
        let accesses = std::mem::take(&mut self.pending);
        self.trace.record(
            Event::new(kind, device, bytes, seconds, at)
                .on_stream(self.stream)
                .with_accesses(accesses),
        );
    }

    // ---- memory ----

    /// Allocates `bytes` on GPU `gpu`.
    pub fn alloc(&mut self, gpu: usize, bytes: usize, label: &str) -> Result<(), SimError> {
        self.check_gpu(gpu)?;
        self.gpus[gpu].alloc(bytes, label)
    }

    /// Frees `bytes` on GPU `gpu`.
    pub fn free(&mut self, gpu: usize, bytes: usize) {
        self.gpus[gpu].free(bytes);
    }

    /// Allocates `bytes` of host memory.
    pub fn host_alloc(&mut self, bytes: usize, label: &str) -> Result<(), SimError> {
        self.host.alloc(bytes, label)
    }

    /// Frees `bytes` of host memory.
    pub fn host_free(&mut self, bytes: usize) {
        self.host.free(bytes);
    }

    /// Memory tracker of GPU `gpu`.
    pub fn gpu_memory(&self, gpu: usize) -> &MemoryTracker {
        &self.gpus[gpu]
    }

    /// Host memory tracker.
    pub fn host_memory(&self) -> &MemoryTracker {
        &self.host
    }

    /// Largest per-GPU peak allocation across all GPUs.
    pub fn max_gpu_peak(&self) -> usize {
        self.gpus.iter().map(|g| g.peak()).max().unwrap_or(0)
    }

    // ---- time ----

    /// Charges a host→GPU transfer of `bytes` to GPU `gpu`'s clock.
    /// Returns the seconds charged.
    pub fn h2d(&mut self, gpu: usize, bytes: usize) -> f64 {
        let t = self.config.pcie_transfer_seconds(bytes);
        self.clocks[gpu][self.stream as usize] += t;
        self.buckets.h2d += t;
        self.buckets.bytes_h2d += bytes as u64;
        self.record(EventKind::H2D, Device::Gpu(gpu as u32), bytes, t);
        t
    }

    /// Charges a host→GPU transfer where `remote_bytes` of the payload
    /// live on the other NUMA socket and pay the QPI penalty. Used by the
    /// vanilla offloading baseline, whose per-chunk transfers pull
    /// neighbors from whichever socket owns them (§7.3: deduplication
    /// "eliminates the remote neighbor access across CPUs").
    pub fn h2d_mixed(&mut self, gpu: usize, bytes: usize, remote_bytes: usize) -> f64 {
        let t = self.config.mixed_pcie_transfer_seconds(bytes, remote_bytes);
        self.clocks[gpu][self.stream as usize] += t;
        self.buckets.h2d += t;
        self.buckets.bytes_h2d += bytes as u64;
        self.record(EventKind::H2D, Device::Gpu(gpu as u32), bytes, t);
        t
    }

    /// GPU→host counterpart of [`Machine::h2d_mixed`].
    pub fn d2h_mixed(&mut self, gpu: usize, bytes: usize, remote_bytes: usize) -> f64 {
        let t = self.config.mixed_pcie_transfer_seconds(bytes, remote_bytes);
        self.clocks[gpu][self.stream as usize] += t;
        self.buckets.h2d += t;
        self.buckets.bytes_d2h += bytes as u64;
        self.record(EventKind::D2H, Device::Gpu(gpu as u32), bytes, t);
        t
    }

    /// Charges a GPU→host transfer of `bytes` to GPU `gpu`'s clock.
    pub fn d2h(&mut self, gpu: usize, bytes: usize) -> f64 {
        let t = self.config.pcie_transfer_seconds(bytes);
        self.clocks[gpu][self.stream as usize] += t;
        self.buckets.h2d += t;
        self.buckets.bytes_d2h += bytes as u64;
        self.record(EventKind::D2H, Device::Gpu(gpu as u32), bytes, t);
        t
    }

    /// Charges a GPU↔GPU transfer of `bytes` between `src` and `dst` to the
    /// *initiating* GPU `dst` (pull semantics, matching the paper's
    /// forward-pass fetch_from_gpu).
    pub fn d2d(&mut self, _src: usize, dst: usize, bytes: usize) -> f64 {
        let t = self.config.nvlink_transfer_seconds(bytes);
        self.clocks[dst][self.stream as usize] += t;
        self.buckets.d2d += t;
        self.buckets.bytes_d2d += bytes as u64;
        self.record(EventKind::D2D, Device::Gpu(dst as u32), bytes, t);
        t
    }

    /// Charges an intra-GPU reuse of `bytes` (buffer-local copy at HBM
    /// speed) to GPU `gpu`.
    pub fn reuse(&mut self, gpu: usize, bytes: usize) -> f64 {
        let t = self.config.reuse_seconds(bytes);
        self.clocks[gpu][self.stream as usize] += t;
        self.buckets.reuse += t;
        self.buckets.bytes_reuse += bytes as u64;
        self.record(EventKind::Reuse, Device::Gpu(gpu as u32), bytes, t);
        t
    }

    /// Charges `flops` of dense (matmul-like) GPU work to GPU `gpu`.
    pub fn gpu_dense(&mut self, gpu: usize, flops: f64) -> f64 {
        let t = self.config.gpu_dense_seconds(flops);
        self.clocks[gpu][self.stream as usize] += t;
        self.buckets.gpu += t;
        self.record(EventKind::GpuCompute, Device::Gpu(gpu as u32), 0, t);
        t
    }

    /// Charges `flops` of irregular edge-parallel GPU work to GPU `gpu`.
    pub fn gpu_edge(&mut self, gpu: usize, flops: f64) -> f64 {
        let t = self.config.gpu_edge_seconds(flops);
        self.clocks[gpu][self.stream as usize] += t;
        self.buckets.gpu += t;
        self.record(EventKind::GpuCompute, Device::Gpu(gpu as u32), 0, t);
        t
    }

    /// Charges `flops` of CPU work; the time is serialized onto GPU
    /// `waiting_gpu`'s timeline (the paper's CPU-side gradient accumulation
    /// happens between batches, blocking the owner GPU's next step). All
    /// GPUs' host-side work contends for the same CPUs, so the effective
    /// throughput is divided by the GPU count.
    pub fn cpu_compute(&mut self, waiting_gpu: usize, flops: f64) -> f64 {
        let t = self.config.cpu_compute_seconds(flops);
        self.clocks[waiting_gpu][self.stream as usize] += t;
        self.buckets.cpu += t;
        self.record(EventKind::CpuCompute, Device::Gpu(waiting_gpu as u32), 0, t);
        t
    }

    /// Charges a host-side gradient accumulation of `bytes` (read old,
    /// add, write back — three memory touches per byte) to GPU
    /// `waiting_gpu`'s timeline. Host memory bandwidth is shared by all
    /// GPUs' accumulation streams, which is why the paper measures the
    /// CPU component at 8–30% of the epoch.
    pub fn cpu_accumulate(&mut self, waiting_gpu: usize, bytes: usize) -> f64 {
        let t = self.config.cpu_accumulate_seconds(bytes);
        self.clocks[waiting_gpu][self.stream as usize] += t;
        self.buckets.cpu += t;
        self.record(
            EventKind::CpuCompute,
            Device::Gpu(waiting_gpu as u32),
            bytes,
            t,
        );
        t
    }

    /// Synchronizes all GPU clocks to the maximum (batch barrier).
    /// Shorthand for [`Machine::sync`] with [`BarrierScope::Batch`].
    pub fn barrier(&mut self) {
        self.sync(BarrierScope::Batch);
    }

    /// Synchronizes all GPU clocks to the maximum and records a barrier
    /// event of the given scope. The scope does not change the timing
    /// model — every barrier joins all clocks, *across every stream* —
    /// but tells the schedule checker what protocol role the barrier
    /// plays. The stream cursor returns to the default stream.
    pub fn sync(&mut self, scope: BarrierScope) {
        let max = self.elapsed();
        for c in &mut self.clocks {
            *c = [max; NUM_STREAMS];
        }
        self.stream = 0;
        // Barriers synchronize devices; they carry no accesses of their own.
        self.pending.clear();
        self.record(EventKind::Barrier(scope), Device::Host, 0, 0.0);
    }

    /// Selects the stream subsequent charges are issued on (and their
    /// events tagged with). Stream 0 is the compute/default stream; see
    /// [`NUM_STREAMS`].
    ///
    /// # Panics
    /// Panics if `stream >= NUM_STREAMS`.
    pub fn set_stream(&mut self, stream: u8) {
        assert!(
            (stream as usize) < NUM_STREAMS,
            "stream {stream} out of range (NUM_STREAMS = {NUM_STREAMS})"
        );
        self.stream = stream;
    }

    /// Makes GPU `gpu`'s *current* stream wait for everything issued so
    /// far on its `upstream` stream (the `cudaStreamWaitEvent` analogue):
    /// the current stream's clock joins up to the upstream clock, and a
    /// [`EventKind::StreamWait`] event is recorded so the happens-before
    /// checker orders subsequent work after the upstream's.
    pub fn stream_wait(&mut self, gpu: usize, upstream: u8) {
        let cur = self.stream as usize;
        let up = upstream as usize;
        self.clocks[gpu][cur] = self.clocks[gpu][cur].max(self.clocks[gpu][up]);
        self.record(
            EventKind::StreamWait { upstream },
            Device::Gpu(gpu as u32),
            0,
            0.0,
        );
    }

    /// Current simulated time: the furthest-ahead GPU stream clock.
    pub fn elapsed(&self) -> f64 {
        self.clocks
            .iter()
            .flat_map(|c| c.iter().copied())
            .fold(0.0, f64::max)
    }

    /// GPU `gpu`'s own clock: the furthest-ahead of its streams.
    pub fn clock(&self, gpu: usize) -> f64 {
        self.clocks[gpu].iter().copied().fold(0.0, f64::max)
    }

    /// GPU `gpu`'s clock on one specific stream.
    pub fn stream_clock(&self, gpu: usize, stream: u8) -> f64 {
        self.clocks[gpu][stream as usize]
    }

    /// Accumulated per-component times and volumes.
    pub fn buckets(&self) -> TimeBuckets {
        self.buckets
    }

    /// Zeroes clocks and buckets; memory state and peaks are kept.
    pub fn reset_time(&mut self) {
        for c in &mut self.clocks {
            *c = [0.0; NUM_STREAMS];
        }
        self.stream = 0;
        self.buckets = TimeBuckets::default();
        self.trace.clear();
    }

    // ---- per-GPU shards ----

    /// Splits the machine into one [`GpuShard`] per GPU so each GPU's
    /// step can charge its own timeline without sharing state, inline or
    /// on a worker thread. Each shard takes ownership of its GPU's clock
    /// and memory tracker; the machine keeps the host tracker,
    /// accumulated buckets, and the trace.
    ///
    /// Call only at a phase boundary (no staged annotations) and pair with
    /// [`Machine::join_shards`] before any further charging.
    pub fn fork_shards(&mut self) -> Vec<GpuShard> {
        debug_assert!(
            self.pending.is_empty(),
            "fork_shards with staged access annotations"
        );
        let tracing = self.trace.is_enabled();
        (0..self.config.num_gpus)
            .map(|i| GpuShard {
                gpu: i,
                config: self.config.clone(),
                clock: self.clocks[i],
                stream: 0,
                buckets: TimeBuckets::default(),
                memory: std::mem::replace(&mut self.gpus[i], MemoryTracker::new("forked", 0)),
                tracing,
                events: Vec::new(),
                pending: Vec::new(),
                deferred_stalls: Vec::new(),
            })
            .collect()
    }

    /// Merges shards produced by [`Machine::fork_shards`] back into the
    /// machine **in GPU index order**: clocks and memory trackers are
    /// restored, per-shard buckets accumulated, and each shard's events
    /// appended to the trace GPU 0 first, whatever order the shards ran
    /// in. Deferred [`GpuShard::source_stall`] charges are applied last.
    ///
    /// # Panics
    /// Panics if the shards are not exactly this machine's GPUs in order.
    pub fn join_shards(&mut self, shards: Vec<GpuShard>) {
        assert_eq!(
            shards.len(),
            self.config.num_gpus,
            "join_shards: expected {} shards, got {}",
            self.config.num_gpus,
            shards.len()
        );
        let mut stalls = Vec::new();
        for (i, shard) in shards.into_iter().enumerate() {
            assert_eq!(shard.gpu, i, "join_shards: shard {i} out of order");
            debug_assert!(
                shard.pending.is_empty(),
                "join_shards: shard {i} has staged annotations"
            );
            self.clocks[i] = shard.clock;
            self.buckets.add(&shard.buckets);
            self.gpus[i] = shard.memory;
            if self.trace.is_enabled() {
                for ev in shard.events {
                    self.trace.record(ev);
                }
            }
            stalls.extend(shard.deferred_stalls);
        }
        for (src, bytes) in stalls {
            self.d2d(src, src, bytes);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine() -> Machine {
        Machine::new(MachineConfig::scaled(4, 1 << 20))
    }

    #[test]
    fn transfer_times_match_bandwidth_model() {
        let mut m = machine();
        let cfg = m.config().clone();
        let t = m.h2d(0, 1_000_000);
        assert!((t - (cfg.pcie_latency + 1_000_000.0 / cfg.pcie_bw)).abs() < 1e-12);
        let t2 = m.d2d(0, 1, 1_000_000);
        assert!(t2 < t, "NVLink must be faster than PCIe");
        let t3 = m.reuse(1, 1_000_000);
        assert!(t3 < t2, "reuse must be faster than NVLink");
    }

    #[test]
    fn clocks_are_per_gpu_until_barrier() {
        let mut m = machine();
        m.h2d(0, 1_000_000);
        assert!(m.clock(0) > 0.0);
        assert_eq!(m.clock(1), 0.0);
        m.barrier();
        assert_eq!(m.clock(1), m.clock(0));
        assert_eq!(m.elapsed(), m.clock(0));
    }

    #[test]
    fn buckets_accumulate_by_kind() {
        let mut m = machine();
        m.h2d(0, 100);
        m.d2h(1, 50);
        m.d2d(0, 2, 200);
        m.reuse(3, 400);
        m.gpu_dense(0, 1e9);
        m.cpu_compute(0, 1e9);
        let b = m.buckets();
        assert!(b.h2d > 0.0 && b.d2d > 0.0 && b.gpu > 0.0 && b.cpu > 0.0 && b.reuse > 0.0);
        assert_eq!(b.bytes_h2d, 100);
        assert_eq!(b.bytes_d2h, 50);
        assert_eq!(b.bytes_d2d, 200);
        assert_eq!(b.bytes_reuse, 400);
        assert!(b.total_time() > b.comm_time());
    }

    #[test]
    fn edge_compute_slower_than_dense() {
        let mut m = machine();
        let td = m.gpu_dense(0, 1e9);
        let te = m.gpu_edge(0, 1e9);
        assert!(te > td);
    }

    #[test]
    fn oom_is_reported_not_panicked() {
        let mut m = Machine::new(MachineConfig::scaled(2, 1000));
        assert!(m.alloc(0, 600, "a").is_ok());
        let err = m.alloc(0, 600, "b").unwrap_err();
        assert!(matches!(err, SimError::OutOfMemory { .. }));
        // Other GPU unaffected.
        assert!(m.alloc(1, 600, "c").is_ok());
        m.free(0, 600);
        assert!(m.alloc(0, 600, "b").is_ok());
        assert_eq!(m.max_gpu_peak(), 600);
    }

    #[test]
    fn invalid_gpu_index_is_an_error() {
        let mut m = machine();
        assert!(matches!(
            m.alloc(9, 1, "x"),
            Err(SimError::NoSuchDevice {
                index: 9,
                available: 4
            })
        ));
    }

    #[test]
    fn reset_time_keeps_memory() {
        let mut m = machine();
        m.alloc(0, 512, "x").unwrap();
        m.h2d(0, 100);
        m.reset_time();
        assert_eq!(m.elapsed(), 0.0);
        assert_eq!(m.buckets(), TimeBuckets::default());
        assert_eq!(m.gpu_memory(0).in_use(), 512);
    }

    #[test]
    fn single_gpu_machine_pays_numa_penalty() {
        let mut m4 = Machine::new(MachineConfig::scaled(4, 1 << 20));
        let mut m1 = Machine::new(MachineConfig::scaled(1, 1 << 20));
        let t4 = m4.h2d(0, 10_000_000);
        let t1 = m1.h2d(0, 10_000_000);
        assert!(t1 > t4, "1-GPU config must pay remote-socket penalty");
    }

    #[test]
    fn trace_records_when_enabled() {
        let mut m = machine();
        m.enable_trace(16);
        m.h2d(0, 10);
        m.barrier();
        let kinds: Vec<_> = m.trace().events().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![EventKind::H2D, EventKind::Barrier(BarrierScope::Batch)]
        );
        let devices: Vec<_> = m.trace().events().map(|e| e.device).collect();
        assert_eq!(devices, vec![Device::Gpu(0), Device::Host]);
    }

    #[test]
    fn tag_annotates_exactly_the_next_event() {
        use crate::trace::{Region, ResourceId};
        let mut m = machine();
        m.enable_unbounded_trace();
        let a = Access::read(ResourceId::Rep { layer: 0 }, Region::All);
        m.tag([a]);
        m.h2d(0, 10);
        m.h2d(1, 10);
        let evs: Vec<_> = m.trace().events().collect();
        assert_eq!(evs[0].accesses, vec![a]);
        assert!(evs[1].accesses.is_empty());
    }

    #[test]
    fn sync_scopes_are_recorded() {
        let mut m = machine();
        m.enable_unbounded_trace();
        m.sync(BarrierScope::Phase);
        m.sync(BarrierScope::Epoch);
        let kinds: Vec<_> = m.trace().events().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                EventKind::Barrier(BarrierScope::Phase),
                EventKind::Barrier(BarrierScope::Epoch)
            ]
        );
    }

    #[test]
    fn tag_is_dropped_without_tracing_and_by_barriers() {
        use crate::trace::{Region, ResourceId};
        let mut m = machine();
        // Disabled trace: tag is a no-op (nothing staged, nothing leaks
        // once tracing is enabled later).
        m.tag([Access::write(ResourceId::DevRep { gpu: 0 }, Region::All)]);
        m.enable_unbounded_trace();
        // Barriers clear staged annotations rather than carrying them.
        m.tag([Access::write(ResourceId::DevRep { gpu: 0 }, Region::All)]);
        m.barrier();
        m.h2d(0, 4);
        let evs: Vec<_> = m.trace().events().collect();
        assert!(evs.iter().all(|e| e.accesses.is_empty()));
    }

    #[test]
    fn replace_trace_swaps_and_restores() {
        let mut m = machine();
        m.enable_trace(4);
        m.h2d(0, 1);
        let user = m.replace_trace(Trace::unbounded());
        assert_eq!(user.len(), 1);
        m.h2d(0, 2);
        assert_eq!(m.trace().len(), 1);
        assert!(m.trace().is_unbounded());
        let verification = m.replace_trace(user);
        assert_eq!(verification.len(), 1);
        assert_eq!(m.trace().len(), 1);
    }

    #[test]
    fn forked_shards_replay_identically_to_sequential() {
        // Charge the same per-GPU schedule once on the machine, once
        // through shards; clocks, buckets, and trace must match bitwise.
        let charge = |t: &mut dyn FnMut(usize)| {
            for g in 0..4 {
                t(g);
            }
        };
        let mut seq = machine();
        seq.enable_unbounded_trace();
        charge(&mut |g| {
            seq.h2d(g, 1000 * (g + 1));
            seq.gpu_dense(g, 1e9 * (g + 1) as f64);
            seq.d2h(g, 500);
        });

        let mut par = machine();
        par.enable_unbounded_trace();
        let mut shards = par.fork_shards();
        // Charge shards in *reverse* GPU order to model an arbitrary
        // thread schedule; the join restores GPU-index order.
        for shard in shards.iter_mut().rev() {
            let g = shard.gpu();
            shard.h2d(g, 1000 * (g + 1));
            shard.gpu_dense(g, 1e9 * (g + 1) as f64);
            shard.d2h(g, 500);
        }
        par.join_shards(shards);

        for g in 0..4 {
            assert_eq!(seq.clock(g), par.clock(g), "clock of GPU {g}");
        }
        assert_eq!(seq.buckets(), par.buckets());
        let seq_ev: Vec<_> = seq.trace().events().collect();
        let par_ev: Vec<_> = par.trace().events().collect();
        assert_eq!(seq_ev, par_ev);
    }

    #[test]
    fn shards_own_memory_during_fork() {
        let mut m = machine();
        m.alloc(0, 100, "pre").unwrap();
        let mut shards = m.fork_shards();
        // The machine's tracker is a placeholder while forked.
        assert!(m.alloc(0, 1, "denied").is_err());
        shards[0].alloc(0, 50, "shard-side").unwrap();
        let g = shards[1].gpu();
        assert!(shards[1].alloc(g, usize::MAX / 2, "oom").is_err());
        m.join_shards(shards);
        assert_eq!(m.gpu_memory(0).in_use(), 150);
        assert!(m.alloc(0, 1, "restored").is_ok());
    }

    #[test]
    #[should_panic(expected = "strictly per-GPU")]
    fn shard_rejects_foreign_gpu_charges() {
        let mut m = machine();
        let mut shards = m.fork_shards();
        shards[0].h2d(1, 10);
    }

    #[test]
    fn deferred_source_stalls_apply_at_join() {
        // GPU 1 fetching from GPU 0 in naive mode stalls GPU 0; the shard
        // of GPU 1 cannot charge GPU 0, so the stall lands at the join.
        let mut seq = machine();
        seq.d2d(0, 0, 4096); // the stall charged on GPU 0 directly
        let mut par = machine();
        let mut shards = par.fork_shards();
        shards[1].source_stall(0, 4096);
        assert_eq!(shards[1].clock(), 0.0, "stall must not charge the fetcher");
        par.join_shards(shards);
        assert_eq!(par.clock(0), seq.clock(0));
        assert_eq!(par.buckets(), seq.buckets());
    }

    #[test]
    fn streams_overlap_until_barrier() {
        // The same charges issued on one stream cost their sum; split
        // across streams they cost the max — the overlap model.
        let mut serial = machine();
        serial.h2d(0, 1_000_000);
        serial.gpu_dense(0, 1e9);
        let sum = serial.clock(0);

        let mut overlapped = machine();
        overlapped.set_stream(1);
        let t_load = overlapped.h2d(0, 1_000_000);
        overlapped.set_stream(0);
        let t_compute = overlapped.gpu_dense(0, 1e9);
        assert_eq!(overlapped.clock(0), t_load.max(t_compute));
        assert!(overlapped.clock(0) < sum);
        assert_eq!(overlapped.stream_clock(0, 1), t_load);
        assert_eq!(overlapped.stream_clock(0, 2), 0.0);

        overlapped.barrier();
        for s in 0..NUM_STREAMS as u8 {
            assert_eq!(overlapped.stream_clock(0, s), t_load.max(t_compute));
            assert_eq!(overlapped.stream_clock(3, s), t_load.max(t_compute));
        }
    }

    #[test]
    fn stream_wait_joins_upstream_clock_only() {
        let mut m = machine();
        m.enable_unbounded_trace();
        m.set_stream(1);
        let t = m.h2d(0, 1_000_000);
        m.set_stream(0);
        assert_eq!(m.stream_clock(0, 0), 0.0);
        m.stream_wait(0, 1);
        assert_eq!(m.stream_clock(0, 0), t);
        // Other GPUs and streams untouched: no barrier happened.
        assert_eq!(m.stream_clock(0, 2), 0.0);
        assert_eq!(m.clock(1), 0.0);
        let evs: Vec<_> = m.trace().events().collect();
        assert_eq!(evs[1].kind, EventKind::StreamWait { upstream: 1 });
        assert_eq!(evs[1].stream, 0);
        assert_eq!(evs[1].seconds, 0.0);
    }

    #[test]
    fn events_carry_the_issuing_stream() {
        let mut m = machine();
        m.enable_unbounded_trace();
        m.h2d(0, 10);
        m.set_stream(2);
        m.d2h(0, 10);
        m.barrier();
        m.h2d(0, 10);
        let streams: Vec<_> = m.trace().events().map(|e| e.stream).collect();
        // The barrier resets the cursor to the default stream.
        assert_eq!(streams, vec![0, 2, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn set_stream_rejects_out_of_range() {
        machine().set_stream(NUM_STREAMS as u8);
    }

    #[test]
    fn buckets_add_combines() {
        let mut a = TimeBuckets::default();
        let b = TimeBuckets {
            h2d: 1.0,
            bytes_h2d: 5,
            ..Default::default()
        };
        a.add(&b);
        a.add(&b);
        assert_eq!(a.h2d, 2.0);
        assert_eq!(a.bytes_h2d, 10);
    }
}
