//! `bench_parallel` — wall-clock comparison of the sequential and
//! parallel epoch executors, emitted as machine-readable JSON for CI.
//!
//! For each simulated-GPU count (1, 2, 4) the same engine configuration
//! is trained with both executors; the report records real (host)
//! per-epoch wall time, the speedup, and whether the training losses were
//! bitwise identical — the executor contract this repo certifies.
//!
//! ```text
//! cargo run -p hongtu-bench --bin bench_parallel -- [--out FILE] \
//!     [--epochs N] [--dataset rdt|opt|it|opr|fds]
//! ```
//!
//! Default output is `BENCH_parallel.json` in the current directory.
//! Worker-pool size follows `HONGTU_THREADS`; on a single-core runner the
//! speedup hovers around 1.0x (the numbers are honest wall-clock, not
//! simulated time), so no threshold is enforced here — CI archives the
//! artifact and the multi-core job demonstrates the scaling.

use hongtu_bench::harness::{scaled_machine, BenchCli, Gate, JsonReport, JsonRow, GPU_COUNTS};
use hongtu_core::{ExecutionMode, HongTuConfig, HongTuEngine};
use hongtu_nn::ModelKind;
use hongtu_tensor::SeededRng;
use std::time::Instant;

fn run_epochs(
    ds: &hongtu_datasets::Dataset,
    gpus: usize,
    exec: ExecutionMode,
    epochs: usize,
) -> (f64, Vec<f32>) {
    let mut cfg = HongTuConfig::full(scaled_machine(gpus));
    cfg.exec = exec;
    let mut engine =
        HongTuEngine::new(ds, ModelKind::Gcn, 32, 2, 4, cfg).expect("engine construction");
    // Warm-up epoch: first-touch allocation and pool spin-up.
    engine.train_epoch().expect("warm-up epoch");
    let mut losses = Vec::with_capacity(epochs);
    let t0 = Instant::now();
    for _ in 0..epochs {
        losses.push(engine.train_epoch().expect("epoch").loss.loss);
    }
    (t0.elapsed().as_secs_f64() / epochs as f64, losses)
}

fn main() {
    let cli = BenchCli::parse("bench_parallel", "BENCH_parallel.json", 3);
    let ds = hongtu_datasets::load(cli.dataset, &mut SeededRng::new(99));
    let threads = hongtu_parallel::global().num_threads();
    let mut report = JsonReport::new()
        .str("dataset", cli.dataset.abbrev())
        .int("epochs", cli.epochs as u64)
        .int("threads", threads as u64);
    let mut gate = Gate::new();
    for gpus in GPU_COUNTS {
        let (seq_s, seq_losses) = run_epochs(&ds, gpus, ExecutionMode::Sequential, cli.epochs);
        let (par_s, par_losses) = run_epochs(&ds, gpus, ExecutionMode::Parallel, cli.epochs);
        let equal = seq_losses == par_losses;
        println!(
            "{gpus} GPUs: sequential {:.1} ms/epoch, parallel {:.1} ms/epoch ({:.2}x), losses {}",
            seq_s * 1e3,
            par_s * 1e3,
            seq_s / par_s,
            if equal { "bitwise equal" } else { "DIVERGED" },
        );
        report.sample(
            JsonRow::new()
                .int("gpus", gpus as u64)
                .f64("seq_epoch_s", seq_s)
                .f64("par_epoch_s", par_s)
                .ratio("speedup", seq_s / par_s)
                .bool("losses_bitwise_equal", equal),
        );
        gate.check(
            equal,
            &format!("{gpus} GPUs: parallel losses diverged from sequential"),
        );
    }
    report.write(&cli.out);
    gate.finish();
}
