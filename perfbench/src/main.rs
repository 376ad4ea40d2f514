//! The repository benchmark: one command that generates a workload from
//! a seed, runs it in this process, checks the outputs and prints every
//! metric by name and unit.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload train-opr-gcn --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` runs the same
//! workload with spans recorded around every public call and prints the
//! per-layer metrics instead. The last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed`, `metrics`.

mod layers;
mod run;
mod serve;
mod stats;
mod trace;
mod workloads;

use std::fmt::Write as _;
use workloads::{Spec, WORKLOADS};

fn usage() -> ! {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    eprintln!(
        "usage: hongtu-perfbench --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
        names.join("|")
    );
    std::process::exit(2);
}

struct Args {
    spec: &'static Spec,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse_args() -> Args {
    let (mut workload, mut seed, mut seconds, mut traced) = (None, None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else { usage() };
        match flag.as_str() {
            "--workload" => workload = WORKLOADS.iter().find(|w| w.name == value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| (1.0..=600.0).contains(s))
            }
            "--trace" => {
                traced = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            _ => usage(),
        }
    }
    match (workload, seed, seconds, traced) {
        (Some(spec), Some(seed), Some(seconds), Some(traced)) => Args {
            spec,
            seed,
            seconds,
            traced,
        },
        _ => usage(),
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Comma-joined JSON fragments.
fn join<T>(xs: impl IntoIterator<Item = T>, f: impl Fn(T) -> String) -> String {
    xs.into_iter().map(f).collect::<Vec<_>>().join(",")
}

/// Writes the spans, their self times and the rejection records of a
/// traced run to `perfbench/out/trace-<workload>-seed<seed>.json`.
fn write_trace(args: &Args, spans: &[trace::Span], r: &run::Run) -> std::io::Result<String> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    std::fs::create_dir_all(dir)?;
    let path = format!("{dir}/trace-{}-seed{}.json", args.spec.name, args.seed);
    let opt = |x: Option<u64>| x.map_or("null".to_string(), |v| v.to_string());
    let span_json = join(spans, |s| {
        format!(
            "{{\"id\":{},\"parent\":{},\"name\":{},\"item\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.id,
            opt(s.parent.map(|p| p as u64)),
            json_str(s.name),
            opt(s.item),
            s.start_ns,
            s.end_ns
        )
    });
    let self_times = join(trace::self_times(spans), |(n, secs)| {
        format!("{}:{secs}", json_str(n))
    });
    let rejections = join(&r.rejections, |x| {
        format!(
            "{{\"id\":{},\"kind\":{},\"reason\":{},\"overshoot_bytes\":[{}]}}",
            x.id,
            json_str(x.kind),
            json_str(&x.reason),
            join(&x.overshoot, i64::to_string)
        )
    });
    let body = format!(
        "{{\"spans\":[{span_json}],\"self_s\":{{{self_times}}},\"rejections\":[{rejections}]}}\n"
    );
    std::fs::write(&path, body)?;
    Ok(path)
}

fn main() {
    let args = parse_args();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    // One worker thread. On a shared 2-vCPU host, three runs of one seed
    // gave set-up medians of 3.45-4.55 s with two threads (a parallel
    // region waits for whichever vCPU was descheduled) and 4.48-4.62 s
    // with one. The pool reads this once, when it first starts, which is
    // later than here.
    let threads = 1;
    std::env::set_var("HONGTU_THREADS", threads.to_string());

    if args.traced {
        trace::start();
    }
    let result = run::run(args.spec, args.seed, args.seconds, args.traced);
    let spans = trace::finish();
    let r = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{}: {e}", args.spec.name);
            std::process::exit(1);
        }
    };

    println!(
        "workload {} seed {} seconds {} trace {} threads {threads} (nproc {nproc})",
        args.spec.name,
        args.seed,
        args.seconds,
        u8::from(args.traced)
    );
    for n in &r.notes {
        println!("{n}");
    }
    for (name, value, unit) in &r.metrics {
        println!("  {name:<34} {value:>16.6} {unit}");
    }
    for x in &r.rejections {
        println!(
            "refused {} {}: {} overshoot_bytes {:?}",
            x.kind, x.id, x.reason, x.overshoot
        );
    }
    if args.traced {
        println!("self time by span (s):");
        for (name, secs) in trace::self_times(&spans).iter().take(12) {
            println!("  {name:<34} {secs:>10.4}");
        }
        match write_trace(&args, &spans, &r) {
            Ok(path) => println!("spans written to {path}"),
            Err(e) => eprintln!("could not write the span file: {e}"),
        }
    }
    let det = join(&r.deterministic, |(k, v)| {
        format!("{}:{}", json_str(k), json_str(v))
    });
    println!("deterministic {{{det}}}");
    let metrics = join(&r.metrics, |(name, value, unit)| {
        format!(
            "{}:{{\"value\":{value},\"unit\":{}}}",
            json_str(name),
            json_str(unit)
        )
    });
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
        r.correct,
        r.attempted.max(1),
        r.failed
    );
}
