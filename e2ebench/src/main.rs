//! End-to-end and per-layer benchmark of offline detection and served
//! scoring.
//!
//! ```sh
//! cargo run --release --offline --manifest-path e2ebench/Cargo.toml --bin e2ebench -- \
//!     --workload serve_light --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Run from the repository root. Workloads (see `BENCHMARK.json` for why
//! each exists):
//!
//! * `detect_batch` — offline `detect` on long SMD series ([`detect`]);
//! * `serve_light` — `Score` traffic to many cheap tenants ([`serve`]).
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! ones (a separate run: tracing changes the timings it explains). The
//! last stdout line is the JSON result; lines before it give the stamp
//! and the fixed parameters. Each run also appends its metrics to
//! `e2ebench/results/runs.tsv` (or `--out <file>`), which `compare`
//! reads. Temporary files live under `e2ebench/work/` and are removed.
//!
//! ```sh
//! e2ebench compare parent.tsv change.tsv
//! ```
//!
//! prints the two result sets side by side (see [`report`]).

mod detect;
mod layers;
mod metrics;
mod report;
mod schedule;
mod serve;
mod stamp;
mod stats;

use std::io::Write;
use std::path::PathBuf;

use metrics::{json_number, Outcome};
use stamp::Stamp;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// Every workload, by name.
pub const WORKLOADS: &[&str] = &["detect_batch", "serve_light"];

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub out: PathBuf,
}

fn usage(msg: &str) -> ! {
    eprintln!("e2ebench: {msg}");
    eprintln!(
        "usage: e2ebench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--out <file>]\n       \
         e2ebench compare <A.tsv> <B.tsv>",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
        out: PathBuf::from("e2ebench/results/runs.tsv"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().unwrap_or_else(|_| usage("bad --seed")),
            "--seconds" => args.seconds = value.parse().unwrap_or_else(|_| usage("bad --seconds")),
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            "--out" => args.out = PathBuf::from(value),
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        usage("unknown or missing --workload");
    }
    // Each serving phase gets half the run and drops its first second.
    if args.seconds.is_nan() || args.seconds < 4.0 {
        usage("--seconds must be at least 4");
    }
    args
}

/// Appends one line per metric: host key, commit, workload, seed, trace,
/// metric, value, unit.
fn append_results(args: &Args, stamp: &Stamp, out: &Outcome) -> std::io::Result<()> {
    if let Some(dir) = args.out.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&args.out)?;
    let mut text = String::new();
    for d in Outcome::table(args.trace) {
        text.push_str(&format!(
            "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\n",
            stamp.host_key(),
            stamp.commit,
            args.workload,
            stamp.seed,
            args.trace as u8,
            d.name,
            json_number(out.values[d.name]),
            d.unit
        ));
    }
    f.write_all(text.as_bytes())
}

/// `e2ebench compare A.tsv B.tsv`
fn compare(files: &[String]) {
    let [a, b] = files else {
        usage("compare takes two result files");
    };
    let read = |p: &String| {
        let text = std::fs::read_to_string(p).unwrap_or_else(|e| usage(&format!("{p}: {e}")));
        report::parse(&text).unwrap_or_else(|e| usage(&format!("{p}: {e}")))
    };
    print!("{}", report::compare(&read(a), &read(b)));
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().is_some_and(|a| a == "compare") {
        return compare(&argv[1..]);
    }
    let args = parse_args();
    let stamp = Stamp::collect(args.seed);
    let work =
        PathBuf::from("e2ebench/work").join(format!("{}-{}", args.workload, std::process::id()));
    let outcome = match args.workload.as_str() {
        "serve_light" => serve::run(&args, &work),
        _ => detect::run(&args, &work),
    };
    let _ = std::fs::remove_dir_all(&work);

    println!(
        "stamp {} commit={} workload={} seed={} trace={}",
        stamp.host_key(),
        stamp.commit,
        args.workload,
        stamp.seed,
        args.trace as u8
    );
    for n in &outcome.notes {
        println!("note {n}");
    }
    for m in &outcome.mismatches {
        println!("mismatch {m}");
    }
    if let Err(e) = append_results(&args, &stamp, &outcome) {
        eprintln!(
            "e2ebench: cannot append results to {}: {e}",
            args.out.display()
        );
    }
    println!("{}", outcome.result_line(args.trace));
}
