//! Command-line entry point of the microjoule benchmark.
//!
//! ```text
//! mjbench --workload <tpch_pinned|tpch_governed|oltp_mixed|all>
//!         [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics` — the end-to-end metrics, or with
//! `--trace 1` the per-layer ones. `all` runs every workload at the given
//! seed and at a held-out seed, and prints one such line per run.

use mjbench::{
    host, result_json, Config, Inject, RunResult, Size, WorkloadKind, DEFAULT_SEED, HELD_OUT_SEED,
};

const USAGE: &str = "usage: mjbench --workload <tpch_pinned|tpch_governed|oltp_mixed|all> \
                     [--seed N] [--seconds S] [--trace 0|1]";

struct Args {
    workloads: Vec<WorkloadKind>,
    seeds: Vec<u64>,
    seconds: f64,
    trace: bool,
}

fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 20.0;
    let mut trace = false;
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = parse_u64(&value).ok_or(format!("bad --seed {value}"))?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or(format!("bad --seconds {value}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let (workloads, seeds) = if workload == "all" {
        (WorkloadKind::ALL.to_vec(), vec![seed, HELD_OUT_SEED])
    } else {
        let w = WorkloadKind::parse(&workload).ok_or(format!("unknown workload {workload}"))?;
        (vec![w], vec![seed])
    };
    Ok(Args {
        workloads,
        seeds,
        seconds,
        trace,
    })
}

fn report(cfg: &Config, r: &RunResult) {
    println!(
        "mjbench: workload={} seed={} trace={} timed_ops={} raw_timed_s={:.3} host_slowdown={:.4}",
        cfg.workload.name(),
        cfg.seed,
        cfg.trace as u8,
        r.timed_ops,
        r.timed_s,
        r.slowdown
    );
    println!("provenance: {}", host::provenance(cfg.seed));
    println!(
        "digest: {:016x} over the first {} ops",
        r.digest, r.window_ops
    );
    let metrics = if cfg.trace {
        &r.per_layer
    } else {
        &r.end_to_end
    };
    for m in metrics {
        let n = if m.name.starts_with("op_ms_") {
            format!(" (n={})", r.timed_ops)
        } else {
            String::new()
        };
        println!("  {:<30} {:>16.6} {}{n}", m.name, m.value, m.unit);
    }
    println!(
        "  {:<30} {:>16.6} % ({} of {} failed)",
        "failed_pct",
        100.0 * r.failed as f64 / r.attempted.max(1) as f64,
        r.failed,
        r.attempted
    );
    if r.band_excursions > 0 {
        println!(
            "note: {} windows fell outside the energy band (counted, not failed)",
            r.band_excursions
        );
    }
    for f in r.failures.iter().take(8) {
        println!("failure: {f}");
    }
    if r.failures.len() > 8 {
        println!("failure: ... and {} more", r.failures.len() - 8);
    }
    println!("{}", result_json(r, cfg.trace));
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    for &workload in &args.workloads {
        for &seed in &args.seeds {
            let cfg = Config {
                workload,
                seed,
                seconds: args.seconds,
                trace: args.trace,
                size: Size::full(),
                inject: Inject::None,
            };
            let (r, spans) = match mjbench::run(&cfg) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("mjbench: {}: {e}", workload.name());
                    std::process::exit(1);
                }
            };
            if args.trace {
                let path = format!(".bench_out/trace-{}-{seed}.jsonl", workload.name());
                if let Err(e) = spans.write_jsonl(std::path::Path::new(&path)) {
                    eprintln!("mjbench: writing {path}: {e}");
                    std::process::exit(1);
                }
                eprintln!("mjbench: spans written to {path}");
            }
            report(&cfg, &r);
        }
    }
}
