//! `perfbench`: the route server and σ kernel benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out-dir DIR]
//! ```
//!
//! Prints the metric table on stderr and, as the last line of stdout, one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`.  Untraced
//! runs (`--trace 0`) report the end-to-end metrics, traced runs the
//! per-layer ones.  Exits 1 when any correctness check failed, 2 on a
//! usage or run error (printing no result).

mod calib;
mod client;
mod metrics;
mod probe;
mod reference;
mod spans;
mod stats;
mod workloads;

use std::path::PathBuf;
use workloads::{RunArgs, NAMES};

fn usage() -> String {
    format!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--out-dir DIR]",
        NAMES.join("|")
    )
}

fn parse(args: &[String]) -> Result<RunArgs, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut traced = false;
    let mut out_dir = PathBuf::from(".bench_out");
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--out-dir" => out_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown option {other:?}\n{}", usage())),
        }
    }
    let workload = workload.ok_or_else(usage)?;
    if !NAMES.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}\n{}", usage()));
    }
    Ok(RunArgs {
        workload,
        seed,
        seconds,
        traced,
        out_dir,
    })
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    let mut o = match workloads::run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            std::process::exit(2);
        }
    };
    let catalogue = if args.traced {
        metrics::PER_LAYER
    } else {
        metrics::END_TO_END
    };
    let mut fields = Vec::new();
    for &(name, unit) in catalogue {
        let v = o.metrics.get(name).copied().unwrap_or(f64::NAN);
        let v = if v.is_finite() {
            v
        } else {
            eprintln!("metric {name} was not measured");
            o.failed += 1;
            0.0
        };
        eprintln!("  {name:<34} {v:>16.4} {unit}");
        fields.push(format!(
            "{}: {{\"value\": {v}, \"unit\": {}}}",
            json_str(name),
            json_str(unit)
        ));
    }
    if args.traced {
        let path = args.out_dir.join(format!("spans-{}.jsonl", args.workload));
        match spans::write_jsonl(&path, &o.spans) {
            Ok(()) => o
                .notes
                .push(("spans_file".into(), path.display().to_string())),
            Err(e) => eprintln!("cannot write {}: {e}", path.display()),
        }
    }
    let error_rate = o.failed as f64 / o.attempted.max(1) as f64;
    eprintln!(
        "  {:<34} {error_rate:>16.4} ratio ({} of {} failed)",
        "error_rate", o.failed, o.attempted
    );
    o.notes.push(("error_rate".into(), error_rate.to_string()));
    let notes: Vec<String> = o
        .notes
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    println!("notes {{{}}}", notes.join(", "));
    let correct = o.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.attempted.max(1),
        o.failed,
        fields.join(", ")
    );
    std::process::exit(if correct { 0 } else { 1 });
}
