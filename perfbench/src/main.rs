//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as the last line of standard output, one
//! JSON object with `correct`, `attempted`, `failed` and the metrics: the
//! end-to-end ones with `--trace 0`, the per-layer ones with `--trace 1`.
//! `--tiny` shrinks every world (for smoke runs); `--trace-out <path>`
//! sets where a traced run writes its spans.

use pretium_perfbench::{catalog, run, Kind, Options, Scale, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

fn parse() -> Result<Options, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut scale, mut trace_out) = (Scale::Evaluation, None);
    while let Some(flag) = args.next() {
        if flag == "--tiny" {
            scale = Scale::Tiny;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value}; expected one of {names:?}")
                })?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(e.to_string()))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(e.to_string()))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(String::new())),
                })
            }
            "--trace-out" => trace_out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let seed = seed.ok_or("--seed is required")?;
    let trace = trace.unwrap_or(false);
    let trace_out = trace_out.or_else(|| {
        trace.then(|| {
            PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                .join("out")
                .join(format!("trace-{}-{seed}.jsonl", workload.name()))
        })
    });
    Ok(Options { workload, seed, seconds: seconds.unwrap_or(10.0), trace, scale, trace_out })
}

fn main() -> ExitCode {
    let opts = match parse() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let report = run(&opts);
    let kind = if opts.trace { Kind::PerLayer } else { Kind::EndToEnd };
    let missing = report.missing();
    if !missing.is_empty() {
        eprintln!("perfbench: metrics not measured: {missing:?}");
        return ExitCode::from(1);
    }
    for line in &report.notes {
        println!("{line}");
    }
    for (name, unit, _) in catalog() {
        println!("metric {name} = {} {unit}", report.metrics[&name]);
    }
    println!("{}", report.json(kind));
    ExitCode::SUCCESS
}
