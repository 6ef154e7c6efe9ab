//! Self-test: every workload at tiny scale, through the real command line.
//!
//! Each run is its own process, so the thread count it reports is its own.

use pretium_perfbench::{catalog, Kind, Workload};
use std::path::PathBuf;
use std::process::Command;

/// `(name, value, unit)` of every metric in a result line.
fn metrics(line: &str) -> Vec<(String, f64, String)> {
    let mut out = Vec::new();
    let mut rest = line;
    while let Some(i) = rest.find(": {\"value\": ") {
        let name = rest[..i].rsplit('"').nth(1).expect("quoted metric name").to_string();
        let after = &rest[i + ": {\"value\": ".len()..];
        let comma = after.find(',').expect("value ends with a comma");
        let value: f64 = after[..comma].parse().expect("numeric value");
        let unit_start = after.find("\"unit\": \"").expect("unit") + "\"unit\": \"".len();
        let unit_len = after[unit_start..].find('"').expect("closing quote");
        out.push((name, value, after[unit_start..unit_start + unit_len].to_string()));
        rest = &after[unit_start + unit_len..];
    }
    out
}

fn field<'a>(line: &'a str, key: &str) -> &'a str {
    let start = line.find(&format!("\"{key}\": ")).expect(key) + key.len() + 4;
    let len = line[start..].find(',').expect("field ends with a comma");
    &line[start..start + len]
}

/// Run the benchmark at tiny scale; returns its standard output.
fn bench(workload: Workload, seed: u64, trace: bool) -> String {
    let out_file = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("trace-{}-{seed}.jsonl", workload.name()));
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload.name(), "--seed", &seed.to_string(), "--seconds", "0"])
        .args(["--trace", if trace { "1" } else { "0" }, "--tiny"])
        .arg("--trace-out")
        .arg(&out_file)
        .output()
        .expect("run perfbench");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{}: {stdout}\n{}",
        workload.name(),
        String::from_utf8_lossy(&out.stderr)
    );
    if trace {
        let spans = std::fs::read_to_string(&out_file).expect("span file written");
        let first = spans.lines().next().expect("at least one span");
        for key in ["\"name\":", "\"start_ns\":", "\"end_ns\":", "\"parent\":", "\"id\":"] {
            assert!(first.contains(key), "span line lacks {key}: {first}");
        }
    }
    stdout
}

fn result_line(stdout: &str) -> &str {
    stdout.lines().last().expect("a result line")
}

#[test]
fn every_workload_reports_every_metric_with_its_unit() {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    for workload in Workload::ALL {
        for (trace, kind) in [(false, Kind::EndToEnd), (true, Kind::PerLayer)] {
            let stdout = bench(workload, 5, trace);
            let line = result_line(&stdout);
            assert_eq!(field(line, "correct"), "true", "{}: {stdout}", workload.name());
            assert_eq!(field(line, "failed"), "0", "{}: {stdout}", workload.name());
            assert!(field(line, "attempted").parse::<u64>().expect("count") >= 1);
            let got = metrics(line);
            let want: Vec<_> = catalog().into_iter().filter(|(_, _, k)| *k == kind).collect();
            assert_eq!(got.len(), want.len(), "{}: {line}", workload.name());
            for ((name, value, unit), (want_name, want_unit, _)) in got.iter().zip(&want) {
                assert_eq!((name, unit.as_str()), (want_name, *want_unit));
                assert!(value.is_finite(), "{name} = {value}");
            }
            if kind == Kind::EndToEnd {
                for (name, value, _) in &got {
                    assert!(*value != 0.0, "{}: end-to-end {name} is 0", workload.name());
                }
                continue;
            }
            // Replays stay on the calling thread; the sweep runs at most
            // `nproc` cells at once.
            let threads = got.iter().find(|(n, ..)| n == "threads.max").expect("threads.max").1;
            let limit = if workload == Workload::Fig6Sweep { nproc } else { 1 };
            assert!(
                threads >= 1.0 && threads <= limit as f64,
                "{}: {threads} threads, limit {limit}",
                workload.name()
            );
        }
    }
}

#[test]
fn benchmark_json_lists_the_catalog() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    for (name, unit, kind) in catalog() {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry} ({kind:?})");
    }
    let workloads = json.split("\"workloads\"").nth(1).expect("a workloads list");
    let workloads = &workloads[..workloads.find(']').expect("end of the workloads list")];
    for entry in workloads.split("\"name\": \"").skip(1) {
        let name = &entry[..entry.find('"').expect("quoted name")];
        assert!(Workload::parse(name).is_some(), "BENCHMARK.json names unknown workload {name}");
    }
}

#[test]
fn same_seed_same_fingerprints() {
    let fingerprints = |stdout: &str| -> Vec<String> {
        stdout.lines().filter(|l| l.contains("fingerprint")).map(str::to_string).collect()
    };
    let a = bench(Workload::EvalFaults, 9, false);
    let b = bench(Workload::EvalFaults, 9, false);
    assert!(!fingerprints(&a).is_empty());
    assert_eq!(fingerprints(&a), fingerprints(&b));
    let c = bench(Workload::EvalFaults, 10, false);
    assert_ne!(fingerprints(&a), fingerprints(&c), "the seed must change the inputs");
}
