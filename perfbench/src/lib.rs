//! End-to-end benchmark of Pretium.
//!
//! Two workloads replay Pretium the way `pretium_sim::runner` does — a
//! warm-up price-learning pass, then measured passes that run faults, PC,
//! the RA batch, SAM and execute at every step — and one runs the fig6
//! sweep on the `pretium_sim::par` pool. Every layer is timed from outside,
//! around the benchmark's own calls into its public functions; LP work is
//! read as deltas of `Pretium::lp_stats()` and `Pretium::telemetry()`.
//!
//! Worlds are pinned: topology and background traffic come from a fixed
//! seed, and the run's `--seed` draws the request streams (and fault
//! plans). That keeps the work of a run steady across seeds while every
//! seed still replays different customer requests.

mod replay;
mod stats;
mod sweep;
mod trace;

pub use pretium_sim::registry::Scale;
use pretium_sim::ScenarioConfig;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// Seed of the pinned topology and background traffic.
pub const WORLD_SEED: u64 = 7;

/// Load factor of every replay world (the registry's default point).
pub const LOAD: f64 = 2.0;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    EvalSteady,
    EvalFaults,
    Fig6Sweep,
}

impl Workload {
    pub const ALL: [Workload; 3] =
        [Workload::EvalSteady, Workload::EvalFaults, Workload::Fig6Sweep];

    pub fn name(self) -> &'static str {
        match self {
            Workload::EvalSteady => "eval-steady",
            Workload::EvalFaults => "eval-faults",
            Workload::Fig6Sweep => "fig6-sweep",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Shape of a replay workload.
#[derive(Debug, Clone, Copy)]
pub struct ReplaySpec {
    /// Simulated windows per pass.
    pub windows: usize,
    /// Request streams drawn per run (one world each).
    pub streams: usize,
    /// Failure rate of the availability fault profile, when faulted.
    pub failure_rate: Option<f64>,
}

impl ReplaySpec {
    pub fn of(workload: Workload, scale: Scale) -> Option<ReplaySpec> {
        let tiny = scale == Scale::Tiny;
        let spec = match workload {
            Workload::EvalSteady => ReplaySpec { windows: 14, streams: 20, failure_rate: None },
            Workload::EvalFaults => {
                ReplaySpec { windows: 14, streams: 20, failure_rate: Some(0.3) }
            }
            Workload::Fig6Sweep => return None,
        };
        Some(if tiny { ReplaySpec { windows: 2, streams: 2, ..spec } } else { spec })
    }

    /// The world of request stream `k` of a run seeded `seed`: pinned
    /// topology and traffic, the stream's own requests.
    pub fn config(&self, scale: Scale, seed: u64, k: usize) -> ScenarioConfig {
        let mut c = scale.config(WORLD_SEED, LOAD);
        c.windows = self.windows;
        c.requests.seed = stream_seed(seed, k);
        c
    }
}

/// Seed of the requests of the pinned warm-up pass: the price history is
/// part of the pinned world, like its topology and traffic.
pub fn history_seed() -> u64 {
    rand::derive_seed(WORLD_SEED, "history")
}

/// Seed of request stream `k` in a run seeded `seed`.
pub fn stream_seed(seed: u64, k: usize) -> u64 {
    rand::derive_seed(rand::derive_seed_indexed(seed, k as u64), "requests")
}

/// What one run asks for.
#[derive(Debug, Clone)]
pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
    /// Where a traced run writes its spans (JSON Lines); `None` skips it.
    pub trace_out: Option<PathBuf>,
}

/// Which list of `BENCHMARK.json` a metric belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    EndToEnd,
    PerLayer,
}

/// `(name, unit, kind)` of every metric the benchmark reports.
pub fn catalog() -> Vec<(String, &'static str, Kind)> {
    use Kind::*;
    let mut c: Vec<(String, &'static str, Kind)> = [
        ("setup_s", "s"),
        ("window_s", "s"),
        ("sweep_s", "s"),
        ("sam_step_p50_ms", "ms"),
        ("quote_p50_us", "us"),
        ("admit_p50_us", "us"),
        ("welfare", "ratio"),
        ("peak_rss_mb", "MiB"),
    ]
    .into_iter()
    .map(|(n, u)| (n.to_string(), u, EndToEnd))
    .collect();
    let layer: &[(&str, &'static str)] = &[
        ("setup.scenario_s", "s"),
        ("setup.warmup_s", "s"),
        ("ra.snapshot_us", "us"),
        ("ra.ticket_us", "us"),
        ("ra.admit_us", "us"),
        ("ra.requote_share", "ratio"),
        ("ra.busy_s", "s"),
        ("sam.busy_s", "s"),
        ("sam.calls", "count"),
        ("sam.event_calls", "count"),
        ("sam.lp_solves_per_call", "count"),
        ("sam.lp_iters_per_call", "count"),
        ("sam.us_per_lp_iter", "us"),
        ("sam.warm_dual_share", "ratio"),
        ("sam.cold_starts", "count"),
        ("sam.degradations", "count"),
        ("sam.shortfalls", "count"),
        ("sam.tail_ms", "ms"),
        ("sam.tail_pct", "%"),
        ("sam.tail_samples", "count"),
        ("pc.call_s", "s"),
        ("pc.busy_s", "s"),
        ("pc.calls", "count"),
        ("pc.lp_iters_per_call", "count"),
        ("pc.freezes", "count"),
        ("exec.busy_us", "us"),
        ("faults.apply_us", "us"),
        ("faults.capacity_events", "count"),
        ("audit.busy_s", "s"),
        ("audit.violations", "count"),
        ("pool.occupancy", "ratio"),
        ("pool.steals", "count"),
        ("pool.cell_max_s", "s"),
        ("pool.cell_mean_s", "s"),
        ("trace.overhead_s", "s"),
        ("trace.spans", "count"),
        ("trace.self_sum_s", "s"),
        ("ops.fail_share", "ratio"),
        ("threads.max", "count"),
        ("machine.speed", "ratio"),
    ];
    c.extend(layer.iter().map(|&(n, u)| (n.to_string(), u, PerLayer)));
    for part in ["sam", "pc"] {
        for (n, u) in LP_METRICS {
            c.push((format!("lp.{part}.{n}"), u, PerLayer));
        }
    }
    for scheme in sweep::SCHEMES {
        c.push((format!("baselines.{}_s", sweep::key(scheme)), "s", PerLayer));
    }
    for span in SPANS {
        c.push((format!("self.{span}_s"), "s", PerLayer));
    }
    c
}

/// LP counters reported per part (SAM, PC).
const LP_METRICS: [(&str, &str); 10] = [
    ("iterations", "count"),
    ("pricing_scans", "count"),
    ("scans_per_iter", "count"),
    ("bland_pivots", "count"),
    ("refactors", "count"),
    ("ft_updates", "count"),
    ("pivot_rejections", "count"),
    ("fill_ratio", "ratio"),
    ("cache_hit_share", "ratio"),
    ("pricing_serial_s", "s"),
];

/// Every span name the benchmark records.
pub const SPANS: [&str; 20] = [
    "setup.scenario",
    "setup.warmup",
    "pass",
    "step",
    "faults.apply",
    "pc",
    "ra.snapshot",
    "ra.ticket",
    "ra.absorb",
    "ra.admit",
    "sam",
    "exec",
    "sweep",
    "baselines.opt",
    "baselines.pretium",
    "baselines.no_prices",
    "baselines.region_oracle",
    "baselines.peak_oracle",
    "baselines.vcg",
    "calibrate",
];

/// The outcome of one run.
#[derive(Debug, Default)]
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<String, f64>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// A failed correctness check: recorded, and the run is not correct.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.correct = false;
            self.notes.push(format!("CHECK FAILED: {}", what()));
        }
    }

    /// Catalog metrics this report lacks.
    pub fn missing(&self) -> Vec<String> {
        catalog().into_iter().map(|(n, ..)| n).filter(|n| !self.metrics.contains_key(n)).collect()
    }

    /// The result line: `correct`, `attempted`, `failed`, and the metrics
    /// of `kind` with their units.
    pub fn json(&self, kind: Kind) -> String {
        let metrics: Vec<String> = catalog()
            .into_iter()
            .filter(|(_, _, k)| *k == kind)
            .map(|(n, u, _)| {
                let v = self.metrics.get(&n).copied().unwrap_or(0.0);
                let v = if v.is_finite() { v } else { 0.0 };
                format!("\"{n}\": {{\"value\": {v:?}, \"unit\": \"{u}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Run one workload.
pub fn run(opts: &Options) -> Report {
    let watch = stats::ThreadWatch::start();
    let mut report = match ReplaySpec::of(opts.workload, opts.scale) {
        Some(spec) => replay_workload(opts, &spec),
        None => sweep::run(opts, &watch),
    };
    report.set("threads.max", watch.stop() as f64);
    report.set("peak_rss_mb", stats::peak_rss_mb());
    report.set("ops.fail_share", stats::ratio(report.failed as f64, report.attempted as f64));
    report
}

/// Per-round metrics of a [`replay::Rec`]: timings normalized per
/// simulated window, counts as totals.
pub(crate) fn summarize(rec: &replay::Rec, out: &mut BTreeMap<String, f64>) {
    use stats::{mean, median, ratio};
    let w = rec.windows.max(1) as f64;
    let mut put = |k: &str, v: f64| {
        out.insert(k.to_string(), v);
    };
    let sum = |v: &[f64]| v.iter().sum::<f64>();
    let sam_s = sum(&rec.sam_ms) * 1e-3;
    let (tail, pct) = stats::tail(&rec.sam_ms);
    put("window_s", sum(&rec.pass_s) / w);
    put("sam_step_p50_ms", median(&rec.sam_ms));
    put("sam.tail_ms", tail);
    put("sam.tail_pct", pct);
    put("sam.tail_samples", rec.sam_ms.len() as f64);
    put("quote_p50_us", median(&rec.ticket_us));
    put("admit_p50_us", median(&rec.admit_us));
    put("pc.call_s", median(&rec.pc_s));
    put("ra.snapshot_us", mean(&rec.snapshot_us));
    put("ra.ticket_us", mean(&rec.ticket_us));
    put("ra.admit_us", mean(&rec.admit_us));
    put("ra.requote_share", ratio(rec.requoted as f64, rec.ticket_us.len() as f64));
    let ra_us = sum(&rec.snapshot_us) + sum(&rec.ticket_us) + sum(&rec.admit_us);
    put("ra.busy_s", (ra_us * 1e-6 + rec.absorb_s) / w);
    put("sam.busy_s", sam_s / w);
    put("sam.calls", rec.sam_ms.len() as f64);
    put("sam.event_calls", rec.sam_event_calls as f64);
    let calls = rec.sam_ms.len() as f64;
    put("sam.lp_solves_per_call", ratio(rec.lp_sam.solves as f64, calls));
    put("sam.lp_iters_per_call", ratio(rec.lp_sam.iterations as f64, calls));
    put("sam.us_per_lp_iter", ratio(sam_s * 1e6, rec.lp_sam.iterations as f64));
    put("sam.warm_dual_share", ratio(rec.lp_sam.warm_dual as f64, rec.lp_sam.solves as f64));
    put("sam.cold_starts", rec.lp_sam.cold_starts as f64);
    put("sam.degradations", rec.degradations as f64);
    put("sam.shortfalls", rec.shortfalls as f64);
    put("pc.busy_s", sum(&rec.pc_s) / w);
    put("pc.calls", rec.pc_s.len() as f64);
    put("pc.lp_iters_per_call", ratio(rec.lp_pc.iterations as f64, rec.pc_s.len() as f64));
    put("pc.freezes", rec.pc_freezes as f64);
    put("exec.busy_us", rec.exec_s * 1e6 / w);
    put("faults.apply_us", rec.faults_s * 1e6 / w);
    put("faults.capacity_events", rec.capacity_events as f64);
    for (part, lp) in [("sam", &rec.lp_sam), ("pc", &rec.lp_pc)] {
        let it = lp.iterations as f64;
        let mut lp_put = |k: &str, v: f64| {
            out.insert(format!("lp.{part}.{k}"), v);
        };
        lp_put("iterations", it);
        lp_put("pricing_scans", lp.pricing_scans as f64);
        lp_put("scans_per_iter", ratio(lp.pricing_scans as f64, it));
        lp_put("bland_pivots", lp.bland_pivots as f64);
        lp_put("refactors", lp.refactors as f64);
        lp_put("ft_updates", lp.ft_updates as f64);
        lp_put("pivot_rejections", lp.pivot_rejections as f64);
        lp_put("fill_ratio", ratio(lp.factor_nnz as f64, lp.basis_nnz as f64));
        lp_put("cache_hit_share", ratio(lp.cache_hits as f64, lp.solves as f64));
        lp_put("pricing_serial_s", lp.pricing_serial_nanos as f64 * 1e-9 / w);
    }
}

/// Scale every timing in `m` to the reference machine: a timing taken
/// while the machine ran at `speed` times the reference's speed would have
/// taken `speed` times as long there. Records the speed as `machine.speed`.
pub(crate) fn normalize(m: &mut BTreeMap<String, f64>, speed: f64) {
    for (name, unit, _) in catalog() {
        if let (Some(v), "s" | "ms" | "us") = (m.get_mut(&name), unit) {
            *v *= speed;
        }
    }
    m.insert("machine.speed".into(), speed);
}

/// Per-key median over rounds.
pub(crate) fn median_over(rounds: &[BTreeMap<String, f64>]) -> BTreeMap<String, f64> {
    let mut keys: Vec<&String> = rounds.iter().flat_map(|r| r.keys()).collect();
    keys.sort();
    keys.dedup();
    keys.into_iter()
        .map(|k| {
            let v: Vec<f64> = rounds.iter().filter_map(|r| r.get(k).copied()).collect();
            (k.clone(), stats::median(&v))
        })
        .collect()
}

/// Self time per span, scaled by `per` (windows or sweeps), as `self.*`
/// metrics; returns their sum.
pub(crate) fn self_metrics(
    tracer: &trace::Tracer,
    from: usize,
    per: f64,
    out: &mut BTreeMap<String, f64>,
) -> f64 {
    let times = tracer.self_times(from);
    let mut total = 0.0;
    for span in SPANS {
        let v = times.get(span).copied().unwrap_or(0.0) / per;
        total += v;
        out.insert(format!("self.{span}_s"), v);
    }
    total
}

/// Set-up times, one sample per repetition, scaled to the reference
/// machine.
#[derive(Debug, Default)]
pub(crate) struct SetupTimes {
    scenario: Vec<f64>,
    warmup: Vec<f64>,
}

impl SetupTimes {
    /// One set-up's parts, taken at machine speed `speed`.
    pub(crate) fn push(&mut self, scenario: f64, warmup: f64, speed: f64) {
        self.scenario.push(scenario * speed);
        self.warmup.push(warmup * speed);
    }

    /// `setup_s` (the median total) and its two parts.
    pub(crate) fn report(&self, report: &mut Report) {
        let total: Vec<f64> = self.scenario.iter().zip(&self.warmup).map(|(a, b)| a + b).collect();
        report.set("setup_s", stats::median(&total));
        report.set("setup.scenario_s", stats::median(&self.scenario));
        report.set("setup.warmup_s", stats::median(&self.warmup));
        report.note(format!("set-up: median {:.4} s of {}", stats::median(&total), total.len()));
    }
}

/// Whether to start another measured round: always until there is one
/// untraced round (and, in a traced run, one traced round); after that
/// while the next round, as long as the mean one so far, would end nearer
/// the deadline than stopping now.
pub(crate) fn another_round(
    opts: &Options,
    untraced: usize,
    traced: usize,
    started: Instant,
) -> bool {
    if untraced == 0 || (opts.trace && traced == 0) {
        return true;
    }
    let elapsed = started.elapsed().as_secs_f64();
    let rounds = (untraced + traced) as f64;
    elapsed + 0.5 * elapsed / rounds < opts.seconds
}

/// One set-up of a replay workload: every stream's scenario (and fault
/// plan), then one healthy warm-up pass, on the pinned world with requests
/// of its own, whose prices seed every stream — the price history a
/// deployment brings to the measured window. `None` when the warm-up
/// failed (counted in the report).
fn set_up_replay(
    opts: &Options,
    spec: &ReplaySpec,
    cfg: &pretium_core::PretiumConfig,
    report: &mut Report,
    trace: &mut trace::Tracer,
    times: &mut SetupTimes,
) -> Option<Vec<replay::World>> {
    let ((built, pattern, scenario_s, warmup_s), speed) = stats::at_speed(|| {
        let t0 = Instant::now();
        let open = trace.open("setup.scenario", opts.seed);
        let mut history = spec.config(opts.scale, opts.seed, 0);
        history.requests.seed = history_seed();
        let history = history.build();
        let built: Vec<(pretium_sim::Scenario, Option<pretium_sim::FaultPlan>)> = (0..spec.streams)
            .map(|k| {
                let c = spec.config(opts.scale, opts.seed, k);
                let scenario = c.build();
                let plan = spec.failure_rate.map(|rate| {
                    let f = pretium_sim::FaultPlanConfig::availability(
                        rand::derive_seed(c.requests.seed, "faults"),
                        rate,
                    );
                    pretium_sim::FaultPlan::for_scenario(&scenario, &f)
                });
                (scenario, plan)
            })
            .collect();
        trace.close(open);
        let t1 = Instant::now();
        let open = trace.open("setup.warmup", opts.seed);
        let pattern = replay::warm_up(&history, cfg);
        trace.close(open);
        (built, pattern, (t1 - t0).as_secs_f64(), t1.elapsed().as_secs_f64())
    });
    times.push(scenario_s, warmup_s, speed);
    report.attempted += 1;
    match pattern {
        Ok(pattern) => Some(
            built
                .into_iter()
                .map(|(scenario, plan)| replay::World { scenario, plan, pattern: pattern.clone() })
                .collect(),
        ),
        Err(e) => {
            report.failed += 1;
            report.check(false, || format!("warm-up failed: {e:?}"));
            None
        }
    }
}

/// Measured passes between two repetitions of a replay's set-up.
const SETUP_EVERY: usize = 10;

/// A replay workload: set up every stream's world, run an audited
/// verification pass, then measured passes until the time is up. The
/// set-up is repeated after every [`SETUP_EVERY`] passes, so that its
/// samples see the machine the passes see; `setup_s` is their median.
fn replay_workload(opts: &Options, spec: &ReplaySpec) -> Report {
    use pretium_core::PretiumConfig;
    use replay::{pass, Rec};
    use trace::Tracer;

    let mut report = Report { correct: true, ..Default::default() };
    // Replays run single-threaded: one quoting job, serial pricing.
    let cfg = PretiumConfig { ra_jobs: 1, pricing_jobs: 1, ..PretiumConfig::default() };
    let epoch = Instant::now();
    let mut setup_trace = Tracer::new(opts.trace, epoch);
    let mut times = SetupTimes::default();
    let Some(worlds) = set_up_replay(opts, spec, &cfg, &mut report, &mut setup_trace, &mut times)
    else {
        report.check(false, || "no world could be set up".into());
        return report;
    };
    let requests: usize = worlds.iter().map(|w| w.scenario.requests.len()).sum();
    let edges = worlds[0].scenario.net.num_edges();
    report.note(format!(
        "{}: {} streams x {} windows, {} edges, {} requests",
        opts.workload.name(),
        worlds.len(),
        spec.windows,
        edges,
        requests,
    ));

    // Verification: one audited pass. Its violations are failures, and
    // auditing must not change any result.
    let audit_cfg = PretiumConfig { audit: true, ..cfg.clone() };
    let mut vrec = Rec::new(Tracer::new(false, epoch));
    let (verified, speed) = stats::at_speed(|| pass(&worlds[0], &audit_cfg, 0, &mut vrec));
    let windows = vrec.windows.max(1) as f64;
    let aud = verified.system.auditor();
    let violations = aud.map_or(0, |a| a.violations().len() as u64);
    report.attempted += vrec.attempted + aud.map_or(0, |a| a.checks());
    report.failed += vrec.failed() + violations;
    let audit_s = verified.system.telemetry().audit.total().as_secs_f64();
    report.set("audit.busy_s", audit_s * speed / windows);
    report.set("audit.violations", violations as f64);
    report.check(aud.is_some(), || "auditor inactive in the verification pass".into());
    report.check(violations == 0, || {
        format!(
            "audit violations: {:?}",
            aud.map(|a| a.violations().iter().take(3).collect::<Vec<_>>())
        )
    });
    let audited_fp = verified.fingerprint;
    drop(verified);

    // Measured rounds: every stream once per round, tracing off; in a
    // traced run, traced rounds alternate with untraced ones.
    let started = Instant::now();
    let mut untraced: Vec<BTreeMap<String, f64>> = Vec::new();
    let mut traced: Vec<BTreeMap<String, f64>> = Vec::new();
    let mut fingerprints: Vec<Option<(u64, usize, u64, u64)>> = vec![None; worlds.len()];
    let mut welfare = Vec::new();
    let mut trace_file: Option<Tracer> = None;
    while another_round(opts, untraced.len(), traced.len(), started) {
        let tracing = opts.trace && untraced.len() > traced.len();
        let mut rec = Rec::new(Tracer::new(tracing, epoch));
        let first = untraced.is_empty() && traced.is_empty();
        let mut speeds = Vec::new();
        for (k, world) in worlds.iter().enumerate() {
            let (out, speed) = stats::at_speed(|| pass(world, &cfg, k as u64, &mut rec));
            speeds.push(speed);
            match fingerprints[k] {
                None => fingerprints[k] = Some(out.fingerprint),
                Some(fp) => report.check(fp == out.fingerprint, || {
                    format!("stream {k}: pass not deterministic: {fp:?} vs {:?}", out.fingerprint)
                }),
            }
            if first {
                let sc = &world.scenario;
                let offered: f64 = sc.requests.iter().map(|r| r.value * r.demand).sum();
                welfare.push((out.welfare, offered));
                if k == 0 {
                    report.check(out.fingerprint == audited_fp, || {
                        format!("audited pass differs: {audited_fp:?} vs {:?}", out.fingerprint)
                    });
                }
                report.check(out.welfare.is_finite(), || format!("stream {k}: welfare not finite"));
                let unaccounted =
                    out.system.contracts().iter().filter(|c| !c.guarantee_accounted()).count();
                report.check(unaccounted == 0, || {
                    format!("stream {k}: {unaccounted} guarantees neither delivered nor waived")
                });
                if spec.failure_rate.is_none() {
                    let v = out.outcome.usage.capacity_violations(&sc.net, 1e-5);
                    report.attempted += 1;
                    report.failed += u64::from(!v.is_empty());
                    report.check(v.is_empty(), || format!("stream {k}: capacity violations {v:?}"));
                }
                report.note(format!(
                    "stream {k}: requests {} welfare {:.6} fingerprint {:016x}/{}/{:016x}/{}",
                    sc.requests.len(),
                    out.welfare,
                    out.fingerprint.0,
                    out.fingerprint.1,
                    out.fingerprint.2,
                    out.fingerprint.3
                ));
            }
            if (k + 1) % SETUP_EVERY.min(worlds.len()) == 0 {
                let again =
                    set_up_replay(opts, spec, &cfg, &mut report, &mut setup_trace, &mut times);
                std::hint::black_box(again);
            }
        }
        report.attempted += rec.attempted;
        report.failed += rec.failed();
        for (cause, n) in &rec.failures {
            report.note(format!("failure x{n}: {cause}"));
        }
        let mut m = BTreeMap::new();
        summarize(&rec, &mut m);
        m.insert("sweep_s".into(), rec.pass_s.iter().sum());
        if tracing {
            let w = rec.windows.max(1) as f64;
            let sum = self_metrics(&rec.trace, 0, w, &mut m);
            m.insert("trace.self_sum_s".into(), sum);
            m.insert("trace.spans".into(), rec.trace.spans().len() as f64);
        }
        let raw_window_s = m["window_s"];
        normalize(&mut m, stats::median(&speeds));
        report.note(format!(
            "round {}{}: window_s {:.6} sam_step_p50_ms {:.4} quote_p50_us {:.3} \
             (machine speed {:.4}, raw window_s {raw_window_s:.6})",
            untraced.len() + traced.len(),
            if tracing { " (traced)" } else { "" },
            m["window_s"],
            m["sam_step_p50_ms"],
            m["quote_p50_us"],
            m["machine.speed"],
        ));
        if tracing {
            traced.push(m);
            if trace_file.is_none() {
                trace_file = Some(rec.trace);
            }
        } else {
            untraced.push(m);
        }
    }
    times.report(&mut report);
    let (sum_w, sum_offered) = welfare.iter().fold((0.0, 0.0), |(a, b), &(w, o)| (a + w, b + o));
    report.set("welfare", stats::ratio(sum_w, sum_offered));
    report.set("pool.occupancy", 0.0);
    report.set("pool.steals", 0.0);
    report.set("pool.cell_max_s", 0.0);
    report.set("pool.cell_mean_s", 0.0);
    for scheme in sweep::SCHEMES {
        report.set(&format!("baselines.{}_s", sweep::key(scheme)), 0.0);
    }
    let base = median_over(&untraced);
    finish_trace(opts, &mut report, &base, &traced, "window_s", setup_trace, trace_file);
    report.metrics.extend(base);
    report.note(format!("measured rounds: {} untraced, {} traced", untraced.len(), traced.len()));
    report
}

/// Fold the traced rounds into the report: self times, the tracing
/// overhead on `headline`, and the span file.
pub(crate) fn finish_trace(
    opts: &Options,
    report: &mut Report,
    base: &BTreeMap<String, f64>,
    traced: &[BTreeMap<String, f64>],
    headline: &str,
    mut spans: trace::Tracer,
    measured: Option<trace::Tracer>,
) {
    if traced.is_empty() {
        for span in SPANS {
            report.set(&format!("self.{span}_s"), 0.0);
        }
        for k in ["trace.self_sum_s", "trace.spans", "trace.overhead_s"] {
            report.set(k, 0.0);
        }
        return;
    }
    let t = median_over(traced);
    for (k, v) in &t {
        if k.starts_with("self.") || k.starts_with("trace.") {
            report.set(k, *v);
        }
    }
    let overhead =
        t.get(headline).copied().unwrap_or(0.0) - base.get(headline).copied().unwrap_or(0.0);
    report.set("trace.overhead_s", overhead);
    report.note(format!(
        "trace: untraced {headline} {:.6} s, traced {:.6} s, overhead {overhead:.6} s, self-time sum {:.6} s",
        base.get(headline).copied().unwrap_or(0.0),
        t.get(headline).copied().unwrap_or(0.0),
        t.get("trace.self_sum_s").copied().unwrap_or(0.0)
    ));
    if let (Some(path), Some(m)) = (&opts.trace_out, measured) {
        spans.absorb(m, None);
        match spans.write_jsonl(path) {
            Ok(()) => report.note(format!("spans written to {}", path.display())),
            Err(e) => report.note(format!("could not write spans to {}: {e}", path.display())),
        }
    }
}
