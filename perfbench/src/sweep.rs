//! The fig6 sweep (OPT, Pretium and four baselines at four loads) on the
//! `pretium_sim::par` pool.
//!
//! Baseline cells call `Sweep::run_cell`; Pretium cells run the
//! benchmark's instrumented replay, so the sweep also yields SAM, RA and PC
//! timings. A serial reference sweep made only of `Sweep::run_cell` calls
//! checks that the measured sweep renders the same figure, bit for bit.

use crate::replay::{pass, prepare, warm_up, Rec};
use crate::stats::ThreadWatch;
use crate::trace::Tracer;
use crate::{
    another_round, catalog, history_seed, median_over, normalize, self_metrics, stats, summarize,
    Kind, Options, Report, Scale, SetupTimes, WORLD_SEED,
};
use pretium_core::PoolTelemetry;
use pretium_core::PretiumConfig;
use pretium_lp::SolveError;
use pretium_sim::experiments::LOAD_FACTORS;
use pretium_sim::par::run_cells_ok;
use pretium_sim::registry::{CellOut, CellPayload, CellSpec, Metrics, Scheme};
use pretium_sim::{render_figure, run_cells, Cell, ScenarioConfig, Series, Sweep, Variant};
use std::collections::BTreeMap;
use std::convert::Infallible;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

/// Request streams per run; each is one fig6 sweep per measured round. The
/// cost of a sweep differs by about 20% between streams, so a run measures
/// many streams once rather than a few of them again and again.
const STREAMS: usize = 12;

/// The fig6 schemes in declaration order.
pub const SCHEMES: [Scheme; 6] = [
    Scheme::Opt,
    Scheme::Pretium(Variant::Full),
    Scheme::NoPrices,
    Scheme::RegionOracle,
    Scheme::PeakOracle,
    Scheme::VcgLike,
];

/// A scheme's metric key (`baselines.<key>_s`).
pub fn key(scheme: Scheme) -> &'static str {
    &span(scheme)["baselines.".len()..]
}

/// The span of a scheme's cell.
fn span(scheme: Scheme) -> &'static str {
    match scheme {
        Scheme::Opt => "baselines.opt",
        Scheme::Pretium(_) => "baselines.pretium",
        Scheme::NoPrices => "baselines.no_prices",
        Scheme::RegionOracle => "baselines.region_oracle",
        Scheme::PeakOracle => "baselines.peak_oracle",
        Scheme::VcgLike => "baselines.vcg",
    }
}

/// The world at one load point: the registry's scale config with the
/// pinned topology and traffic, and the run's request stream.
fn configure(scale: Scale, seed: u64, load: &f64) -> ScenarioConfig {
    let mut c = scale.config(WORLD_SEED, *load);
    c.requests.seed = rand::derive_seed(seed, "requests");
    c
}

fn describe(load: &f64) -> (String, f64) {
    (format!("load={load}"), *load)
}

/// fig6's grid: every scheme at every load of the registry.
pub fn fig6(scale: Scale) -> Sweep<f64> {
    let schemes = SCHEMES.to_vec();
    Sweep::new("fig6", scale, LOAD_FACTORS.to_vec(), schemes, describe, configure)
}

/// Figure 6 from cell outputs in declaration order: welfare relative to
/// OPT per scheme and load. Also returns the mean of that ratio over every
/// scheme and load.
fn render(cells: &[CellSpec], outs: &[CellOut]) -> (String, f64) {
    let k = SCHEMES.len();
    let mut series: Vec<Series> =
        SCHEMES[1..].iter().map(|s| Series::new(s.label(), Vec::new())).collect();
    let mut ratios = Vec::new();
    for (spec, point) in cells.chunks(k).zip(outs.chunks(k)) {
        let welfare = |o: &CellOut| match o {
            CellOut::Metrics(m) => m.welfare,
            _ => f64::NAN,
        };
        let opt = welfare(&point[0]);
        for (s, out) in series.iter_mut().zip(&point[1..]) {
            s.points.push((spec[0].x, welfare(out) / opt));
            ratios.push(welfare(out) / opt);
        }
    }
    let text = render_figure("Figure 6: welfare relative to OPT", "load", &series);
    (text, stats::mean(&ratios))
}

/// One Pretium cell through the instrumented replay; the metrics are
/// those `registry::run_scheme_cell` computes.
fn pretium_cell(
    config: &ScenarioConfig,
    cost_scale: f64,
    rec: &mut Rec,
    id: u64,
) -> Result<Metrics, SolveError> {
    let cfg = PretiumConfig { cost_scale, ..PretiumConfig::default() };
    let world = prepare(config, &cfg, &mut rec.trace, id)?;
    let out = pass(&world, &cfg, id, rec);
    let sc = &world.scenario;
    Ok(Metrics {
        welfare: out.welfare,
        profit: out.outcome.profit(&sc.net, &sc.grid, cost_scale),
        completion: out.outcome.completion_rate(&sc.requests),
    })
}

/// What one measured cell reports besides its output.
struct CellRun {
    scheme: Scheme,
    secs: f64,
    /// The machine's speed over the cell, calibrated on its worker.
    speed: f64,
    rec: Rec,
}

type CellResult = (Result<CellOut, String>, CellRun);

/// A measured cell: timed in its own closure, panics caught here.
fn bench_cell(
    sweep: &Arc<Sweep<f64>>,
    spec: &CellSpec,
    id: u64,
    traced: bool,
    epoch: Instant,
) -> Cell<CellResult, Infallible> {
    let (sweep, spec) = (Arc::clone(sweep), spec.clone());
    Cell::new(spec.label.clone(), move || {
        let CellPayload::Scheme { config, scheme, cost_scale } = &spec.payload else {
            unreachable!("fig6 declares scheme cells only")
        };
        let mut rec = Rec::new(Tracer::new(traced, epoch));
        let calibrating = Instant::now();
        let ((out, t0, t1), speed) = stats::at_speed(|| {
            let t0 = Instant::now();
            let root = rec.trace.open(span(*scheme), id);
            let out = catch_unwind(AssertUnwindSafe(|| match scheme {
                Scheme::Pretium(_) => {
                    pretium_cell(config, *cost_scale, &mut rec, id).map(CellOut::Metrics)
                }
                _ => sweep.run_cell(&spec),
            }));
            rec.trace.close(root);
            (out, t0, Instant::now())
        });
        // The calibrations run on the worker inside the pool's cell, so
        // they are spans of their own: the self times then still add up
        // to the workers' busy time.
        rec.trace.leaf("calibrate", id, calibrating, t0);
        rec.trace.leaf("calibrate", id, t1, Instant::now());
        let secs = (t1 - t0).as_secs_f64();
        let out = match out {
            Ok(Ok(o)) => Ok(o),
            Ok(Err(e)) => Err(format!("{e:?}")),
            Err(_) => Err("panic".to_string()),
        };
        Ok((out, CellRun { scheme: *scheme, secs, speed, rec }))
    })
}

/// One measured sweep of `cells` on `jobs` workers.
struct SweepRun {
    wall: f64,
    pool: PoolTelemetry,
    outs: Vec<CellOut>,
    /// Cell time per scheme key, scaled to the reference machine.
    per_scheme: BTreeMap<&'static str, f64>,
    /// The Pretium cells' measurements, per load point, scaled to the
    /// reference machine.
    pretium: Vec<Rec>,
    /// The cells' machine speeds.
    speeds: Vec<f64>,
}

fn sweep_once(
    report: &mut Report,
    sweep: &Arc<Sweep<f64>>,
    cells: &[CellSpec],
    jobs: usize,
    root: &mut Tracer,
    epoch: Instant,
    watch: &ThreadWatch,
) -> SweepRun {
    let measured: Vec<_> = cells
        .iter()
        .enumerate()
        .map(|(i, spec)| bench_cell(sweep, spec, i as u64, root.is_on(), epoch))
        .collect();
    let t0 = Instant::now();
    let open = root.open("sweep", 0);
    // With more than one worker the pool runs every cell on threads of its
    // own while this thread waits.
    let (results, pool) = if jobs > 1 {
        watch.wait(|| run_cells_ok(jobs, measured))
    } else {
        run_cells_ok(jobs, measured)
    };
    root.close(open);
    let wall = t0.elapsed().as_secs_f64();
    let mut run = SweepRun {
        wall,
        pool,
        outs: Vec::new(),
        per_scheme: BTreeMap::new(),
        pretium: (0..cells.len() / SCHEMES.len())
            .map(|_| Rec::new(Tracer::new(false, epoch)))
            .collect(),
        speeds: Vec::new(),
    };
    for (i, ((out, mut cell), spec)) in results.into_iter().zip(cells).enumerate() {
        // A cell's own timings are scaled by its own speed, calibrated on
        // its worker; the sweep's wall-clock by the whole round's.
        *run.per_scheme.entry(key(cell.scheme)).or_insert(0.0) += cell.secs * cell.speed;
        run.speeds.push(cell.speed);
        cell.rec.scale(cell.speed);
        report.attempted += 1 + cell.rec.attempted;
        report.failed += cell.rec.failed();
        for (cause, n) in &cell.rec.failures {
            report.note(format!("failure x{n} in {}: {cause}", spec.label));
        }
        match out {
            Ok(o) => run.outs.push(o),
            Err(e) => {
                report.failed += 1;
                report.check(false, || format!("cell {}: {e}", spec.label));
            }
        }
        let trace = run.pretium[i / SCHEMES.len()].absorb(cell.rec);
        root.absorb(trace, open);
    }
    run
}

/// The reference: the registry's own cells, serially. `None` when a cell
/// failed (counted in the report).
fn reference(
    report: &mut Report,
    sweep: &Arc<Sweep<f64>>,
    cells: &[CellSpec],
) -> Option<Vec<CellOut>> {
    let jobs = cells
        .iter()
        .map(|spec| {
            let (sweep, spec) = (Arc::clone(sweep), spec.clone());
            Cell::new(spec.label.clone(), move || sweep.run_cell(&spec))
        })
        .collect();
    let (results, _) = run_cells(1, jobs);
    report.attempted += results.len() as u64;
    let mut outs = Vec::new();
    for (r, spec) in results.into_iter().zip(cells) {
        match r {
            Ok(o) => outs.push(o),
            Err(e) => {
                report.failed += 1;
                report.check(false, || format!("reference cell {}: {e:?}", spec.label));
            }
        }
    }
    (outs.len() == cells.len()).then_some(outs)
}

/// One set-up: declare every stream's cells and build each load point's
/// world, then run the warm-up pass a Pretium cell starts with at every
/// load, on the pinned world's own requests (as the replays warm up).
fn set_up(
    sweep: &Sweep<f64>,
    seeds: &[u64],
    report: &mut Report,
    trace: &mut Tracer,
    times: &mut SetupTimes,
) -> Vec<Vec<CellSpec>> {
    let ((cells, scenario_s, warmup_s), speed) = stats::at_speed(|| {
        let t0 = Instant::now();
        let open = trace.open("setup.scenario", seeds[0]);
        let cells: Vec<Vec<CellSpec>> = seeds.iter().map(|&s| sweep.cells(s)).collect();
        let mut history = Vec::new();
        for (s, c) in cells.iter().enumerate() {
            for point in c.chunks(SCHEMES.len()) {
                let pretium = point.iter().find_map(|cell| match &cell.payload {
                    CellPayload::Scheme { config, scheme: Scheme::Pretium(_), cost_scale } => {
                        Some((config, *cost_scale))
                    }
                    _ => None,
                });
                if let Some((config, cost_scale)) = pretium {
                    std::hint::black_box(config.build());
                    if s == 0 {
                        let mut config = config.clone();
                        config.requests.seed = history_seed();
                        history.push((config.build(), cost_scale));
                    }
                }
            }
        }
        trace.close(open);
        let t1 = Instant::now();
        let open = trace.open("setup.warmup", seeds[0]);
        for (scenario, cost_scale) in &history {
            let cfg = PretiumConfig { cost_scale: *cost_scale, ..PretiumConfig::default() };
            report.attempted += 1;
            if let Err(e) = std::hint::black_box(warm_up(scenario, &cfg)) {
                report.failed += 1;
                report.check(false, || format!("warm-up failed: {e:?}"));
            }
        }
        trace.close(open);
        (cells, (t1 - t0).as_secs_f64(), t1.elapsed().as_secs_f64())
    });
    times.push(scenario_s, warmup_s, speed);
    cells
}

pub fn run(opts: &Options, watch: &ThreadWatch) -> Report {
    let mut report = Report { correct: true, ..Default::default() };
    let sweep = Arc::new(fig6(opts.scale));
    let jobs = stats::nproc();
    let epoch = Instant::now();
    let seeds: Vec<u64> =
        (0..STREAMS).map(|s| rand::derive_seed_indexed(opts.seed, s as u64)).collect();

    // The set-up is repeated after every measured sweep, so that its
    // samples see the machine the sweeps see; `setup_s` is their median.
    let mut setup_trace = Tracer::new(opts.trace, epoch);
    let mut times = SetupTimes::default();
    let cells = set_up(&sweep, &seeds, &mut report, &mut setup_trace, &mut times);

    // The 1-worker reference on stream 0; every other stream is checked
    // against its own first measured sweep.
    let reference = reference(&mut report, &sweep, &cells[0]).map(|outs| {
        let (text, _) = render(&cells[0], &outs);
        report.note(format!("reference, stream 0 (1 worker):\n{text}"));
        (outs, text)
    });
    let mut first: Vec<Option<Vec<CellOut>>> = vec![None; cells.len()];

    // Measured rounds (every stream's sweep once) until the time is up.
    let started = Instant::now();
    let mut untraced: Vec<BTreeMap<String, f64>> = Vec::new();
    let mut traced: Vec<BTreeMap<String, f64>> = Vec::new();
    let mut trace_file: Option<Tracer> = None;
    while another_round(opts, untraced.len(), traced.len(), started) {
        let tracing = opts.trace && untraced.len() > traced.len();
        let mut root = Tracer::new(tracing, epoch);
        let mut pretium: Vec<Rec> = Vec::new();
        let mut m = BTreeMap::new();
        let (mut walls, mut occupancy, mut steals, mut cell_max, mut cell_mean) =
            (Vec::new(), Vec::new(), 0u64, 0f64, Vec::new());
        let mut per_scheme: BTreeMap<&str, f64> = BTreeMap::new();
        let mut speeds = Vec::new();
        for (s, c) in cells.iter().enumerate() {
            let run = sweep_once(&mut report, &sweep, c, jobs, &mut root, epoch, watch);
            if let (0, Some((outs, text))) = (s, &reference) {
                report
                    .check(&run.outs == outs, || "measured cells differ from the reference".into());
                if run.outs.len() == c.len() {
                    let (measured, _) = render(c, &run.outs);
                    report.check(&measured == text, || {
                        format!("{jobs}-worker figure differs from the 1-worker one:\n{measured}")
                    });
                }
            }
            match &first[s] {
                None => first[s] = Some(run.outs.clone()),
                Some(outs) => report.check(outs == &run.outs, || {
                    format!("stream {s}: sweep not deterministic across rounds")
                }),
            }
            walls.push(run.wall);
            speeds.extend(&run.speeds);
            occupancy.push(run.pool.occupancy());
            steals += run.pool.steals;
            cell_max = cell_max.max(run.pool.cells.max().as_secs_f64());
            cell_mean.push(run.pool.cells.mean().as_secs_f64());
            for (k, v) in run.per_scheme {
                *per_scheme.entry(k).or_insert(0.0) += v / STREAMS as f64;
            }
            if pretium.is_empty() {
                pretium = run.pretium;
            } else {
                for (acc, rec) in pretium.iter_mut().zip(run.pretium) {
                    acc.absorb(rec);
                }
            }
            set_up(&sweep, &seeds, &mut report, &mut setup_trace, &mut times);
        }
        // Per load point, then combined over loads: the loads' SAM and PC
        // costs differ by an order of magnitude, so pooled order statistics
        // would jump between them. End-to-end timings take the geometric
        // mean (each load weighs the same relative change); the rest the
        // mean.
        let per_load: Vec<BTreeMap<String, f64>> = pretium
            .iter()
            .map(|rec| {
                let mut one = BTreeMap::new();
                summarize(rec, &mut one);
                one
            })
            .collect();
        if untraced.is_empty() && traced.is_empty() {
            for (load, one) in LOAD_FACTORS.iter().zip(&per_load) {
                report.note(format!(
                    "pretium cells at load {load}: window_s {:.6} sam_step_p50_ms {:.4} pc.call_s {:.6}",
                    one["window_s"], one["sam_step_p50_ms"], one["pc.call_s"]
                ));
            }
        }
        m.insert("sweep_s".into(), stats::mean(&walls));
        m.insert("pool.occupancy".into(), stats::mean(&occupancy));
        m.insert("pool.steals".into(), steals as f64);
        m.insert("pool.cell_max_s".into(), cell_max);
        m.insert("pool.cell_mean_s".into(), stats::mean(&cell_mean));
        if tracing {
            // Cells run in parallel, so the self times add up to the
            // workers' busy time: dividing by workers x occupancy makes
            // their sum comparable with the sweep's wall-clock.
            let sum = self_metrics(&root, 0, STREAMS as f64, &mut m);
            let busy_per_wall = jobs as f64 * stats::mean(&occupancy);
            m.insert("trace.self_sum_s".into(), stats::ratio(sum, busy_per_wall));
            m.insert("trace.spans".into(), root.spans().len() as f64);
        }
        let raw_sweep_s = m["sweep_s"];
        normalize(&mut m, stats::median(&speeds));
        // The cells' metrics are scaled already, cell by cell.
        let end_to_end: Vec<String> = catalog()
            .into_iter()
            .filter(|(_, _, k)| *k == Kind::EndToEnd)
            .map(|(n, ..)| n)
            .collect();
        for (k, _) in per_load.first().into_iter().flatten() {
            let v: Vec<f64> = per_load.iter().map(|one| one[k]).collect();
            let combined =
                if end_to_end.contains(k) { stats::geomean(&v) } else { stats::mean(&v) };
            m.insert(k.clone(), combined);
        }
        for k in SCHEMES.map(key) {
            m.insert(format!("baselines.{k}_s"), per_scheme.get(k).copied().unwrap_or(0.0));
        }
        report.note(format!(
            "round {}{}: sweep_s {:.4} window_s {:.6} (machine speed {:.4}, raw sweep_s {raw_sweep_s:.4})",
            untraced.len() + traced.len(),
            if tracing { " (traced)" } else { "" },
            m["sweep_s"],
            m["window_s"],
            m["machine.speed"],
        ));
        if tracing {
            traced.push(m);
            trace_file.get_or_insert(root);
        } else {
            untraced.push(m);
        }
    }
    let welfare: Vec<f64> = cells
        .iter()
        .zip(&first)
        .filter_map(|(c, outs)| {
            outs.as_ref().filter(|o| o.len() == c.len()).map(|o| render(c, o).1)
        })
        .collect();
    times.report(&mut report);
    report.set("welfare", stats::mean(&welfare));
    report.set("audit.busy_s", 0.0);
    report.set("audit.violations", 0.0);
    let base = median_over(&untraced);
    report.note(format!(
        "fig6-sweep: {} streams x {} cells on {jobs} workers, sweep median {:.3} s over {} rounds",
        STREAMS,
        cells.first().map_or(0, Vec::len),
        base.get("sweep_s").copied().unwrap_or(0.0),
        untraced.len()
    ));
    crate::finish_trace(opts, &mut report, &base, &traced, "sweep_s", setup_trace, trace_file);
    report.metrics.extend(base);
    report
}
