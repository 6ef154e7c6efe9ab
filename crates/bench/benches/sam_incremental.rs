//! Incremental SAM re-optimization (DESIGN.md §16) vs the full warm
//! re-solve: replay a window of a wide evaluation scenario where each step
//! perturbs the capacity of one lightly-shared edge (a localized fault or
//! repair), and re-plan every step either with the full warm lazy loop
//! (`solve_step_with`, the PR-3 baseline this repo's 5.5x warm-vs-cold
//! number measures) or with the localized path (`solve_step_localized`:
//! untouched blocks and the cost layer of unaffected edges frozen, affected
//! blocks re-solved as a certified submodel).
//!
//! The headline `sam_incremental_speedup` is the ratio of *per-step
//! medians*: the localized path pays a cold submodel solve on the first
//! visit of each fault pattern and warm-starts every recurrence, so the
//! median step is the steady-state warm step the incremental redesign
//! targets (>= 3x there). Writes `BENCH_sam_incremental.json` at the
//! workspace root.
//!
//! Set `SAM_INCREMENTAL_SMOKE=1` for the CI smoke mode: one timed replay
//! per path, asserted speedup/certification floors, and no JSON (a smoke
//! run never clobbers recorded numbers).

use std::time::{Duration, Instant};

use pretium_bench::black_box;
use pretium_core::schedule::{Job, ScheduleProblem, ScheduleSession};
use pretium_core::TopkEncoding;
use pretium_lp::SolveOptions;
use pretium_net::{k_shortest_paths, EdgeId, Network, TimeGrid, Timestep};
use pretium_sim::ScenarioConfig;
use rand::DetHashSet;

const STEPS: usize = 16;
const K_PATHS: usize = 3;
/// Capacity multiplier over the generated topology: moderate utilization
/// (slack on shared links) is the regime where a localized fault stays
/// localized — at crush load every block couples through scarce shared
/// capacity and the certificate correctly keeps falling back.
const HEADROOM: f64 = 1.5;
const COST_SCALE: f64 = 0.25;
const FAULT_FACTOR: f64 = 0.95;
/// Certification tolerance, passed straight to `solve_step_localized`
/// (looser than the `IncrementalSam::TOL` a `Pretium` instance uses).
/// Degenerate top-k ties give the percentile-cost rows an interval of
/// equally-optimal duals; the submodel can land on a different vertex than
/// the one supporting the frozen flows, which shows up as a spurious
/// reduced-cost signal of up to about `unit_cost * COST_SCALE` with zero
/// objective impact. The tolerance sits above that wobble, and every
/// replay asserts exact objective agreement with the full solve at 1e-6.
const TOL: f64 = 1.0;
/// Timed replays per path in full mode (per-step samples pool across
/// replays before taking the median).
const REPLAYS: usize = 5;

struct Replay {
    objective: f64,
    certified: usize,
    fallbacks: usize,
    step_times: Vec<Duration>,
}

fn window_jobs(net: &Network, requests: &[pretium_workload::Request]) -> Vec<Job> {
    requests
        .iter()
        .filter(|r| r.start < STEPS)
        .enumerate()
        .map(|(i, r)| {
            let paths = k_shortest_paths(net, r.src, r.dst, K_PATHS, &|_| 1.0);
            Job::new(
                i,
                paths,
                r.start,
                r.deadline.min(STEPS - 1),
                r.value,
                r.demand * 0.5,
                r.demand,
            )
        })
        .collect()
}

fn no_realized(_: EdgeId, _: Timestep) -> f64 {
    0.0
}

fn median(samples: &mut [Duration]) -> Duration {
    samples.sort();
    samples[samples.len() / 2]
}

fn main() {
    let smoke = std::env::var_os("SAM_INCREMENTAL_SMOKE").is_some();
    // A wide evaluation world: same link capacities, costs, and traffic
    // model as `ScenarioConfig::evaluation`, over more regions and more
    // active pairs. Incremental re-optimization is a large-instance
    // technique — the full warm re-solve's cost grows with the whole LP
    // while the localized path grows with the affected blocks — so the
    // bench measures at the scale the technique is for.
    let mut cfg = ScenarioConfig::evaluation(rand::DEFAULT_SEED, 1.0);
    cfg.topology.nodes_per_region = vec![6, 5, 4, 3];
    cfg.traffic.pair_activity = 0.35;
    let scenario = cfg.build();
    let net = scenario.net.clone();
    let grid = TimeGrid::new(STEPS, 30);
    let jobs = window_jobs(&net, &scenario.requests);
    assert!(jobs.len() >= 4, "scenario produced too few jobs: {}", jobs.len());
    let base_cap = |e: EdgeId, _t: Timestep| net.edge(e).capacity * HEADROOM;
    let opts = SolveOptions::default();

    // The fault schedule cycles over the least-shared edges that still
    // carry at least one job — exactly the regime the localized solver is
    // built for: a touched set whose coupling rows reach few blocks.
    let mut crossing: Vec<(usize, EdgeId)> = net
        .edge_ids()
        .map(|e| (jobs.iter().filter(|j| j.paths.iter().any(|p| p.contains(e))).count(), e))
        .collect();
    crossing.sort_by_key(|&(c, e)| (c, e.0));
    let faulted: Vec<EdgeId> =
        crossing.iter().filter(|&&(c, _)| c > 0).take(4).map(|&(_, e)| e).collect();
    assert!(!faulted.is_empty(), "no edge carries any job");

    let problem = ScheduleProblem {
        net: &net,
        grid: &grid,
        from: 0,
        to: STEPS,
        jobs: &jobs,
        capacity: &base_cap,
        realized: &no_realized,
        topk: TopkEncoding::CVar,
        cost_scale: COST_SCALE,
    };
    // One warm session, fully solved: the state `Pretium::run_sam` carries
    // between steps. Each replay below clones it so both paths start from
    // the identical basis and plan.
    let mut prepped = ScheduleSession::new(&problem);
    prepped.solve_step(&net, &base_cap, &no_realized).unwrap();

    // Replay the fault-perturbed window, timing each re-plan step.
    let run = |localized: bool| -> Replay {
        let mut sess = prepped.clone();
        let mut factors: Vec<f64> = vec![1.0; net.num_edges()];
        let mut replay =
            Replay { objective: 0.0, certified: 0, fallbacks: 0, step_times: Vec::new() };
        for t in 1..STEPS {
            sess.advance_to(t);
            let e = faulted[t % faulted.len()];
            // Alternate degrade/repair so capacity keeps moving and every
            // step has a genuine touched set.
            factors[e.index()] = if factors[e.index()] < 1.0 { 1.0 } else { FAULT_FACTOR };
            let cap =
                |e: EdgeId, _t: Timestep| net.edge(e).capacity * HEADROOM * factors[e.index()];
            let t0 = Instant::now();
            if localized {
                let touched: DetHashSet<EdgeId> = [e].into_iter().collect();
                let out = sess
                    .solve_step_localized(&net, &cap, &no_realized, &touched, TOL, &opts)
                    .unwrap();
                replay.step_times.push(t0.elapsed());
                if out.certified && !out.used_full {
                    replay.certified += 1;
                } else {
                    replay.fallbacks += 1;
                }
                replay.objective += out.solution.objective;
            } else {
                let sol = sess.solve_step_with(&net, &cap, &no_realized, &opts).unwrap();
                replay.step_times.push(t0.elapsed());
                replay.objective += black_box(sol.objective);
            }
        }
        replay
    };

    // Sanity before timing: the two paths must agree on every step's
    // optimum — a speedup over a different answer measures nothing.
    let full = run(false);
    let inc = run(true);
    assert!(
        (full.objective - inc.objective).abs() <= 1e-6 * (1.0 + full.objective.abs()),
        "objective drift: full {} vs incremental {}",
        full.objective,
        inc.objective
    );
    println!(
        "sam_incremental replay: {} jobs, {} certified localized steps, {} fallbacks \
         over {} fault-perturbed steps",
        jobs.len(),
        inc.certified,
        inc.fallbacks,
        STEPS - 1
    );

    let replays = if smoke { 1 } else { REPLAYS };
    let mut full_steps = full.step_times.clone();
    let mut inc_steps = inc.step_times.clone();
    for _ in 0..replays.saturating_sub(1) {
        full_steps.extend(run(false).step_times);
        inc_steps.extend(run(true).step_times);
    }
    let full_med = median(&mut full_steps);
    let inc_med = median(&mut inc_steps);
    let speedup = full_med.as_secs_f64() / inc_med.as_secs_f64().max(1e-12);
    println!("sam_step_full      median {full_med:?} over {} steps", full_steps.len());
    println!("sam_step_localized median {inc_med:?} over {} steps", inc_steps.len());
    println!("sam_incremental speedup: {speedup:.2}x (median full step / median localized step)");
    println!("BENCH\tsam_step_full_median_us\t{:.1}", full_med.as_secs_f64() * 1e6);
    println!("BENCH\tsam_step_localized_median_us\t{:.1}", inc_med.as_secs_f64() * 1e6);
    println!("BENCH\tsam_incremental_speedup\t{speedup:.3}");

    if smoke {
        // CI regression floors: the localized path must actually certify
        // on most steps (the freeze/residual machinery working end to
        // end), and the warm median step must clearly beat the full
        // re-solve. The floor is conservative against the recorded
        // full-mode number — shared CI machines are noisy.
        assert!(
            inc.certified >= (STEPS - 1) * 2 / 3,
            "only {}/{} steps certified on the smoke replay",
            inc.certified,
            STEPS - 1
        );
        assert!(speedup >= 1.5, "smoke speedup {speedup:.2}x under the 1.5x floor");
        println!("sam_incremental smoke: certification and speedup floors hold");
        return;
    }

    let json = format!(
        "{{\n  \"bench\": \"sam_incremental\",\n  \"scenario\": \"evaluation-wide\",\n  \
         \"steps\": {},\n  \"jobs\": {},\n  \"replays\": {replays},\n  \
         \"certified_localized_steps\": {},\n  \"fallback_steps\": {},\n  \
         \"full_step_median_us\": {:.1},\n  \"localized_step_median_us\": {:.1},\n  \
         \"speedup\": {speedup:.3}\n}}\n",
        STEPS - 1,
        jobs.len(),
        inc.certified,
        inc.fallbacks,
        full_med.as_secs_f64() * 1e6,
        inc_med.as_secs_f64() * 1e6,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sam_incremental.json");
    std::fs::write(path, json).expect("write BENCH_sam_incremental.json");
    println!("wrote {path}");
}
