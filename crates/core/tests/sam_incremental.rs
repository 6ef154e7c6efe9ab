//! Property test for incremental SAM re-optimization (DESIGN.md §16): a
//! localized re-solve — untouched job blocks frozen at their current plan,
//! only the affected blocks re-optimized against residual capacities —
//! must agree with a full re-solve of the same session state, across
//! randomized accept/fault sequences that also exercise the §4.4
//! shed/relax degradation paths.
//!
//! Two claims are enforced at every step of every sequence:
//!
//! * **Equality**: the localized solution's objective, per-job deliveries
//!   and shortfalls match a full re-solve of an identical cloned session
//!   within the certification tolerance.
//! * **Bit-exactness of frozen blocks** (exact mode): when the localized
//!   fast path certifies, every job outside the affected set reports a
//!   delivery that is *bitwise* identical to its previous plan — frozen
//!   means frozen, not "re-derived to within float noise".

use pretium_core::{Job, ScheduleProblem, ScheduleSession, TopkEncoding};
use pretium_lp::SolveOptions;
use pretium_net::{EdgeId, LinkCost, Network, NodeId, Path, TimeGrid, Timestep};
use rand::rngs::StdRng;
use rand::{DetHashSet, Rng, SeedableRng};

const HORIZON: usize = 12;
const STEPS: usize = 10;
const BASE_CAP: f64 = 10.0;
const SHORT_TOL: f64 = 1e-6;

/// A chain A→B→C→D (edges 0..3 shared by overlapping paths) plus a
/// disjoint pair E→F (edge 3) that gives the localized path independent
/// blocks to freeze.
fn chain_plus_island() -> (Network, Vec<NodeId>) {
    let mut net = Network::new();
    let a = net.add_node("A", pretium_net::Region::NorthAmerica);
    let b = net.add_node("B", pretium_net::Region::NorthAmerica);
    let c = net.add_node("C", pretium_net::Region::Europe);
    let d = net.add_node("D", pretium_net::Region::Europe);
    let e = net.add_node("E", pretium_net::Region::Asia);
    let f = net.add_node("F", pretium_net::Region::Asia);
    net.add_edge(a, b, BASE_CAP, LinkCost::owned());
    net.add_edge(b, c, BASE_CAP, LinkCost::owned());
    net.add_edge(c, d, BASE_CAP, LinkCost::owned());
    net.add_edge(e, f, BASE_CAP, LinkCost::owned());
    (net, vec![a, b, c, d, e, f])
}

/// Candidate single-path routes over the chain and the island.
fn route_pool(net: &Network, n: &[NodeId]) -> Vec<Vec<Path>> {
    let e0 = net.find_edge(n[0], n[1]).unwrap();
    let e1 = net.find_edge(n[1], n[2]).unwrap();
    let e2 = net.find_edge(n[2], n[3]).unwrap();
    let e3 = net.find_edge(n[4], n[5]).unwrap();
    vec![
        vec![Path::new(net, vec![e0])],
        vec![Path::new(net, vec![e1])],
        vec![Path::new(net, vec![e2])],
        vec![Path::new(net, vec![e0, e1])],
        vec![Path::new(net, vec![e1, e2])],
        vec![Path::new(net, vec![e3])],
    ]
}

struct Coverage {
    certified_localized: usize,
    fallbacks: usize,
    relaxes: usize,
}

/// Drive one randomized accept/fault sequence, comparing the localized
/// solve against a full re-solve of a cloned session at every step.
fn run_sequence(seed: u64, tol: f64, exact: bool) -> Coverage {
    let (net, nodes) = chain_plus_island();
    let grid = TimeGrid::new(6, 30);
    let routes = route_pool(&net, &nodes);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut factors: Vec<f64> = vec![1.0; net.num_edges()];
    let mut cov = Coverage { certified_localized: 0, fallbacks: 0, relaxes: 0 };

    // Seed jobs so the first (always-full) solve has work to do.
    let mut jobs = vec![
        Job::new(0, routes[0].clone(), 0, 5, 1.7, 4.0, 20.0),
        Job::new(1, routes[5].clone(), 0, 5, 1.1, 4.0, 20.0),
    ];
    let cap_of = |factors: &[f64]| {
        let f = factors.to_vec();
        move |e: EdgeId, _t: Timestep| BASE_CAP * f[e.index()]
    };
    let no_realized = |_: EdgeId, _: Timestep| 0.0;
    let opts = SolveOptions::default();
    let cap = cap_of(&factors);
    let problem = ScheduleProblem {
        net: &net,
        grid: &grid,
        from: 0,
        to: HORIZON,
        jobs: &jobs,
        capacity: &cap,
        realized: &no_realized,
        topk: TopkEncoding::CVar,
        cost_scale: 1.0,
    };
    let mut sess = ScheduleSession::new(&problem);
    let first = sess.solve_step_with(&net, &cap, &no_realized, &opts).unwrap();
    let mut prev_flows = first.flows.clone();
    drop(cap);

    // The externally mirrored affected set: jobs mutated since the last
    // adopted solve. Kept in lockstep with the session's internal dirty
    // set so the bit-exactness claim can name the frozen jobs.
    let mut external_dirty: DetHashSet<usize> = DetHashSet::default();
    let mut next_key = jobs.len();

    for t in 1..=STEPS {
        sess.advance_to(t);
        let mut touched: DetHashSet<EdgeId> = DetHashSet::default();

        // Accepts: 0-2 new jobs arriving at t.
        for _ in 0..rng.gen_range(0..3u32) {
            let r = rng.gen_range(0..routes.len());
            let deadline = (t + rng.gen_range(2..6usize)).min(HORIZON - 1);
            let weight = rng.gen_range(0.4..3.0);
            let max_units = rng.gen_range(3.0..14.0);
            let min_units =
                if rng.gen_bool(0.5) { max_units * rng.gen_range(0.2..0.8) } else { 0.0 };
            let job =
                Job::new(next_key, routes[r].clone(), t, deadline, weight, min_units, max_units);
            next_key += 1;
            jobs.push(job.clone());
            let j = sess.add_job(job);
            external_dirty.insert(j);
        }
        // Scripted mid-sequence crunch: a severe fault on the C→D edge
        // paired with a latecomer whose guarantee cannot fit the residual
        // capacity — deterministically forces the §4.4 shed/relax chain.
        if t == 4 {
            let e2 = net.find_edge(nodes[2], nodes[3]).unwrap();
            factors[e2.index()] = 0.1;
            touched.insert(e2);
            let job =
                Job::new(next_key, routes[2].clone(), t, (t + 3).min(HORIZON - 1), 2.0, 8.0, 12.0);
            next_key += 1;
            jobs.push(job.clone());
            let j = sess.add_job(job);
            external_dirty.insert(j);
        }
        // Faults and repairs: move one edge's capacity, report it touched.
        if rng.gen_bool(0.6) {
            let e = EdgeId(rng.gen_range(0..net.num_edges() as u32));
            factors[e.index()] = if rng.gen_bool(0.35) {
                rng.gen_range(0.15..0.6) // severe: provokes shortfalls
            } else if rng.gen_bool(0.5) {
                rng.gen_range(0.6..1.0)
            } else {
                1.0 // repair
            };
            touched.insert(e);
        }

        let cap = cap_of(&factors);
        // The reference: a clone of the very same session state, solved
        // with the full lazy loop.
        let mut reference = sess.clone();
        let full = reference.solve_step_with(&net, &cap, &no_realized, &opts).unwrap();
        let loc =
            sess.solve_step_localized(&net, &cap, &no_realized, &touched, tol, &opts).unwrap();

        // Equality: localized result vs full re-solve, within the
        // certification tolerance (both certified-fast-path and fallback
        // steps must agree — a fallback *is* a full solve).
        let obj_tol = 1e-6 * (1.0 + full.objective.abs());
        assert!(
            (loc.solution.objective - full.objective).abs() <= obj_tol,
            "seed {seed} t {t}: objective localized {} vs full {}",
            loc.solution.objective,
            full.objective
        );
        for j in 0..loc.solution.delivered.len() {
            assert!(
                (loc.solution.delivered[j] - full.delivered[j]).abs() <= 1e-5,
                "seed {seed} t {t} job {j}: delivered localized {} vs full {}",
                loc.solution.delivered[j],
                full.delivered[j]
            );
            assert!(
                (loc.solution.shortfall[j] - full.shortfall[j]).abs() <= 1e-5,
                "seed {seed} t {t} job {j}: shortfall localized {} vs full {}",
                loc.solution.shortfall[j],
                full.shortfall[j]
            );
        }

        if loc.certified && !loc.used_full {
            cov.certified_localized += 1;
            // Bit-exactness (exact mode): every job that was neither
            // mutated nor crossed by a touched edge kept its remaining
            // `(path, step, units)` plan bit-for-bit — its block really
            // was frozen, not re-derived. (Compared on the future slice:
            // `extract` drops steps already executed by `advance_to`.)
            if exact {
                for (j, job) in jobs.iter().enumerate() {
                    let frozen = j < prev_flows.len()
                        && !external_dirty.contains(&j)
                        && !job.paths.iter().any(|p| p.edges().iter().any(|e| touched.contains(e)));
                    if !frozen {
                        continue;
                    }
                    let prev: Vec<(usize, Timestep, u64)> = prev_flows[j]
                        .iter()
                        .filter(|&&(_, ft, _)| ft >= t)
                        .map(|&(pi, ft, u)| (pi, ft, u.to_bits()))
                        .collect();
                    let now: Vec<(usize, Timestep, u64)> = loc.solution.flows[j]
                        .iter()
                        .map(|&(pi, ft, u)| (pi, ft, u.to_bits()))
                        .collect();
                    assert_eq!(now, prev, "seed {seed} t {t} job {j}: frozen block drifted");
                }
            }
        } else {
            cov.fallbacks += 1;
        }
        external_dirty.clear();
        let mut sol = loc.solution;

        // §4.4 degradation: uncoverable guarantees are shed (several
        // short) or relaxed (one short), then the LP re-solves warm —
        // mirroring `Pretium::run_sam`'s fallback chain.
        let mut handled: DetHashSet<usize> = DetHashSet::default();
        while sol.max_shortfall() > SHORT_TOL {
            let short: Vec<(usize, f64)> = sol
                .shortfall
                .iter()
                .enumerate()
                .filter(|&(j, &s)| s > SHORT_TOL && !handled.contains(&j))
                .map(|(j, &s)| (j, s))
                .collect();
            if short.is_empty() {
                break;
            }
            let (j, units) = if short.len() > 1 {
                let &(j, _) = short
                    .iter()
                    .min_by(|a, b| {
                        jobs[a.0].weight.partial_cmp(&jobs[b.0].weight).unwrap().then(a.0.cmp(&b.0))
                    })
                    .unwrap();
                (j, jobs[j].min_units) // shed the whole guarantee
            } else {
                short[0] // relax by exactly the shortfall
            };
            handled.insert(j);
            let waived = sess.relax_guarantee(j, units);
            jobs[j].min_units = (jobs[j].min_units - waived).max(0.0);
            cov.relaxes += 1;
            if waived <= 0.0 {
                continue;
            }
            sol = sess.solve_step_with(&net, &cap, &no_realized, &opts).unwrap();
        }
        prev_flows = sol.flows.clone();
    }
    cov
}

#[test]
fn incremental_matches_full_exact_mode() {
    let mut certified = 0;
    let mut fallbacks = 0;
    let mut relaxes = 0;
    for seed in [11, 23, 57] {
        let cov = run_sequence(seed, 1e-7, true);
        certified += cov.certified_localized;
        fallbacks += cov.fallbacks;
        relaxes += cov.relaxes;
    }
    // The sequences must actually exercise all three regimes, or the
    // equality assertions above proved nothing.
    assert!(certified >= 3, "only {certified} certified localized steps across seeds");
    assert!(fallbacks >= 2, "only {fallbacks} full-fallback steps across seeds");
    assert!(relaxes >= 1, "degradation path never taken across seeds");
}

#[test]
fn incremental_matches_full_certified_tolerance_mode() {
    // A looser certificate (an explicit `tol` above `IncrementalSam::TOL`)
    // accepts more localized steps; equality with the full re-solve must
    // still hold at the comparison tolerances above.
    let mut certified = 0;
    for seed in [11, 23, 57] {
        certified += run_sequence(seed, 1e-4, false).certified_localized;
    }
    assert!(certified >= 3, "only {certified} certified localized steps across seeds");
}
