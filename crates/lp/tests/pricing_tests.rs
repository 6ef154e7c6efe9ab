//! Pricing tests for the simplex's one entering-variable rule, partial
//! Devex with a Bland's-rule fallback: it must reach KKT-certified optima
//! on schedule-shaped LPs (the per-(job, path, timestep) structure SAM
//! produces), agree with the Bland's-rule-throughout pivot sequence and
//! with cold re-solves, engage the anti-cycling escape hatch on degenerate
//! LPs, stay bit-identical under parallel pricing, and keep its work
//! within fixed regression caps.
//!
//! As with the other property suites, randomness comes from a local
//! deterministic xorshift stream (no registry access in the build
//! environment); every failing case reports its seed.

use pretium_lp::validate::check_optimal;
use pretium_lp::{
    Cmp, LinExpr, Model, RowId, Sense, SimplexOptions, SolveOptions, SolverSession, Var,
};

/// Deterministic xorshift64* stream in `[0, 1)`.
struct Gen(u64);

impl Gen {
    fn new(seed: u64) -> Self {
        Gen(seed.wrapping_mul(0x9E3779B97F4A7C15) | 1)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    fn index(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Build a schedule-shaped LP: `jobs × paths × steps` flow variables,
/// per-(link, step) capacity rows over overlapping path supports, one
/// demand cap per job, and a guarantee floor per job softened by a
/// penalized shortfall variable — the same row/column structure SAM's
/// per-timestep re-optimizations produce. Sizes are drawn from `g`.
fn schedule_lp(g: &mut Gen) -> Model {
    let jobs = 2 + g.index(5);
    let paths = 1 + g.index(3);
    let steps = 2 + g.index(5);
    let links = 2 + g.index(4);
    sized_schedule_lp(g, jobs, paths, steps, links)
}

/// [`schedule_lp`] at fixed sizes.
fn sized_schedule_lp(g: &mut Gen, jobs: usize, paths: usize, steps: usize, links: usize) -> Model {
    let mut m = Model::new(Sense::Maximize);
    // Flow variables with per-unit value minus a small path cost.
    let mut x = vec![vec![Vec::with_capacity(steps); paths]; jobs];
    let weights: Vec<f64> = (0..jobs).map(|_| g.range(0.5, 3.0)).collect();
    for (j, wj) in weights.iter().enumerate() {
        for (p, xp) in x[j].iter_mut().enumerate() {
            let cost = g.range(0.0, 0.4);
            for t in 0..steps {
                xp.push(m.add_var(&format!("x_{j}_{p}_{t}"), 0.0, f64::INFINITY, wj - cost));
            }
        }
    }
    // Each (job, path) crosses a couple of links; capacity rows couple the
    // flows that share a (link, step).
    let mut crossing = vec![vec![Vec::new(); steps]; links];
    for (j, xj) in x.iter().enumerate() {
        for (p, xp) in xj.iter().enumerate() {
            let l1 = (j + p) % links;
            let l2 = (j + p + 1 + g.index(links - 1)) % links;
            for (t, &v) in xp.iter().enumerate() {
                crossing[l1][t].push(v);
                if l2 != l1 {
                    crossing[l2][t].push(v);
                }
            }
        }
    }
    for (l, per_step) in crossing.iter().enumerate() {
        for (t, vars) in per_step.iter().enumerate() {
            if vars.is_empty() {
                continue;
            }
            let mut e = LinExpr::new();
            for &v in vars {
                e.add_term(1.0, v);
            }
            m.add_row(&format!("cap_{l}_{t}"), e, Cmp::Le, g.range(1.0, 6.0));
        }
    }
    // Demand cap and (soft) guarantee floor per job.
    for (j, xj) in x.iter().enumerate() {
        let mut total = LinExpr::new();
        for xp in xj {
            for &v in xp {
                total.add_term(1.0, v);
            }
        }
        let demand = g.range(2.0, 8.0);
        m.add_row(&format!("dem_{j}"), total.clone(), Cmp::Le, demand);
        let s = m.add_var(&format!("short_{j}"), 0.0, f64::INFINITY, -10.0 * weights[j]);
        total.add_term(1.0, s);
        m.add_row(&format!("guar_{j}"), total, Cmp::Ge, demand * g.range(0.2, 0.8));
    }
    m
}

/// Options that run Bland's rule from the first pivot: an independent
/// pivot sequence to cross-check the default rule's optimum against.
fn bland_only() -> SolveOptions {
    SolveOptions {
        simplex: Some(SimplexOptions { bland_trigger: 0, ..SimplexOptions::default() }),
        ..SolveOptions::default()
    }
}

fn assert_close(obj: f64, want: f64, tag: &str) {
    assert!((obj - want).abs() <= 1e-6 * (1.0 + want.abs()), "{tag}: objective {obj} vs {want}");
}

/// Cold solves return KKT-certified, bound-respecting solutions whose
/// objective matches the Bland's-rule-throughout pivot sequence.
#[test]
fn partial_devex_certifies_schedule_shaped_lps() {
    for seed in 0..48 {
        let mut g = Gen::new(seed);
        let m = schedule_lp(&mut g);
        let sol = SolverSession::new(m.clone())
            .solve(&SolveOptions::default())
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        // Certified optimum: primal feasibility (incl. bounds), dual
        // feasibility, complementary slackness.
        let violations = check_optimal(&m, &sol, 1e-6);
        assert!(violations.is_empty(), "seed {seed}: {violations:?}");
        let bland = SolverSession::new(m.clone())
            .solve(&bland_only())
            .unwrap_or_else(|e| panic!("seed {seed} bland: {e}"));
        assert!(check_optimal(&m, &bland, 1e-6).is_empty(), "seed {seed} bland");
        assert_close(sol.objective(), bland.objective(), &format!("seed {seed}"));
    }
}

/// Warm restarts (the SAM timestep pattern: RHS moves, re-solve) stay
/// KKT-certified and end at the optimum a cold solve of the mutated model
/// finds.
#[test]
fn warm_restarts_match_cold_solves() {
    for seed in 0..16 {
        let mut g = Gen::new(seed ^ 0x5EED);
        let m = schedule_lp(&mut g);
        let nrows = m.num_rows();
        let tweaks: Vec<(usize, f64)> =
            (0..4).map(|_| (g.index(nrows), g.range(0.5, 4.0))).collect();
        let opts = SolveOptions::default();
        let mut sess = SolverSession::new(m.clone());
        sess.solve(&opts).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        for &(r, rhs) in &tweaks {
            sess.set_rhs(RowId::from_index(r), rhs);
            let sol = sess.solve(&opts).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            let violations = check_optimal(sess.model(), &sol, 1e-6);
            assert!(violations.is_empty(), "seed {seed}: {violations:?}");
            let cold = SolverSession::new(sess.model().clone())
                .solve(&opts)
                .unwrap_or_else(|e| panic!("seed {seed} cold: {e}"));
            assert_close(sol.objective(), cold.objective(), &format!("seed {seed} row {r}"));
        }
    }
}

/// A crafted, massively degenerate LP: a cyclic chain `x_i <= x_{i+1}`
/// with zero right-hand sides forces every feasible point to have all
/// variables equal, so the walk from the all-slack crash basis to the
/// optimum is a run of zero-length steps. With `bland_trigger: 0` the
/// anti-cycling rule must engage — observable through the `bland_pivots`
/// counter — while still reaching the known optimum.
#[test]
fn bland_trigger_fires_on_degenerate_lp() {
    let mut m = Model::new(Sense::Maximize);
    let n = 12;
    let xs: Vec<_> = (0..n)
        .map(|j| m.add_var(&format!("x{j}"), 0.0, f64::INFINITY, 1.0 + 0.01 * j as f64))
        .collect();
    // x_i - x_{i+1} <= 0 around a cycle: all variables must be equal.
    for i in 0..n {
        let mut e = LinExpr::new();
        e.add_term(1.0, xs[i]);
        e.add_term(-1.0, xs[(i + 1) % n]);
        m.add_row(&format!("chain{i}"), e, Cmp::Le, 0.0);
    }
    // One shared unit of capacity bounds the common level at 1/n.
    let mut cap = LinExpr::new();
    for &v in &xs {
        cap.add_term(1.0, v);
    }
    m.add_row("cap", cap, Cmp::Le, 1.0);
    // Every x_j = 1/n: the objective is the mean coefficient.
    let known = (0..n).map(|j| 1.0 + 0.01 * j as f64).sum::<f64>() / n as f64;
    let sol = SolverSession::new(m.clone()).solve(&bland_only()).expect("solve");
    assert_close(sol.objective(), known, "bland_trigger 0");
    assert!(check_optimal(&m, &sol, 1e-6).is_empty());
    assert!(sol.stats().bland_pivots > 0, "Bland fallback never engaged on a degenerate LP");
    // The default trigger reaches the same optimum without the fallback.
    let sol = SolverSession::new(m.clone()).solve(&SolveOptions::default()).expect("solve");
    assert_close(sol.objective(), known, "default trigger");
}

/// The deterministic parallel-pricing layer must be invisible at the bit
/// level: on random models wide enough to engage the sectioned sweeps,
/// every solution vector — primal values, duals, and the reduced-cost
/// scores pricing ranks candidates by — must be element-wise bitwise
/// identical between the serial path and any worker count, along with
/// the deterministic work counters (iterations, pricing scans).
#[test]
fn parallel_pricing_scores_match_serial_bitwise() {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
    for seed in 0..8u64 {
        let mut g = Gen::new(seed.wrapping_mul(0x9A17) | 1);
        // Wide enough that the size-derived sectioning splits the column
        // range (the layer stays serial below its per-section minimum).
        let nvars = 300 + g.index(300);
        let mut m = Model::new(Sense::Maximize);
        let xs: Vec<_> =
            (0..nvars).map(|j| m.add_var(&format!("x{j}"), 0.0, 2.0, g.range(0.1, 3.0))).collect();
        let nrows = 60 + g.index(80);
        for i in 0..nrows {
            let mut e = LinExpr::new();
            for (j, &v) in xs.iter().enumerate() {
                if (j * 7 + i) % 16 == 0 {
                    e.add_term(g.range(0.2, 1.5), v);
                }
            }
            m.add_row(&format!("r{i}"), e, Cmp::Le, g.range(2.0, 10.0));
        }
        let solve = |jobs: usize| {
            let mut sess = SolverSession::new(m.clone());
            let opts = SolveOptions {
                simplex: Some(SimplexOptions { pricing_jobs: jobs, ..Default::default() }),
                ..SolveOptions::default()
            };
            sess.solve(&opts).unwrap_or_else(|e| panic!("seed {seed} jobs={jobs}: {e}"))
        };
        let serial = solve(1);
        assert_eq!(serial.stats().pricing_par_sections, 0, "serial path spawned sections");
        for jobs in [2usize, 8] {
            let par = solve(jobs);
            let tag = format!("seed {seed} jobs={jobs}");
            assert_eq!(bits(serial.values()), bits(par.values()), "{tag}: values diverged");
            assert_eq!(bits(serial.duals()), bits(par.duals()), "{tag}: duals diverged");
            for j in 0..nvars {
                let v = Var::from_index(j);
                assert_eq!(
                    serial.reduced_cost(v).to_bits(),
                    par.reduced_cost(v).to_bits(),
                    "{tag}: reduced cost of column {j} diverged"
                );
            }
            assert_eq!(serial.stats().iterations, par.stats().iterations, "{tag}: iterations");
            assert_eq!(serial.stats().pricing_scans, par.stats().pricing_scans, "{tag}: scans");
            assert!(par.stats().pricing_par_sections > 0, "{tag}: fan-out never engaged");
        }
    }
}

/// The pricing-scan counter reflects partial pricing's cost structure:
/// on a 400-column model it examines fewer than n/2 columns per iteration
/// (a full rescan touches every nonbasic column, about n).
#[test]
fn partial_pricing_scans_fewer_columns() {
    let mut g = Gen::new(0xC0FFEE);
    // A larger instance so sectioned scanning actually engages
    // (n > SECTION_MIN columns).
    let mut m = Model::new(Sense::Maximize);
    let nvars = 400;
    let xs: Vec<_> =
        (0..nvars).map(|j| m.add_var(&format!("x{j}"), 0.0, 2.0, g.range(0.1, 3.0))).collect();
    for i in 0..120 {
        let mut e = LinExpr::new();
        for (j, &v) in xs.iter().enumerate() {
            if (j * 7 + i) % 16 == 0 {
                e.add_term(g.range(0.2, 1.5), v);
            }
        }
        m.add_row(&format!("r{i}"), e, Cmp::Le, g.range(2.0, 10.0));
    }
    let sol = SolverSession::new(m.clone()).solve(&SolveOptions::default()).unwrap();
    assert!(sol.stats().iterations > 0);
    assert!(check_optimal(&m, &sol, 1e-6).is_empty());
    let per_iter = sol.stats().pricing_scans as f64 / sol.stats().iterations as f64;
    assert!(
        per_iter < nvars as f64 / 2.0,
        "partial pricing scanned {per_iter:.0} cols/iter on {nvars} columns"
    );
}

/// Iteration regression cap on a fixed 6-job, 2-path, 4-step, 4-link
/// schedule-shaped model: the model and the solver are deterministic, so
/// the count only moves when the algorithm does. The solve takes 44
/// iterations; the cap leaves room for pivot-order changes but catches a
/// pricing rule that stalls.
#[test]
fn partial_devex_iteration_cap_on_smoke_model() {
    let m = sized_schedule_lp(&mut Gen::new(0xA11CE), 6, 2, 4, 4);
    let sol = SolverSession::new(m.clone()).solve(&SolveOptions::default()).expect("solve");
    assert!(check_optimal(&m, &sol, 1e-6).is_empty());
    assert!(
        sol.stats().iterations <= 250,
        "{} iterations exceeds regression cap 250",
        sol.stats().iterations
    );
}
