//! Revised simplex method with bounded variables.
//!
//! The solver works on a *computational standard form*
//!
//! ```text
//! minimize    cᵀx
//! subject to  A·x = b          (one slack column per original row)
//!             l ≤ x ≤ u
//! ```
//!
//! built from a [`crate::Model`]. Feasibility is established with a crash
//! basis (slacks where the initial residual fits the slack bounds,
//! artificial columns elsewhere) followed by a phase-1 minimization of the
//! artificial sum; phase 2 then optimizes the true objective. Dual values
//! are recovered from the final basis via BTRAN.

pub mod basis;
mod solver;

use crate::model::{Cmp, Model, Sense};
use crate::solution::{Solution, SolveError, Status};
use basis::SparseCol;

/// Tunable solver parameters.
///
/// Entering-variable pricing is fixed: partial Devex (reference-framework
/// weights over incrementally maintained reduced costs, with cyclic
/// section sweeps feeding a candidate shortlist) and a Bland's-rule
/// fallback after [`SimplexOptions::bland_trigger`] degenerate pivots. It
/// is a pure function of `(options, model)` — no clocks, no randomness —
/// so solves stay bit-identical across processes and worker counts.
#[derive(Debug, Clone)]
pub struct SimplexOptions {
    /// Primal feasibility tolerance (bound violations up to this are
    /// accepted).
    pub feas_tol: f64,
    /// Reduced-cost (dual feasibility) tolerance.
    pub opt_tol: f64,
    /// Smallest acceptable pivot magnitude.
    pub pivot_tol: f64,
    /// Hard iteration cap; `0` selects an automatic limit scaled with the
    /// problem size.
    pub max_iterations: u64,
    /// Refactorize the basis after this many eta updates.
    pub refactor_every: usize,
    /// Consecutive degenerate pivots before switching to Bland's rule.
    pub bland_trigger: u32,
    /// Worker threads for the deterministic parallel-pricing layer: the
    /// reduced-cost recompute, Devex weight refresh, and partial-pricing
    /// section sweeps fan out over `pretium-par`'s sectioned map when this
    /// exceeds 1. Sections are fixed and size-derived, and results reduce
    /// in section order, so any value produces bitwise the same solve as
    /// the serial path (DESIGN.md §19). `0` and `1` both run the exact
    /// serial code with no thread machinery.
    pub pricing_jobs: usize,
}

impl Default for SimplexOptions {
    fn default() -> Self {
        SimplexOptions {
            feas_tol: 1e-7,
            opt_tol: 1e-8,
            pivot_tol: 1e-9,
            max_iterations: 0,
            refactor_every: basis::DEFAULT_MAX_ETAS,
            bland_trigger: 1000,
            pricing_jobs: 1,
        }
    }
}

/// Standard-form problem fed to the iteration core.
pub(crate) struct Problem {
    /// Number of rows (= equality constraints after slack insertion).
    pub m: usize,
    /// Total number of columns: structurals, slacks, artificials.
    pub n: usize,
    pub nstruct: usize,
    /// Index of the first slack column.
    pub slack_start: usize,
    /// Index of the first artificial column.
    pub art_start: usize,
    /// Sparse columns of `A`.
    pub cols: Vec<SparseCol>,
    pub lb: Vec<f64>,
    pub ub: Vec<f64>,
    /// Phase-2 costs, already converted to minimization sense.
    pub cost: Vec<f64>,
    pub b: Vec<f64>,
}

impl Problem {
    /// Build the standard form from a model.
    pub fn from_model(model: &Model) -> Self {
        let m = model.rows.len();
        let nstruct = model.vars.len();
        let slack_start = nstruct;
        let art_start = nstruct + m;
        let n = nstruct + 2 * m;

        let mut cols: Vec<SparseCol> = vec![Vec::new(); n];
        for (i, row) in model.rows.iter().enumerate() {
            for &(j, coef) in &row.terms {
                cols[j as usize].push((i as u32, coef));
            }
        }
        let mut lb = Vec::with_capacity(n);
        let mut ub = Vec::with_capacity(n);
        let mut cost = vec![0.0; n];
        let sign = match model.sense {
            Sense::Minimize => 1.0,
            Sense::Maximize => -1.0,
        };
        for (j, v) in model.vars.iter().enumerate() {
            lb.push(v.lb);
            ub.push(v.ub);
            cost[j] = sign * v.obj;
        }
        let mut b = Vec::with_capacity(m);
        for (i, row) in model.rows.iter().enumerate() {
            b.push(row.rhs);
            // Slack column: row + slack = rhs.
            cols[slack_start + i].push((i as u32, 1.0));
            let (slb, sub) = match row.cmp {
                Cmp::Le => (0.0, f64::INFINITY),
                Cmp::Ge => (f64::NEG_INFINITY, 0.0),
                Cmp::Eq => (0.0, 0.0),
            };
            lb.push(slb);
            ub.push(sub);
        }
        // Artificial columns: sign fixed at crash time by the solver.
        for i in 0..m {
            cols[art_start + i].push((i as u32, 1.0));
            lb.push(0.0);
            ub.push(0.0); // opened to [0, inf) only for rows that need one
        }
        debug_assert_eq!(lb.len(), n);
        Problem { m, n, nstruct, slack_start, art_start, cols, lb, ub, cost, b }
    }
}

/// Append-stable identifier of a basic column.
///
/// Internal column indices shift when variables are appended (every slack
/// and artificial moves up), so a saved basis keyed by raw indices would go
/// stale. Keys name the column by class instead: structural variables by
/// their [`crate::Var`] index, slacks and artificials by their row. The
/// artificial's crash-time sign is recorded so its column can be
/// reconstructed exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BasisKey {
    Struct(u32),
    Slack(u32),
    Art { row: u32, neg: bool },
}

/// A basis snapshot taken after a successful solve, in append-stable form.
#[derive(Debug, Clone)]
pub(crate) struct WarmBasis {
    /// Basic column per row position (`keys.len()` = rows at snapshot time).
    pub keys: Vec<BasisKey>,
    /// Rest state per structural variable at snapshot time.
    pub nb_struct: Vec<solver::NbState>,
    /// Rest state per slack at snapshot time.
    pub nb_slack: Vec<solver::NbState>,
}

/// How a session solve restarted the simplex method.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Restart {
    /// Fresh crash basis and both phases.
    Cold,
    /// Previous basis was still primal feasible; primal phase 2 only.
    WarmPrimal,
    /// Previous basis was dual feasible; dual simplex repaired primal
    /// feasibility, then a primal polish finished.
    WarmDual,
}

fn name_fns(model: &Model) -> (impl Fn(usize) -> String + '_, impl Fn(usize) -> String + '_) {
    (
        move |i: usize| model.rows[i].name.clone(),
        move |j: usize| {
            if j < model.vars.len() {
                model.vars[j].name.clone()
            } else {
                format!("slack_{}", j - model.vars.len())
            }
        },
    )
}

/// Map a solved outcome back to the model's sense and handles.
fn finish_solution(model: &Model, problem: &Problem, outcome: &solver::Outcome) -> Solution {
    let sign = match model.sense {
        Sense::Minimize => 1.0,
        Sense::Maximize => -1.0,
    };
    let values: Vec<f64> = outcome.x[..model.vars.len()].to_vec();
    let objective: f64 = model.vars.iter().enumerate().map(|(j, v)| v.obj * values[j]).sum::<f64>()
        + model.obj_offset;
    let duals: Vec<f64> = outcome.y.iter().map(|&y| sign * y).collect();
    let reduced_costs: Vec<f64> =
        (0..model.vars.len()).map(|j| sign * outcome.reduced_cost(problem, j)).collect();
    Solution {
        status: Status::Optimal,
        objective,
        values,
        duals,
        reduced_costs,
        iterations: outcome.iterations,
        pricing_scans: outcome.pricing_scans,
        bland_pivots: outcome.bland_pivots,
        pricing_par_sections: outcome.pricing_par_sections,
        pricing_par_steals: outcome.pricing_par_steals,
        pricing_serial_nanos: outcome.pricing_serial_nanos,
        pricing_par_nanos: outcome.pricing_par_nanos,
        factor_stats: outcome.factor_stats,
    }
}

/// Snapshot the terminal basis of `outcome` in append-stable key form.
fn snapshot(problem: &Problem, outcome: &solver::Outcome) -> WarmBasis {
    let keys = outcome
        .basis
        .iter()
        .map(|&j| {
            if j < problem.nstruct {
                BasisKey::Struct(j as u32)
            } else if j < problem.art_start {
                BasisKey::Slack((j - problem.slack_start) as u32)
            } else {
                let neg = problem.cols[j].first().is_some_and(|&(_, v)| v < 0.0);
                BasisKey::Art { row: (j - problem.art_start) as u32, neg }
            }
        })
        .collect();
    WarmBasis {
        keys,
        nb_struct: outcome.nb[..problem.nstruct].to_vec(),
        nb_slack: outcome.nb[problem.slack_start..problem.art_start].to_vec(),
    }
}

/// Resolve a saved [`WarmBasis`] against the current problem dimensions:
/// remap keys to column indices, seat the slacks of rows appended since the
/// snapshot, restore artificial column signs, and build the full rest-state
/// vector. Returns `None` when the snapshot cannot apply (shrunken model,
/// out-of-range keys).
fn resolve_warm(
    problem: &mut Problem,
    warm: &WarmBasis,
) -> Option<(Vec<usize>, Vec<solver::NbState>)> {
    use solver::NbState;
    let m = problem.m;
    if warm.keys.len() > m || warm.nb_struct.len() > problem.nstruct || warm.nb_slack.len() > m {
        return None;
    }
    let mut basis = Vec::with_capacity(m);
    for key in &warm.keys {
        let idx = match *key {
            BasisKey::Struct(j) if (j as usize) < problem.nstruct => j as usize,
            BasisKey::Slack(i) if (i as usize) < m => problem.slack_start + i as usize,
            BasisKey::Art { row, neg } if (row as usize) < m => {
                let j = problem.art_start + row as usize;
                problem.cols[j] = vec![(row, if neg { -1.0 } else { 1.0 })];
                j
            }
            _ => return None,
        };
        basis.push(idx);
    }
    // Rows appended since the snapshot get their own slack as the basic
    // column (the standard cutting-plane extension: duals of the old rows
    // are unchanged, so dual feasibility survives).
    for i in warm.keys.len()..m {
        basis.push(problem.slack_start + i);
    }
    let mut nb = vec![NbState::Lower; problem.n];
    for (j, &s) in warm.nb_struct.iter().enumerate() {
        nb[j] = s;
    }
    for (i, &s) in warm.nb_slack.iter().enumerate() {
        nb[problem.slack_start + i] = s;
    }
    // New structurals / slacks keep the Lower default; `run_warm` normalizes
    // every rest state against the actual bounds before solving.
    Some((basis, nb))
}

/// Solve `model`, optionally warm-starting from a saved basis.
///
/// The warm path classifies the restored basis (primal feasible → primal
/// phase 2; dual feasible → dual simplex + polish) and falls back to a cold
/// solve on any warm failure, so the result is always the authoritative
/// optimum. Returns the solution, a snapshot of the terminal basis for the
/// next call, and which restart actually ran.
pub(crate) fn solve_model_session(
    model: &Model,
    options: &SimplexOptions,
    warm: Option<&WarmBasis>,
) -> Result<(Solution, WarmBasis, Restart), SolveError> {
    // Row-major mirror of the structural matrix. The model's own row
    // storage *is* the mirror — `RowData.terms` holds each row's
    // `(column, coefficient)` terms sorted by column, grown incrementally
    // by `add_row`/`add_term`/`append_with` — so the solver borrows
    // per-row slice views instead of duplicating the matrix. Slack and
    // artificial entries are implicit singletons handled by the solver.
    let row_terms: Vec<&[(u32, f64)]> = model.rows.iter().map(|r| r.terms.as_slice()).collect();
    if let Some(w) = warm {
        let mut problem = Problem::from_model(model);
        if let Some((basis, nb)) = resolve_warm(&mut problem, w) {
            let (rows, vars) = name_fns(model);
            if let Ok((outcome, used_dual)) =
                solver::run_warm(&mut problem, &row_terms, options, basis, nb, rows, vars)
            {
                let solution = finish_solution(model, &problem, &outcome);
                let basis = snapshot(&problem, &outcome);
                let restart = if used_dual { Restart::WarmDual } else { Restart::WarmPrimal };
                return Ok((solution, basis, restart));
            }
        }
        // Fall through to a cold solve: correctness never depends on the
        // warm path succeeding.
    }
    let attempt = |options: &SimplexOptions| -> Result<(solver::Outcome, Problem), SolveError> {
        let mut problem = Problem::from_model(model);
        let (rows, vars) = name_fns(model);
        let out = solver::run(&mut problem, &row_terms, options, rows, vars)?;
        Ok((out, problem))
    };
    let (outcome, problem) = match attempt(options) {
        Ok(s) => s,
        Err(SolveError::Numerical(_)) => {
            let conservative = SimplexOptions {
                pivot_tol: options.pivot_tol.max(1e-8),
                refactor_every: 32,
                bland_trigger: 0,
                ..options.clone()
            };
            attempt(&conservative)?
        }
        Err(e) => return Err(e),
    };
    let solution = finish_solution(model, &problem, &outcome);
    let basis = snapshot(&problem, &outcome);
    Ok((solution, basis, Restart::Cold))
}

/// Solve `model` and map the internal result back to the model's sense and
/// row/variable handles.
///
/// A numerical failure (singular refactorization after eta-file drift on a
/// heavily degenerate basis) triggers one conservative retry: larger pivot
/// tolerance, more frequent refactorization, and Bland's rule throughout.
pub(crate) fn solve_model(model: &Model, options: &SimplexOptions) -> Result<Solution, SolveError> {
    solve_model_session(model, options, None).map(|(sol, _, _)| sol)
}
