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
use basis::Factorization;
use std::fmt;

/// Clear `v` and make room for exactly `len` elements. A buffer that is
/// already big enough keeps its capacity; a smaller one grows to `len`,
/// not to the doubled size amortized growth would give it, so a kept
/// buffer settles at the largest problem seen rather than up to twice it.
pub(crate) fn clear_for<T>(v: &mut Vec<T>, len: usize) {
    v.clear();
    v.reserve_exact(len);
}

/// Refill `v` with `len` copies of `fill` (what `vec![fill; len]` holds),
/// keeping its capacity.
pub(crate) fn reset_to<T: Clone>(v: &mut Vec<T>, len: usize, fill: T) {
    clear_for(v, len);
    v.resize(len, fill);
}

/// Clear `lists` to `len` empty lists, keeping every surviving list's
/// capacity.
pub(crate) fn reset_lists<T>(lists: &mut Vec<Vec<T>>, len: usize) {
    lists.truncate(len);
    lists.iter_mut().for_each(Vec::clear);
    lists.reserve_exact(len - lists.len());
    lists.resize_with(len, Vec::new);
}

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
#[derive(Default)]
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
    /// Column `j` of `A` is `entries[start[j]..start[j + 1]]`: its
    /// `(row, value)` pairs, rows increasing. Slack and artificial columns
    /// are singletons.
    start: Vec<u32>,
    entries: Vec<(u32, f64)>,
    pub lb: Vec<f64>,
    pub ub: Vec<f64>,
    /// Phase-2 costs, already converted to minimization sense.
    pub cost: Vec<f64>,
    pub b: Vec<f64>,
}

impl Problem {
    /// Rebuild the standard form of `model` in place. Every buffer is
    /// cleared and refilled in the order a fresh build would push, so only
    /// capacity survives from the previous model.
    pub fn load(&mut self, model: &Model) {
        let m = model.rows.len();
        let nstruct = model.vars.len();
        let slack_start = nstruct;
        let art_start = nstruct + m;
        let n = nstruct + 2 * m;
        (self.m, self.n, self.nstruct, self.slack_start, self.art_start) =
            (m, n, nstruct, slack_start, art_start);

        // Compressed columns, filled back to front: `start[j]` first counts
        // column j's entries, then becomes its end, then walks down to its
        // start as rows are placed in decreasing order.
        let (start, entries) = (&mut self.start, &mut self.entries);
        reset_to(start, n + 1, 0);
        for row in &model.rows {
            for &(j, _) in &row.terms {
                start[j as usize] += 1;
            }
        }
        start[slack_start..n].fill(1);
        let mut end = 0;
        for s in &mut start[..n] {
            end += *s;
            *s = end;
        }
        start[n] = end;
        reset_to(entries, end as usize, (0, 0.0));
        for (i, row) in model.rows.iter().enumerate().rev() {
            // Slack (row + slack = rhs) and artificial (sign fixed at
            // crash time by the solver) columns are unit singletons.
            for j in [art_start + i, slack_start + i] {
                start[j] -= 1;
                entries[start[j] as usize] = (i as u32, 1.0);
            }
            for &(j, coef) in &row.terms {
                let s = &mut start[j as usize];
                *s -= 1;
                entries[*s as usize] = (i as u32, coef);
            }
        }

        let (lb, ub, cost, b) = (&mut self.lb, &mut self.ub, &mut self.cost, &mut self.b);
        clear_for(lb, n);
        clear_for(ub, n);
        reset_to(cost, n, 0.0);
        clear_for(b, m);
        let sign = match model.sense {
            Sense::Minimize => 1.0,
            Sense::Maximize => -1.0,
        };
        for (j, v) in model.vars.iter().enumerate() {
            lb.push(v.lb);
            ub.push(v.ub);
            cost[j] = sign * v.obj;
        }
        for row in &model.rows {
            b.push(row.rhs);
            let (slb, sub) = match row.cmp {
                Cmp::Le => (0.0, f64::INFINITY),
                Cmp::Ge => (f64::NEG_INFINITY, 0.0),
                Cmp::Eq => (0.0, 0.0),
            };
            lb.push(slb);
            ub.push(sub);
        }
        for _ in 0..m {
            lb.push(0.0);
            ub.push(0.0); // artificials open to [0, inf) only for rows that need one
        }
        debug_assert_eq!(lb.len(), n);
    }

    /// Column `j` of `A`.
    pub fn col(&self, j: usize) -> &[(u32, f64)] {
        &self.entries[self.start[j] as usize..self.start[j + 1] as usize]
    }

    /// Set the sign of artificial column `a`'s single entry.
    pub fn set_art_sign(&mut self, a: usize, sign: f64) {
        debug_assert!(a >= self.art_start && a < self.n);
        self.entries[self.start[a] as usize].1 = sign;
    }
}

/// Solve buffers that live as long as their owner — a
/// [`crate::SolverSession`], or one [`crate::Model::solve`] call — and
/// are reused by every solve it runs: the standard-form [`Problem`], the
/// basis [`Factorization`] with its Markowitz storage, and the simplex
/// pricing scratch. Each solve rebuilds every part before reading it, so
/// the workspace carries capacity, never state: a clone starts empty.
#[derive(Default)]
pub(crate) struct Workspace {
    problem: Problem,
    factor: Factorization,
    scratch: solver::Scratch,
}

#[cfg(test)]
impl Workspace {
    /// Forrest–Tomlin updates stored since the factorization's last
    /// refactor.
    pub(crate) fn pending_ft_updates(&self) -> usize {
        self.factor.eta_count()
    }
}

impl Clone for Workspace {
    fn clone(&self) -> Self {
        Workspace::default()
    }
}

impl fmt::Debug for Workspace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Workspace").finish_non_exhaustive()
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
        stats: outcome.stats,
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
                let neg = problem.col(j)[0].1 < 0.0;
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
                problem.set_art_sign(j, if neg { -1.0 } else { 1.0 });
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

/// Solve `model`, optionally warm-starting from a saved basis, in the
/// buffers of `ws`.
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
    ws: &mut Workspace,
) -> Result<(Solution, WarmBasis, Restart), SolveError> {
    // Row-major mirror of the structural matrix. The model's own row
    // storage *is* the mirror — `RowData.terms` holds each row's
    // `(column, coefficient)` terms sorted by column, grown incrementally
    // by `add_row`/`add_term`/`append_with` — so the solver borrows
    // per-row slice views instead of duplicating the matrix. Slack and
    // artificial entries are implicit singletons handled by the solver.
    let row_terms: Vec<&[(u32, f64)]> = model.rows.iter().map(|r| r.terms.as_slice()).collect();
    let warm_fallbacks = u64::from(warm.is_some());
    if let Some(w) = warm {
        ws.problem.load(model);
        if let Some((basis, nb)) = resolve_warm(&mut ws.problem, w) {
            let (rows, vars) = name_fns(model);
            if let Ok((outcome, used_dual)) =
                solver::run_warm(ws, &row_terms, options, basis, nb, rows, vars)
            {
                let solution = finish_solution(model, &ws.problem, &outcome);
                let basis = snapshot(&ws.problem, &outcome);
                let restart = if used_dual { Restart::WarmDual } else { Restart::WarmPrimal };
                return Ok((solution, basis, restart));
            }
        }
        // Fall through to a cold solve: correctness never depends on the
        // warm path succeeding.
    }
    let mut attempt = |options: &SimplexOptions| -> Result<solver::Outcome, SolveError> {
        ws.problem.load(model);
        let (rows, vars) = name_fns(model);
        solver::run(ws, &row_terms, options, rows, vars)
    };
    let mut outcome = match attempt(options) {
        Ok(out) => out,
        Err(SolveError::Numerical(_)) => {
            let conservative = SimplexOptions {
                pivot_tol: options.pivot_tol.max(1e-8),
                refactor_every: 32,
                bland_trigger: 0,
                ..options.clone()
            };
            let mut outcome = attempt(&conservative)?;
            outcome.stats.numerical_retries = 1;
            outcome
        }
        Err(e) => return Err(e),
    };
    outcome.stats.warm_fallbacks = warm_fallbacks;
    let solution = finish_solution(model, &ws.problem, &outcome);
    let basis = snapshot(&ws.problem, &outcome);
    Ok((solution, basis, Restart::Cold))
}

/// Solve `model` once, in a workspace of its own, and map the internal
/// result back to the model's sense and row/variable handles.
///
/// A numerical failure (singular refactorization after eta-file drift on a
/// heavily degenerate basis) triggers one conservative retry: larger pivot
/// tolerance, more frequent refactorization, and Bland's rule throughout.
pub(crate) fn solve_model(model: &Model, options: &SimplexOptions) -> Result<Solution, SolveError> {
    solve_model_session(model, options, None, &mut Workspace::default()).map(|(sol, _, _)| sol)
}
