//! The bounded-variable revised simplex iteration core.
//!
//! Works on the standard form produced by [`super::Problem::from_model`]:
//! a crash basis is built first (slacks where the initial residual fits,
//! artificials elsewhere), then phase 1 minimizes the artificial sum and
//! phase 2 the true cost vector. Anti-cycling falls back to Bland's rule
//! after a run of degenerate pivots.

use super::basis::{FactorError, FactorStats, Factorization};
use super::{clear_for, Problem, SimplexOptions, Workspace};
use crate::session::SessionStats;
use crate::solution::SolveError;
use pretium_par as par;
use std::time::Instant;

/// Row-major view of the structural matrix: for each row, its
/// `(column, coefficient)` terms sorted by column. Slack and artificial
/// entries are implicit (`slack_start + i` with coefficient 1, and the
/// artificial's crash-time sign from `Problem::cols`).
pub(crate) type RowTerms<'a> = &'a [(u32, f64)];

/// Where a nonbasic variable currently rests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum NbState {
    Lower,
    Upper,
    /// Free variable parked at zero.
    Free,
}

/// Result of the iteration core, in internal (minimization) terms.
pub(crate) struct Outcome {
    /// Values of all columns (structurals, slacks, artificials).
    pub x: Vec<f64>,
    /// Row duals for the internal minimization problem.
    pub y: Vec<f64>,
    /// Basic column per row position at termination.
    pub basis: Vec<usize>,
    /// Rest state of every column (meaningful for nonbasic ones).
    pub nb: Vec<NbState>,
    /// Counters of this run (iterations, pricing work, the basis
    /// factorization's counters); see [`SessionStats`].
    pub stats: SessionStats,
}

impl Outcome {
    /// Internal reduced cost of column `j`.
    pub fn reduced_cost(&self, p: &Problem, j: usize) -> f64 {
        let mut d = p.cost[j];
        for &(i, v) in p.col(j) {
            d -= self.y[i as usize] * v;
        }
        d
    }
}

/// What the ratio test decided.
enum Step {
    /// Entering variable travels to its opposite bound; no basis change.
    BoundFlip { t: f64 },
    /// Basic variable at `position` leaves to `to_upper` after step `t`.
    Pivot { t: f64, position: usize, to_upper: bool },
    /// No finite blocking bound: the problem is unbounded.
    Unbounded,
}

struct State<'a> {
    p: &'a mut Problem,
    /// Row-major mirror of the structural matrix (shared from the model's
    /// own row storage), for sparse pivot-row passes.
    rows: &'a [RowTerms<'a>],
    opts: &'a SimplexOptions,
    /// Basic column per row position.
    basis: Vec<usize>,
    /// Column -> basis position, or -1 when nonbasic.
    pos_of: Vec<i32>,
    /// Current value of every column.
    x: Vec<f64>,
    nb: Vec<NbState>,
    factor: &'a mut Factorization,
    /// The factorization's lifetime counters when this solve began; the
    /// solve reports the difference.
    factor_base: FactorStats,
    /// Pricing and pivot-row buffers, cleared when the solve begins.
    s: &'a mut Scratch,
    max_iterations: u64,
    degenerate_run: u32,
    /// Cyclic column cursor for partial pricing sections.
    cursor: usize,
    /// No pivot since the last full reprice: the maintained reduced costs
    /// are exact, so an empty pricing result is a certified optimum.
    fresh: bool,
    /// Stamp for `Scratch::alpha_stamp`.
    stamp: u64,
    /// Some column value moved since the last refactorization (a pivot, a
    /// bound flip, a dual pivot, or the phase-1 artificial snap). When
    /// false, refactorizing again would rebuild the same LU and the same
    /// basic values bit for bit.
    moved: bool,
    /// Counters of this run; the factorization's are folded in by
    /// [`State::finish`].
    stats: SessionStats,
}

/// Buffers of the iteration core that outlive one solve. [`State::new`]
/// empties every one, so a solve sees exactly what fresh vectors would
/// hold; only their capacity carries over.
#[derive(Default)]
pub(crate) struct Scratch {
    w: Vec<f64>,
    y: Vec<f64>,
    // --- incremental pricing state ----------------------------------------
    /// Maintained reduced cost per column: exact after `reprice`, updated
    /// from the pivot row after each pivot. Basic entries are stale.
    d: Vec<f64>,
    /// Devex reference-framework weight per column.
    gamma: Vec<f64>,
    /// Candidate shortlist for partial pricing.
    candidates: Vec<u32>,
    /// Membership flags for `candidates`.
    in_cands: Vec<bool>,
    // --- scratch buffers reused across iterations -------------------------
    /// Basic cost vector for BTRAN (hoisted out of the iteration loop).
    cb: Vec<f64>,
    /// Pivot row of B⁻¹ in original row coordinates.
    rho: Vec<f64>,
    /// Unit vector for the pivot-row BTRAN (kept all-zero between uses).
    e_r: Vec<f64>,
    /// Pivot-row entries `alpha_j = rho · a_j`, valid where
    /// `alpha_stamp[j] == stamp`.
    alpha: Vec<f64>,
    alpha_stamp: Vec<u64>,
    alpha_touched: Vec<u32>,
    /// Refactorization right-hand side `b − N·x_N` and its solve `x_B`.
    rhs: Vec<f64>,
    xb: Vec<f64>,
}

impl Scratch {
    /// Empty every buffer for an `m`-row, `n`-column problem.
    fn reset(&mut self, m: usize, n: usize) {
        let Scratch {
            w,
            y,
            d,
            gamma,
            candidates,
            in_cands,
            cb,
            rho,
            e_r,
            alpha,
            alpha_stamp,
            alpha_touched,
            rhs,
            xb,
        } = self;
        for v in [w, y, cb, rho, e_r, rhs, xb] {
            clear_for(v, m);
        }
        for v in [d, gamma, alpha] {
            clear_for(v, n);
        }
        clear_for(alpha_stamp, n);
        clear_for(in_cands, n);
        clear_for(alpha_touched, n);
        candidates.clear();
    }
}

/// Read-only view of the pricing state, small enough to hand to the
/// sectioned parallel map: workers judge eligibility from shared slices
/// only, never seeing the `&mut Problem` or the factorization the full
/// [`State`] carries.
struct PriceView<'b> {
    d: &'b [f64],
    pos_of: &'b [i32],
    nb: &'b [NbState],
    in_cands: &'b [bool],
    lb: &'b [f64],
    ub: &'b [f64],
    tol: f64,
}

impl PriceView<'_> {
    /// Mirror of [`State::eligible`] over the shared slices.
    fn eligible(&self, j: usize) -> bool {
        if self.pos_of[j] >= 0 || self.lb[j] == self.ub[j] {
            return false;
        }
        let d = self.d[j];
        match self.nb[j] {
            NbState::Lower => d < -self.tol,
            NbState::Upper => d > self.tol,
            NbState::Free => d.abs() > self.tol,
        }
    }
}

const ZTOL: f64 = 1e-11;
const DEGEN_STEP: f64 = 1e-10;

/// Partial pricing: the column range is scanned in sections of
/// `max(n / SECTIONS, SECTION_MIN)` columns.
const SECTIONS: usize = 16;
const SECTION_MIN: usize = 64;
/// Keep sweeping extra sections while the shortlist holds fewer
/// candidates than this …
const CANDS_MIN: usize = 8;
/// … and trim it back to the best-scoring this many when it overflows.
const CANDS_MAX: usize = 64;

pub(crate) fn run(
    ws: &mut Workspace,
    rows: &[RowTerms<'_>],
    opts: &SimplexOptions,
    row_name: impl Fn(usize) -> String,
    var_name: impl Fn(usize) -> String,
) -> Result<Outcome, SolveError> {
    let problem = &mut ws.problem;
    let m = problem.m;
    let n = problem.n;

    // --- crash: place nonbasics at bounds, pick slack or artificial basis --
    let mut x = vec![0.0; n];
    let mut nb = vec![NbState::Lower; n];
    for j in 0..problem.art_start {
        if problem.lb[j].is_finite() {
            x[j] = problem.lb[j];
            nb[j] = NbState::Lower;
        } else if problem.ub[j].is_finite() {
            x[j] = problem.ub[j];
            nb[j] = NbState::Upper;
        } else {
            x[j] = 0.0;
            nb[j] = NbState::Free;
        }
    }
    // Residual b - A·x over nonbasic structurals (slacks rest at 0).
    let mut beta = problem.b.clone();
    for (j, &xj) in x.iter().enumerate().take(problem.nstruct) {
        if xj != 0.0 {
            for &(i, v) in problem.col(j) {
                beta[i as usize] -= v * xj;
            }
        }
    }
    let mut basis = Vec::with_capacity(m);
    let mut pos_of = vec![-1i32; n];
    let mut need_phase1 = false;
    for (i, &beta_i) in beta.iter().enumerate() {
        let s = problem.slack_start + i;
        if beta_i >= problem.lb[s] - opts.feas_tol && beta_i <= problem.ub[s] + opts.feas_tol {
            x[s] = beta_i;
            basis.push(s);
            pos_of[s] = i as i32;
        } else {
            let a = problem.art_start + i;
            let sign = if beta_i >= 0.0 { 1.0 } else { -1.0 };
            problem.set_art_sign(a, sign);
            problem.ub[a] = f64::INFINITY;
            x[a] = beta_i.abs();
            basis.push(a);
            pos_of[a] = i as i32;
            need_phase1 = true;
        }
    }

    let max_iterations = if opts.max_iterations > 0 {
        opts.max_iterations
    } else {
        20_000 + 100 * (m as u64 + problem.nstruct as u64)
    };

    let mut st = State::new(ws, rows, opts, basis, pos_of, x, nb, max_iterations);
    st.refactor().map_err(|e| numerical(e, &row_name))?;

    // --- phase 1 ----------------------------------------------------------
    if need_phase1 {
        let phase1_cost: Vec<f64> = (0..n)
            .map(|j| if j >= st.p.art_start && st.p.ub[j] > 0.0 { 1.0 } else { 0.0 })
            .collect();
        st.iterate(&phase1_cost, true, &var_name, &row_name)?;
        let residual: f64 = (st.p.art_start..n).map(|j| st.x[j].max(0.0)).sum();
        let scale = 1.0 + st.p.b.iter().fold(0.0f64, |a, &v| a.max(v.abs()));
        if residual > st.opts.feas_tol * scale {
            return Err(SolveError::Infeasible { residual });
        }
    }
    // Close all artificials for phase 2 and snap them to zero.
    for j in st.p.art_start..n {
        st.p.ub[j] = 0.0;
        st.moved |= st.x[j].to_bits() != 0;
        st.x[j] = 0.0;
    }

    // --- phase 2 ----------------------------------------------------------
    let phase2_cost = st.p.cost.clone();
    st.iterate(&phase2_cost, false, &var_name, &row_name)?;
    st.finish(&phase2_cost, &row_name)
}

/// Re-optimize from a known basis instead of crashing one.
///
/// `basis` gives the basic column per row position, `nb` the rest state of
/// every column; both typically come from a previous [`Outcome`] on a
/// mutated problem (the caller remaps column indices when the problem has
/// grown). The start point is classified and the cheapest repair is run:
///
/// * basic values within bounds → primal phase 2 directly (objective-only
///   changes keep the basis primal feasible);
/// * primal infeasible → dual simplex drives the basic values back inside
///   their bounds without losing dual feasibility (RHS / bound changes and
///   appended cutting rows land here), then a primal phase-2 polish mops up
///   any residual reduced-cost violations. Nonbasic columns whose reduced
///   cost has the wrong sign (e.g. freshly added variables) are temporarily
///   fixed at their rest value so the dual iteration starts dual feasible,
///   and released for the polish.
///
/// Any structural problem with the supplied basis (wrong size, duplicate
/// columns, singular matrix) is reported as an error; callers are expected
/// to fall back to a cold [`run`].
///
/// Returns the outcome plus whether the dual simplex was needed.
pub(crate) fn run_warm(
    ws: &mut Workspace,
    rows: &[RowTerms<'_>],
    opts: &SimplexOptions,
    basis: Vec<usize>,
    mut nb: Vec<NbState>,
    row_name: impl Fn(usize) -> String,
    var_name: impl Fn(usize) -> String,
) -> Result<(Outcome, bool), SolveError> {
    let problem = &ws.problem;
    let m = problem.m;
    let n = problem.n;
    if basis.len() != m || nb.len() != n {
        return Err(SolveError::Numerical("warm basis has wrong dimensions".into()));
    }
    let mut pos_of = vec![-1i32; n];
    for (i, &k) in basis.iter().enumerate() {
        if k >= n || pos_of[k] >= 0 {
            return Err(SolveError::Numerical("warm basis references invalid columns".into()));
        }
        pos_of[k] = i as i32;
    }
    // Rest nonbasic columns on a bound consistent with their current bounds
    // (bounds may have moved since the basis was recorded).
    let mut x = vec![0.0; n];
    for j in 0..n {
        if pos_of[j] >= 0 {
            continue;
        }
        let (lb, ub) = (problem.lb[j], problem.ub[j]);
        let state = match nb[j] {
            NbState::Lower if lb.is_finite() => NbState::Lower,
            NbState::Upper if ub.is_finite() => NbState::Upper,
            _ if lb.is_finite() => NbState::Lower,
            _ if ub.is_finite() => NbState::Upper,
            _ => NbState::Free,
        };
        nb[j] = state;
        x[j] = match state {
            NbState::Lower => lb,
            NbState::Upper => ub,
            NbState::Free => 0.0,
        };
    }

    let max_iterations = if opts.max_iterations > 0 {
        opts.max_iterations
    } else {
        20_000 + 100 * (m as u64 + problem.nstruct as u64)
    };
    let mut st = State::new(ws, rows, opts, basis, pos_of, x, nb, max_iterations);
    st.refactor().map_err(|e| numerical(e, &row_name))?;

    let cost = st.p.cost.clone();
    let feas = opts.feas_tol;
    let primal_feasible =
        st.basis.iter().all(|&k| st.x[k] >= st.p.lb[k] - feas && st.x[k] <= st.p.ub[k] + feas);
    let used_dual = !primal_feasible;
    if !primal_feasible {
        // Box away dual-infeasible nonbasics so the dual simplex starts from
        // a dual-feasible point; the primal polish below reconsiders them.
        let boxed = st.box_dual_infeasible(&cost);
        let result = st.dual_iterate(&cost, &row_name);
        for &(j, lb, ub) in &boxed {
            st.p.lb[j] = lb;
            st.p.ub[j] = ub;
        }
        match result {
            Ok(()) => {}
            Err(SolveError::Infeasible { residual }) if boxed.is_empty() => {
                // Nothing was boxed, so the verdict applies to the original
                // problem: no entering column can repair the violated row.
                return Err(SolveError::Infeasible { residual });
            }
            Err(_) => {
                // With columns boxed the verdict only covers the restricted
                // problem — let the caller re-solve cold for an authoritative
                // answer.
                return Err(SolveError::Numerical(
                    "dual warm start failed on the restricted problem".into(),
                ));
            }
        }
    }

    // Primal phase 2: a no-op when the dual pass already reached optimality,
    // otherwise it repairs reduced-cost violations (objective changes, newly
    // added columns, boxed columns released above).
    st.iterate(&cost, false, &var_name, &row_name)?;
    Ok((st.finish(&cost, &row_name)?, used_dual))
}

fn numerical(e: FactorError, row_name: &impl Fn(usize) -> String) -> SolveError {
    match e {
        FactorError::Singular { position } => SolveError::Numerical(format!(
            "singular basis at elimination step {position} (row {})",
            row_name(position)
        )),
    }
}

impl<'a> State<'a> {
    /// Start a solve in `ws`: reset its factorization for an `m`-row
    /// basis under `opts` and clear its scratch.
    #[allow(clippy::too_many_arguments)]
    fn new(
        ws: &'a mut Workspace,
        rows: &'a [RowTerms<'a>],
        opts: &'a SimplexOptions,
        basis: Vec<usize>,
        pos_of: Vec<i32>,
        x: Vec<f64>,
        nb: Vec<NbState>,
        max_iterations: u64,
    ) -> Self {
        let Workspace { problem: p, factor, scratch: s } = ws;
        factor.reset(p.m, opts.refactor_every, opts.pivot_tol);
        let factor_base = factor.stats();
        s.reset(p.m, p.n);
        State {
            p,
            rows,
            opts,
            basis,
            pos_of,
            x,
            nb,
            factor,
            factor_base,
            s,
            max_iterations,
            degenerate_run: 0,
            cursor: 0,
            fresh: false,
            stamp: 0,
            moved: false,
            stats: SessionStats::default(),
        }
    }

    /// End the solve: final duals `y = c_B·B⁻¹` under `cost`, with this
    /// solve's share of the factorization's counters folded into its own.
    /// The duals come from a fresh factorization for accuracy, unless
    /// nothing moved since the last one — refactorizing again would then
    /// rebuild the same LU and basic values bit for bit.
    fn finish(
        mut self,
        cost: &[f64],
        row_name: &impl Fn(usize) -> String,
    ) -> Result<Outcome, SolveError> {
        if self.moved {
            self.refactor().map_err(|e| numerical(e, row_name))?;
        }
        self.s.cb.clear();
        self.s.cb.extend(self.basis.iter().map(|&k| cost[k]));
        let mut y = Vec::new();
        self.factor.btran(&self.s.cb, &mut y);
        let (fs, base) = (self.factor.stats(), self.factor_base);
        self.stats.refactors = fs.refactors - base.refactors;
        self.stats.basis_nnz = fs.basis_nnz - base.basis_nnz;
        self.stats.factor_nnz = fs.factor_nnz - base.factor_nnz;
        self.stats.ft_updates = fs.ft_updates - base.ft_updates;
        self.stats.pivot_rejections = fs.pivot_rejections - base.pivot_rejections;
        Ok(Outcome { x: self.x, y, basis: self.basis, nb: self.nb, stats: self.stats })
    }

    /// Shared-slice view for parallel pricing workers.
    fn view(&self) -> PriceView<'_> {
        PriceView {
            d: &self.s.d,
            pos_of: &self.pos_of,
            nb: &self.nb,
            in_cands: &self.s.in_cands,
            lb: &self.p.lb,
            ub: &self.p.ub,
            tol: self.opts.opt_tol,
        }
    }

    /// Fold one sectioned run's section/steal counters into the solve's.
    fn note_par_stats(&mut self, stats: par::ParStats) {
        self.stats.pricing_par_sections += stats.sections;
        self.stats.pricing_par_steals += stats.steals;
    }

    /// Attribute one pricing call's wall clock to the serial or parallel
    /// bucket, depending on which path actually ran.
    fn note_pricing_wall(&mut self, t0: Instant, parallel: bool) {
        let nanos = t0.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        if parallel {
            self.stats.pricing_par_nanos += nanos;
        } else {
            self.stats.pricing_serial_nanos += nanos;
        }
    }

    /// Size the pricing/pivot-row scratch buffers for the current problem
    /// dimensions (idempotent; `e_r` keeps its all-zero invariant).
    fn ensure_scratch(&mut self) {
        let (m, n) = (self.p.m, self.p.n);
        self.s.e_r.resize(m, 0.0);
        self.s.alpha.resize(n, 0.0);
        self.s.alpha_stamp.resize(n, 0);
        self.s.d.resize(n, 0.0);
        self.s.gamma.resize(n, 1.0);
        self.s.in_cands.resize(n, false);
    }

    /// Rebuild the LU factorization from the current basis and refresh the
    /// basic variable values from scratch (removes accumulated drift).
    fn refactor(&mut self) -> Result<(), FactorError> {
        let (p, basis) = (&*self.p, &self.basis);
        self.factor.refactor_with(|k| p.col(basis[k]))?;
        // x_B = B⁻¹ (b - N x_N)
        let r = &mut self.s.rhs;
        r.clone_from(&self.p.b);
        for j in 0..self.p.n {
            if self.pos_of[j] < 0 && self.x[j] != 0.0 {
                for &(i, v) in self.p.col(j) {
                    r[i as usize] -= v * self.x[j];
                }
            }
        }
        self.factor.ftran_dense(&self.s.rhs, &mut self.s.xb);
        for (pos, &k) in self.basis.iter().enumerate() {
            self.x[k] = self.s.xb[pos];
        }
        self.moved = false;
        Ok(())
    }

    /// Run simplex iterations with the given cost vector until optimal.
    fn iterate(
        &mut self,
        cost: &[f64],
        phase1: bool,
        var_name: &impl Fn(usize) -> String,
        row_name: &impl Fn(usize) -> String,
    ) -> Result<(), SolveError> {
        // `y` and `d` are maintained incrementally between full reprices.
        self.reprice(cost);
        loop {
            if self.stats.iterations >= self.max_iterations {
                return Err(SolveError::IterationLimit { iterations: self.stats.iterations });
            }
            if self.factor.wants_refactor() {
                self.refactor().map_err(|e| numerical(e, row_name))?;
                // The refactor cadence doubles as the pricing drift guard.
                self.reprice(cost);
            }
            let bland = self.degenerate_run > self.opts.bland_trigger;
            let picked = if bland { self.price_bland() } else { self.price_partial() };
            let Some((j, d)) = picked else {
                if !self.fresh {
                    // Maintained reduced costs may have drifted since the
                    // last factorization: certify optimality against exact
                    // values before declaring this phase done. Terminates
                    // because the repriced costs are exact (`fresh`).
                    self.refactor().map_err(|e| numerical(e, row_name))?;
                    self.reprice(cost);
                    continue;
                }
                return Ok(()); // optimal for this phase
            };
            if bland {
                self.stats.bland_pivots += 1;
            }
            // Direction of travel for the entering variable.
            let sigma = match self.nb[j] {
                NbState::Lower => 1.0,
                NbState::Upper => -1.0,
                NbState::Free => {
                    if d < 0.0 {
                        1.0
                    } else {
                        -1.0
                    }
                }
            };
            {
                let (p, factor, w) = (&*self.p, &mut self.factor, &mut self.s.w);
                factor.ftran(p.col(j), w);
            }
            match self.ratio_test(j, sigma, bland) {
                Step::Unbounded => {
                    if phase1 {
                        return Err(SolveError::Numerical(
                            "phase-1 objective unbounded (internal error)".into(),
                        ));
                    }
                    return Err(SolveError::Unbounded { var: var_name(j.min(self.p.nstruct)) });
                }
                Step::BoundFlip { t } => {
                    // No basis change: `y` and `d` stay exact as-is.
                    self.moved = true;
                    self.apply_step(j, sigma, t);
                    self.x[j] = if sigma > 0.0 { self.p.ub[j] } else { self.p.lb[j] };
                    self.nb[j] = if sigma > 0.0 { NbState::Upper } else { NbState::Lower };
                    self.note_step(t);
                }
                Step::Pivot { t, position, to_upper } => {
                    // Needs the pre-pivot factorization, duals, and basis
                    // bookkeeping: must run before any of the updates below.
                    self.pivot_update(j, position);
                    self.moved = true;
                    self.apply_step(j, sigma, t);
                    let entering_value = self.x[j] + sigma * t;
                    let leaving = self.basis[position];
                    // Snap the leaving variable exactly onto its bound.
                    self.x[leaving] =
                        if to_upper { self.p.ub[leaving] } else { self.p.lb[leaving] };
                    self.nb[leaving] = if to_upper { NbState::Upper } else { NbState::Lower };
                    self.pos_of[leaving] = -1;
                    self.basis[position] = j;
                    self.pos_of[j] = position as i32;
                    self.x[j] = entering_value;
                    if !self.factor.update(position, &self.s.w) {
                        // Pivot too small for a stable eta: rebuild and, if
                        // the basis went bad, surface a numerical error.
                        self.refactor().map_err(|e| numerical(e, row_name))?;
                        self.reprice(cost);
                    }
                    self.note_step(t);
                }
            }
            self.stats.iterations += 1;
        }
    }

    /// Full pricing reset: recompute `y = c_B B⁻¹` and every reduced cost
    /// exactly, and reset the Devex reference framework (all weights back
    /// to 1) and the candidate list.
    ///
    /// With `pricing_jobs > 1` the reduced-cost recompute and the weight
    /// refresh fan out over the sectioned parallel map: each worker owns a
    /// disjoint `d`/`gamma` chunk, and each `d[j]` is the same per-column
    /// sequential dot product as the serial loop — no accumulation crosses
    /// a section boundary, so the result is bitwise identical.
    fn reprice(&mut self, cost: &[f64]) {
        self.ensure_scratch();
        self.s.cb.clear();
        self.s.cb.extend(self.basis.iter().map(|&k| cost[k]));
        {
            let (factor, cb, y) = (&mut self.factor, &self.s.cb, &mut self.s.y);
            factor.btran(cb, y);
        }
        let t0 = Instant::now();
        let jobs = self.opts.pricing_jobs;
        let n = self.p.n;
        let parallel = jobs > 1 && par::section_count(n) > 1;
        if parallel {
            let (p, y) = (&*self.p, &self.s.y);
            let mut stats = par::for_each_section(&mut self.s.d, jobs, |_, start, chunk| {
                for (off, slot) in chunk.iter_mut().enumerate() {
                    let j = start + off;
                    let mut d = cost[j];
                    for &(i, v) in p.col(j) {
                        d -= y[i as usize] * v;
                    }
                    *slot = d;
                }
            });
            stats.merge(par::for_each_section(&mut self.s.gamma, jobs, |_, _, chunk| {
                chunk.fill(1.0);
            }));
            self.note_par_stats(stats);
        } else {
            for (j, &cj) in cost.iter().enumerate().take(n) {
                let mut d = cj;
                for &(i, v) in self.p.col(j) {
                    d -= self.s.y[i as usize] * v;
                }
                self.s.d[j] = d;
            }
            for g in self.s.gamma.iter_mut() {
                *g = 1.0;
            }
        }
        self.note_pricing_wall(t0, parallel);
        self.s.candidates.clear();
        for f in self.s.in_cands.iter_mut() {
            *f = false;
        }
        self.stats.pricing_scans += n as u64;
        self.fresh = true;
    }

    /// Is nonbasic column `j` eligible to enter, judged on the maintained
    /// reduced cost `d[j]`?
    fn eligible(&self, j: usize) -> bool {
        if self.pos_of[j] >= 0 || self.p.lb[j] == self.p.ub[j] {
            return false;
        }
        let tol = self.opts.opt_tol;
        let d = self.s.d[j];
        match self.nb[j] {
            NbState::Lower => d < -tol,
            NbState::Upper => d > tol,
            NbState::Free => d.abs() > tol,
        }
    }

    /// Compute the sparse pivot row `alpha_j = rho · a_j` for every column
    /// with support in a row where `rho` is nonzero: structural terms come
    /// from the row-major mirror, the slack for row `i` is implicit with
    /// coefficient 1, and the artificial (when opened by the crash) carries
    /// its crash-time sign. Entries are valid where
    /// `alpha_stamp[j] == stamp`; `alpha_touched` lists them.
    fn pivot_row_pass(&mut self) {
        self.stamp += 1;
        let stamp = self.stamp;
        self.s.alpha_touched.clear();
        for i in 0..self.s.rho.len() {
            let rv = self.s.rho[i];
            if rv == 0.0 {
                continue;
            }
            let row = self.rows[i];
            for &(jc, v) in row {
                let j = jc as usize;
                if self.s.alpha_stamp[j] != stamp {
                    self.s.alpha_stamp[j] = stamp;
                    self.s.alpha[j] = 0.0;
                    self.s.alpha_touched.push(jc);
                }
                self.s.alpha[j] += rv * v;
            }
            let s = self.p.slack_start + i;
            self.s.alpha_stamp[s] = stamp;
            self.s.alpha[s] = rv;
            self.s.alpha_touched.push(s as u32);
            let a = self.p.art_start + i;
            if let Some(&(_, av)) = self.p.col(a).first() {
                self.s.alpha_stamp[a] = stamp;
                self.s.alpha[a] = rv * av;
                self.s.alpha_touched.push(a as u32);
            }
        }
        self.stats.pricing_scans += self.s.alpha_touched.len() as u64;
    }

    /// Incremental pricing update for a basis exchange: entering column `q`
    /// (whose FTRAN is already in `self.s.w`) replaces the basic variable at
    /// `position`. With `rho` the BTRAN'd pivot row and
    /// `theta_d = d_q / alpha_q`:
    ///
    /// * `d_j ← d_j − theta_d · alpha_j` for every nonbasic `j ≠ q`,
    /// * `d_leaving ← −theta_d` (its pivot-row entry is exactly 1),
    /// * `d_q ← 0`, `y ← y + theta_d · rho`,
    /// * Devex: `γ_j ← max(γ_j, (alpha_j/alpha_q)² γ_q)` for touched `j`,
    ///   and the leaving column gets `max(γ_q/alpha_q², 1)`.
    ///
    /// Must run before the basis bookkeeping and eta update for this pivot.
    fn pivot_update(&mut self, q: usize, position: usize) {
        self.fresh = false;
        let alpha_q = self.s.w[position];
        if alpha_q == 0.0 {
            // The eta update will reject this pivot and force a refactor,
            // which reprices from scratch anyway.
            return;
        }
        let theta_d = self.s.d[q] / alpha_q;
        self.s.e_r[position] = 1.0;
        {
            let (factor, e_r, rho) = (&mut self.factor, &self.s.e_r, &mut self.s.rho);
            factor.btran(e_r, rho);
        }
        self.s.e_r[position] = 0.0;
        self.pivot_row_pass();
        let gamma_q = self.s.gamma[q].max(1.0);
        let inv_aq = 1.0 / alpha_q;
        for idx in 0..self.s.alpha_touched.len() {
            let j = self.s.alpha_touched[idx] as usize;
            if self.pos_of[j] >= 0 || j == q {
                continue;
            }
            let aj = self.s.alpha[j];
            self.s.d[j] -= theta_d * aj;
            let r = aj * inv_aq;
            let cand = r * r * gamma_q;
            if cand > self.s.gamma[j] {
                self.s.gamma[j] = cand;
            }
        }
        if theta_d != 0.0 {
            for i in 0..self.s.rho.len() {
                let rv = self.s.rho[i];
                if rv != 0.0 {
                    self.s.y[i] += theta_d * rv;
                }
            }
        }
        let leaving = self.basis[position];
        self.s.d[leaving] = -theta_d;
        self.s.gamma[leaving] = (gamma_q * inv_aq * inv_aq).max(1.0);
        self.s.d[q] = 0.0;
    }

    /// Bland's anti-cycling rule: the smallest-index eligible column,
    /// judged on the maintained `d[j]` (the drift guard in `iterate`
    /// re-certifies before declaring optimality).
    fn price_bland(&mut self) -> Option<(usize, f64)> {
        for j in 0..self.p.n {
            if self.pos_of[j] >= 0 || self.p.lb[j] == self.p.ub[j] {
                continue;
            }
            self.stats.pricing_scans += 1;
            if self.eligible(j) {
                return Some((j, self.s.d[j]));
            }
        }
        None
    }

    /// Partial Devex pricing: prune the candidate shortlist, sweep one
    /// column section past the cursor every call (so every column is
    /// revisited within `SECTIONS` pivots and the shortlist never goes
    /// stale), keep sweeping while the list is thin, and pick the best
    /// Devex score among the survivors — O(section + candidates) per
    /// pivot instead of O(n). A full wrap with an empty shortlist means no
    /// eligible column exists (by the maintained reduced costs).
    ///
    /// With `pricing_jobs > 1` each cyclic section's scan fans out over
    /// the sectioned parallel map: subsections return their eligible
    /// columns as lists, concatenated in subsection order — reproducing
    /// the serial cyclic insertion order exactly, including the
    /// between-section early exit (checked only at section boundaries,
    /// same as the serial sweep).
    fn price_partial(&mut self) -> Option<(usize, f64)> {
        let t0 = Instant::now();
        // Drop candidates that went basic or lost eligibility.
        let mut keep = 0;
        for idx in 0..self.s.candidates.len() {
            let j = self.s.candidates[idx] as usize;
            self.stats.pricing_scans += 1;
            if self.eligible(j) {
                self.s.candidates[keep] = self.s.candidates[idx];
                keep += 1;
            } else {
                self.s.in_cands[j] = false;
            }
        }
        self.s.candidates.truncate(keep);
        let n = self.p.n;
        let section = (n / SECTIONS).max(SECTION_MIN).min(n);
        let jobs = self.opts.pricing_jobs;
        let parallel = jobs > 1 && par::section_count(section) > 1;
        let mut scanned = 0usize;
        while scanned < n {
            if parallel {
                let take = section.min(n - scanned);
                let start = self.cursor;
                let (parts, stats) = {
                    let view = self.view();
                    par::map_sections(take, jobs, |_, r| {
                        let mut found: Vec<u32> = Vec::new();
                        for off in r {
                            let j = (start + off) % n;
                            if !view.in_cands[j] && view.eligible(j) {
                                found.push(j as u32);
                            }
                        }
                        found
                    })
                };
                self.note_par_stats(stats);
                for j in parts.into_iter().flatten() {
                    self.s.in_cands[j as usize] = true;
                    self.s.candidates.push(j);
                }
                self.cursor = (start + take) % n;
                scanned += take;
                self.stats.pricing_scans += take as u64;
            } else {
                for _ in 0..section {
                    if scanned >= n {
                        break;
                    }
                    let j = self.cursor;
                    self.cursor += 1;
                    if self.cursor == n {
                        self.cursor = 0;
                    }
                    scanned += 1;
                    self.stats.pricing_scans += 1;
                    if !self.s.in_cands[j] && self.eligible(j) {
                        self.s.in_cands[j] = true;
                        self.s.candidates.push(j as u32);
                    }
                }
            }
            if self.s.candidates.len() >= CANDS_MIN {
                break;
            }
        }
        // Trim to the best CANDS_MAX by current Devex score so the
        // shortlist keeps quality, not arrival order. The sort key is a
        // pure function of the maintained (d, gamma) state, so the
        // surviving set — and hence the pivot sequence — stays
        // deterministic.
        if self.s.candidates.len() > CANDS_MAX {
            let mut cands = std::mem::take(&mut self.s.candidates);
            cands.sort_by(|&a, &b| {
                let (a, b) = (a as usize, b as usize);
                let sa = self.s.d[a] * self.s.d[a] / self.s.gamma[a];
                let sb = self.s.d[b] * self.s.d[b] / self.s.gamma[b];
                sb.partial_cmp(&sa).unwrap_or(std::cmp::Ordering::Equal).then(a.cmp(&b))
            });
            for &j in &cands[CANDS_MAX..] {
                self.s.in_cands[j as usize] = false;
            }
            cands.truncate(CANDS_MAX);
            self.s.candidates = cands;
        }
        let mut best: Option<(usize, f64)> = None; // (j, score)
        for idx in 0..self.s.candidates.len() {
            let j = self.s.candidates[idx] as usize;
            let dj = self.s.d[j];
            let score = dj * dj / self.s.gamma[j];
            let better = match best {
                None => true,
                // Insertion order is cyclic, not ascending: break exact
                // ties by index explicitly for determinism.
                Some((bj, bs)) => score > bs || (score == bs && j < bj),
            };
            if better {
                best = Some((j, score));
            }
        }
        self.note_pricing_wall(t0, parallel);
        best.map(|(j, _)| (j, self.s.d[j]))
    }

    /// Move all basic variables along the FTRAN direction by step `t`.
    fn apply_step(&mut self, _entering: usize, sigma: f64, t: f64) {
        if t == 0.0 {
            return;
        }
        for (pos, &k) in self.basis.iter().enumerate() {
            let wi = self.s.w[pos];
            if wi != 0.0 {
                self.x[k] -= sigma * t * wi;
            }
        }
    }

    fn note_step(&mut self, t: f64) {
        if t <= DEGEN_STEP {
            self.degenerate_run = self.degenerate_run.saturating_add(1);
        } else {
            self.degenerate_run = 0;
        }
    }

    /// Temporarily fix every nonbasic column whose reduced cost violates
    /// dual feasibility at its current rest value, and return the saved
    /// bounds `(column, lb, ub)` so the caller can restore them.
    fn box_dual_infeasible(&mut self, cost: &[f64]) -> Vec<(usize, f64, f64)> {
        self.s.cb.clear();
        self.s.cb.extend(self.basis.iter().map(|&k| cost[k]));
        {
            let (factor, cb, y) = (&mut self.factor, &self.s.cb, &mut self.s.y);
            factor.btran(cb, y);
        }
        let tol = self.opts.opt_tol;
        let mut boxed = Vec::new();
        for (j, &cj) in cost.iter().enumerate().take(self.p.n) {
            if self.pos_of[j] >= 0 || self.p.lb[j] == self.p.ub[j] {
                continue;
            }
            let mut d = cj;
            for &(i, v) in self.p.col(j) {
                d -= self.s.y[i as usize] * v;
            }
            let ok = match self.nb[j] {
                NbState::Lower => d >= -tol,
                NbState::Upper => d <= tol,
                NbState::Free => d.abs() <= tol,
            };
            if !ok {
                boxed.push((j, self.p.lb[j], self.p.ub[j]));
                self.p.lb[j] = self.x[j];
                self.p.ub[j] = self.x[j];
            }
        }
        boxed
    }

    /// Bounded-variable dual simplex: starting from a dual-feasible basis
    /// whose basic values violate their bounds, repeatedly pivot the most
    /// violated basic variable out against the entering column chosen by the
    /// dual ratio test, until primal feasibility is restored.
    fn dual_iterate(
        &mut self,
        cost: &[f64],
        row_name: &impl Fn(usize) -> String,
    ) -> Result<(), SolveError> {
        self.ensure_scratch();
        loop {
            if self.stats.iterations >= self.max_iterations {
                return Err(SolveError::IterationLimit { iterations: self.stats.iterations });
            }
            if self.factor.wants_refactor() {
                self.refactor().map_err(|e| numerical(e, row_name))?;
            }
            // Leaving variable: the basic value with the largest bound
            // violation. `to_lower` records which bound it will land on.
            let feas = self.opts.feas_tol;
            let mut leave: Option<(usize, f64, bool)> = None; // (pos, viol, to_lower)
            for (pos, &k) in self.basis.iter().enumerate() {
                let below = self.p.lb[k] - self.x[k];
                let above = self.x[k] - self.p.ub[k];
                let v = below.max(above);
                if v > feas && leave.as_ref().is_none_or(|&(_, bv, _)| v > bv) {
                    leave = Some((pos, v, below >= above));
                }
            }
            let Some((r, viol, to_lower)) = leave else {
                return Ok(()); // primal feasible
            };
            let k = self.basis[r];
            let bound = if to_lower { self.p.lb[k] } else { self.p.ub[k] };
            // `need` is the direction the leaving value must move.
            let need = if to_lower { 1.0 } else { -1.0 };
            // rho = row r of B⁻¹ (original row coordinates), so that
            // alpha_j = rho · a_j is the pivot row entry of column j; the
            // sparse pivot-row pass materializes exactly the nonzero alphas.
            self.s.e_r[r] = 1.0;
            {
                let (factor, e_r, rho) = (&mut self.factor, &self.s.e_r, &mut self.s.rho);
                factor.btran(e_r, rho);
            }
            self.s.e_r[r] = 0.0;
            self.pivot_row_pass();
            // Current duals for the ratio test.
            self.s.cb.clear();
            self.s.cb.extend(self.basis.iter().map(|&b| cost[b]));
            {
                let (factor, cb, y) = (&mut self.factor, &self.s.cb, &mut self.s.y);
                factor.btran(cb, y);
            }
            let bland = self.degenerate_run > self.opts.bland_trigger;
            // Dual ratio test: among columns whose movement drives x_k toward
            // its bound, pick the one whose reduced cost hits zero first.
            let mut enter: Option<(usize, f64, f64, f64)> = None; // (j, sigma, alpha, ratio)
            for (j, &cj) in cost.iter().enumerate().take(self.p.n) {
                if self.pos_of[j] >= 0 || self.p.lb[j] == self.p.ub[j] {
                    continue;
                }
                let alpha = if self.s.alpha_stamp[j] == self.stamp { self.s.alpha[j] } else { 0.0 };
                if alpha.abs() <= 1e-9 {
                    continue;
                }
                self.stats.pricing_scans += 1;
                let sigma = match self.nb[j] {
                    NbState::Lower => 1.0,
                    NbState::Upper => -1.0,
                    // Free columns move either way; pick the repairing one.
                    NbState::Free => -need * alpha.signum(),
                };
                // x_k changes by -t·sigma·alpha; it must move along `need`.
                if -sigma * alpha * need <= 0.0 {
                    continue;
                }
                let mut d = cj;
                for &(i, v) in self.p.col(j) {
                    d -= self.s.y[i as usize] * v;
                }
                let ratio = d.abs() / alpha.abs();
                let better = match enter {
                    None => true,
                    Some((bj, _, ba, br)) => {
                        if bland {
                            ratio < br - ZTOL || (ratio <= br + ZTOL && j < bj)
                        } else {
                            ratio < br - ZTOL || (ratio <= br + ZTOL && alpha.abs() > ba.abs())
                        }
                    }
                };
                if better {
                    enter = Some((j, sigma, alpha, ratio));
                }
            }
            let Some((q, sigma, alpha, _)) = enter else {
                // No column can repair the violated row: primal infeasible.
                return Err(SolveError::Infeasible { residual: viol });
            };
            // Step that lands the leaving variable exactly on its bound.
            let t = ((self.x[k] - bound) / (sigma * alpha)).max(0.0);
            self.moved = true;
            {
                let (p, factor, w) = (&*self.p, &mut self.factor, &mut self.s.w);
                factor.ftran(p.col(q), w);
            }
            for (pos, &bk) in self.basis.iter().enumerate() {
                let wi = self.s.w[pos];
                if wi != 0.0 {
                    self.x[bk] -= sigma * t * wi;
                }
            }
            let entering_value = self.x[q] + sigma * t;
            self.x[k] = bound;
            self.nb[k] = if to_lower { NbState::Lower } else { NbState::Upper };
            self.pos_of[k] = -1;
            self.basis[r] = q;
            self.pos_of[q] = r as i32;
            self.x[q] = entering_value;
            if !self.factor.update(r, &self.s.w) {
                self.refactor().map_err(|e| numerical(e, row_name))?;
            }
            self.note_step(t);
            self.stats.iterations += 1;
        }
    }

    /// Bounded-variable ratio test for entering column `j` moving in
    /// direction `sigma` along `self.s.w`.
    fn ratio_test(&self, j: usize, sigma: f64, bland: bool) -> Step {
        let p = &self.p;
        // Bound-flip limit for the entering variable itself.
        let own_range = p.ub[j] - p.lb[j];
        let mut t_best = if own_range.is_finite() { own_range } else { f64::INFINITY };
        let mut leave: Option<(usize, bool, f64)> = None; // (position, to_upper, |w|)
        for (pos, &wi) in self.s.w.iter().enumerate() {
            if wi.abs() <= ZTOL {
                continue;
            }
            let k = self.basis[pos];
            let delta = sigma * wi; // x_k moves by -t·delta
            let (t, to_upper) = if delta > 0.0 {
                if p.lb[k] == f64::NEG_INFINITY {
                    continue;
                }
                (((self.x[k] - p.lb[k]) / delta).max(0.0), false)
            } else {
                if p.ub[k] == f64::INFINITY {
                    continue;
                }
                (((p.ub[k] - self.x[k]) / -delta).max(0.0), true)
            };
            let better = if bland {
                // Smallest t; ties by smallest variable index (Bland).
                t < t_best - ZTOL
                    || (t <= t_best + ZTOL
                        && leave.as_ref().is_none_or(|&(lp, _, _)| k < self.basis[lp]))
            } else {
                // Smallest t; ties by largest pivot magnitude (stability).
                t < t_best - ZTOL
                    || (t <= t_best + ZTOL
                        && leave.as_ref().is_none_or(|&(_, _, wa)| wi.abs() > wa))
            };
            if t <= t_best + ZTOL && better {
                t_best = t.min(t_best);
                leave = Some((pos, to_upper, wi.abs()));
            }
        }
        if t_best.is_infinite() {
            return Step::Unbounded;
        }
        match leave {
            // The entering variable reaches its own opposite bound first.
            None => Step::BoundFlip { t: t_best },
            Some((position, to_upper, _)) => {
                if own_range.is_finite() && own_range < t_best - ZTOL {
                    Step::BoundFlip { t: own_range }
                } else {
                    Step::Pivot { t: t_best, position, to_upper }
                }
            }
        }
    }
}
