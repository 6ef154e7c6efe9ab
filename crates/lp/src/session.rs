//! Persistent solver sessions with warm-started re-optimization.
//!
//! A [`SolverSession`] owns a [`Model`] together with the basis of its last
//! solve. Incremental mutations (`set_rhs`, `set_bounds`, `set_obj`,
//! `add_row`, `add_var`) go through the session so it can track which
//! mutation classes occurred, and every re-solve picks the cheapest restart
//! that is still correct:
//!
//! * **objective-only changes** leave the basis primal feasible — primal
//!   simplex continues from it directly ([`Restart::WarmPrimal`]);
//! * **RHS / bound changes** leave the basis dual feasible — the dual
//!   simplex repairs primal feasibility ([`Restart::WarmDual`]); this is the
//!   SAM-timestep case, where capacities and executed amounts move between
//!   re-optimizations;
//! * **appended rows** seat their slack in the basis (duals of existing rows
//!   are unchanged, so dual feasibility survives) and restart dual — the
//!   lazy capacity-row case;
//! * **appended variables** rest at a bound; if that disturbs feasibility
//!   the dual/primal repair machinery handles it.
//!
//! Anything the warm path cannot absorb falls back to a full cold solve, so
//! a session solve always returns the same certified optimum a fresh
//! [`Model::solve`] would — warm starting is purely a performance property
//! (the property tests assert primal, dual, and objective agreement to
//! 1e-7).
//!
//! ```
//! use pretium_lp::{Cmp, Restart, SolveOptions, SolverSession, Model, Sense};
//!
//! let mut m = Model::new(Sense::Maximize);
//! let x = m.add_nonneg("x", 3.0);
//! let y = m.add_nonneg("y", 2.0);
//! let cap = m.add_row("cap", x + y, Cmp::Le, 4.0);
//! let _r2 = m.add_row("r2", 1.0 * x + 3.0 * y, Cmp::Le, 6.0);
//! let mut session = SolverSession::new(m);
//! let first = session.solve(&SolveOptions::default()).unwrap();
//! assert!((first.objective() - 12.0).abs() < 1e-7);
//!
//! // Capacity changes re-optimize from the saved basis, not from scratch.
//! session.set_rhs(cap, 7.0);
//! let second = session.solve(&SolveOptions::default()).unwrap();
//! assert!((second.objective() - 18.0).abs() < 1e-7);
//! assert_eq!(session.last_restart(), Some(Restart::WarmDual));
//! ```

use crate::expr::{LinExpr, Var};
use crate::lazy::{ColGen, ColRequest, GenOutcome, NoGen, RowGen, RowRequest};
use crate::model::{Cmp, Model, RowId, Sense};
use crate::simplex::{solve_model_session, Restart, SimplexOptions, WarmBasis};
use crate::solution::{Solution, SolveError};

/// Default round cap for the generation loops ([`SolverSession::solve_gen`]
/// and its one-sided wrappers) when [`SolveOptions::max_rounds`] is 0.
pub const DEFAULT_MAX_ROUNDS: u32 = 50;

/// Default capacity of the freeze-pattern-keyed warm-basis LRU used by
/// [`SolverSession::solve_restricted`] when
/// [`SolverTuning::restricted_basis_cache`] is 0.
pub const DEFAULT_RESTRICTED_BASIS_CACHE: usize = 8;

/// Grouped solver-tuning knobs shared by every solve path ([`SolverSession::solve`],
/// [`SolverSession::solve_restricted`], and the generation loops). Every
/// field follows the crate's `0 selects the default` convention, so the
/// all-zero [`SolverTuning::default`] changes nothing — callers override
/// only the knobs they care about and `..Default::default()` the rest.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverTuning {
    /// Capacity of [`SolverSession::solve_restricted`]'s freeze-pattern
    /// warm-basis LRU; `0` selects [`DEFAULT_RESTRICTED_BASIS_CACHE`].
    pub restricted_basis_cache: usize,
    /// Forrest–Tomlin updates a basis factorization accumulates before
    /// refactorizing; `0` inherits `refactor_every` from the effective
    /// simplex options (whose default is
    /// [`crate::simplex::basis::DEFAULT_MAX_ETAS`]), a nonzero value
    /// overrides it for this solve.
    pub max_etas: usize,
    /// Worker threads for the simplex's deterministic parallel-pricing
    /// layer; `0` inherits [`SimplexOptions::pricing_jobs`] from the
    /// effective simplex options (default 1, the serial path), a nonzero
    /// value overrides it. Restricted sub-solves inherit the resolved
    /// value through the same effective-options path as top-level solves.
    /// Any value produces bitwise-identical solves (DESIGN.md §19).
    pub pricing_jobs: usize,
}

/// Options for one [`SolverSession::solve`] call.
#[derive(Debug, Clone, Default)]
pub struct SolveOptions {
    /// Simplex parameter override; `None` uses the model's stored options.
    pub simplex: Option<SimplexOptions>,
    /// Discard the saved basis and solve from scratch.
    pub force_cold: bool,
    /// Round cap for [`SolverSession::solve_gen`] /
    /// [`SolverSession::solve_lazy`] / [`SolverSession::solve_colgen`];
    /// `0` selects [`DEFAULT_MAX_ROUNDS`].
    pub max_rounds: u32,
    /// Grouped tuning knobs (basis-cache capacity, refactorization cadence,
    /// pricing parallelism); the all-zero default leaves every knob at its
    /// built-in default.
    pub tuning: SolverTuning,
}

impl SolveOptions {
    /// Options that cap the simplex at `max` iterations (fault injection /
    /// degraded-compute modelling, §4.4). The solver returns
    /// [`SolveError::IterationLimit`] instead of running to optimality when
    /// the cap is hit, so callers can degrade gracefully.
    pub fn with_iteration_limit(max: u64) -> Self {
        SolveOptions {
            simplex: Some(SimplexOptions { max_iterations: max, ..SimplexOptions::default() }),
            ..SolveOptions::default()
        }
    }
}

/// Which mutation classes are pending since the last solve.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Mutations {
    /// Objective coefficients or offset changed.
    pub obj: bool,
    /// A row right-hand side changed.
    pub rhs: bool,
    /// Variable bounds changed.
    pub bounds: bool,
    /// Rows appended since the last solve.
    pub added_rows: u32,
    /// Variables appended since the last solve.
    pub added_vars: u32,
    /// Coefficients retrofitted into rows since the last solve.
    pub new_terms: u32,
}

impl Mutations {
    /// True when nothing changed since the last solve.
    pub fn is_clean(&self) -> bool {
        *self == Mutations::default()
    }
}

/// LP counters: the one record every layer passes up.
///
/// The simplex fills one per solve (iterations, pricing work, the basis
/// factorization's counters, warm fallbacks and numerical retries) and
/// hands it out as [`Solution::stats`]. A [`SolverSession`] merges each
/// solve's record into its lifetime total and adds the restart class
/// (`solves`, `cold_starts`, `warm_primal`, `warm_dual`) and its own
/// session-level counts (cache hits, restricted solves, generated
/// columns). Callers above aggregate with [`SessionStats::merge`].
///
/// Equality compares only the *deterministic* counters: steal counts and
/// the serial/parallel wall-clock split depend on thread scheduling and
/// timer resolution, so they are excluded from `PartialEq` — two runs of
/// the same configuration compare equal even though their timing fields
/// differ. Section counts stay in the comparison; they derive from range
/// sizes alone and are reproducible.
#[derive(Debug, Clone, Copy, Default)]
pub struct SessionStats {
    /// Total solves (lazy rounds count individually).
    pub solves: u64,
    /// Solves that ran from a crash basis.
    pub cold_starts: u64,
    /// Warm restarts that needed only primal phase 2.
    pub warm_primal: u64,
    /// Warm restarts that ran the dual simplex first.
    pub warm_dual: u64,
    /// Total simplex iterations across all solves.
    pub iterations: u64,
    /// Total pricing work across all solves: columns examined by entering
    /// selection plus columns touched by incremental pivot-row updates.
    pub pricing_scans: u64,
    /// Iterations priced under the Bland's-rule anti-cycling fallback.
    pub bland_pivots: u64,
    /// Solves answered from the cached solution without touching the
    /// simplex (nothing mutated since the last certified optimum).
    pub cache_hits: u64,
    /// Restricted (frozen-block submodel) solves; see
    /// [`SolverSession::solve_restricted`].
    pub restricted: u64,
    /// Columns appended by pricing oracles through
    /// [`SolverSession::add_generated_cols`] (the colgen growth path).
    pub columns_generated: u64,
    /// Generation rounds that appended at least one priced column — the
    /// restricted-master round count of the column-generation loops.
    pub colgen_rounds: u64,
    /// Sparse-LU refactorizations across all solves.
    pub refactors: u64,
    /// Cumulative nonzeros of the bases handed to refactorization.
    pub basis_nnz: u64,
    /// Cumulative nonzeros of the L/U factors produced (including the
    /// diagonal); `factor_nnz / basis_nnz` is the session fill-in ratio.
    pub factor_nnz: u64,
    /// Forrest–Tomlin basis-exchange updates applied in place.
    pub ft_updates: u64,
    /// FT updates rejected on a too-small new diagonal (each forces a
    /// refactorization).
    pub pivot_rejections: u64,
    /// Sections executed by the deterministic parallel-pricing layer
    /// (simplex pricing sweeps plus any scheduler-side fan-out folded in
    /// via [`SolverSession::merge_stats`]). Deterministic for a fixed
    /// configuration.
    pub pricing_par_sections: u64,
    /// Parallel-pricing sections claimed by a worker other than the one
    /// they were seeded on. Timing-dependent; excluded from equality.
    pub pricing_par_steals: u64,
    /// Wall-clock nanoseconds of pricing invocations that ran the serial
    /// path. Timing-dependent; excluded from equality.
    pub pricing_serial_nanos: u64,
    /// Wall-clock nanoseconds of pricing invocations that fanned out over
    /// the worker pool. Timing-dependent; excluded from equality.
    pub pricing_par_nanos: u64,
    /// Warm restarts abandoned for a cold solve (the saved basis did not
    /// fit the model, or the warm simplex failed). The abandoned attempt's
    /// iterations are not counted in `iterations`.
    pub warm_fallbacks: u64,
    /// Cold solves that failed numerically and were re-run with the
    /// conservative options (larger pivot tolerance, frequent
    /// refactorization, Bland's rule throughout).
    pub numerical_retries: u64,
}

impl PartialEq for SessionStats {
    fn eq(&self, other: &Self) -> bool {
        // Every counter except the timing-dependent trio (steals + the two
        // wall-clock buckets); see the type-level docs.
        self.solves == other.solves
            && self.cold_starts == other.cold_starts
            && self.warm_primal == other.warm_primal
            && self.warm_dual == other.warm_dual
            && self.iterations == other.iterations
            && self.pricing_scans == other.pricing_scans
            && self.bland_pivots == other.bland_pivots
            && self.cache_hits == other.cache_hits
            && self.restricted == other.restricted
            && self.columns_generated == other.columns_generated
            && self.colgen_rounds == other.colgen_rounds
            && self.refactors == other.refactors
            && self.basis_nnz == other.basis_nnz
            && self.factor_nnz == other.factor_nnz
            && self.ft_updates == other.ft_updates
            && self.pivot_rejections == other.pivot_rejections
            && self.pricing_par_sections == other.pricing_par_sections
            && self.warm_fallbacks == other.warm_fallbacks
            && self.numerical_retries == other.numerical_retries
    }
}

impl Eq for SessionStats {}

impl SessionStats {
    /// Fraction of solves that reused the previous basis.
    pub fn warm_fraction(&self) -> f64 {
        if self.solves == 0 {
            return 0.0;
        }
        (self.warm_primal + self.warm_dual) as f64 / self.solves as f64
    }

    /// Fold another counter set into this one (aggregating stats across
    /// several sessions, e.g. one per SAM window).
    pub fn merge(&mut self, other: SessionStats) {
        self.solves += other.solves;
        self.cold_starts += other.cold_starts;
        self.warm_primal += other.warm_primal;
        self.warm_dual += other.warm_dual;
        self.iterations += other.iterations;
        self.pricing_scans += other.pricing_scans;
        self.bland_pivots += other.bland_pivots;
        self.cache_hits += other.cache_hits;
        self.restricted += other.restricted;
        self.columns_generated += other.columns_generated;
        self.colgen_rounds += other.colgen_rounds;
        self.refactors += other.refactors;
        self.basis_nnz += other.basis_nnz;
        self.factor_nnz += other.factor_nnz;
        self.ft_updates += other.ft_updates;
        self.pivot_rejections += other.pivot_rejections;
        self.pricing_par_sections += other.pricing_par_sections;
        self.pricing_par_steals += other.pricing_par_steals;
        self.pricing_serial_nanos += other.pricing_serial_nanos;
        self.pricing_par_nanos += other.pricing_par_nanos;
        self.warm_fallbacks += other.warm_fallbacks;
        self.numerical_retries += other.numerical_retries;
    }

    /// Count one solve that restarted as `restart`.
    fn count_restart(&mut self, restart: Restart) {
        self.solves += 1;
        match restart {
            Restart::Cold => self.cold_starts += 1,
            Restart::WarmPrimal => self.warm_primal += 1,
            Restart::WarmDual => self.warm_dual += 1,
        }
    }

    /// Labelled counter rows for table rendering (`(label, value)`), in a
    /// stable order.
    pub fn rows(&self) -> Vec<(String, String)> {
        vec![
            ("lp solves".into(), self.solves.to_string()),
            ("cold starts".into(), self.cold_starts.to_string()),
            ("warm primal".into(), self.warm_primal.to_string()),
            ("warm dual".into(), self.warm_dual.to_string()),
            ("iterations".into(), self.iterations.to_string()),
            ("pricing scans".into(), self.pricing_scans.to_string()),
            ("bland pivots".into(), self.bland_pivots.to_string()),
            ("cache hits".into(), self.cache_hits.to_string()),
            ("restricted solves".into(), self.restricted.to_string()),
            ("columns generated".into(), self.columns_generated.to_string()),
            ("colgen rounds".into(), self.colgen_rounds.to_string()),
            ("refactors".into(), self.refactors.to_string()),
            ("ft updates".into(), self.ft_updates.to_string()),
            ("pivot rejections".into(), self.pivot_rejections.to_string()),
            ("warm fallbacks".into(), self.warm_fallbacks.to_string()),
            ("numerical retries".into(), self.numerical_retries.to_string()),
            ("pricing par sections".into(), self.pricing_par_sections.to_string()),
            ("pricing par steals".into(), self.pricing_par_steals.to_string()),
            (
                "pricing wall serial/par".into(),
                format!(
                    "{:.1}ms / {:.1}ms",
                    self.pricing_serial_nanos as f64 / 1e6,
                    self.pricing_par_nanos as f64 / 1e6
                ),
            ),
            (
                "fill-in ratio".into(),
                format!("{:.3}", self.factor_nnz as f64 / self.basis_nnz.max(1) as f64),
            ),
            ("warm fraction".into(), format!("{:.3}", self.warm_fraction())),
        ]
    }
}

/// Result of a restricted (frozen-block) re-solve; see
/// [`SolverSession::solve_restricted`].
#[derive(Debug, Clone)]
pub struct RestrictedOutcome {
    /// Parent-shaped composite solution: frozen coordinates verbatim, free
    /// coordinates from the submodel optimum, duals of dropped (all-frozen)
    /// rows inherited from the previous solution and re-validated.
    pub solution: Solution,
    /// Whether the KKT certificate held — the composite is a proven optimum
    /// of the full model. When false the composite is returned for
    /// inspection but the session adopts nothing; fall back to a full solve.
    pub certified: bool,
    /// Largest certificate violation observed (frozen reduced-cost
    /// improvement signal or dropped-row primal residual).
    pub max_violation: f64,
    /// Columns actually solved in the submodel.
    pub sub_vars: usize,
    /// Rows kept (with residual RHS) in the submodel.
    pub sub_rows: usize,
}

/// A [`Model`] plus the factorized basis of its last solve.
///
/// Created with [`SolverSession::new`] (or [`Model::into_session`]); see the
/// [module docs](self) for the restart rules. The session exposes the same
/// mutators as [`Model`] — route all changes through it so the basis
/// snapshot and mutation tracking stay consistent.
#[derive(Debug, Clone)]
pub struct SolverSession {
    model: Model,
    basis: Option<WarmBasis>,
    pending: Mutations,
    stats: SessionStats,
    last_restart: Option<Restart>,
    /// Model size at the last basis snapshot; columns/rows past these marks
    /// were appended afterwards and are never referenced by the saved basis.
    solved_vars: usize,
    solved_rows: usize,
    /// The most recent certified optimum of the current model state.
    /// Served verbatim by [`SolverSession::solve`] when no mutation is
    /// pending, and the reference point for [`SolverSession::fix_at_value`].
    last_solution: Option<Solution>,
    /// Terminal bases of recent [`SolverSession::solve_restricted`]
    /// submodels, keyed by a hash of the parent dimensions and the frozen
    /// column set (which together determine the submodel's structure).
    /// Recurring freeze patterns — the same fault edge toggling, the same
    /// block re-planned — then warm-start their submodel instead of
    /// crashing a fresh basis. Small bounded LRU; misses just solve cold.
    restricted_bases: Vec<(u64, WarmBasis)>,
}

// The parallel evaluation engine (`pretium-sim::par`) moves one session
// into each worker thread, so `SolverSession` must stay `Send + Sync`. A
// future field that loses those bounds — an `Rc` cache, a raw pointer —
// would silently force every sweep back to serial; fail the build instead.
const _: () = {
    const fn sealed<T: Send + Sync>() {}
    sealed::<SolverSession>();
    sealed::<SessionStats>();
};

impl SolverSession {
    /// Wrap a model in a fresh session (no saved basis; the first solve is
    /// cold).
    pub fn new(model: Model) -> Self {
        SolverSession {
            model,
            basis: None,
            pending: Mutations::default(),
            stats: SessionStats::default(),
            last_restart: None,
            solved_vars: 0,
            solved_rows: 0,
            last_solution: None,
            restricted_bases: Vec::new(),
        }
    }

    /// The wrapped model (read-only; mutate through the session methods).
    pub fn model(&self) -> &Model {
        &self.model
    }

    /// Unwrap the model, discarding the saved basis.
    pub fn into_model(self) -> Model {
        self.model
    }

    /// Mutation classes pending since the last solve.
    pub fn pending_mutations(&self) -> Mutations {
        self.pending
    }

    /// How the most recent solve restarted, if any solve has run.
    pub fn last_restart(&self) -> Option<Restart> {
        self.last_restart
    }

    /// Lifetime restart counters.
    pub fn stats(&self) -> SessionStats {
        self.stats
    }

    /// Fold counters measured outside the session into its stats. This is
    /// the hook for callers that do LP work *around* the session — the
    /// scheduler's column-generation oracle prices job blocks over the
    /// same sectioned pool — so it reports through the same record.
    pub fn merge_stats(&mut self, extra: SessionStats) {
        self.stats.merge(extra);
    }

    /// True when a basis from a previous solve is available for warm
    /// starting.
    pub fn has_basis(&self) -> bool {
        self.basis.is_some()
    }

    /// Drop the saved basis; the next solve runs cold. Also drops the
    /// cached solution, so the next solve really does run the simplex.
    pub fn invalidate(&mut self) {
        self.basis = None;
        self.last_solution = None;
    }

    /// The certified optimum of the current model state, if no mutation has
    /// been recorded since it was computed.
    pub fn cached_solution(&self) -> Option<&Solution> {
        if self.pending.is_clean() {
            self.last_solution.as_ref()
        } else {
            None
        }
    }

    /// Mutable solver options of the wrapped model (does not invalidate the
    /// basis).
    pub fn options_mut(&mut self) -> &mut SimplexOptions {
        self.model.options_mut()
    }

    // --- mutators (mirror Model, with mutation-class tracking) ------------

    /// See [`Model::add_var`].
    pub fn add_var(&mut self, name: &str, lb: f64, ub: f64, obj: f64) -> Var {
        self.pending.added_vars += 1;
        if obj != 0.0 {
            self.pending.obj = true;
        }
        self.model.add_var(name, lb, ub, obj)
    }

    /// See [`Model::add_nonneg`].
    pub fn add_nonneg(&mut self, name: &str, obj: f64) -> Var {
        self.add_var(name, 0.0, f64::INFINITY, obj)
    }

    /// See [`Model::add_free`].
    pub fn add_free(&mut self, name: &str, obj: f64) -> Var {
        self.add_var(name, f64::NEG_INFINITY, f64::INFINITY, obj)
    }

    /// See [`Model::add_row`].
    pub fn add_row(&mut self, name: &str, expr: impl Into<LinExpr>, cmp: Cmp, rhs: f64) -> RowId {
        self.pending.added_rows += 1;
        self.model.add_row(name, expr, cmp, rhs)
    }

    /// See [`Model::add_term`]. Warm-start compatible whenever the variable
    /// *or* the row was appended after the last solve: the saved basis never
    /// references the new column/row pairing, so extending the matrix there
    /// leaves it reusable (a fresh nonbasic column, or a fresh row whose
    /// slack is seated basic with dual zero). Retrofitting a coefficient
    /// between a pre-existing row and a pre-existing variable rewrites the
    /// factorized basis matrix itself, so the basis is discarded and the
    /// next solve runs cold.
    pub fn add_term(&mut self, r: RowId, v: Var, coef: f64) {
        self.pending.new_terms += 1;
        if v.index() < self.solved_vars && r.index() < self.solved_rows {
            self.invalidate();
        }
        self.model.add_term(r, v, coef);
    }

    /// See [`Model::set_obj`].
    pub fn set_obj(&mut self, v: Var, obj: f64) {
        self.pending.obj = true;
        self.model.set_obj(v, obj);
    }

    /// See [`Model::set_bounds`].
    pub fn set_bounds(&mut self, v: Var, lb: f64, ub: f64) {
        self.pending.bounds = true;
        self.model.set_bounds(v, lb, ub);
    }

    /// Pin `v` to the single value `x` (bounds `[x, x]`), *without* marking
    /// a pending mutation when the pin provably preserves the cached
    /// optimum: if the cached solution already has `v = x` (bitwise) and
    /// `x` lies inside the old bounds, fixing the variable there shrinks
    /// the feasible set while keeping the incumbent feasible — the cached
    /// primal/dual pair stays optimal (a fixed column's reduced cost is
    /// unconstrained). This is what lets a schedule session freeze already-
    /// executed timesteps at their planned values every step without
    /// forcing an LP re-solve when nothing actually moved.
    pub fn fix_at_value(&mut self, v: Var, x: f64) {
        let (lb, ub) = self.model.bounds(v);
        let already_pinned = lb == x && ub == x;
        let matches_cached =
            lb <= x && x <= ub && self.last_solution.as_ref().is_some_and(|s| s.value(v) == x);
        if !(already_pinned || matches_cached) {
            self.pending.bounds = true;
        }
        self.model.set_bounds(v, x, x);
    }

    /// See [`Model::set_rhs`].
    pub fn set_rhs(&mut self, r: RowId, rhs: f64) {
        self.pending.rhs = true;
        self.model.set_rhs(r, rhs);
    }

    /// See [`Model::add_obj_offset`].
    pub fn add_obj_offset(&mut self, c: f64) {
        self.pending.obj = true;
        self.model.add_obj_offset(c);
    }

    /// Append-only access to the underlying model, for helpers that build
    /// structure directly on a [`Model`] (e.g. encoding builders that add a
    /// block of variables and rows). Additions are counted into the pending
    /// mutation set afterwards by diffing the model dimensions.
    ///
    /// The closure must only *append*: add variables, add rows, and touch
    /// the entries it added. Mutating pre-existing coefficients, bounds,
    /// RHS values, or objective entries through this hook bypasses mutation
    /// tracking and can silently corrupt warm restarts — use the session's
    /// own mutators for those.
    pub fn append_with<R>(&mut self, f: impl FnOnce(&mut Model) -> R) -> R {
        let (nv, nr) = (self.model.num_vars(), self.model.num_rows());
        let out = f(&mut self.model);
        self.pending.added_vars += (self.model.num_vars() - nv) as u32;
        self.pending.added_rows += (self.model.num_rows() - nr) as u32;
        out
    }

    // --- solving ----------------------------------------------------------

    /// The simplex options a solve under `opts` actually runs with: the
    /// per-call override (or the model's stored options), with each nonzero
    /// [`SolverTuning`] knob substituted in (`max_etas` → `refactor_every`,
    /// `pricing_jobs` → `pricing_jobs`).
    fn effective_simplex(&self, opts: &SolveOptions) -> SimplexOptions {
        let mut simplex = opts.simplex.clone().unwrap_or_else(|| self.model.options().clone());
        if opts.tuning.max_etas != 0 {
            simplex.refactor_every = opts.tuning.max_etas;
        }
        if opts.tuning.pricing_jobs != 0 {
            simplex.pricing_jobs = opts.tuning.pricing_jobs;
        }
        simplex
    }

    /// Re-optimize, reusing the saved basis when possible.
    ///
    /// The restart that actually ran is readable via
    /// [`SolverSession::last_restart`]; the result is always the certified
    /// optimum of the current model (warm failures fall back to a cold
    /// solve internally).
    pub fn solve(&mut self, opts: &SolveOptions) -> Result<Solution, SolveError> {
        // Nothing mutated since the last certified optimum: the cached
        // solution *is* the answer — skip the simplex entirely. (The basis
        // requirement makes `invalidate()` force a real cold solve.)
        if !opts.force_cold && self.pending.is_clean() && self.basis.is_some() {
            if let Some(cached) = &self.last_solution {
                self.stats.cache_hits += 1;
                return Ok(cached.clone());
            }
        }
        let simplex = self.effective_simplex(opts);
        let warm = if opts.force_cold { None } else { self.basis.as_ref() };
        let (solution, basis, restart) = solve_model_session(&self.model, &simplex, warm)?;
        self.basis = Some(basis);
        self.stats.merge(solution.stats);
        self.stats.count_restart(restart);
        self.last_restart = Some(restart);
        self.pending = Mutations::default();
        self.solved_vars = self.model.num_vars();
        self.solved_rows = self.model.num_rows();
        self.last_solution = Some(solution.clone());
        Ok(solution)
    }

    /// Re-optimize only the columns *not* listed in `fixes`, holding every
    /// listed variable frozen at the given value, without touching the
    /// parent model, basis, or pending-mutation state.
    ///
    /// This is the block-decomposition primitive behind incremental SAM
    /// re-optimization: the schedule LP is block-angular (per-request
    /// schedule blocks coupled only through capacity and cost rows), so
    /// after a localized change the caller freezes every unaffected block
    /// at its current plan and re-solves just the affected columns against
    /// *residual* rows — each kept row's RHS is reduced by the frozen
    /// columns' contribution, and rows whose every column is frozen are
    /// dropped entirely (checked for primal feasibility at the frozen
    /// values instead).
    ///
    /// The extracted submodel is solved cold — it is small enough that a
    /// fresh factorization costs less than re-factorizing the full parent
    /// basis — and the result is assembled back into a parent-shaped
    /// composite [`Solution`]: frozen coordinates verbatim, free
    /// coordinates from the submodel optimum, duals of dropped rows
    /// inherited from the previous solution (and re-validated), and frozen
    /// columns' reduced costs recomputed against the composite duals
    /// (`d_j = c_j − yᵀA_j`).
    ///
    /// The composite is then *certified* against the full model's KKT
    /// conditions: every dropped row must be satisfied by the frozen
    /// values (within the feasibility tolerance) and every frozen column's
    /// reduced cost must not signal an improving move off its value
    /// (within `tol`). When the certificate holds, the composite is a
    /// proven optimum of the full model, and the session adopts it as its
    /// cached solution (pending mutations are cleared, so an unchanged
    /// follow-up [`SolverSession::solve`] is a cache hit). When it fails —
    /// the localized change actually propagated into a frozen block — the
    /// outcome reports `certified: false` with the composite untouched by
    /// the session; callers fall back to a full (warm) solve. The saved
    /// basis is never invalidated either way.
    pub fn solve_restricted(
        &mut self,
        fixes: &[(Var, f64)],
        tol: f64,
        opts: &SolveOptions,
    ) -> Result<RestrictedOutcome, SolveError> {
        let simplex = self.effective_simplex(opts);
        let feas_eps = simplex.feas_tol.max(tol);
        let n = self.model.num_vars();
        let mut fixed: Vec<Option<f64>> = vec![None; n];
        for &(v, x) in fixes {
            fixed[v.index()] = Some(x);
        }

        // Extract the submodel over the free columns.
        let mut sub = Model::new(self.model.sense);
        *sub.options_mut() = simplex;
        let mut to_sub: Vec<Option<Var>> = vec![None; n];
        let mut frozen_obj = self.model.obj_offset;
        // Submodel vars and rows are unnamed: names only serve diagnostics
        // on the parent model, and cloning a String per column is a
        // measurable share of the extraction cost on the hot path.
        for (j, d) in self.model.vars.iter().enumerate() {
            match fixed[j] {
                Some(x) => frozen_obj += d.obj * x,
                None => to_sub[j] = Some(sub.add_var("", d.lb, d.ub, d.obj)),
            }
        }
        sub.add_obj_offset(frozen_obj);

        // Kept rows get residual RHS; all-frozen rows are dropped from the
        // submodel (recorded with their frozen left-hand side) and must
        // hold primally at the frozen values.
        let mut kept: Vec<usize> = Vec::new();
        let mut dropped: Vec<(usize, f64)> = Vec::new();
        let mut primal_violation: f64 = 0.0;
        for (i, row) in self.model.rows.iter().enumerate() {
            let mut frozen_lhs = 0.0;
            let mut free = LinExpr::new();
            for &(j, c) in &row.terms {
                match fixed[j as usize] {
                    Some(x) => frozen_lhs += c * x,
                    None => free.add_term(c, to_sub[j as usize].expect("free var mapped")),
                }
            }
            if free.is_empty() {
                let viol = match row.cmp {
                    Cmp::Le => frozen_lhs - row.rhs,
                    Cmp::Ge => row.rhs - frozen_lhs,
                    Cmp::Eq => (frozen_lhs - row.rhs).abs(),
                };
                primal_violation = primal_violation.max(viol);
                dropped.push((i, frozen_lhs));
            } else {
                sub.add_row("", free, row.cmp, row.rhs - frozen_lhs);
                kept.push(i);
            }
        }
        let (sub_vars, sub_rows) = (sub.num_vars(), sub.num_rows());
        // The submodel's structure is a pure function of the parent's
        // dimensions and the frozen column set, so recurring freeze
        // patterns (a fault edge toggling, the same block re-planned) can
        // warm-start from the terminal basis of their previous submodel —
        // typically a handful of dual pivots instead of a cold crash.
        fn fnv(h: u64, x: u64) -> u64 {
            (h ^ x).wrapping_mul(0x100_0000_01b3)
        }
        let mut key = fnv(0xcbf2_9ce4_8422_2325, n as u64);
        key = fnv(key, self.model.num_rows() as u64);
        for (j, f) in fixed.iter().enumerate() {
            if f.is_some() {
                key = fnv(key, j as u64);
            }
        }
        let warm = self.restricted_bases.iter().find(|(k, _)| *k == key).map(|(_, b)| b);
        let (sub_sol, sub_basis, _restart) = solve_model_session(&sub, sub.options(), warm)?;
        if let Some(slot) = self.restricted_bases.iter_mut().find(|(k, _)| *k == key) {
            slot.1 = sub_basis;
        } else {
            let cap = if opts.tuning.restricted_basis_cache == 0 {
                DEFAULT_RESTRICTED_BASIS_CACHE
            } else {
                opts.tuning.restricted_basis_cache
            };
            while self.restricted_bases.len() >= cap {
                self.restricted_bases.remove(0);
            }
            self.restricted_bases.push((key, sub_basis));
        }
        self.stats.restricted += 1;
        self.stats.merge(sub_sol.stats);

        // Assemble the parent-shaped composite.
        let mut values = vec![0.0; n];
        let mut reduced_costs = vec![0.0; n];
        for j in 0..n {
            match fixed[j] {
                Some(x) => {
                    let d = &self.model.vars[j];
                    values[j] = x;
                    reduced_costs[j] = d.obj;
                    primal_violation = primal_violation.max(d.lb - x).max(x - d.ub);
                }
                None => {
                    let sv = to_sub[j].expect("free var mapped");
                    values[j] = sub_sol.values[sv.index()];
                    reduced_costs[j] = sub_sol.reduced_costs[sv.index()];
                }
            }
        }
        let mut duals = vec![0.0; self.model.num_rows()];
        for (si, &pi) in kept.iter().enumerate() {
            let y = sub_sol.duals[si];
            duals[pi] = y;
            if y != 0.0 {
                for &(j, c) in &self.model.rows[pi].terms {
                    if fixed[j as usize].is_some() {
                        reduced_costs[j as usize] -= y * c;
                    }
                }
            }
        }

        // Dropped rows carry no dual information from the sub-solve, but
        // frozen columns at an interior optimum need their private rows'
        // duals for their reduced costs to certify (a job at its demand
        // limit is supported by the demand row's dual). Complete the dual
        // vector heuristically — soundness comes from the certificate
        // below, which validates whatever this produces:
        //  1. inherit each dropped row's dual from the previous solution,
        //     projected onto the valid sign for the row's direction and
        //     zeroed where complementary slackness demands (slack row ⇒
        //     dual 0);
        //  2. only when the certificate fails at inherited duals,
        //     refinement sweeps re-aim the dual of each *adjustable*
        //     binding row so its first interior frozen column prices to
        //     zero — the private-support-shift case (a coupling row
        //     unbinding moves a column's support onto its private row)
        //     that pure inheritance cannot certify. Dropped rows are
        //     always adjustable; a kept row is adjustable when every free
        //     column in it sits at its lower bound — the sub-solve then
        //     pinned its dual only up to degeneracy (a shared capacity row
        //     the affected blocks place no flow on reads as slack-free to
        //     the submodel even though the frozen flow binds it), and
        //     moving the dual cannot un-price a basic free column. The
        //     certificate is re-run after the sweeps, so a bad re-aim
        //     fails closed; the common case (inherited duals already
        //     certify) skips the sweeps and their row scans entirely.
        let sense = self.model.sense;
        let project = |y: f64, cmp: Cmp| match (sense, cmp) {
            (_, Cmp::Eq) => y,
            (Sense::Maximize, Cmp::Le) | (Sense::Minimize, Cmp::Ge) => y.max(0.0),
            (Sense::Maximize, Cmp::Ge) | (Sense::Minimize, Cmp::Le) => y.min(0.0),
        };
        let interior = |j: usize, x: f64| {
            let d = &self.model.vars[j];
            x - d.lb > feas_eps && d.ub - x > feas_eps
        };
        for &(i, lhs) in &dropped {
            let row = &self.model.rows[i];
            let mut y =
                self.last_solution.as_ref().and_then(|s| s.duals.get(i).copied()).unwrap_or(0.0);
            if row.cmp != Cmp::Eq && (lhs - row.rhs).abs() > feas_eps {
                y = 0.0;
            }
            y = project(y, row.cmp);
            duals[i] = y;
            if y != 0.0 {
                for &(j, c) in &row.terms {
                    reduced_costs[j as usize] -= y * c;
                }
            }
        }
        // Certificate: no column — frozen at its value or free at the
        // sub-solve's optimum — may have an improving move its own bounds
        // would permit. Free columns were optimal against the *submodel*
        // duals; re-checking them here is what keeps the kept-row
        // re-aiming below sound.
        let rc_certificate = |values: &[f64], reduced_costs: &[f64]| -> f64 {
            let mut violation: f64 = 0.0;
            for j in 0..n {
                let x = values[j];
                let (lb, ub) = (self.model.vars[j].lb, self.model.vars[j].ub);
                let at_lb = x - lb <= feas_eps;
                let at_ub = ub - x <= feas_eps;
                let d = reduced_costs[j];
                // Improvement direction depends on the sense: for Maximize
                // a positive reduced cost rewards raising x, for Minimize a
                // negative one does; the mirrored term covers lowering x.
                let (up, down) = match sense {
                    Sense::Maximize => (d, -d),
                    Sense::Minimize => (-d, d),
                };
                if !at_ub {
                    violation = violation.max(up);
                }
                if !at_lb {
                    violation = violation.max(down);
                }
            }
            violation
        };
        let mut rc_violation = rc_certificate(&values, &reduced_costs);
        if rc_violation > tol {
            let mut adjustable: Vec<usize> = Vec::new();
            for &(i, lhs) in &dropped {
                let row = &self.model.rows[i];
                if row.cmp == Cmp::Eq || (lhs - row.rhs).abs() <= feas_eps {
                    adjustable.push(i);
                }
            }
            for &pi in &kept {
                let row = &self.model.rows[pi];
                let mut lhs = 0.0;
                let mut has_frozen = false;
                let mut free_at_lb = true;
                for &(j, c) in &row.terms {
                    let x = values[j as usize];
                    lhs += c * x;
                    if fixed[j as usize].is_some() {
                        has_frozen = true;
                    } else if x - self.model.vars[j as usize].lb > feas_eps {
                        free_at_lb = false;
                    }
                }
                if has_frozen
                    && free_at_lb
                    && (row.cmp == Cmp::Eq || (lhs - row.rhs).abs() <= feas_eps)
                {
                    adjustable.push(pi);
                }
            }
            for _ in 0..3 {
                for &i in &adjustable {
                    let row = &self.model.rows[i];
                    let Some((j0, a0)) = row.terms.iter().find_map(|&(j, c)| {
                        (c != 0.0
                            && fixed[j as usize].is_some()
                            && interior(j as usize, values[j as usize]))
                        .then_some((j as usize, c))
                    }) else {
                        continue;
                    };
                    let new_y = project(duals[i] + reduced_costs[j0] / a0, row.cmp);
                    let delta = new_y - duals[i];
                    if delta != 0.0 {
                        duals[i] = new_y;
                        for &(j, c) in &row.terms {
                            reduced_costs[j as usize] -= delta * c;
                        }
                    }
                }
            }
            rc_violation = rc_certificate(&values, &reduced_costs);
        }
        let certified = primal_violation <= feas_eps && rc_violation <= tol;
        let solution = Solution {
            status: sub_sol.status,
            objective: sub_sol.objective,
            values,
            duals,
            reduced_costs,
            stats: sub_sol.stats,
        };
        if certified {
            // The composite is a proven optimum of the *current* model
            // state: adopt it exactly like a full solve would, minus the
            // basis snapshot (the saved parent basis stays warm-start
            // valid for whatever full solve comes next).
            self.last_solution = Some(solution.clone());
            self.pending = Mutations::default();
            self.solved_vars = self.model.num_vars();
            self.solved_rows = self.model.num_rows();
        }
        Ok(RestrictedOutcome {
            solution,
            certified,
            max_violation: primal_violation.max(rc_violation),
            sub_vars,
            sub_rows,
        })
    }

    // --- lazy generation --------------------------------------------------

    /// Append rows produced by a [`RowGen`] oracle through the session's
    /// tracked growth path, returning `(key, row)` pairs in insertion
    /// order. Appended rows seat their slack in the basis, so the next
    /// solve restarts warm (dual).
    pub fn add_generated_rows(&mut self, requests: Vec<RowRequest>) -> Vec<(u64, RowId)> {
        requests
            .into_iter()
            .map(|r| {
                let id = self.add_row(&r.name, r.expr, r.cmp, r.rhs);
                (r.key, id)
            })
            .collect()
    }

    /// Append columns produced by a [`ColGen`] oracle through the session's
    /// tracked growth path, returning `(key, var)` pairs in insertion
    /// order. Each column lands as a fresh variable retrofitted into its
    /// (pre-existing) rows — warm-safe, because the saved basis never
    /// references the new column. Counts the columns into
    /// [`SessionStats::columns_generated`] and, when the batch is
    /// non-empty, one restricted-master round into
    /// [`SessionStats::colgen_rounds`].
    pub fn add_generated_cols(&mut self, requests: Vec<ColRequest>) -> Vec<(u64, Var)> {
        if !requests.is_empty() {
            self.stats.colgen_rounds += 1;
        }
        requests
            .into_iter()
            .map(|c| {
                let v = self.add_var(&c.name, c.lb, c.ub, c.obj);
                for (r, coef) in c.terms {
                    self.add_term(r, v, coef);
                }
                self.stats.columns_generated += 1;
                (c.key, v)
            })
            .collect()
    }

    /// The unified generation loop: solve the restricted model **warm**,
    /// ask the row oracle for violated rows and the column oracle for
    /// columns that price out against the same tentative optimum, append
    /// both, and repeat until neither side generates. The terminal
    /// solution is then optimal for the full problem: absent rows are
    /// satisfied with dual zero, absent columns are nonbasic at bound with
    /// unfavorable reduced cost — the terminal duals are the certificate.
    ///
    /// Both oracles must be monotone (never retract, never repeat). Rows
    /// and columns generated in the same round are appended rows-first, so
    /// a column request may reference a row id returned by *earlier*
    /// rounds but not one generated in the same round.
    pub fn solve_gen(
        &mut self,
        rows: &mut dyn RowGen,
        cols: &mut dyn ColGen,
        opts: &SolveOptions,
    ) -> Result<GenOutcome, SolveError> {
        let max_rounds = if opts.max_rounds == 0 { DEFAULT_MAX_ROUNDS } else { opts.max_rounds };
        let mut generated_rows = Vec::new();
        let mut generated_cols = Vec::new();
        let mut rounds = 0;
        loop {
            rounds += 1;
            let solution = self.solve(opts)?;
            let new_rows = rows.violated(&self.model, &solution);
            let new_cols = cols.priced(&self.model, &solution);
            if new_rows.is_empty() && new_cols.is_empty() {
                return Ok(GenOutcome { solution, generated_rows, generated_cols, rounds });
            }
            if rounds >= max_rounds {
                return Err(SolveError::IterationLimit { iterations: rounds as u64 });
            }
            generated_rows.extend(self.add_generated_rows(new_rows));
            generated_cols.extend(self.add_generated_cols(new_cols));
        }
    }

    /// Solve with lazy row generation only: [`SolverSession::solve_gen`]
    /// with [`NoGen`] on the column side. Semantics match the
    /// row-generation contract of [`crate::lazy`].
    pub fn solve_lazy(
        &mut self,
        gen: &mut dyn RowGen,
        opts: &SolveOptions,
    ) -> Result<GenOutcome, SolveError> {
        self.solve_gen(gen, &mut NoGen, opts)
    }

    /// Solve with column generation only: [`SolverSession::solve_gen`]
    /// with [`NoGen`] on the row side. Each round re-solves the restricted
    /// master warm from the saved basis and hands the duals to the pricing
    /// oracle; the loop ends when no column prices out.
    pub fn solve_colgen(
        &mut self,
        gen: &mut dyn ColGen,
        opts: &SolveOptions,
    ) -> Result<GenOutcome, SolveError> {
        self.solve_gen(&mut NoGen, gen, opts)
    }
}

impl From<Model> for SolverSession {
    fn from(model: Model) -> Self {
        SolverSession::new(model)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Sense, Status};

    fn toy() -> (SolverSession, Var, Var, RowId, RowId) {
        // max 3x + 2y  s.t.  x + y <= 4,  x + 3y <= 6
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_nonneg("x", 3.0);
        let y = m.add_nonneg("y", 2.0);
        let r1 = m.add_row("r1", x + y, Cmp::Le, 4.0);
        let r2 = m.add_row("r2", 1.0 * x + 3.0 * y, Cmp::Le, 6.0);
        (SolverSession::new(m), x, y, r1, r2)
    }

    #[test]
    fn unusable_warm_basis_counts_a_fallback() {
        use crate::simplex::{BasisKey, WarmBasis};
        let (mut s, x, ..) = toy();
        s.solve(&SolveOptions::default()).unwrap();
        s.set_obj(x, 4.0);
        // A key past the model's columns: `resolve_warm` rejects it.
        s.basis = Some(WarmBasis {
            keys: vec![BasisKey::Struct(99)],
            nb_struct: Vec::new(),
            nb_slack: Vec::new(),
        });
        let sol = s.solve(&SolveOptions::default()).unwrap();
        assert_eq!(s.last_restart(), Some(Restart::Cold));
        assert_eq!(sol.stats().warm_fallbacks, 1);
        assert_eq!(s.stats().warm_fallbacks, 1);
        assert_eq!(s.stats().cold_starts, 2);
        assert!((sol.objective() - 16.0).abs() < 1e-7);
    }

    #[test]
    fn first_solve_is_cold_then_rhs_change_restarts_dual() {
        let (mut s, x, _y, r1, _r2) = toy();
        let sol = s.solve(&SolveOptions::default()).unwrap();
        assert_eq!(sol.status(), Status::Optimal);
        assert!((sol.objective() - 12.0).abs() < 1e-7);
        assert_eq!(s.last_restart(), Some(Restart::Cold));

        // Relaxing r1 past what r2 allows pushes the old basis out of primal
        // feasibility (the r2 slack would go negative): dual restart.
        s.set_rhs(r1, 7.0);
        let sol2 = s.solve(&SolveOptions::default()).unwrap();
        assert!((sol2.objective() - 18.0).abs() < 1e-7);
        assert!((sol2.value(x) - 6.0).abs() < 1e-7);
        assert_eq!(s.last_restart(), Some(Restart::WarmDual));
        assert_eq!(s.stats().cold_starts, 1);
        assert_eq!(s.stats().warm_dual, 1);
    }

    #[test]
    fn rhs_slide_within_bounds_restarts_primal() {
        // Moving a binding RHS while every basic variable stays inside its
        // bounds keeps the basis primal feasible — no dual pass needed.
        let (mut s, x, _y, r1, _r2) = toy();
        s.solve(&SolveOptions::default()).unwrap();
        s.set_rhs(r1, 3.0);
        let sol = s.solve(&SolveOptions::default()).unwrap();
        assert!((sol.objective() - 9.0).abs() < 1e-7);
        assert!((sol.value(x) - 3.0).abs() < 1e-7);
        assert_eq!(s.last_restart(), Some(Restart::WarmPrimal));
    }

    #[test]
    fn obj_change_restarts_primal() {
        let (mut s, _x, y, _r1, _r2) = toy();
        s.solve(&SolveOptions::default()).unwrap();
        // Make y the attractive variable; the old basis stays primal
        // feasible so the restart must be primal.
        s.set_obj(y, 10.0);
        let sol = s.solve(&SolveOptions::default()).unwrap();
        assert_eq!(s.last_restart(), Some(Restart::WarmPrimal));
        // New optimum: y = 2 on r2, x = 0 → 20.
        assert!((sol.objective() - 20.0).abs() < 1e-7, "{}", sol.objective());
    }

    #[test]
    fn added_row_restarts_dual() {
        let (mut s, x, _y, _r1, _r2) = toy();
        let sol = s.solve(&SolveOptions::default()).unwrap();
        assert!((sol.value(x) - 4.0).abs() < 1e-7);
        // Cut off the current optimum.
        s.add_row("cut", 1.0 * x, Cmp::Le, 2.0);
        let sol2 = s.solve(&SolveOptions::default()).unwrap();
        assert_eq!(s.last_restart(), Some(Restart::WarmDual));
        assert!(sol2.value(x) <= 2.0 + 1e-7);
        // Agrees with a cold solve of the same model.
        let cold = s.model().solve().unwrap();
        assert!((sol2.objective() - cold.objective()).abs() < 1e-7);
    }

    #[test]
    fn added_var_reoptimizes_correctly() {
        let (mut s, _x, _y, r1, _r2) = toy();
        s.solve(&SolveOptions::default()).unwrap();
        // A new, very profitable variable entering r1.
        let z = s.add_var("z", 0.0, f64::INFINITY, 9.0);
        // It must participate in an existing row to be bounded — rebuild the
        // row relationship via a fresh row.
        s.add_row("zcap", 1.0 * z, Cmp::Le, 1.0);
        let sol = s.solve(&SolveOptions::default()).unwrap();
        let cold = s.model().solve().unwrap();
        assert!((sol.objective() - cold.objective()).abs() < 1e-7);
        assert!((sol.value(z) - 1.0).abs() < 1e-7);
        let _ = r1;
    }

    #[test]
    fn added_var_enters_existing_row_warm() {
        let (mut s, x, y, r1, _r2) = toy();
        s.solve(&SolveOptions::default()).unwrap();
        // New variable competing for r1's capacity: the column is fresh, so
        // the saved basis stays valid and the re-solve is warm.
        let z = s.add_var("z", 0.0, f64::INFINITY, 9.0);
        s.add_term(r1, z, 1.0);
        let sol = s.solve(&SolveOptions::default()).unwrap();
        assert_ne!(s.last_restart(), Some(Restart::Cold));
        let cold = s.model().solve().unwrap();
        assert!((sol.objective() - cold.objective()).abs() < 1e-7);
        // z (value 9) displaces x and y (values 3, 2) on r1 entirely.
        assert!((sol.value(z) - 4.0).abs() < 1e-7);
        let _ = (x, y);
    }

    #[test]
    fn retrofitting_old_column_invalidates_basis() {
        let (mut s, x, _y, _r1, r2) = toy();
        s.solve(&SolveOptions::default()).unwrap();
        assert!(s.has_basis());
        // x already exists and r2 already exists: the basis matrix changes.
        s.add_term(r2, x, 1.0);
        assert!(!s.has_basis());
        let sol = s.solve(&SolveOptions::default()).unwrap();
        assert_eq!(s.last_restart(), Some(Restart::Cold));
        let cold = s.model().solve().unwrap();
        assert!((sol.objective() - cold.objective()).abs() < 1e-7);
    }

    #[test]
    fn force_cold_ignores_basis() {
        let (mut s, _x, _y, r1, _r2) = toy();
        s.solve(&SolveOptions::default()).unwrap();
        s.set_rhs(r1, 3.0);
        let opts = SolveOptions { force_cold: true, ..Default::default() };
        s.solve(&opts).unwrap();
        assert_eq!(s.last_restart(), Some(Restart::Cold));
    }

    #[test]
    fn mutation_tracking_and_reset() {
        let (mut s, x, _y, r1, _r2) = toy();
        assert!(s.pending_mutations().is_clean());
        s.set_rhs(r1, 5.0);
        s.set_bounds(x, 0.0, 3.0);
        let m = s.pending_mutations();
        assert!(m.rhs && m.bounds && !m.obj);
        s.solve(&SolveOptions::default()).unwrap();
        assert!(s.pending_mutations().is_clean());
    }

    #[test]
    fn infeasible_after_bound_fix_reported() {
        let (mut s, x, y, _r1, _r2) = toy();
        s.solve(&SolveOptions::default()).unwrap();
        // Force x + y >= 9 while x,y <= 4 each: infeasible.
        s.add_row("floor", x + y, Cmp::Ge, 9.0);
        s.set_bounds(x, 0.0, 4.0);
        s.set_bounds(y, 0.0, 4.0);
        let err = s.solve(&SolveOptions::default()).unwrap_err();
        assert!(matches!(err, SolveError::Infeasible { .. }), "{err}");
    }

    #[test]
    fn unchanged_resolve_is_a_cache_hit() {
        let (mut s, _x, _y, r1, _r2) = toy();
        let first = s.solve(&SolveOptions::default()).unwrap();
        let again = s.solve(&SolveOptions::default()).unwrap();
        // Bit-for-bit the same answer, zero additional simplex work.
        assert_eq!(first.values(), again.values());
        assert_eq!(first.duals(), again.duals());
        assert_eq!(s.stats().solves, 1);
        assert_eq!(s.stats().cache_hits, 1);
        // A mutation ends the cache's validity.
        s.set_rhs(r1, 5.0);
        s.solve(&SolveOptions::default()).unwrap();
        assert_eq!(s.stats().solves, 2);
        assert_eq!(s.stats().cache_hits, 1);
    }

    #[test]
    fn force_cold_bypasses_cache() {
        let (mut s, _x, _y, _r1, _r2) = toy();
        s.solve(&SolveOptions::default()).unwrap();
        let opts = SolveOptions { force_cold: true, ..Default::default() };
        s.solve(&opts).unwrap();
        assert_eq!(s.stats().cache_hits, 0);
        assert_eq!(s.stats().cold_starts, 2);
    }

    #[test]
    fn fix_at_cached_value_preserves_cache() {
        let (mut s, x, y, _r1, _r2) = toy();
        let sol = s.solve(&SolveOptions::default()).unwrap();
        // Pinning variables at their optimal values provably changes
        // nothing — the next solve is a pure cache hit.
        s.fix_at_value(x, sol.value(x));
        s.fix_at_value(y, sol.value(y));
        assert!(s.pending_mutations().is_clean());
        s.solve(&SolveOptions::default()).unwrap();
        assert_eq!(s.stats().cache_hits, 1);
        // Pinning off the cached value is a real bound mutation.
        s.fix_at_value(x, 1.0);
        assert!(s.pending_mutations().bounds);
        let sol2 = s.solve(&SolveOptions::default()).unwrap();
        assert!((sol2.value(x) - 1.0).abs() < 1e-9);
        assert_eq!(s.stats().cache_hits, 1);
    }

    /// Two independent blocks coupled by one shared capacity row — the
    /// miniature of the SAM block-angular structure. Freezing the untouched
    /// block and re-solving the other against the residual must certify and
    /// agree with the full re-solve.
    fn coupled() -> (SolverSession, Var, Var, RowId, RowId, RowId) {
        // max 3a + 2b  s.t.  a <= 4 (da), b <= 6 (db), a + b <= 8 (shared)
        let mut m = Model::new(Sense::Maximize);
        let a = m.add_nonneg("a", 3.0);
        let b = m.add_nonneg("b", 2.0);
        let da = m.add_row("da", 1.0 * a, Cmp::Le, 4.0);
        let db = m.add_row("db", 1.0 * b, Cmp::Le, 6.0);
        let shared = m.add_row("shared", a + b, Cmp::Le, 8.0);
        (SolverSession::new(m), a, b, da, db, shared)
    }

    #[test]
    fn restricted_solve_certifies_and_matches_full() {
        let (mut s, a, b, _da, db, _shared) = coupled();
        let sol = s.solve(&SolveOptions::default()).unwrap();
        // Optimum: a = 4 (da binding), b = 4 (shared binding).
        assert!((sol.value(a) - 4.0).abs() < 1e-7);
        assert!((sol.value(b) - 4.0).abs() < 1e-7);

        // Localized change in b's block: tighten db below b's current use.
        s.set_rhs(db, 3.0);
        let frozen_a = sol.value(a);
        let out = s.solve_restricted(&[(a, frozen_a)], 1e-7, &SolveOptions::default()).unwrap();
        assert!(out.certified, "violation {}", out.max_violation);
        assert_eq!(out.sub_vars, 1);
        // a's block froze bitwise; b re-optimized against the residual.
        assert_eq!(out.solution.value(a), frozen_a);
        assert!((out.solution.value(b) - 3.0).abs() < 1e-7);
        // Agrees with the full re-solve of the same mutated model.
        let full = s.model().solve().unwrap();
        assert!((out.solution.objective() - full.objective()).abs() < 1e-7);
        // A certified restricted solve is adopted: nothing pending, and an
        // unchanged follow-up solve is answered from cache.
        assert!(s.pending_mutations().is_clean());
        let next = s.solve(&SolveOptions::default()).unwrap();
        assert_eq!(next.values(), out.solution.values());
        assert_eq!(s.stats().cache_hits, 1);
    }

    #[test]
    fn restricted_solve_completes_dropped_row_duals() {
        // Freeze a at its optimum where the *dropped* row `da` is what
        // supports a's reduced cost (rc_a = 3 − y_da − y_shared). The
        // localized change unbinds the shared row, shifting a's support
        // entirely onto its private row — the dual-completion sweep must
        // re-aim y_da or the certificate would spuriously fail on a
        // perfectly optimal freeze.
        let (mut s, a, _b, da, db, _shared) = coupled();
        let sol = s.solve(&SolveOptions::default()).unwrap();
        s.set_rhs(db, 3.5);
        let out = s.solve_restricted(&[(a, sol.value(a))], 1e-7, &SolveOptions::default()).unwrap();
        assert!(out.certified, "violation {}", out.max_violation);
        assert!(out.solution.dual(da) > 0.0, "inherited dual lost");
        // The frozen column's recomputed reduced cost matches what a full
        // solve reports for the same model (sign-convention pin).
        let full = s.model().solve().unwrap();
        assert!(
            (out.solution.reduced_cost(a) - full.reduced_cost(a)).abs() < 1e-7,
            "rc {} vs full {}",
            out.solution.reduced_cost(a),
            full.reduced_cost(a)
        );
    }

    #[test]
    fn restricted_solve_detects_stale_freeze() {
        let (mut s, a, b, _da, _db, _shared) = coupled();
        s.solve(&SolveOptions::default()).unwrap();
        // Freeze a somewhere clearly suboptimal (interior, rc > 0): the
        // certificate must refuse, and the session must adopt nothing.
        let pending_before = s.pending_mutations();
        let out = s.solve_restricted(&[(a, 1.0)], 1e-7, &SolveOptions::default()).unwrap();
        assert!(!out.certified);
        assert!(out.max_violation > 1e-3, "violation {}", out.max_violation);
        assert_eq!(s.pending_mutations(), pending_before);
        let _ = b;
    }

    #[test]
    fn restricted_solve_flags_infeasible_frozen_rows() {
        let (mut s, a, b, da, _db, _shared) = coupled();
        s.solve(&SolveOptions::default()).unwrap();
        // Tighten a's private row below its frozen value: the dropped row
        // is primally violated, so the composite cannot certify.
        s.set_rhs(da, 2.0);
        let out = s.solve_restricted(&[(a, 4.0)], 1e-7, &SolveOptions::default()).unwrap();
        assert!(!out.certified);
        assert!(out.max_violation >= 2.0 - 1e-9);
        let _ = b;
    }

    #[test]
    fn lazy_rounds_reuse_basis() {
        // max x + y, hidden rows generated lazily.
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", 0.0, 10.0, 1.0);
        let y = m.add_var("y", 0.0, 10.0, 1.0);
        let mut s = SolverSession::new(m);
        let hidden: Vec<(LinExpr, f64, u64)> =
            vec![(LinExpr::from(x), 3.0, 0), (LinExpr::from(y), 2.0, 1), (x + y, 4.0, 2)];
        let mut returned: rand::DetHashSet<u64> = Default::default();
        let mut gen = move |_: &Model, sol: &Solution| {
            let mut out = Vec::new();
            for (e, rhs, k) in &hidden {
                if !returned.contains(k) && e.eval(sol.values()) > rhs + 1e-7 {
                    returned.insert(*k);
                    out.push(crate::lazy::RowRequest {
                        name: format!("h{k}"),
                        expr: e.clone(),
                        cmp: Cmp::Le,
                        rhs: *rhs,
                        key: *k,
                    });
                }
            }
            out
        };
        let out = s.solve_lazy(&mut gen, &SolveOptions::default()).unwrap();
        assert!((out.solution.objective() - 4.0).abs() < 1e-7);
        assert!(out.rounds >= 2);
        // Only the first round was cold.
        assert_eq!(s.stats().cold_starts, 1);
        assert!(s.stats().warm_dual >= 1, "{:?}", s.stats());
        // Pure row generation reports no columns.
        assert!(out.generated_cols.is_empty());
        assert_eq!(s.stats().columns_generated, 0);
    }

    #[test]
    fn max_etas_overrides_refactor_cadence() {
        // A tiny max_etas forces refactorization every iteration — the
        // solve must still reach the same certified optimum.
        let (mut s, _x, _y, _r1, _r2) = toy();
        let opts = SolveOptions {
            tuning: SolverTuning { max_etas: 1, ..Default::default() },
            ..Default::default()
        };
        let sol = s.solve(&opts).unwrap();
        assert!((sol.objective() - 12.0).abs() < 1e-7);
        // And the default (0) leaves the model's cadence untouched.
        let eff = s.effective_simplex(&SolveOptions::default());
        assert_eq!(eff.refactor_every, s.model().options().refactor_every);
        let eff1 = s.effective_simplex(&opts);
        assert_eq!(eff1.refactor_every, 1);
    }

    #[test]
    fn default_cadence_is_the_shared_constant() {
        // The `0 → default` resolution lives in one place:
        // `basis::DEFAULT_MAX_ETAS` seeds the simplex default cadence, and
        // `Factorization::new` substitutes it for a literal zero.
        assert_eq!(
            SimplexOptions::default().refactor_every,
            crate::simplex::basis::DEFAULT_MAX_ETAS
        );
    }

    #[test]
    fn factor_counters_flow_into_session_stats() {
        let (mut s, _x, _y, _r1, _r2) = toy();
        s.solve(&SolveOptions::default()).unwrap();
        let st = s.stats();
        assert!(st.refactors >= 1, "cold solve refactorizes: {st:?}");
        assert!(st.basis_nnz >= 1 && st.factor_nnz >= st.basis_nnz, "{st:?}");
    }

    #[test]
    fn restricted_solves_resolve_zero_cadence_to_default() {
        // Sessions spun up internally by `solve_restricted` must inherit
        // the same `0 → DEFAULT_MAX_ETAS` resolution as top-level solves.
        let run = |cadence: usize| {
            let (mut s, a, _b, _da, db, _shared) = coupled();
            let sol = s.solve(&SolveOptions::default()).unwrap();
            s.set_rhs(db, 3.0);
            let opts = SolveOptions {
                simplex: Some(SimplexOptions {
                    refactor_every: cadence,
                    ..SimplexOptions::default()
                }),
                ..Default::default()
            };
            let before = s.stats();
            let out = s.solve_restricted(&[(a, sol.value(a))], 1e-7, &opts).unwrap();
            assert!(out.certified);
            (out.solution.objective(), s.stats().refactors - before.refactors)
        };
        // A literal zero must behave exactly like the shared default —
        // same optimum, same refactorization count — because the
        // resolution happens once, inside `Factorization::new`.
        let zero = run(0);
        let default = run(crate::simplex::basis::DEFAULT_MAX_ETAS);
        assert_eq!(zero, default);
        // And a cadence of 1 genuinely changes the sub-solve's behavior,
        // proving the override reaches the kernel (not just the options).
        let tight = run(1);
        assert!(tight.1 >= zero.1, "cadence 1 refactors at least as often");

        // `pricing_jobs` rides the same inheritance path: restricted
        // sub-solves pick it up through `effective_simplex`, zero resolves
        // to the serial default, and any worker count must reproduce the
        // serial objective bitwise (the parallel layer reduces in section
        // order — DESIGN.md §19).
        let par = |jobs: usize| {
            let (mut s, a, _b, _da, db, _shared) = coupled();
            let sol = s.solve(&SolveOptions::default()).unwrap();
            s.set_rhs(db, 3.0);
            let opts = SolveOptions {
                tuning: SolverTuning { pricing_jobs: jobs, ..Default::default() },
                ..Default::default()
            };
            let eff = s.effective_simplex(&opts);
            assert_eq!(eff.pricing_jobs, if jobs == 0 { 1 } else { jobs });
            let out = s.solve_restricted(&[(a, sol.value(a))], 1e-7, &opts).unwrap();
            assert!(out.certified);
            out.solution.objective().to_bits()
        };
        assert_eq!(par(0), par(8));
    }

    #[test]
    fn restricted_basis_cache_capacity_is_configurable() {
        let (mut s, a, _b, _da, db, _shared) = coupled();
        let sol = s.solve(&SolveOptions::default()).unwrap();
        let opts = SolveOptions {
            tuning: SolverTuning { restricted_basis_cache: 1, ..Default::default() },
            ..Default::default()
        };
        // Two distinct freeze patterns under capacity 1: the LRU holds at
        // most one terminal basis.
        s.set_rhs(db, 3.0);
        s.solve_restricted(&[(a, sol.value(a))], 1e-7, &opts).unwrap();
        assert_eq!(s.restricted_bases.len(), 1);
        let first_key = s.restricted_bases[0].0;
        s.solve_restricted(&[], 1e-7, &opts).unwrap();
        assert_eq!(s.restricted_bases.len(), 1);
        assert_ne!(s.restricted_bases[0].0, first_key, "older pattern evicted");
    }
}
