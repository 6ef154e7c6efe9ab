//! Solver results: status, primal/dual values, and error types.

use crate::expr::Var;
use crate::model::RowId;
use crate::session::SessionStats;
use std::fmt;

/// Termination status of a solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// An optimal basic solution was found.
    Optimal,
    /// The constraints admit no feasible point.
    Infeasible,
    /// The objective is unbounded over the feasible region.
    Unbounded,
}

/// Errors surfaced by [`crate::Model::solve`].
#[derive(Debug, Clone, PartialEq)]
pub enum SolveError {
    /// No feasible point exists; carries the phase-1 infeasibility residual.
    Infeasible { residual: f64 },
    /// Objective unbounded; carries the name of a variable with an
    /// unbounded improving ray.
    Unbounded { var: String },
    /// The iteration limit was exceeded before reaching optimality.
    IterationLimit { iterations: u64 },
    /// A row/column generation loop used up its round cap while an oracle
    /// still produced rows or columns.
    RoundLimit { rounds: u32 },
    /// Numerical failure (singular basis that could not be repaired).
    Numerical(String),
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::Infeasible { residual } => {
                write!(f, "infeasible (phase-1 residual {residual:.3e})")
            }
            SolveError::Unbounded { var } => write!(f, "unbounded along variable `{var}`"),
            SolveError::IterationLimit { iterations } => {
                write!(f, "iteration limit reached after {iterations} iterations")
            }
            SolveError::RoundLimit { rounds } => {
                write!(f, "generation round limit reached after {rounds} rounds")
            }
            SolveError::Numerical(msg) => write!(f, "numerical failure: {msg}"),
        }
    }
}

impl std::error::Error for SolveError {}

/// An optimal solution: primal values, row duals, and reduced costs.
///
/// Dual sign convention: `dual(row)` is the derivative of the optimal
/// objective with respect to the row's right-hand side, **in the model's
/// own sense**. For a `Maximize` model, a binding `<=` row therefore has a
/// non-negative dual (relaxing the row helps), and a binding `>=` row a
/// non-positive one. For `Minimize` models signs flip accordingly.
#[derive(Debug, Clone)]
pub struct Solution {
    pub(crate) status: Status,
    pub(crate) objective: f64,
    pub(crate) values: Vec<f64>,
    pub(crate) duals: Vec<f64>,
    pub(crate) reduced_costs: Vec<f64>,
    pub(crate) stats: SessionStats,
}

impl Solution {
    /// Termination status (always [`Status::Optimal`] for solutions returned
    /// from `solve`; errors are reported via [`SolveError`]).
    pub fn status(&self) -> Status {
        self.status
    }

    /// Optimal objective value (in the model's sense, including any
    /// objective offset).
    pub fn objective(&self) -> f64 {
        self.objective
    }

    /// Value of a variable at the optimum.
    pub fn value(&self, v: Var) -> f64 {
        self.values[v.index()]
    }

    /// All variable values, indexed densely by [`Var::index`].
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Dual value (shadow price) of a row. See the type-level docs for the
    /// sign convention.
    pub fn dual(&self, r: RowId) -> f64 {
        self.duals[r.index()]
    }

    /// All row duals, indexed densely by [`RowId::index`].
    pub fn duals(&self) -> &[f64] {
        &self.duals
    }

    /// Reduced cost of a variable at the optimum (model sense): the rate of
    /// objective change per unit increase of the variable off its bound.
    pub fn reduced_cost(&self, v: Var) -> f64 {
        self.reduced_costs[v.index()]
    }

    /// LP counters of the simplex run behind this solution: iterations,
    /// pricing work, basis-factorization counters, and any warm fallback
    /// or numerical retry. The restart-class and session-level fields
    /// stay zero; a [`crate::SolverSession`] adds those to its own total.
    pub fn stats(&self) -> SessionStats {
        self.stats
    }
}
