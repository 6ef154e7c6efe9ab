//! Lazy generation oracles: violated rows and priced columns.
//!
//! Pretium's scheduling LPs are sparse in both directions. One capacity row
//! exists per `(link, timestep)` pair — `|E|·T` rows, of which only the
//! congested few percent ever bind — and one flow column exists per
//! `(path, timestep)` pair, of which only a few percent ever carry flow at
//! paper scale. Instead of materializing either side up front, the session
//! solves a *restricted* model and grows it on demand through two symmetric
//! oracles:
//!
//! * a [`RowGen`] inspects a tentative optimum and returns rows it
//!   **violates** (the separation problem). Rows never generated are
//!   satisfied at the final optimum and have dual zero by construction.
//! * a [`ColGen`] inspects the duals of a restricted-master optimum and
//!   returns absent columns with **favorable reduced cost** (the pricing
//!   problem). Columns never generated are nonbasic at bound by
//!   construction, so the terminal duals certify optimality over the full
//!   column universe.
//!
//! [`crate::SolverSession::solve_gen`] runs both oracles against the same
//! session in one loop (warm-starting every round from the saved basis);
//! [`crate::SolverSession::solve_lazy`] and
//! [`crate::SolverSession::solve_colgen`] are the one-sided entry points,
//! each passing [`NoGen`] for the silent side. All three return the shared
//! [`GenOutcome`] shape.

use crate::expr::Var;
use crate::model::{Cmp, Model, RowId};
use crate::solution::Solution;
use crate::LinExpr;

/// One row requested by a [`RowGen`].
#[derive(Debug, Clone)]
pub struct RowRequest {
    pub name: String,
    pub expr: LinExpr,
    pub cmp: Cmp,
    pub rhs: f64,
    /// Caller-chosen key so duals of generated rows can be identified later
    /// (e.g. the `(link, timestep)` pair of a capacity row).
    pub key: u64,
}

/// Generates rows violated by a tentative solution (the separation oracle).
pub trait RowGen {
    /// Inspect `sol` and return rows it violates (empty when none). The
    /// callback must be *monotone*: it may not retract rows it returned
    /// before (they stay in the model).
    fn violated(&mut self, model: &Model, sol: &Solution) -> Vec<RowRequest>;
}

impl<F> RowGen for F
where
    F: FnMut(&Model, &Solution) -> Vec<RowRequest>,
{
    fn violated(&mut self, model: &Model, sol: &Solution) -> Vec<RowRequest> {
        self(model, sol)
    }
}

/// One column requested by a [`ColGen`].
///
/// The column's coefficients land in *existing* rows — pairing a fresh
/// column with pre-existing rows is the warm-safe growth direction (the
/// saved basis never references the new column, so it enters nonbasic at
/// bound and the next solve restarts warm).
#[derive(Debug, Clone)]
pub struct ColRequest {
    pub name: String,
    pub lb: f64,
    pub ub: f64,
    /// Objective coefficient of the new column.
    pub obj: f64,
    /// `(row, coefficient)` entries of the column.
    pub terms: Vec<(RowId, f64)>,
    /// Caller-chosen key so generated columns can be identified later
    /// (e.g. the `(job, path, timestep)` triple of a flow column).
    pub key: u64,
}

impl ColRequest {
    /// Reduced cost of this column against `sol`'s duals:
    /// `d = obj − Σ_i y_i · a_i`. Under `Sense::Maximize` the column prices
    /// out (is worth adding) when `d > 0`; under `Sense::Minimize` when
    /// `d < 0`.
    pub fn reduced_cost(&self, sol: &Solution) -> f64 {
        self.terms.iter().fold(self.obj, |d, &(r, c)| d - sol.dual(r) * c)
    }
}

/// Generates absent columns with favorable reduced cost (the pricing
/// oracle).
pub trait ColGen {
    /// Inspect the duals of a restricted-master optimum and return absent
    /// columns that price out (empty when none — the terminal duals then
    /// certify optimality over the full column universe). Like [`RowGen`],
    /// the callback must be *monotone*: columns it returned stay in the
    /// model, and it must not return the same column twice.
    fn priced(&mut self, model: &Model, sol: &Solution) -> Vec<ColRequest>;
}

impl<F> ColGen for F
where
    F: FnMut(&Model, &Solution) -> Vec<ColRequest>,
{
    fn priced(&mut self, model: &Model, sol: &Solution) -> Vec<ColRequest> {
        self(model, sol)
    }
}

/// The identity oracle: never generates anything. The one-sided entry
/// points pass it for the silent side — `solve_lazy(gen) =
/// solve_gen(gen, NoGen)` and `solve_colgen(gen) = solve_gen(NoGen, gen)`.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoGen;

impl RowGen for NoGen {
    fn violated(&mut self, _model: &Model, _sol: &Solution) -> Vec<RowRequest> {
        Vec::new()
    }
}

impl ColGen for NoGen {
    fn priced(&mut self, _model: &Model, _sol: &Solution) -> Vec<ColRequest> {
        Vec::new()
    }
}

/// Result of a generation solve ([`crate::SolverSession::solve_lazy`],
/// [`crate::SolverSession::solve_colgen`], or the combined
/// [`crate::SolverSession::solve_gen`]): the final solution plus the
/// mapping from oracle keys to the rows and columns that were materialized.
#[derive(Debug, Clone)]
pub struct GenOutcome {
    pub solution: Solution,
    /// `(key, row)` for every row added by the row oracle, in insertion
    /// order. Rows never generated are implicitly non-binding (dual 0).
    pub generated_rows: Vec<(u64, RowId)>,
    /// `(key, var)` for every column added by the column oracle, in
    /// insertion order. Columns never generated are implicitly nonbasic at
    /// bound (the terminal duals price them unfavorably).
    pub generated_cols: Vec<(u64, Var)>,
    /// Number of solve rounds (≥ 1).
    pub rounds: u32,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{SolveOptions, SolverSession};
    use crate::solution::SolveError;
    use crate::{Model, Sense};

    fn solve_lazy(
        model: Model,
        gen: &mut dyn RowGen,
        max_rounds: u32,
    ) -> Result<GenOutcome, SolveError> {
        let mut session = SolverSession::new(model);
        session.solve_lazy(gen, &SolveOptions { max_rounds, ..Default::default() })
    }

    /// max x + y with hidden rows x <= 3, y <= 2, x + y <= 4 generated
    /// lazily; explicit model only bounds vars at 10.
    #[test]
    fn converges_to_full_problem_optimum() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", 0.0, 10.0, 1.0);
        let y = m.add_var("y", 0.0, 10.0, 1.0);
        let hidden: Vec<(LinExpr, f64, u64)> =
            vec![(LinExpr::from(x), 3.0, 0), (LinExpr::from(y), 2.0, 1), (x + y, 4.0, 2)];
        let mut gen = move |model: &Model, sol: &Solution| {
            hidden
                .iter()
                .filter(|(e, rhs, _)| e.eval(sol.values()) > rhs + 1e-7)
                .map(|(e, rhs, k)| RowRequest {
                    name: format!("h{k}"),
                    expr: e.clone(),
                    cmp: Cmp::Le,
                    rhs: *rhs,
                    key: *k,
                })
                .collect::<Vec<_>>()
                .into_iter()
                // deduplicate against rows already added
                .filter(|r| {
                    !(0..model.num_rows()).any(|i| model.row_name(RowId::from_index(i)) == r.name)
                })
                .collect()
        };
        let out = solve_lazy(m, &mut gen, 10).unwrap();
        assert!((out.solution.objective() - 4.0).abs() < 1e-7);
        assert!(out.rounds >= 2, "should need at least one generation round");
        assert!(out.generated_cols.is_empty());
    }

    #[test]
    fn no_violations_returns_first_solution() {
        let mut m = Model::new(Sense::Maximize);
        let _x = m.add_var("x", 0.0, 1.0, 1.0);
        let mut gen = |_: &Model, _: &Solution| Vec::new();
        let out = solve_lazy(m, &mut gen, 5).unwrap();
        assert_eq!(out.rounds, 1);
        assert!((out.solution.objective() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn round_limit_enforced() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", 0.0, 10.0, 1.0);
        // Pathological generator: always "violated", adds ever-looser rows.
        let mut n = 0u64;
        let mut gen = move |_: &Model, _: &Solution| {
            n += 1;
            vec![RowRequest {
                name: format!("r{n}"),
                expr: LinExpr::from(x),
                cmp: Cmp::Le,
                rhs: 100.0 + n as f64,
                key: n,
            }]
        };
        let err = solve_lazy(m, &mut gen, 3).unwrap_err();
        assert_eq!(err, SolveError::RoundLimit { rounds: 3 });
    }

    /// Column generation over a hidden column universe: max Σ c_j x_j with
    /// one shared capacity row, columns appended only when they price out.
    /// The restricted master starts with the worst column and must finish
    /// at the optimum of the full universe.
    #[test]
    fn colgen_converges_to_full_universe_optimum() {
        // Universe: columns with objective 1.0, 2.0, 3.0, each consuming 1
        // unit of a capacity-2 row. Full optimum: the two best ⇒ obj 5.
        let mut m = Model::new(Sense::Maximize);
        let x0 = m.add_var("x0", 0.0, 1.0, 1.0);
        let cap = m.add_row("cap", LinExpr::from(x0), Cmp::Le, 2.0);
        let mut next = 1u64;
        let mut gen = move |_: &Model, sol: &Solution| {
            let mut out = Vec::new();
            while next <= 2 {
                let req = ColRequest {
                    name: format!("x{next}"),
                    lb: 0.0,
                    ub: 1.0,
                    obj: 1.0 + next as f64,
                    terms: vec![(cap, 1.0)],
                    key: next,
                };
                // Only append when the duals say it is worth it.
                if req.reduced_cost(sol) > 1e-9 {
                    next += 1;
                    out.push(req);
                } else {
                    break;
                }
            }
            out
        };
        let mut s = SolverSession::new(m);
        let out = s.solve_colgen(&mut gen, &SolveOptions::default()).unwrap();
        assert!((out.solution.objective() - 5.0).abs() < 1e-7, "{}", out.solution.objective());
        assert_eq!(out.generated_cols.len(), 2);
        assert!(out.generated_rows.is_empty());
        assert!(out.rounds >= 2);
        assert_eq!(s.stats().columns_generated, 2);
        assert!(s.stats().colgen_rounds >= 1);
        // Only the first round was cold — colgen rounds restart warm.
        assert_eq!(s.stats().cold_starts, 1);
    }

    /// Rows and columns generated against the same session in one solve:
    /// the combined loop must satisfy the row oracle *and* leave no column
    /// pricing out.
    #[test]
    fn combined_row_and_column_generation() {
        // max x0 + 3 x1 (x1 lazy) s.t. x0 + x1 <= 3 (cap), x1 <= 1 (lazy).
        let mut m = Model::new(Sense::Maximize);
        let x0 = m.add_var("x0", 0.0, 10.0, 1.0);
        let cap = m.add_row("cap", LinExpr::from(x0), Cmp::Le, 3.0);
        let mut col_done = false;
        let mut cols = move |_: &Model, sol: &Solution| {
            if col_done {
                return Vec::new();
            }
            let req = ColRequest {
                name: "x1".into(),
                lb: 0.0,
                ub: 10.0,
                obj: 3.0,
                terms: vec![(cap, 1.0)],
                key: 1,
            };
            if req.reduced_cost(sol) > 1e-9 {
                col_done = true;
                vec![req]
            } else {
                Vec::new()
            }
        };
        let mut row_done = false;
        let mut rows = move |model: &Model, sol: &Solution| {
            // Once x1 exists, cap it at 1 (a row the column's optimum
            // violates).
            if row_done || model.num_vars() < 2 {
                return Vec::new();
            }
            let x1 = Var::from_index(1);
            if sol.value(x1) > 1.0 + 1e-7 {
                row_done = true;
                vec![RowRequest {
                    name: "x1cap".into(),
                    expr: LinExpr::from(x1),
                    cmp: Cmp::Le,
                    rhs: 1.0,
                    key: 7,
                }]
            } else {
                Vec::new()
            }
        };
        let mut s = SolverSession::new(m);
        let out = s.solve_gen(&mut rows, &mut cols, &SolveOptions::default()).unwrap();
        // Optimum of the full problem: x1 = 1 (worth 3), x0 = 2 (worth 2).
        assert!((out.solution.objective() - 5.0).abs() < 1e-7, "{}", out.solution.objective());
        assert_eq!(out.generated_cols.len(), 1);
        assert_eq!(out.generated_rows.len(), 1);
        assert_eq!(out.generated_rows[0].0, 7);
    }

    /// NoGen on both sides degenerates to a plain solve.
    #[test]
    fn nogen_is_identity() {
        let mut m = Model::new(Sense::Maximize);
        let _x = m.add_var("x", 0.0, 2.0, 1.0);
        let mut s = SolverSession::new(m);
        let out = s.solve_gen(&mut NoGen, &mut NoGen, &SolveOptions::default()).unwrap();
        assert_eq!(out.rounds, 1);
        assert!(out.generated_rows.is_empty() && out.generated_cols.is_empty());
        assert!((out.solution.objective() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn reduced_cost_matches_definition() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", 0.0, 4.0, 1.0);
        let r = m.add_row("r", LinExpr::from(x), Cmp::Le, 2.0);
        let sol = m.solve().unwrap();
        // Binding row: y = 1 (raising rhs by 1 gains 1).
        let req = ColRequest {
            name: "z".into(),
            lb: 0.0,
            ub: 1.0,
            obj: 3.0,
            terms: vec![(r, 2.0)],
            key: 0,
        };
        assert!((req.reduced_cost(&sol) - (3.0 - 2.0 * sol.dual(r))).abs() < 1e-12);
    }
}
