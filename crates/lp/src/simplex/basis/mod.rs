//! Basis factorization for the revised simplex method: sparse LU with
//! Markowitz pivoting and Forrest–Tomlin updates.
//!
//! LP bases from network scheduling problems are extremely sparse: most
//! basic columns are slacks (singletons) and the rest are short flow
//! columns. Refactorization therefore runs *sparse Gaussian elimination*
//! with Markowitz pivot selection — each step pivots on an entry
//! minimizing the fill bound `(r_i − 1)(c_j − 1)` among candidates passing
//! a relative stability threshold — producing sparse `L`/`U` factors plus
//! row and column permutations (module `markowitz`).
//!
//! Basis exchanges between refactorizations apply *Forrest–Tomlin
//! updates* (module `ft_update`): the entering column's spike replaces a
//! column of `U`, the replaced pivot rotates to the end of the pivot
//! order, and the stranded row is eliminated into a growing file of row
//! etas. `U` stays genuinely triangular after every update, so
//! FTRAN/BTRAN never degrade the way a product-form eta file does; the
//! factorization is rebuilt when the update file reaches `max_etas` or an
//! update's new pivot is below tolerance.
//!
//! The two solve kernels (module `sparse`) are the classic simplex
//! primitives:
//! * `ftran`: solve `B·w = a` (entering column in basis coordinates),
//! * `btran`: solve `yᵀ·B = cᵀ` (simplex multipliers / duals).
//!
//! The previous dense-bump kernel (triangularization pre-pass + dense LU
//! on the residual bump + product-form etas) survives as a *reference
//! implementation* in [`dense_ref`] for torture tests and benchmarks; it
//! is no longer on any solve path.

pub mod dense_ref;
mod ft_update;
mod markowitz;
mod sparse;

use sparse::RowEta;

/// Sparse column: `(row, value)` pairs, rows strictly increasing.
pub type SparseCol = Vec<(u32, f64)>;

/// Default cap on Forrest–Tomlin updates between refactorizations.
///
/// The single source of truth for the `max_etas: 0` / `refactor_every: 0`
/// convention: [`Factorization::new`] substitutes it for a zero limit, and
/// `SimplexOptions::default()` seeds `refactor_every` from it, so sessions
/// created indirectly (e.g. via `solve_restricted`) inherit the same
/// cadence.
pub const DEFAULT_MAX_ETAS: usize = 96;

/// Errors from factorization.
#[derive(Debug, Clone, PartialEq)]
pub enum FactorError {
    /// The basis matrix is numerically singular; the offending elimination
    /// step is reported.
    Singular { position: usize },
}

/// Cumulative factorization work counters of one [`Factorization`]. The
/// simplex folds them into its run's [`crate::SessionStats`] once per
/// solve.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FactorStats {
    /// Refactorizations (sparse Markowitz eliminations) performed.
    pub refactors: u64,
    /// Nonzeros of the basis columns handed to `refactor`, summed over
    /// refactorizations (the fill-in ratio denominator).
    pub basis_nnz: u64,
    /// Nonzeros of the computed `L`+`U` factors (diagonal included),
    /// summed over refactorizations (the fill-in ratio numerator).
    pub factor_nnz: u64,
    /// Forrest–Tomlin updates absorbed without refactorizing.
    pub ft_updates: u64,
    /// Updates refused because the new pivot fell below tolerance (each
    /// forces the caller to refactorize).
    pub pivot_rejections: u64,
}

/// Sparse LU factorization `P·B·Q = L·U` with a Forrest–Tomlin update
/// file.
///
/// Internally every pivot owns a *slot*, numbered in the elimination
/// order of the last refactorization. `L` is fixed between
/// refactorizations and applied in slot order; `U` is maintained in both
/// column- and row-major form so updates can delete/insert rows, and its
/// pivot order (`perm`) starts as the slot order and is rotated by each
/// update. Slots map to original rows (`row_of_slot`) and basis positions
/// (`pos_of_slot`), which is how the external API keeps speaking the
/// row/position language of the solver.
#[derive(Debug, Clone)]
pub struct Factorization {
    m: usize,
    /// Columns of unit-lower-triangular `L` by slot: `(slot, multiplier)`
    /// entries at slots eliminated later. Static between refactors.
    lcols: Vec<Vec<(u32, f64)>>,
    /// Off-diagonal columns of `U` by slot: `(slot, value)` entries at
    /// slots earlier in the current pivot order.
    ucols: Vec<Vec<(u32, f64)>>,
    /// Row-major mirror of `ucols` (needed by the FT update).
    urows: Vec<Vec<(u32, f64)>>,
    /// Diagonal of `U` by slot.
    udiag: Vec<f64>,
    /// Current pivot order: `perm[i]` = slot eliminated `i`-th.
    perm: Vec<u32>,
    /// Inverse of `perm`: `ord[slot]` = its position in the pivot order.
    ord: Vec<u32>,
    /// Original row held by each slot.
    row_of_slot: Vec<u32>,
    /// Inverse of `row_of_slot`.
    slot_of_row: Vec<u32>,
    /// Basis position (column of `B`) held by each slot.
    pos_of_slot: Vec<u32>,
    /// Inverse of `pos_of_slot`.
    slot_of_pos: Vec<u32>,
    /// Forrest–Tomlin row-eta file, chronological.
    etas: Vec<RowEta>,
    /// Updates absorbed since the last refactorization (identity updates
    /// store no eta but still count toward the cadence).
    updates: usize,
    /// Rebuild threshold for the update file.
    max_etas: usize,
    /// Absolute pivot tolerance.
    pivot_tol: f64,
    // --- scratch buffers reused across calls (no steady-state allocs) ----
    /// Dense RHS scatter for `ftran`, indexed by original row.
    scratch: Vec<f64>,
    /// Slot-space work vector for both solve kernels.
    z: Vec<f64>,
    /// FT update: entering column permuted to slot space.
    wz: Vec<f64>,
    /// FT update: the spike `U·w̃`.
    spike: Vec<f64>,
    /// FT update: working last row (dense over slots, stamp-validated).
    rowbuf: Vec<f64>,
    rowstamp: Vec<u64>,
    stamp: u64,
    stats: FactorStats,
}

impl Factorization {
    /// Create a factorization of the identity for an `m`-row basis.
    /// `max_etas: 0` selects [`DEFAULT_MAX_ETAS`].
    pub fn new(m: usize, max_etas: usize, pivot_tol: f64) -> Self {
        let iota: Vec<u32> = (0..m as u32).collect();
        Factorization {
            m,
            lcols: vec![Vec::new(); m],
            ucols: vec![Vec::new(); m],
            urows: vec![Vec::new(); m],
            udiag: vec![1.0; m],
            perm: iota.clone(),
            ord: iota.clone(),
            row_of_slot: iota.clone(),
            slot_of_row: iota.clone(),
            pos_of_slot: iota.clone(),
            slot_of_pos: iota,
            etas: Vec::new(),
            updates: 0,
            max_etas: if max_etas == 0 { DEFAULT_MAX_ETAS } else { max_etas },
            pivot_tol,
            scratch: vec![0.0; m],
            z: vec![0.0; m],
            wz: Vec::new(),
            spike: Vec::new(),
            rowbuf: Vec::new(),
            rowstamp: Vec::new(),
            stamp: 0,
            stats: FactorStats::default(),
        }
    }

    /// Number of row etas accumulated since the last refactorization.
    pub fn eta_count(&self) -> usize {
        self.etas.len()
    }

    /// Cumulative work counters over this factorization's lifetime.
    pub fn stats(&self) -> FactorStats {
        self.stats
    }

    /// Nonzeros currently held in `L` and `U` (diagonal included) — the
    /// fill-in diagnostic for the *current* factors.
    pub fn factor_nnz(&self) -> usize {
        let l: usize = self.lcols.iter().map(Vec::len).sum();
        let u: usize = self.ucols.iter().map(Vec::len).sum();
        self.m + l + u
    }

    /// True when the update file has grown enough that the caller should
    /// refactorize. Doubles as the solver's pricing drift-guard cadence,
    /// so it counts *updates* (including identity ones that stored no
    /// eta), not stored etas.
    pub fn wants_refactor(&self) -> bool {
        self.updates >= self.max_etas
    }

    /// Factorize the basis given by `columns` (one sparse column per basis
    /// position) by Markowitz elimination. Clears the update file and
    /// resets the pivot order.
    pub fn refactor(&mut self, columns: &[&SparseCol]) -> Result<(), FactorError> {
        markowitz::refactorize(self, columns)
    }

    /// Solve `B·w = a` where `a` is a sparse column in original row
    /// coordinates. The result is dense, indexed by basis *position*.
    pub fn ftran(&mut self, a: &SparseCol, out: &mut Vec<f64>) {
        // Borrow the reusable scratch buffer for the dense scatter; only
        // the entries of `a` are re-zeroed before it is handed back.
        let mut dense = std::mem::take(&mut self.scratch);
        dense.resize(self.m, 0.0);
        for &(i, v) in a.iter() {
            dense[i as usize] = v;
        }
        self.ftran_dense(&dense, out);
        for &(i, _) in a.iter() {
            dense[i as usize] = 0.0;
        }
        self.scratch = dense;
    }

    /// Like [`Factorization::ftran`] but with a dense right-hand side in
    /// original row coordinates.
    pub fn ftran_dense(&mut self, a: &[f64], out: &mut Vec<f64>) {
        sparse::ftran_dense(self, a, out);
    }

    /// Solve `yᵀ·B = cᵀ` where `c` is dense, indexed by basis position.
    /// The result `y` is dense, indexed by original row.
    pub fn btran(&mut self, c: &[f64], out: &mut Vec<f64>) {
        sparse::btran(self, c, out);
    }

    /// Record a pivot: basis position `pos` is replaced by a column whose
    /// FTRAN'd representation is `w` (dense, basis-position indexed).
    ///
    /// Returns `false` if the update's new pivot element is too small to
    /// be stable, in which case nothing is modified and the caller should
    /// refactorize and retry.
    pub fn update(&mut self, pos: usize, w: &[f64]) -> bool {
        ft_update::apply(self, pos, w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn col(entries: &[(u32, f64)]) -> SparseCol {
        entries.to_vec()
    }

    /// Build a factorization of the given dense matrix (column-major input).
    fn factor_of(cols: &[Vec<f64>]) -> Factorization {
        let m = cols.len();
        let sparse: Vec<SparseCol> = cols
            .iter()
            .map(|c| {
                c.iter()
                    .enumerate()
                    .filter(|(_, &v)| v != 0.0)
                    .map(|(i, &v)| (i as u32, v))
                    .collect()
            })
            .collect();
        let refs: Vec<&SparseCol> = sparse.iter().collect();
        let mut f = Factorization::new(m, 32, 1e-12);
        f.refactor(&refs).unwrap();
        f
    }

    fn matvec(cols: &[Vec<f64>], x: &[f64]) -> Vec<f64> {
        let m = cols.len();
        let mut out = vec![0.0; m];
        for (j, c) in cols.iter().enumerate() {
            for i in 0..m {
                out[i] += c[i] * x[j];
            }
        }
        out
    }

    #[test]
    fn ftran_identity() {
        let cols = vec![vec![1.0, 0.0], vec![0.0, 1.0]];
        let mut f = factor_of(&cols);
        let mut w = Vec::new();
        f.ftran(&col(&[(0, 3.0), (1, 4.0)]), &mut w);
        assert_eq!(w, vec![3.0, 4.0]);
    }

    #[test]
    fn ftran_solves_general_3x3() {
        let cols = vec![vec![2.0, 1.0, 0.0], vec![0.0, 3.0, 1.0], vec![1.0, 0.0, 2.0]];
        let mut f = factor_of(&cols);
        let a = col(&[(0, 5.0), (1, 4.0), (2, 3.0)]);
        let mut w = Vec::new();
        f.ftran(&a, &mut w);
        let bx = matvec(&cols, &w);
        for (got, want) in bx.iter().zip([5.0, 4.0, 3.0]) {
            assert!((got - want).abs() < 1e-10, "{bx:?}");
        }
    }

    #[test]
    fn btran_solves_transpose() {
        let cols = vec![vec![2.0, 1.0, 0.0], vec![0.0, 3.0, 1.0], vec![1.0, 0.0, 2.0]];
        let mut f = factor_of(&cols);
        let c = [1.0, 2.0, 3.0];
        let mut y = Vec::new();
        f.btran(&c, &mut y);
        for (j, colj) in cols.iter().enumerate() {
            let dot: f64 = y.iter().zip(colj).map(|(a, b)| a * b).sum();
            assert!((dot - c[j]).abs() < 1e-10, "col {j}: {dot} vs {}", c[j]);
        }
    }

    #[test]
    fn slack_heavy_basis_has_no_fill() {
        // Mostly unit columns plus two sparse ones — mimics an LP basis.
        // Markowitz should eliminate it without any fill-in.
        let m = 8;
        let mut cols: Vec<Vec<f64>> = (0..m)
            .map(|j| {
                let mut c = vec![0.0; m];
                c[j] = 1.0;
                c
            })
            .collect();
        cols[3] = vec![1.0, 0.0, 2.0, 3.0, 0.0, 1.0, 0.0, 0.0];
        cols[6] = vec![0.0, 1.0, 0.0, 1.0, 2.0, 0.0, 4.0, 1.0];
        let mut f = factor_of(&cols);
        let nnz: usize = cols.iter().map(|c| c.iter().filter(|&&v| v != 0.0).count()).sum();
        assert!(f.factor_nnz() <= nnz, "fill-in on a near-triangular basis: {}", f.factor_nnz());
        let rhs: Vec<f64> = (0..m).map(|i| (i + 1) as f64).collect();
        let mut w = Vec::new();
        f.ftran_dense(&rhs, &mut w);
        let bx = matvec(&cols, &w);
        for (got, want) in bx.iter().zip(&rhs) {
            assert!((got - want).abs() < 1e-9, "{bx:?}");
        }
        let c: Vec<f64> = (0..m).map(|i| ((i * 7) % 5) as f64 - 2.0).collect();
        let mut y = Vec::new();
        f.btran(&c, &mut y);
        for (j, colj) in cols.iter().enumerate() {
            let dot: f64 = y.iter().zip(colj).map(|(a, b)| a * b).sum();
            assert!((dot - c[j]).abs() < 1e-9);
        }
    }

    #[test]
    fn singular_matrix_detected() {
        let cols = [vec![1.0, 2.0], vec![2.0, 4.0]];
        let sparse: Vec<SparseCol> = cols
            .iter()
            .map(|c| c.iter().enumerate().map(|(i, &v)| (i as u32, v)).collect())
            .collect();
        let refs: Vec<&SparseCol> = sparse.iter().collect();
        let mut f = Factorization::new(2, 32, 1e-12);
        assert!(matches!(f.refactor(&refs), Err(FactorError::Singular { .. })));
    }

    #[test]
    fn ft_update_matches_refactor() {
        let ident = vec![vec![1.0, 0.0, 0.0], vec![0.0, 1.0, 0.0], vec![0.0, 0.0, 1.0]];
        let mut f = factor_of(&ident);
        let a = col(&[(0, 1.0), (1, 2.0), (2, 1.0)]);
        let mut w = Vec::new();
        f.ftran(&a, &mut w);
        assert!(f.update(1, &w));
        let newb = vec![vec![1.0, 0.0, 0.0], vec![1.0, 2.0, 1.0], vec![0.0, 0.0, 1.0]];
        let rhs = col(&[(0, 2.0), (1, 7.0), (2, 5.0)]);
        let mut via_eta = Vec::new();
        f.ftran(&rhs, &mut via_eta);
        let mut fresh = factor_of(&newb);
        let mut via_fresh = Vec::new();
        fresh.ftran(&rhs, &mut via_fresh);
        for (a, b) in via_eta.iter().zip(&via_fresh) {
            assert!((a - b).abs() < 1e-10, "{via_eta:?} vs {via_fresh:?}");
        }
        let c = [3.0, 1.0, -2.0];
        let mut y1 = Vec::new();
        let mut y2 = Vec::new();
        f.btran(&c, &mut y1);
        fresh.btran(&c, &mut y2);
        for (a, b) in y1.iter().zip(&y2) {
            assert!((a - b).abs() < 1e-10, "{y1:?} vs {y2:?}");
        }
    }

    #[test]
    fn repeated_ft_updates_stay_consistent() {
        // Chain several updates on a non-trivial basis and cross-check
        // against a fresh factorization of the final column set.
        let m = 6;
        let mut cols: Vec<Vec<f64>> = (0..m)
            .map(|j| {
                let mut c = vec![0.0; m];
                c[j] = 2.0;
                c[(j + 2) % m] = 1.0;
                c
            })
            .collect();
        let mut f = factor_of(&cols);
        for (step, &(pos, shift)) in [(1usize, 3usize), (4, 1), (1, 5), (2, 4)].iter().enumerate() {
            let mut newcol = vec![0.0; m];
            newcol[pos] = 3.0;
            newcol[(pos + shift) % m] = -1.0;
            newcol[(pos + 1) % m] += 0.5;
            let a: SparseCol = newcol
                .iter()
                .enumerate()
                .filter(|(_, &v)| v != 0.0)
                .map(|(i, &v)| (i as u32, v))
                .collect();
            let mut w = Vec::new();
            f.ftran(&a, &mut w);
            assert!(f.update(pos, &w), "step {step} rejected");
            cols[pos] = newcol;
        }
        let mut fresh = factor_of(&cols);
        let rhs: Vec<f64> = (0..m).map(|i| (i as f64) - 2.5).collect();
        let (mut w1, mut w2) = (Vec::new(), Vec::new());
        f.ftran_dense(&rhs, &mut w1);
        fresh.ftran_dense(&rhs, &mut w2);
        for (a, b) in w1.iter().zip(&w2) {
            assert!((a - b).abs() < 1e-9, "{w1:?} vs {w2:?}");
        }
        let (mut y1, mut y2) = (Vec::new(), Vec::new());
        f.btran(&rhs, &mut y1);
        fresh.btran(&rhs, &mut y2);
        for (a, b) in y1.iter().zip(&y2) {
            assert!((a - b).abs() < 1e-9, "{y1:?} vs {y2:?}");
        }
        assert_eq!(f.stats().ft_updates, 4);
    }

    #[test]
    fn tiny_pivot_update_rejected() {
        let ident = vec![vec![1.0, 0.0], vec![0.0, 1.0]];
        let mut f = factor_of(&ident);
        let w = vec![1.0, 1e-15];
        assert!(!f.update(1, &w));
        assert_eq!(f.stats().pivot_rejections, 1);
        // Nothing was committed: the factorization still solves the
        // identity exactly.
        let mut out = Vec::new();
        f.ftran_dense(&[5.0, 7.0], &mut out);
        assert_eq!(out, vec![5.0, 7.0]);
    }

    #[test]
    fn wants_refactor_after_limit() {
        let ident = vec![vec![1.0, 0.0], vec![0.0, 1.0]];
        let mut f = factor_of(&ident);
        f.max_etas = 2;
        assert!(f.update(0, &[1.0, 0.0]));
        assert!(!f.wants_refactor());
        assert!(f.update(1, &[0.0, 1.0]));
        assert!(f.wants_refactor());
    }

    #[test]
    fn zero_max_etas_selects_default() {
        let f = Factorization::new(4, 0, 1e-9);
        assert_eq!(f.max_etas, DEFAULT_MAX_ETAS);
        let f = Factorization::new(4, 7, 1e-9);
        assert_eq!(f.max_etas, 7);
    }

    /// Randomized cross-check: Markowitz LU must solve arbitrary sparse
    /// systems exactly, and agree with the dense-bump reference kernel.
    #[test]
    fn random_sparse_systems_roundtrip() {
        let mut seed = 0xDEADBEEFu64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed >> 11) as f64 / (1u64 << 53) as f64
        };
        for trial in 0..20 {
            let m = 12 + trial % 5;
            // Diagonal-dominant sparse matrix: invertible with high prob.
            let mut cols: Vec<Vec<f64>> = vec![vec![0.0; m]; m];
            for (j, colj) in cols.iter_mut().enumerate() {
                colj[j] = 2.0 + next();
                for (i, cij) in colj.iter_mut().enumerate() {
                    if i != j && next() < 0.2 {
                        *cij = next() - 0.5;
                    }
                }
            }
            let mut f = factor_of(&cols);
            let rhs: Vec<f64> = (0..m).map(|_| next() * 4.0 - 2.0).collect();
            let mut w = Vec::new();
            f.ftran_dense(&rhs, &mut w);
            let bx = matvec(&cols, &w);
            for (got, want) in bx.iter().zip(&rhs) {
                assert!((got - want).abs() < 1e-8, "trial {trial}");
            }
            let mut y = Vec::new();
            f.btran(&rhs, &mut y);
            for (j, colj) in cols.iter().enumerate() {
                let dot: f64 = y.iter().zip(colj).map(|(a, b)| a * b).sum();
                assert!((dot - rhs[j]).abs() < 1e-8, "trial {trial} col {j}");
            }
        }
    }
}
