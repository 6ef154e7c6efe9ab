//! Sparse Gaussian elimination with threshold-Markowitz pivot selection.
//!
//! Each elimination step picks a pivot entry `(r, j)` minimizing the
//! Markowitz fill bound `(rcount[r] − 1)·(ccount[j] − 1)` among entries
//! passing the stability ladder (see [`TAU`]). Row and column counts are
//! maintained incrementally; columns live in count-indexed candidate
//! buckets with lazily discarded stale entries, so each search touches
//! only a handful of columns (bounded by [`MAX_SEARCH`] once a candidate
//! exists, with an immediate stop on a fill-free `cost == 0` pivot).
//!
//! Elimination is right-looking: the pivot column becomes a column of
//! `L`, the pivot row's entries become a row of `U`, and every active
//! column crossing the pivot row is updated through a dense scatter
//! (stamp-validated, so clearing costs only the touched entries).
//!
//! Everything — bucket order, tie-breaks, fill pattern order — is a pure
//! function of the input columns, preserving the repo-wide bit-exact
//! determinism contract.
//!
//! The working storage lives in a [`Scratch`] owned by the
//! [`Factorization`] and is cleared, not reallocated, on every call: each
//! buffer is refilled in exactly the push order a fresh one would see, so
//! a reused factorization pivots and rounds identically to a new one, and
//! re-factorizing a basis it has factorized before allocates nothing.

use super::{clear_for, reset_lists, reset_to, FactorError, Factorization};

/// Relative stability threshold: an entry is pivot-eligible only when its
/// magnitude is at least `TAU` times the largest magnitude in its active
/// column. Together with the absolute `pivot_tol` floor this forms the
/// tolerance ladder: `|v| > pivot_tol` guards singularity, `|v| ≥
/// TAU·colmax` bounds element growth per elimination step.
const TAU: f64 = 0.1;
/// Candidate columns examined per pivot search once at least one eligible
/// entry has been found (the Suhl–Suhl style bounded search).
const MAX_SEARCH: usize = 8;

/// Elimination working storage, kept between refactorizations so a
/// steady-state refactor only clears and refills it.
#[derive(Debug, Clone, Default)]
pub(super) struct Scratch {
    /// Working copy of the basis, column-major over active rows.
    acol: Vec<Vec<(u32, f64)>>,
    ccount: Vec<u32>,
    rcount: Vec<u32>,
    /// Columns with a (structural) entry in each row. Entries are pushed
    /// exactly once per (row, column) pair — at setup or at fill creation —
    /// and never removed; consumers skip already-pivoted columns.
    rows_cols: Vec<Vec<u32>>,
    /// Count-indexed candidate buckets with lazy invalidation: a column is
    /// re-pushed whenever its count changes; stale or duplicate entries are
    /// dropped when a search encounters them.
    bucket: Vec<Vec<u32>>,
    col_pivoted: Vec<bool>,
    // Per-step outputs, keyed by original row / basis position until the
    // final remap into slot indices. Kept here rather than written into
    // the factorization so a singular basis leaves the old factors intact.
    /// Columns of `L` by step, compressed: step `k`'s `(orig row,
    /// multiplier)` entries are `lent[lstart[k]..lstart[k + 1]]`.
    lstart: Vec<u32>,
    lent: Vec<(u32, f64)>,
    /// Off-diagonal `U` entries as `(basis position, step, value)`, in
    /// elimination order (so each position's entries are step-ordered).
    uent: Vec<(u32, u32, f64)>,
    udiag: Vec<f64>,
    row_of_slot: Vec<u32>,
    pos_of_slot: Vec<u32>,
    /// Dense scatter for the column updates, its stamp, and a per-search
    /// seen stamp for bucket deduplication.
    work: Vec<f64>,
    mark: Vec<u32>,
    seen: Vec<u32>,
    pattern: Vec<u32>,
}

/// Factorize the basis whose column at position `j` is `column(j)` into
/// `f`, replacing its factors and clearing its update file. On a singular
/// basis `f`'s factors are left untouched.
pub(super) fn refactorize<'c>(
    f: &mut Factorization,
    column: impl Fn(usize) -> &'c [(u32, f64)],
) -> Result<(), FactorError> {
    let m = f.m;
    let (basis_nnz, factor_nnz) = eliminate(&mut f.mk, m, f.pivot_tol, column)?;
    install(f);
    f.stats.refactors += 1;
    f.stats.basis_nnz += basis_nnz;
    f.stats.factor_nnz += factor_nnz;
    Ok(())
}

/// Run the elimination into `s`'s per-step outputs; returns the basis and
/// factor nonzero counts.
fn eliminate<'c>(
    s: &mut Scratch,
    m: usize,
    pivot_tol: f64,
    column: impl Fn(usize) -> &'c [(u32, f64)],
) -> Result<(u64, u64), FactorError> {
    let Scratch {
        acol,
        ccount,
        rcount,
        rows_cols,
        bucket,
        col_pivoted,
        lstart,
        lent,
        uent,
        udiag,
        row_of_slot,
        pos_of_slot,
        work,
        mark,
        seen,
        pattern,
    } = s;

    reset_lists(acol, m);
    reset_to(ccount, m, 0);
    reset_to(rcount, m, 0);
    reset_lists(rows_cols, m);
    let mut basis_nnz = 0u64;
    for (j, col) in acol.iter_mut().enumerate() {
        let src = column(j);
        col.reserve_exact(src.len());
        col.extend_from_slice(src);
        basis_nnz += col.len() as u64;
        ccount[j] = col.len() as u32;
        for &(r, _) in col.iter() {
            rcount[r as usize] += 1;
            rows_cols[r as usize].push(j as u32);
        }
    }
    reset_lists(bucket, m + 1);
    for (j, &c) in ccount.iter().enumerate() {
        bucket[c as usize].push(j as u32);
    }
    reset_to(col_pivoted, m, false);
    lstart.clear();
    lstart.push(0);
    lent.clear();
    uent.clear();
    clear_for(row_of_slot, m);
    clear_for(pos_of_slot, m);
    clear_for(udiag, m);
    reset_to(work, m, 0.0);
    reset_to(mark, m, 0);
    reset_to(seen, m, 0);
    pattern.clear();
    let mut stamp: u32 = 0;
    let mut factor_nnz = m as u64; // the diagonal

    for step in 0..m {
        // --- pivot search ------------------------------------------------
        let sstamp = step as u32 + 1;
        let mut best: Option<(u64, u32, u32, f64)> = None; // (cost, col, row, val)
        let mut examined = 0usize;
        // Indexing (not iterating) is load-bearing here: `c` is the count
        // bucket being drained, compared against `ccount[j]` for staleness.
        #[allow(clippy::needless_range_loop)]
        'search: for c in 1..=m {
            let mut idx = 0;
            while idx < bucket[c].len() {
                let j = bucket[c][idx] as usize;
                if col_pivoted[j] || ccount[j] as usize != c || seen[j] == sstamp {
                    bucket[c].swap_remove(idx); // stale or duplicate
                    continue;
                }
                seen[j] = sstamp;
                idx += 1;
                // Examine column j: stability threshold relative to its
                // largest active entry, Markowitz cost from row counts.
                let colmax = acol[j].iter().fold(0.0f64, |a, &(_, v)| a.max(v.abs()));
                let thresh = TAU * colmax;
                let mut local: Option<(u64, u32, f64)> = None; // (cost, row, val)
                for &(r, v) in &acol[j] {
                    let av = v.abs();
                    if av <= pivot_tol || av < thresh {
                        continue;
                    }
                    let cost = (rcount[r as usize] as u64 - 1) * (c as u64 - 1);
                    let better = match local {
                        None => true,
                        Some((bc, br, _)) => cost < bc || (cost == bc && r < br),
                    };
                    if better {
                        local = Some((cost, r, v));
                    }
                }
                examined += 1;
                if let Some((cost, r, v)) = local {
                    // Strictly-smaller cost wins; ties keep the earlier
                    // candidate (lower count bucket / earlier in scan),
                    // which is deterministic by construction.
                    if best.as_ref().is_none_or(|&(bc, ..)| cost < bc) {
                        best = Some((cost, j as u32, r, v));
                    }
                    if cost == 0 {
                        break 'search; // fill-free pivot: optimal
                    }
                }
                if examined >= MAX_SEARCH && best.is_some() {
                    break 'search;
                }
            }
        }
        let Some((_, jp, rp, vp)) = best else {
            return Err(FactorError::Singular { position: step });
        };
        let (jp, rp) = (jp as usize, rp as usize);

        // --- eliminate ---------------------------------------------------
        col_pivoted[jp] = true;
        row_of_slot.push(rp as u32);
        pos_of_slot.push(jp as u32);
        udiag.push(vp);

        // Pivot column → column of L (active rows only, scaled). The
        // pivoted column is never read again.
        let l0 = lent.len();
        for &(i, v) in &acol[jp] {
            if i as usize != rp {
                lent.push((i, v / vp));
                // Row i lost its entry in the pivot column.
                rcount[i as usize] -= 1;
            }
        }
        lstart.push(lent.len() as u32);
        let lcol = &lent[l0..];
        factor_nnz += lcol.len() as u64;

        // Right-looking update of every active column crossing the pivot
        // row: column j gains `-l·u` at each L entry, loses its pivot-row
        // entry (which becomes a row-`step` entry of U). The pivot row's
        // column list is never read again, so it is borrowed out and put
        // back (capacity kept) rather than dropped.
        let touched_cols = std::mem::take(&mut rows_cols[rp]);
        for &jc in &touched_cols {
            let j = jc as usize;
            if col_pivoted[j] {
                continue;
            }
            stamp += 1;
            pattern.clear();
            let mut u = 0.0;
            for &(i, v) in &acol[j] {
                if i as usize == rp {
                    u = v;
                } else {
                    work[i as usize] = v;
                    mark[i as usize] = stamp;
                    pattern.push(i);
                }
            }
            if u != 0.0 {
                uent.push((jc, step as u32, u));
                factor_nnz += 1;
                for &(i, l) in lcol {
                    let ii = i as usize;
                    if mark[ii] == stamp {
                        work[ii] -= l * u;
                    } else {
                        // Fill-in: a brand-new structural entry.
                        mark[ii] = stamp;
                        work[ii] = -l * u;
                        pattern.push(i);
                        rows_cols[ii].push(jc);
                        rcount[ii] += 1;
                    }
                }
            }
            // Gather back in pattern order (original entries then fills —
            // deterministic), and re-bucket under the new count.
            let col = &mut acol[j];
            col.clear();
            col.extend(pattern.iter().map(|&i| (i, work[i as usize])));
            ccount[j] = col.len() as u32;
            bucket[ccount[j] as usize].push(jc);
        }
        rows_cols[rp] = touched_cols;
    }
    Ok((basis_nnz, factor_nnz))
}

/// Remap a completed elimination into slot space and install it as `f`'s
/// factors, copying into `f`'s existing buffers so both sides keep their
/// capacity.
fn install(f: &mut Factorization) {
    let m = f.m;
    let s = &f.mk;
    f.slot_of_row.resize(m, 0);
    for (k, &r) in s.row_of_slot.iter().enumerate() {
        f.slot_of_row[r as usize] = k as u32;
    }
    f.slot_of_pos.resize(m, 0);
    for (k, &p) in s.pos_of_slot.iter().enumerate() {
        f.slot_of_pos[p as usize] = k as u32;
    }
    f.lstart.clone_from(&s.lstart);
    f.lent.clear();
    f.lent.extend(s.lent.iter().map(|&(i, l)| (f.slot_of_row[i as usize], l)));
    reset_lists(&mut f.ucols, m);
    for &(j, step, u) in &s.uent {
        f.ucols[f.slot_of_pos[j as usize] as usize].push((step, u));
    }
    reset_lists(&mut f.urows, m);
    for (slot, col) in f.ucols.iter().enumerate() {
        for &(k, u) in col {
            f.urows[k as usize].push((slot as u32, u));
        }
    }
    // Forrest–Tomlin updates grow U's lists (a spike column can span the
    // whole basis) and slots change hands at every refactorization, so
    // kept capacity would ratchet up to the longest list any slot ever
    // held. Give back what the fresh factors clearly do not need.
    for list in f.ucols.iter_mut().chain(f.urows.iter_mut()) {
        if list.capacity() > 2 * list.len() + 4 {
            list.shrink_to_fit();
        }
    }
    f.udiag.clone_from(&s.udiag);
    f.perm.clear();
    f.perm.extend(0..m as u32);
    f.ord.clone_from(&f.perm);
    f.row_of_slot.clone_from(&s.row_of_slot);
    f.pos_of_slot.clone_from(&s.pos_of_slot);
    f.etas.clear();
    f.updates = 0;
}
