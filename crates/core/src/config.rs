//! Pretium configuration knobs.

use crate::degradation::DegradationPolicy;
use crate::state::PriceBump;
use crate::topk::TopkEncoding;

/// Which past window the price computer projects forward (§4.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReferenceWindow {
    /// The window that just ended.
    Previous,
    /// `n` windows back (e.g. the same window yesterday when windows are
    /// shorter than a day).
    WindowsBack(usize),
}

/// Incremental SAM re-optimization mode (DESIGN.md §16).
///
/// When a SAM step follows a *localized* change — a few accepts, a fault
/// with a known touched-edge set — the schedule session can freeze every
/// untouched job block at its current plan and re-solve only the affected
/// blocks against residual capacities, adopting the composite only when its
/// KKT certificate holds. `Off` keeps the full (warm-started) re-solve on
/// every step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum IncrementalSam {
    /// Always re-solve the full LP (warm-started).
    Off,
    /// Localized solves certified at the solver's own feasibility
    /// tolerance — the composite is the exact LP optimum or it is
    /// discarded.
    Exact,
    /// Localized solves certified at an explicit tolerance (looser than
    /// `Exact` trades a little optimality slack for fewer fallbacks).
    Certified {
        /// Max reduced-cost / feasibility violation accepted.
        tol: f64,
    },
}

impl IncrementalSam {
    /// The certification tolerance this mode demands (solver feasibility
    /// tolerance for `Exact`).
    pub fn tol(self) -> f64 {
        match self {
            // Matches SimplexOptions::default().feas_tol; solve_restricted
            // takes the max of the two anyway.
            IncrementalSam::Off | IncrementalSam::Exact => 1e-7,
            IncrementalSam::Certified { tol } => tol,
        }
    }
}

/// Column-generation mode for the SAM scheduling LP (DESIGN.md §17).
///
/// `Off` materializes every `(path, timestep)` flow variable when a job is
/// added — the reference behavior every recorded experiment uses. `On`
/// builds a *restricted master*: each job seeds only its shortest
/// `seed_paths` paths, and absent columns are appended only when the
/// restricted optimum's duals give them favorable reduced cost. Columns
/// generated in one SAM step persist (warm) into the next.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ColumnGen {
    /// Materialize the full `(path, timestep)` column universe up front.
    #[default]
    Off,
    /// Lazy column generation over the Yen k-shortest-path set.
    On {
        /// Pricing-round budget per SAM step; `0` selects 50. When the
        /// budget runs out, the restricted-master optimum is adopted as is
        /// (budget-truncated rather than certified over the universe).
        max_rounds: u32,
        /// Paths seeded per job (shortest first); `0` selects 1.
        seed_paths: usize,
    },
}

impl ColumnGen {
    /// `On` with the default budget and seed width.
    pub fn on() -> Self {
        ColumnGen::On { max_rounds: 0, seed_paths: 0 }
    }

    /// The pricing-round budget this mode grants per SAM step.
    pub fn max_rounds(self) -> u32 {
        match self {
            ColumnGen::Off => 0,
            ColumnGen::On { max_rounds: 0, .. } => 50,
            ColumnGen::On { max_rounds, .. } => max_rounds,
        }
    }

    /// Paths seeded per job (shortest first).
    pub fn seed_paths(self) -> usize {
        match self {
            ColumnGen::Off => usize::MAX,
            ColumnGen::On { seed_paths: 0, .. } => 1,
            ColumnGen::On { seed_paths, .. } => seed_paths,
        }
    }
}

/// All tunables of a Pretium instance. Defaults follow the paper where it
/// states values, and DESIGN.md §8 where it does not.
#[derive(Debug, Clone)]
pub struct PretiumConfig {
    /// Admissible routes per request (k-shortest paths).
    pub k_paths: usize,
    /// Fraction of every link reserved for high-pri traffic (§4.4).
    pub highpri_fraction: f64,
    /// Short-term congestion price bump (§4.1; paper: double the last 20%).
    pub bump: PriceBump,
    /// Top-k cost encoding for the scheduling LPs.
    pub topk: TopkEncoding,
    /// Multiplier on link costs (Figure 12 sweeps this).
    pub cost_scale: f64,
    /// Run SAM every `sam_every` timesteps (1 = every step, as in §4.2).
    pub sam_every: usize,
    /// RA quote workers per arrival batch. 1 (the default) quotes each
    /// batch serially on the caller's thread; >1 fans quotes out over a
    /// work-stealing pool. Results are bit-identical either way — the
    /// sequencer, not thread timing, fixes admission order.
    pub ra_jobs: usize,
    /// Disable SAM entirely (the Pretium-NoSAM ablation of Figure 11).
    pub sam_enabled: bool,
    /// Windows of history the price computer optimizes over (the paper's
    /// period `T`, at least one window).
    pub lookback_windows: usize,
    /// Which past window supplies the projected prices.
    pub reference: ReferenceWindow,
    /// Price floor for owned links (per unit). Percentile links use
    /// `max(this, C_e / k)` so quotes never fall below marginal cost.
    pub price_floor: f64,
    /// Initial price scale at cold start (multiplies each link's floor).
    pub initial_price_scale: f64,
    /// Run the network-state invariant auditor after every RA accept, SAM
    /// re-optimization, PC price update, and executed step. Debug/test
    /// builds audit unconditionally; this flag turns auditing on in
    /// release builds too (e.g. for an audited evaluation replay).
    pub audit: bool,
    /// Fallback policy when faults make the guarantee LP uncoverable
    /// (§4.4): shed lowest-λ guarantees first, then relax the last one,
    /// booking every waiver in the violation ledger.
    pub degradation: DegradationPolicy,
    /// Incremental SAM re-optimization on localized changes (DESIGN.md
    /// §16). Off by default: the full warm re-solve is the reference
    /// behavior, and every recorded experiment uses it unless stated.
    pub incremental_sam: IncrementalSam,
    /// Drift guard for incremental SAM: force a full re-solve every this
    /// many SAM steps even when every intervening step certified (mirrors
    /// the PR-5 repricing guard cadence). 0 disables the cadence (certify
    /// only).
    pub sam_full_every: usize,
    /// Column generation for the SAM scheduling LP (DESIGN.md §17). Off by
    /// default: full materialization is the reference behavior, and every
    /// recorded experiment uses it unless stated. PC and the offline
    /// baselines always solve fully materialized regardless of this knob.
    pub colgen: ColumnGen,
    /// Forrest–Tomlin updates the LP basis factorization accumulates
    /// before refactorizing, for every LP Pretium solves. `0` (the
    /// default) inherits the solver default
    /// ([`pretium_lp::DEFAULT_MAX_ETAS`]). Any setting preserves the
    /// cross-`--jobs` replay contract; different settings change refactor
    /// cadence and hence floating-point roundoff, so objectives agree
    /// across settings only to solver tolerance (see the determinism
    /// suite's documented contract), not bit-exactly.
    pub max_etas: usize,
    /// Worker threads for the deterministic parallel-pricing layer, for
    /// every LP Pretium solves *and* the colgen oracle's job-block pricing.
    /// 1 (the default) runs the exact serial path; >1 fans candidate
    /// scoring out over a work-stealing pool in fixed, size-derived
    /// sections reduced in section order, so — unlike [`Self::max_etas`] —
    /// any setting is **bit-identical** to serial (DESIGN.md §19).
    pub pricing_jobs: usize,
}

impl Default for PretiumConfig {
    fn default() -> Self {
        PretiumConfig {
            k_paths: 3,
            highpri_fraction: 0.10,
            bump: PriceBump::default(),
            topk: TopkEncoding::CVar,
            cost_scale: 1.0,
            sam_every: 1,
            ra_jobs: 1,
            sam_enabled: true,
            lookback_windows: 1,
            reference: ReferenceWindow::Previous,
            price_floor: 0.05,
            initial_price_scale: 1.0,
            audit: false,
            degradation: DegradationPolicy::ShedThenRelax,
            incremental_sam: IncrementalSam::Off,
            sam_full_every: 16,
            colgen: ColumnGen::Off,
            max_etas: 0,
            pricing_jobs: 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_constants() {
        let c = PretiumConfig::default();
        assert_eq!(c.bump.threshold, 0.8);
        assert_eq!(c.bump.factor, 2.0);
        assert_eq!(c.sam_every, 1);
        assert!(c.sam_enabled);
        // Release-build auditing is opt-in (debug builds always audit).
        assert!(!c.audit);
        assert_eq!(c.degradation, DegradationPolicy::ShedThenRelax);
        // Incremental SAM is opt-in; the drift guard defaults to a full
        // re-solve every 16 steps when it is on.
        assert_eq!(c.incremental_sam, IncrementalSam::Off);
        assert_eq!(c.sam_full_every, 16);
        assert_eq!(IncrementalSam::Certified { tol: 1e-6 }.tol(), 1e-6);
        assert_eq!(IncrementalSam::Exact.tol(), 1e-7);
        // Colgen is opt-in; On defaults to 50 pricing rounds and a
        // single-path seed.
        assert_eq!(c.colgen, ColumnGen::Off);
        // Pricing parallelism defaults to the serial path; >1 is opt-in
        // and bit-identical by the section-ordered reduction contract.
        assert_eq!(c.pricing_jobs, 1);
        assert_eq!(ColumnGen::on().max_rounds(), 50);
        assert_eq!(ColumnGen::on().seed_paths(), 1);
        assert_eq!(ColumnGen::On { max_rounds: 7, seed_paths: 2 }.max_rounds(), 7);
        assert_eq!(ColumnGen::On { max_rounds: 7, seed_paths: 2 }.seed_paths(), 2);
    }

    #[test]
    fn clone_roundtrip() {
        let c = PretiumConfig::default();
        let back = c.clone();
        assert_eq!(c.k_paths, back.k_paths);
        assert_eq!(c.reference, back.reference);
    }
}
