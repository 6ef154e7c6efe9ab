//! Per-module telemetry: counters and wall-clock timings for the RA, SAM,
//! PC, execution, and audit hooks of a running [`crate::Pretium`] instance.
//! LP counters are not here: they travel as one
//! [`pretium_lp::SessionStats`] record, read via [`crate::Pretium::lp_stats`].
//!
//! The paper's Table 4 reports per-module runtimes on the production
//! deployment; this is the in-process equivalent, cheap enough to stay on
//! in release builds (one `Instant::now()` pair per module call). The
//! counters double as the data source for the structured telemetry section
//! the simulator's reports print.

use std::time::Duration;

/// Call count and wall-clock accumulator for one module entry point.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ModuleStats {
    /// Number of calls.
    pub calls: u64,
    /// Total wall-clock time across all calls, in nanoseconds.
    pub total_nanos: u128,
    /// Slowest single call, in nanoseconds.
    pub max_nanos: u128,
}

impl ModuleStats {
    /// Record one call that took `elapsed`.
    pub fn record(&mut self, elapsed: Duration) {
        self.calls += 1;
        let nanos = elapsed.as_nanos();
        self.total_nanos += nanos;
        self.max_nanos = self.max_nanos.max(nanos);
    }

    /// Total wall-clock time across all calls.
    pub fn total(&self) -> Duration {
        duration_from_nanos(self.total_nanos)
    }

    /// Mean time per call (zero when never called).
    pub fn mean(&self) -> Duration {
        if self.calls == 0 {
            Duration::ZERO
        } else {
            duration_from_nanos(self.total_nanos / self.calls as u128)
        }
    }

    /// Slowest single call.
    pub fn max(&self) -> Duration {
        duration_from_nanos(self.max_nanos)
    }

    /// Fold another accumulator into this one (e.g. across runs).
    pub fn merge(&mut self, other: &ModuleStats) {
        self.calls += other.calls;
        self.total_nanos += other.total_nanos;
        self.max_nanos = self.max_nanos.max(other.max_nanos);
    }
}

fn duration_from_nanos(nanos: u128) -> Duration {
    Duration::from_nanos(nanos.min(u64::MAX as u128) as u64)
}

/// Counters of one parallel-engine run: how many worker threads ran, the
/// per-cell wall-clock distribution, steal traffic between workers, and
/// the end-to-end wall time — enough to compute pool occupancy (what
/// fraction of `workers × wall` was spent inside cells).
///
/// Lives next to [`Telemetry`] because it is the pool-level sibling of the
/// per-module stats: the simulator's parallel sweep engine fills one of
/// these per run and `pretium-sim::report` renders it with the same table
/// machinery.
#[derive(Debug, Clone, Default)]
pub struct PoolTelemetry {
    /// Worker threads the pool ran with (1 = serial in-line execution).
    pub workers: usize,
    /// Per-cell wall-clock accumulator (`calls` = cells executed).
    pub cells: ModuleStats,
    /// Cells taken from another worker's deque rather than the owner's.
    pub steals: u64,
    /// Label of the slowest cell (the occupancy tail).
    pub slowest_label: String,
    /// End-to-end wall-clock of the pool run, in nanoseconds.
    pub wall_nanos: u128,
}

impl PoolTelemetry {
    /// Fraction of total worker capacity (`workers × wall`) spent executing
    /// cells; 1.0 means no worker ever idled.
    pub fn occupancy(&self) -> f64 {
        let capacity = self.wall_nanos.saturating_mul(self.workers.max(1) as u128);
        if capacity == 0 {
            return 0.0;
        }
        self.cells.total_nanos as f64 / capacity as f64
    }

    /// End-to-end wall-clock of the pool run.
    pub fn wall(&self) -> Duration {
        duration_from_nanos(self.wall_nanos)
    }

    /// Fold a second pool run into this one (workers is kept at the max;
    /// wall clocks add, as runs are sequential).
    pub fn merge(&mut self, other: &PoolTelemetry) {
        self.workers = self.workers.max(other.workers);
        self.steals += other.steals;
        self.wall_nanos += other.wall_nanos;
        if other.cells.max_nanos > self.cells.max_nanos {
            self.slowest_label = other.slowest_label.clone();
        }
        self.cells.merge(&other.cells);
    }

    /// The pool counters as `(field, value)` rows for table rendering.
    pub fn rows(&self) -> Vec<(String, String)> {
        vec![
            ("workers".into(), self.workers.to_string()),
            (
                "cells (count / mean / max)".into(),
                format!(
                    "{} / {:.1?} / {:.1?}",
                    self.cells.calls,
                    self.cells.mean(),
                    self.cells.max()
                ),
            ),
            ("slowest cell".into(), self.slowest_label.clone()),
            ("steals".into(), self.steals.to_string()),
            ("wall".into(), format!("{:.1?}", self.wall())),
            ("occupancy".into(), format!("{:.1}%", 100.0 * self.occupancy())),
        ]
    }
}

/// All per-module counters of one Pretium instance.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    /// RA step 1: menu generation — snapshot quotes (folded in from each
    /// retired [`crate::AdmissionSnapshot`]'s atomic counters) plus the
    /// sequencer's live re-quotes.
    pub quote: ModuleStats,
    /// RA step 2: every purchase decision, rejections included (the
    /// admitted/rejected split lives in the counters below).
    pub accept: ModuleStats,
    /// SAM re-optimizations that actually solved.
    pub sam: ModuleStats,
    /// PC price recomputations that actually solved.
    pub pc: ModuleStats,
    /// Executed timesteps.
    pub execute: ModuleStats,
    /// Audit sweeps (see [`crate::audit::Auditor`]).
    pub audit: ModuleStats,
    /// Quotes that came back empty (no route or no sellable capacity).
    pub quotes_empty: u64,
    /// Batch tickets whose snapshot menu went stale (its slot footprint
    /// overlapped an earlier accept's reservations) and were re-quoted
    /// against live state by the sequencer.
    pub quotes_requoted: u64,
    /// Admission snapshots published (one per epoch with quote traffic).
    pub snapshots: u64,
    /// Purchases booked as contracts.
    pub accepts_admitted: u64,
    /// Purchases rejected (walked away, empty menu, or no route).
    pub accepts_rejected: u64,
    /// SAM calls skipped (disabled, past horizon, or no active contracts).
    pub sam_skipped: u64,
    /// SAM solves whose plan left a guarantee shortfall (§4.4 degradation).
    pub sam_shortfalls: u64,
    /// Units moved across all executed steps.
    pub units_executed: f64,
    /// Invariant violations the auditor recorded (0 when auditing is off).
    pub audit_violations: u64,
    /// SAM runs where the §4.4 fallback chain engaged (some guarantee had
    /// to be shed or relaxed because rerouting could not cover it).
    pub sam_degradations: u64,
    /// Guarantees shed wholly (lowest-λ-first stage of the fallback).
    pub guarantees_shed: u64,
    /// Guarantees relaxed partially (second stage of the fallback).
    pub guarantees_relaxed: u64,
    /// Planned units SAM moved off their previously planned (path, step)
    /// slot while a fault was active — the §4.4 rerouting volume.
    pub rerouted_units: f64,
    /// SAM runs executed while some link was degraded; with one fault this
    /// is the recovery time in timesteps.
    pub degraded_steps: u64,
    /// PC runs skipped because the look-back window was contaminated by a
    /// fault (prices frozen rather than learned from a broken topology).
    pub pc_freezes: u64,
    /// SAM steps answered by a certified localized (frozen-block) re-solve
    /// instead of the full LP (DESIGN.md §16).
    pub sam_localized: u64,
    /// Localized SAM attempts that fell back to the full LP (certificate
    /// failure, infeasible submodel, or everything affected).
    pub sam_localized_fallbacks: u64,
}

impl Telemetry {
    /// The telemetry as `(field, value)` rows for table rendering, timing
    /// rows first. Formatting-only concern; the raw fields stay public for
    /// programmatic use.
    pub fn rows(&self) -> Vec<(String, String)> {
        let timing = |name: &str, s: &ModuleStats| {
            (
                format!("{name} (calls / mean / max)"),
                format!("{} / {:.1?} / {:.1?}", s.calls, s.mean(), s.max()),
            )
        };
        vec![
            timing("quote", &self.quote),
            timing("accept", &self.accept),
            timing("run_sam", &self.sam),
            timing("run_pc", &self.pc),
            timing("execute_step", &self.execute),
            timing("audit", &self.audit),
            ("quotes empty".into(), self.quotes_empty.to_string()),
            ("quotes requoted".into(), self.quotes_requoted.to_string()),
            ("snapshots published".into(), self.snapshots.to_string()),
            ("accepts admitted".into(), self.accepts_admitted.to_string()),
            ("accepts rejected".into(), self.accepts_rejected.to_string()),
            ("sam skipped".into(), self.sam_skipped.to_string()),
            ("sam shortfalls".into(), self.sam_shortfalls.to_string()),
            ("units executed".into(), format!("{:.1}", self.units_executed)),
            ("audit violations".into(), self.audit_violations.to_string()),
            ("sam degradations".into(), self.sam_degradations.to_string()),
            ("guarantees shed".into(), self.guarantees_shed.to_string()),
            ("guarantees relaxed".into(), self.guarantees_relaxed.to_string()),
            ("rerouted units".into(), format!("{:.1}", self.rerouted_units)),
            ("degraded steps".into(), self.degraded_steps.to_string()),
            ("pc freezes".into(), self.pc_freezes.to_string()),
            ("sam localized".into(), self.sam_localized.to_string()),
            ("sam localized fallbacks".into(), self.sam_localized_fallbacks.to_string()),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_accumulate() {
        let mut s = ModuleStats::default();
        s.record(Duration::from_micros(10));
        s.record(Duration::from_micros(30));
        assert_eq!(s.calls, 2);
        assert_eq!(s.total(), Duration::from_micros(40));
        assert_eq!(s.mean(), Duration::from_micros(20));
        assert_eq!(s.max(), Duration::from_micros(30));
    }

    #[test]
    fn empty_stats_have_zero_mean() {
        let s = ModuleStats::default();
        assert_eq!(s.mean(), Duration::ZERO);
        assert_eq!(s.total(), Duration::ZERO);
    }

    #[test]
    fn merge_folds_counters() {
        let mut a = ModuleStats::default();
        a.record(Duration::from_micros(5));
        let mut b = ModuleStats::default();
        b.record(Duration::from_micros(7));
        a.merge(&b);
        assert_eq!(a.calls, 2);
        assert_eq!(a.max(), Duration::from_micros(7));
    }

    #[test]
    fn pool_occupancy_is_cell_time_over_capacity() {
        let mut p = PoolTelemetry { workers: 4, wall_nanos: 1_000, ..Default::default() };
        p.cells.record(Duration::from_nanos(1_000));
        p.cells.record(Duration::from_nanos(1_000));
        assert!((p.occupancy() - 0.5).abs() < 1e-9, "{}", p.occupancy());
        assert_eq!(p.rows().len(), 6);
    }

    #[test]
    fn pool_merge_tracks_slowest_cell() {
        let mut a = PoolTelemetry { workers: 2, slowest_label: "a".into(), ..Default::default() };
        a.cells.record(Duration::from_micros(5));
        let mut b = PoolTelemetry { workers: 4, slowest_label: "b".into(), ..Default::default() };
        b.cells.record(Duration::from_micros(9));
        a.merge(&b);
        assert_eq!(a.workers, 4);
        assert_eq!(a.slowest_label, "b");
        assert_eq!(a.cells.calls, 2);
    }

    #[test]
    fn rows_cover_every_counter() {
        let t = Telemetry::default();
        let rows = t.rows();
        assert_eq!(rows.len(), 23);
        assert!(
            rows.iter().all(|(k, _)| !k.starts_with("lp ")),
            "LP counters live in SessionStats"
        );
        assert!(rows.iter().any(|(k, _)| k == "sam localized"));
        assert!(rows.iter().any(|(k, _)| k == "sam localized fallbacks"));
        assert!(rows.iter().any(|(k, _)| k.starts_with("run_sam")));
        assert!(rows.iter().any(|(k, _)| k == "quotes requoted"));
        assert!(rows.iter().any(|(k, _)| k == "snapshots published"));
        assert!(rows.iter().any(|(k, _)| k == "audit violations"));
        assert!(rows.iter().any(|(k, _)| k == "guarantees shed"));
        assert!(rows.iter().any(|(k, _)| k == "rerouted units"));
        assert!(rows.iter().any(|(k, _)| k == "pc freezes"));
    }
}
