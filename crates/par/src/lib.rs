//! # pretium-par — the workspace's work-stealing pool
//!
//! The workspace's bit-exact determinism contract (DESIGN.md §19) demands
//! that a worker count be a pure wall-clock knob: the same inputs must
//! produce the same bits at `jobs = 1`, `2`, or `8`. Generic work-stealing
//! breaks that for floating-point reductions, because the *grouping* of
//! partial results then depends on which thread finishes first.
//!
//! This crate holds the one deque/steal scheduler in the workspace,
//! [`run_tasks`], and the two primitives that make parallel candidate
//! scoring deterministic on top of it:
//!
//! 1. **Fixed, size-derived sections.** [`section_len`] depends only on the
//!    range length — never on the worker count — so the same range is
//!    always cut at the same boundaries and every per-section computation
//!    sees the same operands in the same order.
//! 2. **Section-order reduction.** [`map_sections`] returns per-section
//!    results indexed by section, and callers fold them in that order.
//!    Threads may *execute* sections in any order (work stealing included);
//!    they can never *reduce* in completion order.
//!
//! [`run_tasks`] keeps one `VecDeque` of task indices per worker, seeded
//! round-robin; owners pop the front, idle workers steal from the back of
//! the busiest sibling, and a worker leaves once every deque is empty.
//! Panics propagate through [`std::thread::scope`]. `pretium-sim::par`'s
//! evaluation-cell engine is the pool's other front end.
//!
//! The pool lives in its own bottom-level crate (std only) because its
//! consumers — `pretium-lp`'s simplex pricing, `pretium-core`'s column
//! generation and `pretium-sim`'s sweep engine — span the whole dependency
//! graph.

use std::collections::VecDeque;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Upper bound on the number of sections a range is cut into.
pub const SECTION_TARGET: usize = 64;

/// Lower bound on a section's length: below this, per-section bookkeeping
/// (a mutex'd result slot, a deque entry) dominates the scoring work.
pub const SECTION_MIN: usize = 256;

/// Length of every section (the last may be shorter) for a range of `len`
/// candidates. A pure function of `len` — never of the worker count — so
/// section boundaries, and with them every floating-point grouping, are
/// identical for any `jobs` value.
pub fn section_len(len: usize) -> usize {
    if len == 0 {
        return 1;
    }
    len.div_ceil(SECTION_TARGET).max(SECTION_MIN).min(len)
}

/// Number of sections a range of `len` candidates is cut into.
pub fn section_count(len: usize) -> usize {
    if len == 0 {
        0
    } else {
        len.div_ceil(section_len(len))
    }
}

/// Counters of one sectioned run: how many sections were scored, how many
/// ran on a worker other than the one their deque was seeded to (steal
/// traffic), and the end-to-end wall clock. `sections` is deterministic
/// for a fixed `(len, jobs)` pair; `steals` and `wall_nanos` are timing
/// artifacts and must never feed a determinism comparison.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ParStats {
    /// Sections executed.
    pub sections: u64,
    /// Sections executed by a worker that stole them from a sibling.
    pub steals: u64,
    /// End-to-end wall clock of the run, in nanoseconds.
    pub wall_nanos: u128,
}

impl ParStats {
    /// Fold a second run into this one.
    pub fn merge(&mut self, other: ParStats) {
        self.sections += other.sections;
        self.steals += other.steals;
        self.wall_nanos += other.wall_nanos;
    }
}

/// Map `f` over the fixed sections of `0..len` and return the results in
/// **section order** (index `s` covers `s*section_len(len) ..`), plus run
/// counters. `f` receives `(section_index, candidate_range)`.
///
/// With `jobs <= 1` (or a single section) the sections run inline on the
/// caller's thread, in order, with no thread machinery at all; otherwise
/// `min(jobs, sections)` scoped workers execute them with work stealing.
/// Either way the returned vector is ordered by section, so a caller's
/// fold is associative-grouping-identical across worker counts.
pub fn map_sections<T, F>(len: usize, jobs: usize, f: F) -> (Vec<T>, ParStats)
where
    T: Send,
    F: Fn(usize, Range<usize>) -> T + Sync,
{
    let t0 = Instant::now();
    let sl = section_len(len);
    let count = section_count(len);
    let mut stats = ParStats { sections: count as u64, ..ParStats::default() };
    let range = |s: usize| (s * sl)..((s + 1) * sl).min(len);
    if jobs <= 1 || count <= 1 {
        let out = (0..count).map(|s| f(s, range(s))).collect();
        stats.wall_nanos = t0.elapsed().as_nanos();
        return (out, stats);
    }
    let results: Vec<Mutex<Option<T>>> = (0..count).map(|_| Mutex::new(None)).collect();
    stats.steals = run_tasks(count, jobs, &|s| {
        *results[s].lock().expect("result slot") = Some(f(s, range(s)));
    });
    let out = results
        .into_iter()
        .map(|m| m.into_inner().expect("result slot").expect("section executed"))
        .collect();
    stats.wall_nanos = t0.elapsed().as_nanos();
    (out, stats)
}

/// Run `f` over the fixed sections of `data`, handing each invocation its
/// own disjoint `&mut` chunk: `f(section_index, start_offset, chunk)` where
/// `chunk = &mut data[start .. start + chunk.len()]`. The write-side twin
/// of [`map_sections`] for fills like a reduced-cost recompute, where each
/// section owns its output range and no reduction happens at all.
pub fn for_each_section<T, F>(data: &mut [T], jobs: usize, f: F) -> ParStats
where
    T: Send,
    F: Fn(usize, usize, &mut [T]) + Sync,
{
    let t0 = Instant::now();
    let len = data.len();
    let sl = section_len(len);
    let count = section_count(len);
    let mut stats = ParStats { sections: count as u64, ..ParStats::default() };
    if jobs <= 1 || count <= 1 {
        for (s, chunk) in data.chunks_mut(sl).enumerate() {
            f(s, s * sl, chunk);
        }
        stats.wall_nanos = t0.elapsed().as_nanos();
        return stats;
    }
    type Slot<'a, T> = Mutex<Option<(usize, &'a mut [T])>>;
    let tasks: Vec<Slot<'_, T>> =
        data.chunks_mut(sl).enumerate().map(|(s, c)| Mutex::new(Some((s * sl, c)))).collect();
    stats.steals = run_tasks(count, jobs, &|s| {
        let (start, chunk) = tasks[s].lock().expect("task slot").take().expect("section unclaimed");
        f(s, start, chunk);
    });
    stats.wall_nanos = t0.elapsed().as_nanos();
    stats
}

/// Execute tasks `0..count` across `min(jobs, count)` workers with
/// per-worker deques and back-of-the-busiest stealing, and return the
/// number of stolen tasks. `exec` runs each task exactly once. With one
/// worker the tasks run inline on the caller's thread, in order, with no
/// thread machinery.
///
/// Task-to-worker assignment (and therefore the steal count) is timing
/// dependent, which is exactly why callers collect results by task index
/// instead of arrival order. A panic in `exec` ends its worker; the others
/// drain the deques and the scope re-raises the panic.
pub fn run_tasks(count: usize, jobs: usize, exec: &(impl Fn(usize) + Sync)) -> u64 {
    let workers = jobs.min(count);
    if workers <= 1 {
        (0..count).for_each(exec);
        return 0;
    }
    let deques: Vec<Mutex<VecDeque<usize>>> =
        (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
    for s in 0..count {
        deques[s % workers].lock().expect("seed deque").push_back(s);
    }
    let steals = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for w in 0..workers {
            let (deques, steals) = (&deques, &steals);
            scope.spawn(move || {
                while let Some(task) = next_task(deques, w, steals) {
                    exec(task);
                }
            });
        }
    });
    steals.into_inner()
}

/// The next task for worker `me`: the front of its own deque, else the
/// back of the sibling with the most queued work. `None` means every
/// deque was empty; tasks are never re-queued, so they stay empty and the
/// worker may leave.
fn next_task(deques: &[Mutex<VecDeque<usize>>], me: usize, steals: &AtomicU64) -> Option<usize> {
    let lock = |i: usize| deques[i].lock().expect("deque");
    if let Some(task) = lock(me).pop_front() {
        return Some(task);
    }
    loop {
        let (queued, victim) = (0..deques.len())
            .filter(|&i| i != me)
            .map(|i| (lock(i).len(), i))
            .fold((0, me), |best, cur| if cur.0 > best.0 { cur } else { best });
        if queued == 0 {
            return None;
        }
        // The victim may have drained since it was measured; look again.
        if let Some(task) = lock(victim).pop_back() {
            steals.fetch_add(1, Ordering::Relaxed);
            return Some(task);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn section_len_is_size_derived_and_bounded() {
        assert_eq!(section_len(0), 1);
        assert_eq!(section_count(0), 0);
        // Small ranges: one section of the whole range.
        assert_eq!(section_len(10), 10);
        assert_eq!(section_count(10), 1);
        assert_eq!(section_len(SECTION_MIN), SECTION_MIN);
        // Mid ranges: SECTION_MIN-long sections.
        assert_eq!(section_len(1_000), SECTION_MIN);
        assert_eq!(section_count(1_000), 4);
        // Large ranges: at most SECTION_TARGET sections.
        for len in [50_000usize, 123_457, 1_000_000] {
            assert!(section_count(len) <= SECTION_TARGET, "len={len}");
            assert!(section_len(len) >= SECTION_MIN);
        }
        // Sections tile the range exactly.
        for len in [1usize, 255, 256, 257, 999, 1_000, 48_211] {
            let (sl, count) = (section_len(len), section_count(len));
            assert!(sl * count >= len && sl * (count - 1) < len, "len={len}");
        }
    }

    #[test]
    fn map_sections_is_identical_across_job_counts() {
        // A reduction that is sensitive to FP grouping: summing 1/(i+1) in
        // section order must give the same bits for any worker count.
        let len = 10_000;
        let sum_of = |jobs: usize| {
            let (parts, stats) =
                map_sections(len, jobs, |_, r| r.map(|i| 1.0_f64 / (i as f64 + 1.0)).sum::<f64>());
            assert_eq!(stats.sections, section_count(len) as u64);
            parts.iter().sum::<f64>().to_bits()
        };
        let serial = sum_of(1);
        for jobs in [2, 3, 8, 16] {
            assert_eq!(serial, sum_of(jobs), "jobs={jobs} diverged");
        }
    }

    #[test]
    fn map_sections_orders_results_by_section() {
        let len = 4 * SECTION_MIN + 7;
        let (idx, _) = map_sections(len, 4, |s, r| (s, r.start, r.end));
        for (i, &(s, start, end)) in idx.iter().enumerate() {
            assert_eq!(s, i);
            assert_eq!(start, i * section_len(len));
            assert_eq!(end, ((i + 1) * section_len(len)).min(len));
        }
    }

    #[test]
    fn for_each_section_fills_disjoint_chunks() {
        let len = 3 * SECTION_MIN + 11;
        let mut serial = vec![0.0_f64; len];
        for_each_section(&mut serial, 1, |_, start, chunk| {
            for (off, v) in chunk.iter_mut().enumerate() {
                *v = ((start + off) as f64).sqrt();
            }
        });
        let mut par = vec![0.0_f64; len];
        let stats = for_each_section(&mut par, 4, |_, start, chunk| {
            for (off, v) in chunk.iter_mut().enumerate() {
                *v = ((start + off) as f64).sqrt();
            }
        });
        assert_eq!(stats.sections, section_count(len) as u64);
        assert_eq!(
            serial.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            par.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn inline_path_spawns_no_threads_and_counts_no_steals() {
        let (_, stats) = map_sections(10_000, 1, |_, r| r.len());
        assert_eq!(stats.steals, 0);
        // A single section also stays inline regardless of jobs.
        let (_, stats) = map_sections(SECTION_MIN, 8, |_, r| r.len());
        assert_eq!(stats.sections, 1);
        assert_eq!(stats.steals, 0);
    }

    #[test]
    fn empty_range_runs_nothing() {
        let (out, stats) = map_sections(0, 4, |_, _| 1u8);
        assert!(out.is_empty());
        assert_eq!(stats.sections, 0);
        let stats = for_each_section::<f64, _>(&mut [], 4, |_, _, _| panic!("no sections"));
        assert_eq!(stats.sections, 0);
    }

    #[test]
    fn stats_merge_accumulates() {
        let mut a = ParStats { sections: 2, steals: 1, wall_nanos: 10 };
        a.merge(ParStats { sections: 3, steals: 0, wall_nanos: 5 });
        assert_eq!(a, ParStats { sections: 5, steals: 1, wall_nanos: 15 });
    }

    #[test]
    fn run_tasks_runs_every_task_exactly_once() {
        for (count, jobs) in [(0, 4), (1, 4), (3, 8), (100, 1), (100, 3)] {
            let runs: Vec<AtomicU64> = (0..count).map(|_| AtomicU64::new(0)).collect();
            let steals = run_tasks(count, jobs, &|t| {
                runs[t].fetch_add(1, Ordering::Relaxed);
            });
            assert!(runs.iter().all(|r| r.load(Ordering::Relaxed) == 1), "{count}/{jobs}");
            assert!(steals <= count as u64);
        }
    }

    #[test]
    fn worker_panic_propagates() {
        let caught = std::panic::catch_unwind(|| {
            map_sections(4 * SECTION_MIN, 2, |s, _| {
                if s == 2 {
                    panic!("section failure");
                }
                0u8
            })
        });
        assert!(caught.is_err());
    }
}
