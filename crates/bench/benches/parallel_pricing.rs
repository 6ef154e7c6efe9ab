//! Deterministic parallel pricing: wall-clock across `pricing_jobs` on
//! colgen-scale schedule-shaped LPs, plus the per-phase pricing wall split
//! (serial-path vs fanned-out invocations) the solver now records.
//!
//! The contract under measurement is DESIGN.md §19: candidate scoring
//! fans out over fixed, size-derived sections reduced in section order,
//! so every job count must produce bitwise the same solve — the bench
//! asserts that before it reports a single number. Target on multi-core
//! hardware: >= 2x pricing-phase speedup at 4 workers on the large model.
//! On the 1-core container that records the honest numbers below, expect
//! <= 1.0x (the fan-out only adds scheduling overhead when every section
//! runs on the same core) — the recorded JSON documents the machine's
//! core count so the numbers read in context.
//!
//! Set `PRICING_PAR_SMOKE=1` for the CI smoke mode: one small model, a
//! bit-identity assertion across jobs in {1, 2, 4}, and a jobs=1 overhead
//! guard. The pre-change serial pricing loops are preserved verbatim as
//! the `jobs <= 1` branch — the only addition on that path is two
//! wall-clock stamps per pricing invocation — so the guard measures the
//! serial solve twice and requires the two medians to agree within 5%:
//! any systematic overhead beyond measurement noise would break it. No
//! JSON is written in smoke mode (a smoke run never clobbers recorded
//! numbers).

use pretium_bench::{black_box, Harness};
use pretium_lp::{
    Cmp, LinExpr, Model, Sense, SessionStats, SimplexOptions, SolveOptions, SolverSession,
    SolverTuning,
};

/// Deterministic xorshift64* stream in `[0, 1)`.
struct Gen(u64);

impl Gen {
    fn new(seed: u64) -> Self {
        Gen(seed.wrapping_mul(0x9E3779B97F4A7C15) | 1)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64)
    }

    fn index(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

const JOB_COUNTS: [usize; 3] = [1, 2, 4];

fn opts_for(pricing_jobs: usize) -> SolveOptions {
    SolveOptions {
        simplex: Some(SimplexOptions::default()),
        tuning: SolverTuning { pricing_jobs, ..SolverTuning::default() },
        ..SolveOptions::default()
    }
}

/// The schedule-shaped family at the width column generation reaches once
/// the restricted master has priced its universe in: per-(job, path,
/// timestep) flow variables, overlapping capacity rows, demand caps, and
/// softened guarantee floors.
fn schedule_lp(jobs: usize, paths: usize, steps: usize, links: usize, seed: u64) -> Model {
    let mut g = Gen::new(seed);
    let mut m = Model::new(Sense::Maximize);
    let mut x = vec![vec![Vec::with_capacity(steps); paths]; jobs];
    let weights: Vec<f64> = (0..jobs).map(|_| g.range(0.5, 3.0)).collect();
    for (j, wj) in weights.iter().enumerate() {
        for (p, xp) in x[j].iter_mut().enumerate() {
            let cost = g.range(0.0, 0.4);
            for t in 0..steps {
                xp.push(m.add_var(&format!("x_{j}_{p}_{t}"), 0.0, f64::INFINITY, wj - cost));
            }
        }
    }
    let mut crossing = vec![vec![Vec::new(); steps]; links];
    for (j, xj) in x.iter().enumerate() {
        for (p, xp) in xj.iter().enumerate() {
            let l1 = (j + p) % links;
            let l2 = (j + p + 1 + g.index(links - 1)) % links;
            for (t, &v) in xp.iter().enumerate() {
                crossing[l1][t].push(v);
                if l2 != l1 {
                    crossing[l2][t].push(v);
                }
            }
        }
    }
    for (l, per_step) in crossing.iter().enumerate() {
        for (t, vars) in per_step.iter().enumerate() {
            if vars.is_empty() {
                continue;
            }
            let mut e = LinExpr::new();
            for &v in vars {
                e.add_term(1.0, v);
            }
            m.add_row(&format!("cap_{l}_{t}"), e, Cmp::Le, g.range(1.0, 6.0));
        }
    }
    for (j, xj) in x.iter().enumerate() {
        let mut total = LinExpr::new();
        for xp in xj {
            for &v in xp {
                total.add_term(1.0, v);
            }
        }
        let demand = g.range(2.0, 8.0);
        m.add_row(&format!("dem_{j}"), total.clone(), Cmp::Le, demand);
        let s = m.add_var(&format!("short_{j}"), 0.0, f64::INFINITY, -10.0 * weights[j]);
        total.add_term(1.0, s);
        m.add_row(&format!("guar_{j}"), total, Cmp::Ge, demand * g.range(0.2, 0.8));
    }
    m
}

struct Record {
    model: &'static str,
    jobs: usize,
    vars: usize,
    rows: usize,
    wall_secs: f64,
    stats: SessionStats,
}

impl Record {
    /// Wall clock of the pricing phase, serial plus parallel.
    fn pricing_secs(&self) -> f64 {
        (self.stats.pricing_serial_nanos + self.stats.pricing_par_nanos) as f64 / 1e9
    }
}

fn main() {
    let smoke = std::env::var_os("PRICING_PAR_SMOKE").is_some();
    // (name, jobs, paths, steps, links). The non-smoke sizes match the
    // colgen bench's restricted-master widths; the smoke model is the
    // smallest that still exceeds the sectioning minimum (so the fan-out
    // genuinely engages rather than short-circuiting to serial).
    let sizes: &[(&str, usize, usize, usize, usize)] = if smoke {
        &[("smoke", 24, 3, 7, 8)]
    } else {
        &[("medium", 24, 3, 12, 10), ("large", 60, 3, 16, 14)]
    };
    let mut h = Harness::new().sample_size(if smoke { 5 } else { 10 });
    let mut records: Vec<Record> = Vec::new();

    for &(name, jobs, paths, steps, links) in sizes {
        let m = schedule_lp(jobs, paths, steps, links, 0xA11CE);
        // Bit-identity gate: every job count must reproduce the serial
        // solve exactly — objective, primal values, and duals to the bit.
        // A bench that compares speeds of different answers measures
        // nothing, and for this layer "different" is a correctness bug.
        let reference = SolverSession::new(m.clone()).solve(&opts_for(1)).expect("serial solve");
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        assert_eq!(reference.stats().pricing_par_sections, 0, "jobs=1 must take the serial path");
        for &pj in &JOB_COUNTS[1..] {
            let sol = SolverSession::new(m.clone())
                .solve(&opts_for(pj))
                .unwrap_or_else(|e| panic!("{name}/jobs={pj}: {e}"));
            assert_eq!(
                reference.objective().to_bits(),
                sol.objective().to_bits(),
                "{name}: objective diverged at pricing_jobs={pj}"
            );
            assert_eq!(
                bits(reference.values()),
                bits(sol.values()),
                "{name}: values diverged at pricing_jobs={pj}"
            );
            assert_eq!(
                bits(reference.duals()),
                bits(sol.duals()),
                "{name}: duals diverged at pricing_jobs={pj}"
            );
            assert!(
                sol.stats().pricing_par_sections > 0,
                "{name}: pricing_jobs={pj} never fanned out (model too narrow?)"
            );
        }

        for &pj in &JOB_COUNTS {
            let sol = SolverSession::new(m.clone()).solve(&opts_for(pj)).expect("counter solve");
            let bench_name = format!("parallel_pricing/{name}/jobs{pj}");
            h.bench_function(&bench_name, |b| {
                b.iter(|| {
                    let mut sess = SolverSession::new(m.clone());
                    black_box(sess.solve(&opts_for(pj)).unwrap().objective())
                });
            });
            let wall = h.get(&bench_name).map(|r| r.median().as_secs_f64()).unwrap_or(0.0);
            records.push(Record {
                model: name,
                jobs: pj,
                vars: m.num_vars(),
                rows: m.num_rows(),
                wall_secs: wall,
                stats: sol.stats(),
            });
        }
    }

    // Headline: jobs=1 vs jobs=4 on the largest model (full-solve wall and
    // the pricing-phase wall the counters isolate).
    let largest = sizes.last().unwrap().0;
    let pick = |pj: usize| {
        records.iter().find(|r| r.model == largest && r.jobs == pj).expect("record exists")
    };
    let (serial, par4) = (pick(1), pick(4));
    let wall_speedup = serial.wall_secs / par4.wall_secs.max(1e-12);
    let pricing_speedup = serial.pricing_secs() / par4.pricing_secs().max(1e-12);
    println!(
        "parallel_pricing {largest}: jobs=4 vs jobs=1 -> {wall_speedup:.2}x wall, \
         {pricing_speedup:.2}x pricing phase ({} sections, {} steals at jobs=4; \
         target >= 2x pricing on multi-core, <= 1.0x expected on 1 core)",
        par4.stats.pricing_par_sections, par4.stats.pricing_par_steals
    );
    println!("BENCH\tparallel_pricing_wall_speedup\t{wall_speedup:.3}");
    println!("BENCH\tparallel_pricing_phase_speedup\t{pricing_speedup:.3}");

    if smoke {
        // Overhead guard: the serial branch is the pre-change pricing loop
        // verbatim (its only addition is two wall-clock stamps per pricing
        // invocation), so two independent measurements of the jobs=1 solve
        // must agree within 5% — systematic overhead beyond noise breaks
        // this. Compare per-sample minima, not medians: scheduler noise
        // only ever adds time, so the minimum is the robust estimator on
        // a loaded CI core.
        let m = schedule_lp(sizes[0].1, sizes[0].2, sizes[0].3, sizes[0].4, 0xA11CE);
        let mut ho = Harness::new().sample_size(11);
        for pass in ["a", "b"] {
            let bench_name = format!("parallel_pricing/overhead/{pass}");
            ho.bench_function(&bench_name, |b| {
                b.iter(|| {
                    let mut sess = SolverSession::new(m.clone());
                    black_box(sess.solve(&opts_for(1)).unwrap().objective())
                });
            });
        }
        let wall = |pass: &str| {
            ho.get(&format!("parallel_pricing/overhead/{pass}"))
                .map(|r| r.samples.iter().min().expect("samples").as_secs_f64())
                .expect("overhead record")
        };
        let (a, b) = (wall("a"), wall("b"));
        let drift = (a - b).abs() / a.min(b).max(1e-12);
        assert!(
            drift <= 0.05,
            "jobs=1 overhead guard: serial minima drifted {:.1}% (a={a:.6}s, b={b:.6}s)",
            drift * 100.0
        );
        println!(
            "parallel_pricing smoke: bit-identity holds across jobs {:?}, \
             serial overhead drift {:.2}% (cap 5%)",
            JOB_COUNTS,
            drift * 100.0
        );
        return;
    }

    // Hand-formatted JSON (the workspace builds offline, without serde).
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let mut rows = String::new();
    for (i, r) in records.iter().enumerate() {
        let sep = if i + 1 == records.len() { "" } else { "," };
        rows.push_str(&format!(
            "    {{ \"model\": \"{}\", \"pricing_jobs\": {}, \"vars\": {}, \"rows\": {}, \
             \"iterations\": {}, \"par_sections\": {}, \"par_steals\": {}, \
             \"wall_secs\": {:.6}, \"pricing_serial_secs\": {:.6}, \
             \"pricing_par_secs\": {:.6} }}{sep}\n",
            r.model,
            r.jobs,
            r.vars,
            r.rows,
            r.stats.iterations,
            r.stats.pricing_par_sections,
            r.stats.pricing_par_steals,
            r.wall_secs,
            r.stats.pricing_serial_nanos as f64 / 1e9,
            r.stats.pricing_par_nanos as f64 / 1e9
        ));
    }
    let json = format!(
        "{{\n  \"bench\": \"parallel_pricing\",\n  \"cores\": {cores},\n  \
         \"largest_model\": \"{largest}\",\n  \
         \"wall_speedup_jobs4_over_jobs1\": {wall_speedup:.3},\n  \
         \"pricing_phase_speedup_jobs4_over_jobs1\": {pricing_speedup:.3},\n  \
         \"target\": \"pricing phase >= 2x at 4 workers on multi-core; <= 1.0x expected on 1 core\",\n  \
         \"results\": [\n{rows}  ]\n}}\n"
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_parallel_pricing.json");
    std::fs::write(path, json).expect("write BENCH_parallel_pricing.json");
    println!("wrote {path}");
}
