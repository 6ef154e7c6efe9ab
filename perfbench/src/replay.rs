//! The instrumented Pretium replay: the same public calls, in the same
//! order, as `pretium_sim::runner::run_pretium_cold`, each timed from
//! outside and bracketed by reads of `Pretium::lp_stats()` and
//! `Pretium::telemetry()`. Failures are counted by cause and the replay
//! goes on, where the runner would abort.

use crate::trace::Tracer;
use pretium_baselines::Outcome;
use pretium_core::{Pretium, PretiumConfig, QuoteTicket, RequestParams, Sequencer};
use pretium_lp::{SessionStats, SolveError};
use pretium_net::UsageTracker;
use pretium_sim::runner::{run_pretium_cold, Variant};
use pretium_sim::{FaultPlan, Scenario, ScenarioConfig};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Request index of fault-plan surge traffic (not part of the scenario's
/// outcome), as in the runner.
const SURGE: usize = usize::MAX;

/// `b - a` (floored at 0) for the LP counters the benchmark reports; the
/// others stay 0.
fn lp_delta(a: &SessionStats, b: &SessionStats) -> SessionStats {
    SessionStats {
        solves: b.solves.saturating_sub(a.solves),
        cold_starts: b.cold_starts.saturating_sub(a.cold_starts),
        warm_dual: b.warm_dual.saturating_sub(a.warm_dual),
        iterations: b.iterations.saturating_sub(a.iterations),
        pricing_scans: b.pricing_scans.saturating_sub(a.pricing_scans),
        bland_pivots: b.bland_pivots.saturating_sub(a.bland_pivots),
        cache_hits: b.cache_hits.saturating_sub(a.cache_hits),
        refactors: b.refactors.saturating_sub(a.refactors),
        basis_nnz: b.basis_nnz.saturating_sub(a.basis_nnz),
        factor_nnz: b.factor_nnz.saturating_sub(a.factor_nnz),
        ft_updates: b.ft_updates.saturating_sub(a.ft_updates),
        pivot_rejections: b.pivot_rejections.saturating_sub(a.pivot_rejections),
        pricing_serial_nanos: b.pricing_serial_nanos.saturating_sub(a.pricing_serial_nanos),
        ..SessionStats::default()
    }
}

/// Everything measured around the layer calls of one or more passes.
#[derive(Debug)]
pub struct Rec {
    pub trace: Tracer,
    /// Wall-clock of each measured pass and the windows it simulated.
    pub pass_s: Vec<f64>,
    pub windows: usize,
    pub sam_ms: Vec<f64>,
    pub sam_event_calls: u64,
    pub snapshot_us: Vec<f64>,
    pub ticket_us: Vec<f64>,
    pub admit_us: Vec<f64>,
    pub absorb_s: f64,
    pub pc_s: Vec<f64>,
    pub exec_s: f64,
    pub faults_s: f64,
    pub capacity_events: u64,
    /// LP work done inside SAM and PC calls.
    pub lp_sam: SessionStats,
    pub lp_pc: SessionStats,
    pub requoted: u64,
    pub degradations: u64,
    pub shortfalls: u64,
    pub pc_freezes: u64,
    pub attempted: u64,
    /// Failed operations by cause (`layer: error`).
    pub failures: BTreeMap<String, u64>,
}

impl Rec {
    pub fn new(trace: Tracer) -> Self {
        Rec {
            trace,
            pass_s: Vec::new(),
            windows: 0,
            sam_ms: Vec::new(),
            sam_event_calls: 0,
            snapshot_us: Vec::new(),
            ticket_us: Vec::new(),
            admit_us: Vec::new(),
            absorb_s: 0.0,
            pc_s: Vec::new(),
            exec_s: 0.0,
            faults_s: 0.0,
            capacity_events: 0,
            lp_sam: SessionStats::default(),
            lp_pc: SessionStats::default(),
            requoted: 0,
            degradations: 0,
            shortfalls: 0,
            pc_freezes: 0,
            attempted: 0,
            failures: BTreeMap::new(),
        }
    }

    /// Fold another record's measurements into this one; hands back its
    /// spans for the caller to place.
    pub fn absorb(&mut self, other: Rec) -> Tracer {
        self.pass_s.extend(&other.pass_s);
        self.windows += other.windows;
        self.sam_ms.extend(&other.sam_ms);
        self.sam_event_calls += other.sam_event_calls;
        self.snapshot_us.extend(&other.snapshot_us);
        self.ticket_us.extend(&other.ticket_us);
        self.admit_us.extend(&other.admit_us);
        self.absorb_s += other.absorb_s;
        self.pc_s.extend(&other.pc_s);
        self.exec_s += other.exec_s;
        self.faults_s += other.faults_s;
        self.capacity_events += other.capacity_events;
        self.lp_sam.merge(other.lp_sam);
        self.lp_pc.merge(other.lp_pc);
        self.requoted += other.requoted;
        self.degradations += other.degradations;
        self.shortfalls += other.shortfalls;
        self.pc_freezes += other.pc_freezes;
        other.trace
    }

    /// Scale every timing to the reference machine, for passes run at
    /// machine speed `speed` (see `crate::normalize`).
    pub fn scale(&mut self, speed: f64) {
        for v in [&mut self.pass_s, &mut self.sam_ms, &mut self.pc_s] {
            v.iter_mut().for_each(|x| *x *= speed);
        }
        for v in [&mut self.snapshot_us, &mut self.ticket_us, &mut self.admit_us] {
            v.iter_mut().for_each(|x| *x *= speed);
        }
        for x in [&mut self.absorb_s, &mut self.exec_s, &mut self.faults_s] {
            *x *= speed;
        }
        for lp in [&mut self.lp_sam, &mut self.lp_pc] {
            lp.pricing_serial_nanos = (lp.pricing_serial_nanos as f64 * speed) as u64;
        }
    }

    pub fn failed(&self) -> u64 {
        self.failures.values().sum()
    }

    fn fail(&mut self, cause: String) {
        *self.failures.entry(cause).or_insert(0) += 1;
    }

    /// Count one attempted operation and, when it failed, its cause.
    fn count(&mut self, layer: &str, failure: Option<String>) {
        self.attempted += 1;
        if let Some(cause) = failure {
            self.fail(format!("{layer}: {cause}"));
        }
    }

    /// Time `f` as a leaf span and return its result with the seconds.
    fn leaf<R>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> R) -> (R, f64) {
        let t0 = Instant::now();
        let r = f();
        let t1 = Instant::now();
        self.trace.leaf(name, id, t0, t1);
        (r, (t1 - t0).as_secs_f64())
    }

    /// `Pretium::run_sam` outside the sequencer (a capacity event).
    fn event_sam(&mut self, system: &mut Pretium, t: usize, usage: &UsageTracker) {
        let (lp0, tel0) = (system.lp_stats(), Counters::of(system));
        let (r, s) = self
            .leaf("sam", t as u64, || catch_unwind(AssertUnwindSafe(|| system.run_sam(t, usage))));
        self.sam_ms.push(s * 1e3);
        self.sam_event_calls += 1;
        self.lp_sam.merge(lp_delta(&lp0, &system.lp_stats()));
        self.absorb_counters(tel0, Counters::of(system));
        self.count("sam", cause(&r));
    }

    fn pc(&mut self, system: &mut Pretium, t: usize) {
        let (lp0, tel0) = (system.lp_stats(), Counters::of(system));
        let (r, s) =
            self.leaf("pc", t as u64, || catch_unwind(AssertUnwindSafe(|| system.run_pc(t))));
        self.pc_s.push(s);
        self.lp_pc.merge(lp_delta(&lp0, &system.lp_stats()));
        self.absorb_counters(tel0, Counters::of(system));
        self.count("pc", cause(&r));
    }

    fn absorb_counters(&mut self, a: Counters, b: Counters) {
        self.requoted += b.requoted - a.requoted;
        self.degradations += b.degradations - a.degradations;
        self.shortfalls += b.shortfalls - a.shortfalls;
        self.pc_freezes += b.pc_freezes - a.pc_freezes;
    }
}

/// Why a caught call failed: its error or a panic.
fn cause<T, E: std::fmt::Debug>(r: &std::thread::Result<Result<T, E>>) -> Option<String> {
    match r {
        Ok(Ok(_)) => None,
        Ok(Err(e)) => Some(format!("{e:?}")),
        Err(_) => Some("panic".to_string()),
    }
}

fn panicked<T>(r: &std::thread::Result<T>) -> Option<String> {
    r.as_ref().err().map(|_| "panic".to_string())
}

/// The telemetry counters read around calls.
#[derive(Clone, Copy)]
struct Counters {
    requoted: u64,
    degradations: u64,
    shortfalls: u64,
    pc_freezes: u64,
}

impl Counters {
    fn of(system: &Pretium) -> Self {
        let t = system.telemetry();
        Counters {
            requoted: t.quotes_requoted,
            degradations: t.sam_degradations,
            shortfalls: t.sam_shortfalls,
            pc_freezes: t.pc_freezes,
        }
    }
}

/// A prepared replay: the scenario, its fault plan, and the price
/// pattern learned by the warm-up pass.
pub struct World {
    pub scenario: Scenario,
    pub plan: Option<FaultPlan>,
    pub pattern: Vec<Vec<f64>>,
}

/// The warm-up of `run_pretium_faulted`: one healthy pass from cold-start
/// prices, whose last-window price pattern (per edge, per step in window)
/// seeds the measured passes.
pub fn warm_up(scenario: &Scenario, cfg: &PretiumConfig) -> Result<Vec<Vec<f64>>, SolveError> {
    let warm = run_pretium_cold(scenario, cfg.clone(), Variant::Full, None, None)?;
    let w = scenario.grid.steps_per_window;
    let last = scenario.horizon - w;
    Ok(scenario
        .net
        .edge_ids()
        .map(|e| (0..w).map(|s| warm.system.state().price(e, last + s)).collect())
        .collect())
}

/// Build one world the way `run_pretium` does: the scenario, then a
/// warm-up on that same scenario, each under its set-up span.
pub fn prepare(
    config: &ScenarioConfig,
    cfg: &PretiumConfig,
    trace: &mut Tracer,
    id: u64,
) -> Result<World, SolveError> {
    let open = trace.open("setup.scenario", id);
    let scenario = config.build();
    trace.close(open);
    let open = trace.open("setup.warmup", id);
    let pattern = warm_up(&scenario, cfg);
    trace.close(open);
    Ok(World { scenario, plan: None, pattern: pattern? })
}

/// What one pass produced.
pub struct PassOut {
    pub outcome: Outcome,
    pub system: Pretium,
    /// `(welfare bits, admitted, delivered-units bits, LP iterations)`.
    pub fingerprint: (u64, usize, u64, u64),
    pub welfare: f64,
}

/// One measured pass over `world`, mirroring the runner's step loop:
/// faults, PC at window starts, the RA batch (snapshot, tickets, absorb,
/// sequenced admits), SAM at the sequencer's cadence, then execute.
pub fn pass(world: &World, cfg: &PretiumConfig, id: u64, rec: &mut Rec) -> PassOut {
    let sc = &world.scenario;
    let plan = world.plan.as_ref();
    let iterations0 = rec.lp_sam.iterations + rec.lp_pc.iterations;
    let started = Instant::now();
    let root = rec.trace.open("pass", id);
    let mut system = Pretium::new(sc.net.clone(), sc.grid, sc.horizon, cfg.clone());
    system.seed_prices(|e, s| world.pattern[e.index()][s]);
    let mut usage = UsageTracker::new(sc.net.num_edges(), sc.horizon);
    let n = sc.requests.len();
    let mut outcome = Outcome::new(Variant::Full.label(), n, sc.net.num_edges(), sc.horizon);
    let mut contract_req: Vec<usize> = Vec::new();
    let mut next_req = 0usize;
    let sam_every = cfg.sam_every.max(1);

    for t in 0..sc.horizon {
        let step = rec.trace.open("step", t as u64);
        if let Some(plan) = plan {
            let (r, s) = rec.leaf("faults.apply", t as u64, || {
                catch_unwind(AssertUnwindSafe(|| plan.apply_step(&mut system, t)))
            });
            rec.faults_s += s;
            rec.count("faults", panicked(&r));
            if plan.capacity_event_at(t) {
                rec.capacity_events += 1;
                rec.event_sam(&mut system, t, &usage);
            }
        }
        if sc.grid.step_in_window(t) == 0 && t > 0 {
            rec.pc(&mut system, t);
        }

        let mut batch: Vec<(RequestParams, f64, f64, usize)> = Vec::new();
        while next_req < n && sc.requests[next_req].arrival == t {
            let r = &sc.requests[next_req];
            batch.push((RequestParams::from(r), r.value, r.demand, next_req));
            next_req += 1;
        }
        if let Some(plan) = plan {
            for r in plan.surges_at(t) {
                batch.push((RequestParams::from(r), r.value, r.demand, SURGE));
            }
        }
        let mut tickets: Vec<Option<QuoteTicket>> = Vec::with_capacity(batch.len());
        if !batch.is_empty() {
            let (snap, s) = rec.leaf("ra.snapshot", t as u64, || system.snapshot());
            rec.snapshot_us.push(s * 1e6);
            for (params, ..) in &batch {
                let (r, s) = rec.leaf("ra.ticket", params.id.0, || {
                    catch_unwind(AssertUnwindSafe(|| snap.ticket(params)))
                });
                rec.ticket_us.push(s * 1e6);
                rec.count("ra.ticket", panicked(&r));
                tickets.push(r.ok());
            }
            let ((), s) = rec.leaf("ra.absorb", t as u64, || system.absorb_quotes(&snap));
            rec.absorb_s += s;
        }

        let (lp0, tel0) = (system.lp_stats(), Counters::of(&system));
        let mut seq = Sequencer::new(&mut system);
        for (ticket, &(ref params, value, demand, ri)) in tickets.iter().zip(&batch) {
            let Some(ticket) = ticket else { continue };
            let (r, s) = rec.leaf("ra.admit", params.id.0, || {
                catch_unwind(AssertUnwindSafe(|| {
                    seq.admit(ticket, |menu| menu.optimal_purchase(value, demand))
                        .map(|id| seq.contract(id).payment)
                }))
            });
            rec.admit_us.push(s * 1e6);
            rec.count("ra.admit", panicked(&r));
            if let Ok(Some(payment)) = r {
                if ri != SURGE {
                    outcome.admitted[ri] = true;
                    outcome.payments[ri] = payment;
                }
                contract_req.push(ri);
            }
        }
        if t % sam_every == 0 {
            let realized = &usage;
            let (r, s) = rec.leaf("sam", t as u64, || {
                catch_unwind(AssertUnwindSafe(move || seq.finish(t, realized)))
            });
            rec.sam_ms.push(s * 1e3);
            rec.count("sam", cause(&r));
        } else {
            drop(seq);
        }
        rec.lp_sam.merge(lp_delta(&lp0, &system.lp_stats()));
        rec.absorb_counters(tel0, Counters::of(&system));

        let (r, s) = rec.leaf("exec", t as u64, || {
            catch_unwind(AssertUnwindSafe(|| system.execute_step(t, &mut usage)))
        });
        rec.exec_s += s;
        rec.count("exec", panicked(&r));
        rec.trace.close(step);
    }
    rec.trace.close(root);
    rec.pass_s.push(started.elapsed().as_secs_f64());
    rec.windows += sc.horizon / sc.grid.steps_per_window;

    for (ci, &ri) in contract_req.iter().enumerate() {
        if ri != SURGE {
            outcome.delivered[ri] = system.contracts()[ci].delivered;
        }
    }
    outcome.usage = usage;
    let welfare = outcome.welfare(&sc.requests, &sc.net, &sc.grid, cfg.cost_scale);
    let iterations = rec.lp_sam.iterations + rec.lp_pc.iterations - iterations0;
    let fingerprint = (
        welfare.to_bits(),
        outcome.admitted.iter().filter(|&&a| a).count(),
        outcome.delivered.iter().sum::<f64>().to_bits(),
        iterations,
    );
    PassOut { outcome, system, fingerprint, welfare }
}
