//! Admission front-end throughput at load 2.0: quotes/sec off one
//! published snapshot (serial walk vs the work-stealing pool) and
//! end-to-end accepts/sec through the sequencer.
//!
//! Writes `BENCH_admission_throughput.json` at the workspace root. Set
//! `ADMISSION_SMOKE=1` for the CI smoke mode: tiny scale, few samples,
//! plus a lenient pooled-vs-serial throughput floor (the pool only
//! interleaves on a single-core runner, so the floor guards against
//! pathological overhead, not for speedup), and no JSON (a smoke run
//! never clobbers recorded numbers).

use pretium_bench::{black_box, Harness};
use pretium_core::{Pretium, PretiumConfig, QuoteTicket, RequestParams};
use pretium_sim::par::run_cells_ok;
use pretium_sim::{run_pretium, Cell, ScenarioConfig, Variant};
use std::sync::Arc;

const POOL_JOBS: usize = 4;

fn main() {
    let smoke = std::env::var_os("ADMISSION_SMOKE").is_some();
    let sc = if smoke {
        let mut cfg = ScenarioConfig::tiny(21);
        cfg.load_factor = 2.0;
        cfg.build()
    } else {
        ScenarioConfig::evaluation(rand::DEFAULT_SEED, 2.0).build()
    };
    let mut h = Harness::new().sample_size(if smoke { 3 } else { 10 });

    // Warm a system to end-of-run state so the snapshot quotes against
    // non-trivial prices and reservations.
    let warmed = run_pretium(&sc, PretiumConfig::default(), Variant::Full).unwrap();
    let mut system = warmed.system;
    let params: Vec<RequestParams> = sc.requests.iter().map(RequestParams::from).collect();
    let n = params.len();
    let snap = system.snapshot();

    h.bench_function("admission_quotes_serial", |b| {
        b.iter(|| {
            for p in &params {
                black_box(snap.quote(p).capacity_bound());
            }
        });
    });
    h.bench_function("admission_quotes_pooled", |b| {
        b.iter(|| {
            let cells: Vec<Cell<QuoteTicket, std::convert::Infallible>> = params
                .iter()
                .map(|p| {
                    let snap = Arc::clone(&snap);
                    let p = p.clone();
                    Cell::new(format!("q/{:?}", p.id), move || Ok(snap.ticket(&p)))
                })
                .collect();
            black_box(run_cells_ok(POOL_JOBS, cells).0.len());
        });
    });
    system.absorb_quotes(&snap);
    drop(snap);

    // Pooled quotes must be the same menus, not just fast ones.
    {
        let snap = system.snapshot();
        let serial: Vec<_> = params.iter().map(|p| snap.quote(p)).collect();
        let cells: Vec<Cell<QuoteTicket, std::convert::Infallible>> = params
            .iter()
            .map(|p| {
                let snap = Arc::clone(&snap);
                let p = p.clone();
                Cell::new(format!("v/{:?}", p.id), move || Ok(snap.ticket(&p)))
            })
            .collect();
        let (pooled, _) = run_cells_ok(POOL_JOBS, cells);
        for (t, m) in pooled.iter().zip(&serial) {
            assert_eq!(&t.menu, m, "pooled menu diverged for {:?}", t.params.id);
        }
        system.absorb_quotes(&snap);
    }

    // Accepts/sec: admit the whole request stream end to end (quote +
    // sequenced booking) against a fresh system each sample.
    h.bench_function("admission_accepts", |b| {
        b.iter(|| {
            let mut fresh =
                Pretium::new(sc.net.clone(), sc.grid, sc.horizon, PretiumConfig::default());
            let mut admitted = 0usize;
            for (p, r) in params.iter().zip(&sc.requests) {
                let (_menu, id) =
                    fresh.admit_one(p, |menu| menu.optimal_purchase(r.value, r.demand));
                admitted += id.is_some() as usize;
            }
            black_box(admitted)
        });
    });

    let per_sec = |name: &str| n as f64 / h.get(name).unwrap().median().as_secs_f64();
    let q_serial = per_sec("admission_quotes_serial");
    let q_pooled = per_sec("admission_quotes_pooled");
    let accepts = per_sec("admission_accepts");
    let ratio = q_pooled / q_serial;
    let cores = std::thread::available_parallelism().map(|c| c.get()).unwrap_or(1);
    println!(
        "admission_throughput: {n} requests at load 2.0 — quotes {q_serial:.0}/s serial, \
         {q_pooled:.0}/s pooled ({ratio:.2}x, {cores} core(s)), accepts {accepts:.0}/s"
    );
    println!("BENCH\tadmission_quotes_per_sec_serial\t{q_serial:.1}");
    println!("BENCH\tadmission_quotes_per_sec_pooled\t{q_pooled:.1}");
    println!("BENCH\tadmission_accepts_per_sec\t{accepts:.1}");

    if smoke {
        // Pure reads off a shared snapshot must not serialize behind a
        // lock: even an interleaving single-core pool stays within a small
        // constant factor of the serial walk.
        assert!(
            ratio >= 0.2,
            "pooled quoting fell to {ratio:.2}x of serial — snapshot reads are contending"
        );
        println!("admission_throughput smoke: pooled-vs-serial floor holds");
        return;
    }

    // Hand-formatted (the workspace builds offline, without serde).
    let json = format!(
        "{{\n  \"bench\": \"admission_throughput\",\n  \"scale\": \"evaluation\",\n  \
         \"load_factor\": 2.0,\n  \"requests\": {n},\n  \"pool_jobs\": {POOL_JOBS},\n  \
         \"quotes_per_sec_serial\": {q_serial:.1},\n  \
         \"quotes_per_sec_pooled\": {q_pooled:.1},\n  \
         \"throughput_ratio\": {ratio:.3},\n  \
         \"accepts_per_sec\": {accepts:.1},\n  \"cores_available\": {cores}\n}}\n"
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_admission_throughput.json");
    std::fs::write(path, json).expect("write BENCH_admission_throughput.json");
    println!("wrote {path}");
}
