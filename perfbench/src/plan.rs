//! The `plan-cold` workload: the planner path, in process, no network.
//!
//! Each repetition builds a fresh engine (`jobs = 1`) and runs one cold
//! `Engine::rtt_surface` over a K × load grid, then a fresh engine answers
//! `Engine::max_load` for K = 2, 9 and 20 at one budget, each query timed
//! on its own. Surfaces alternate the tick between 40 and 60 ms; budgets
//! cycle through 50 ms and three seeded ones. Repetitions repeat until
//! `--seconds` have passed.

use crate::common::{peak_rss_mib, Ctx, Rng};
use crate::layers;
use crate::oracle;
use crate::stats;
use crate::trace::{ratio, Counters};
use fpsping::{Engine, EngineConfig, RttModel, Scenario};
use std::time::Instant;

/// Erlang orders of the surface grid.
const KS: [u32; 7] = [2, 4, 6, 9, 12, 16, 20];
/// Loads per K column (the last one is past saturation).
const LOADS: usize = 96;
/// Erlang orders of the dimensioning queries (the paper's three).
const DIM_KS: [u32; 3] = [2, 9, 20];
/// Set-ups per run; the median is reported.
const SETUPS: usize = 9;

fn engine() -> Engine {
    Engine::new(EngineConfig::with_jobs(1))
}

/// The load axis: `LOADS - 1` jittered stable loads ascending in
/// (0.02, 0.90], then one infeasible load in [1, 1.05).
fn load_grid(rng: &mut Rng) -> Vec<f64> {
    let span = oracle::MAX_STABLE_LOAD - 0.02;
    let mut loads: Vec<f64> = (0..LOADS - 1)
        .map(|i| 0.02 + span * (i as f64 + rng.unit()) / (LOADS - 1) as f64)
        .collect();
    loads.push(1.0 + 0.05 * rng.unit());
    loads
}

/// Budgets (ms): the paper's 50 ms and three seeded ones within 2 ms
/// of 40, 70 and 100 ms (narrow windows keep the query mix, and so the
/// latency distribution, the same from seed to seed).
fn budgets(rng: &mut Rng) -> Vec<f64> {
    let mut b = vec![50.0];
    b.extend([40.0, 70.0, 100.0].map(|c| c - 2.0 + 4.0 * rng.unit()));
    b
}

pub fn run(ctx: &mut Ctx) -> Result<(), String> {
    let seed = ctx.seed;
    // Set-up: inputs, a fresh engine and its first cell.
    let mut setups = Vec::new();
    let mut inputs = (Vec::new(), Vec::new());
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        let mut rng = Rng::new(seed, 10);
        inputs = (load_grid(&mut rng), budgets(&mut rng));
        let e = engine();
        std::hint::black_box(e.rtt_batch(&[Scenario::paper_default()]));
        setups.push(t0.elapsed().as_secs_f64());
    }
    let (loads, budgets) = inputs;
    let mut cells = 0u64;
    let mut surface_s = 0.0;
    let mut rep_rates = Vec::new();
    let mut dim_us: Vec<f64> = Vec::new();
    let mut surface_counters = Counters::default();
    let mut dim_counters = Counters::default();
    let mut first_surface: Vec<Scenario> = Vec::new();
    let deadline = ctx.deadline();
    let mut reps = 0u64;
    while reps == 0 || Instant::now() < deadline {
        let t_ms = if reps.is_multiple_of(2) { 40.0 } else { 60.0 };
        reps += 1;
        let base = Scenario::paper_default().with_tick_ms(t_ms);
        let before = Counters::now();
        let t = Instant::now();
        let e = engine();
        let surface = ctx
            .tracer
            .span("engine.rtt_surface", |_| e.rtt_surface(&base, &KS, &loads));
        let dt = t.elapsed().as_secs_f64();
        surface_s += dt;
        cells += (KS.len() * loads.len()) as u64;
        rep_rates.push((KS.len() * loads.len()) as f64 / dt);
        let mid = Counters::now();
        surface_counters.add(&mid.since(&before));
        let e = engine();
        let b = budgets[(reps as usize - 1) % budgets.len()];
        let mut answers = Vec::new();
        for &k in &DIM_KS {
            let base = Scenario::paper_default().with_erlang_order(k);
            let t = Instant::now();
            let r = ctx.tracer.span("engine.max_load", |_| e.max_load(&base, b));
            dim_us.push(t.elapsed().as_nanos() as f64 / 1e3);
            answers.push((k, r));
        }
        dim_counters.add(&Counters::now().since(&mid));
        ctx.tally
            .ok((KS.len() * loads.len() + answers.len()) as u64);
        check_surface(ctx, &loads, &surface);
        for (k, r) in answers {
            match r {
                Ok(d) => ctx
                    .checks
                    .check(oracle::check_dimension(k, 40.0, b, d.rho_max, d.n_max)),
                Err(e) => ctx.checks.check(Err(oracle::Failed {
                    check: "dimension_paper_band",
                    detail: format!("K={k} budget {b} ms: {e}"),
                })),
            }
        }
        if first_surface.is_empty() {
            for &k in &KS {
                first_surface.extend(
                    loads
                        .iter()
                        .map(|&l| base.clone().with_erlang_order(k).with_load(l)),
                );
            }
        }
    }
    check_reference(ctx);
    let mut zeta_rng = Rng::new(seed, 12);
    let zeta_cells: Vec<Scenario> = (0..16)
        .map(|_| first_surface[zeta_rng.below(first_surface.len())].clone())
        .collect();
    layers::verify_zetas(ctx, &zeta_cells);
    let queries = dim_us.len() as f64;
    ctx.notes.push(format!(
        "repetitions {reps}; {cells} cold cells in {surface_s:.3} s; {} dimensioning queries \
         ({:.1} queries/s; highest percentile with >= 10 beyond: p{}); set-ups (s) {setups:?}",
        dim_us.len(),
        queries / (dim_us.iter().sum::<f64>() / 1e6),
        stats::highest_supported_percentile(dim_us.len()).map_or(50.0, |p| p.0)
    ));
    ctx.e2e("setup_s", stats::median(&setups).unwrap_or(f64::NAN), "s");
    ctx.e2e(
        "work_per_s",
        stats::median(&rep_rates).unwrap_or(f64::NAN),
        "1/s",
    );
    ctx.e2e(
        "latency_p50_us",
        stats::median(&dim_us).unwrap_or(f64::NAN),
        "us",
    );
    ctx.e2e(
        "latency_tail_us",
        stats::percentile(&dim_us, 90.0).unwrap_or(f64::NAN),
        "us",
    );
    ctx.e2e("peak_rss_mib", peak_rss_mib(), "MiB");
    if ctx.traced() {
        layers::solver_counters(ctx, &surface_counters, cells as f64);
        layers::memo_counters(ctx, &surface_counters, cells as f64);
        let probes = dim_counters.sum(&["engine.cache.rtt.hits", "engine.cache.rtt.misses"]);
        ctx.layer("engine.probes_per_dimension", ratio(probes, queries));
        ctx.layer("engine.max_load_us", stats::median(&dim_us).unwrap_or(0.0));
        layers::queue_stages(ctx, &first_surface);
        let e = engine();
        let batches: Vec<Vec<Scenario>> = first_surface.chunks(LOADS).map(<[_]>::to_vec).collect();
        layers::rtt_batch_us(ctx, &e, &batches);
    }
    Ok(())
}

/// Checks one surface: feasibility and floor per cell, monotone in load
/// per K and in K per load.
fn check_surface(ctx: &mut Ctx, loads: &[f64], surface: &[Vec<Option<f64>>]) {
    for (li, row) in surface.iter().enumerate() {
        for &v in row {
            ctx.checks.check(oracle::check_feasibility(loads[li], v));
            if let Some(v) = v {
                ctx.checks.check(oracle::check_above_floor(loads[li], v));
            }
        }
        let mut pts: Vec<(u32, f64)> = KS
            .iter()
            .zip(row)
            .filter_map(|(&k, v)| v.map(|v| (k, v)))
            .collect();
        ctx.checks
            .check(oracle::check_monotone_in_k(loads[li], &mut pts));
    }
    for (ki, &k) in KS.iter().enumerate() {
        let mut pts: Vec<(f64, f64)> = loads
            .iter()
            .zip(surface)
            .filter_map(|(&l, row)| row[ki].map(|v| (l, v)))
            .collect();
        ctx.checks
            .check(oracle::check_monotone_in_load(k, &mut pts));
    }
}

/// The reference cells through a fresh engine's `rtt_surface`
/// (the planner path) against the serial, bit-exact path.
fn check_reference(ctx: &mut Ctx) {
    for t_ms in oracle::REFERENCE_TICKS_MS {
        let base = Scenario::paper_default().with_tick_ms(t_ms);
        let (ks, loads) = (oracle::REFERENCE_KS, oracle::REFERENCE_LOADS);
        let surface = engine().rtt_surface(&base, &ks, &loads);
        for (li, &load) in loads.iter().enumerate() {
            for (ki, &k) in ks.iter().enumerate() {
                let s = base.clone().with_erlang_order(k).with_load(load);
                let serial = RttModel::build(&s).ok().map(|m| m.rtt_quantile_ms());
                let served = surface[li][ki].map(|v| ctx.checks.answer(v));
                ctx.checks.check(oracle::check_near_serial(
                    &format!("K={k} T={t_ms} load={load}"),
                    served,
                    serial,
                ));
            }
        }
    }
}
