//! Per-layer timings: public calls of the queue, engine and serve layers,
//! timed from outside on a workload's own inputs, plus the counter
//! ratios read from `fpsping_obs` deltas.

use crate::common::Ctx;
use crate::oracle::{self, Cx};
use crate::trace::{ratio, Counters};
use fpsping::{Engine, EngineConfig, RttModel, Scenario, SharedCache};
use fpsping_dist::Deterministic;
use fpsping_queue::{DEk1, DekSolution, Mg1, PositionDelay};
use std::hint::black_box;
use std::time::Instant;

/// Continuation block length of the engine's sweeps (cells per chain).
const CHAIN: usize = 16;

/// Orders cells the way `Engine::rtt_batch` does — by (K, T, load) —
/// so that chained solves continue along load within one Erlang order.
fn chain_order(cells: &mut [Scenario]) {
    cells.sort_by_key(|s| {
        (
            s.erlang_order,
            s.t_ms.to_bits(),
            s.downlink_load().to_bits(),
        )
    });
}

/// Checks the eq.-26 roots of the program's D/E_K/1 solutions for the
/// feasible ones of `cells`, solved cold.
pub fn verify_zetas(ctx: &mut Ctx, cells: &[Scenario]) {
    for s in cells {
        let rho = s.downlink_load();
        if let Ok(sol) = DekSolution::solve(s.erlang_order, rho) {
            let z: Vec<Cx> = sol
                .zetas()
                .iter()
                .map(|z| Cx { re: z.re, im: z.im })
                .collect();
            ctx.checks
                .check(oracle::check_zetas(s.erlang_order, rho, &z));
        }
    }
}

fn elapsed_ns(start: Instant) -> f64 {
    start.elapsed().as_nanos() as f64
}

/// Times the queue stages of every feasible cell, chained as the engine
/// chains them, and records the `queue.*_us` medians. Every solution's
/// roots also go through the eq.-26 residual check.
pub fn queue_stages(ctx: &mut Ctx, cells: &[Scenario]) {
    let mut cells: Vec<Scenario> = cells
        .iter()
        .filter(|s| s.validate().is_ok())
        .cloned()
        .collect();
    chain_order(&mut cells);
    let (mut solve, mut weights, mut pole, mut combine, mut quantile) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for block in cells.chunks(CHAIN) {
        let mut prev: Option<DekSolution> = None;
        let mut hint = None;
        for s in block {
            let k = s.erlang_order;
            let t_s = s.t_ms / 1e3;
            let mean_service = s.mean_burst_service_s();
            let rho = mean_service / t_s;
            let r = ctx.tracer.span("queue.cell", |tr| {
                let t = Instant::now();
                let sol = tr.span("queue.dek1_solve", |_| {
                    DekSolution::solve_warm(k, rho, prev.as_ref())
                })?;
                solve.push(elapsed_ns(t));
                let t = Instant::now();
                let down = tr.span("queue.dek1_weights", |_| {
                    DEk1::from_solution(&sol, mean_service, t_s)
                })?;
                weights.push(elapsed_ns(t));
                let lambda = s.gamer_count() / (s.effective_client_interval_ms() / 1e3);
                let tau = 8.0 * s.client_packet_bytes / s.c_bps;
                let t = Instant::now();
                let gamma = tr.span("queue.mg1_pole", |_| {
                    Mg1::new(lambda, Box::new(Deterministic::new(tau)))?.dominant_pole()
                })?;
                pole.push(elapsed_ns(t));
                let position = PositionDelay::uniform(k, k as f64 / mean_service)?;
                let up = Mg1::with_dominant_pole(lambda, Box::new(Deterministic::new(tau)), gamma)?;
                let t = Instant::now();
                let model = tr.span("queue.combine", |_| {
                    RttModel::from_parts_batch(s.clone(), down, position, Some(up))
                })?;
                combine.push(elapsed_ns(t));
                let t = Instant::now();
                let q = tr.span("queue.quantile", |_| model.rtt_quantile_ms_fast(hint));
                quantile.push(elapsed_ns(t));
                black_box(q);
                hint = Some(q);
                Ok::<_, fpsping::QueueError>(sol)
            });
            match r {
                Ok(sol) => {
                    let z: Vec<Cx> = sol
                        .zetas()
                        .iter()
                        .map(|z| Cx { re: z.re, im: z.im })
                        .collect();
                    ctx.checks.check(oracle::check_zetas(k, rho, &z));
                    prev = Some(sol);
                }
                Err(e) => ctx.checks.check(Err(oracle::Failed {
                    check: "stage_solve",
                    detail: format!("K={k} rho={rho}: feasible cell failed a stage: {e}"),
                })),
            }
        }
    }
    let med_us = |v: &[f64]| crate::stats::median(v).unwrap_or(0.0) / 1e3;
    ctx.layer("queue.dek1_solve_us", med_us(&solve));
    ctx.layer("queue.dek1_weights_us", med_us(&weights));
    ctx.layer("queue.mg1_pole_us", med_us(&pole));
    ctx.layer("queue.combine_us", med_us(&combine));
    ctx.layer("queue.quantile_us", med_us(&quantile));
}

/// The `num.*` and `queue.*` counter ratios over `cells` solved cells.
pub fn solver_counters(ctx: &mut Ctx, d: &Counters, cells: f64) {
    let steps = d.sum(&[
        "queue.dek1.zeta.warm_newton_steps",
        "queue.dek1.zeta.newton_polish_steps",
    ]);
    ctx.layer("num.zeta_newton_steps_per_cell", ratio(steps, cells));
    ctx.layer(
        "num.euler_inversions_per_cell",
        ratio(d.get("num.laplace.euler.inversions"), cells),
    );
    ctx.layer(
        "num.euler_evals_per_cell",
        ratio(d.get("num.laplace.euler.transform_evals"), cells),
    );
    ctx.layer(
        "num.brent_iters_per_cell",
        ratio(d.get("num.roots.brent.iterations"), cells),
    );
    ctx.layer(
        "queue.expansion_skipped_per_cell",
        ratio(
            d.get("queue.combine.expansion.skipped_ill_conditioned"),
            cells,
        ),
    );
    let warm = d.get("queue.dek1.zeta.warm_solves");
    ctx.layer(
        "queue.warm_accept_ratio",
        ratio(warm, warm + d.get("queue.dek1.zeta.warm_fallbacks")),
    );
    ctx.layer(
        "queue.quantile_fast_fallback_ratio",
        ratio(
            d.get("queue.combine.quantile_fast.fallbacks"),
            d.get("queue.combine.quantile_fast.calls"),
        ),
    );
}

/// The engine's whole-cell memo hit ratio and evictions per request.
pub fn memo_counters(ctx: &mut Ctx, d: &Counters, requests: f64) {
    let hits = d.get("engine.cache.rtt.hits");
    ctx.layer(
        "engine.memo_hit_ratio",
        ratio(hits, hits + d.get("engine.cache.rtt.misses")),
    );
    let evictions = d.sum(&[
        "engine.cache.dek.evictions",
        "engine.cache.pole.evictions",
        "engine.cache.rtt.evictions",
    ]);
    ctx.layer("engine.evictions_per_req", ratio(evictions, requests));
}

/// Records the median `Engine::rtt_batch` time per request (µs) over
/// `batches`, on `engine` as the caller prepared it (warm or cold).
pub fn rtt_batch_us(ctx: &mut Ctx, engine: &Engine, batches: &[Vec<Scenario>]) {
    let mut per_req = Vec::new();
    for b in batches {
        let t = Instant::now();
        ctx.tracer
            .span("engine.rtt_batch", |_| black_box(engine.rtt_batch(b)));
        per_req.push(elapsed_ns(t) / 1e3 / b.len().max(1) as f64);
    }
    let v = crate::stats::median(&per_req).unwrap_or(0.0);
    ctx.layer("engine.rtt_batch_us_per_req", v);
}

/// A serving engine configured as `fpsping-serve` configures its own.
pub fn serving_engine(cache_entries: usize) -> Engine {
    Engine::new(EngineConfig {
        jobs: 1,
        cache_entries,
        ..EngineConfig::default()
    })
}

/// The memo key of a cell: (K, T bits, load bits).
pub fn memo_key(s: &Scenario) -> (u32, u64, u64) {
    (
        s.erlang_order,
        s.t_ms.to_bits(),
        s.downlink_load().to_bits(),
    )
}

/// `SharedCache::get` on `lookups` (all present) and
/// `SharedCache::get_or_insert` of `inserts` into a cache of `capacity`
/// entries that is already full, so every insert evicts.
pub fn memo_ops(
    ctx: &mut Ctx,
    lookups: &[(u32, u64, u64)],
    inserts: &[(u32, u64, u64)],
    capacity: usize,
) {
    let hot: SharedCache<(u32, u64, u64), f64> = SharedCache::new(16, 0);
    for (i, k) in lookups.iter().enumerate() {
        hot.get_or_insert(*k, i as f64);
    }
    let n = lookups.len().max(1);
    let get = ctx
        .tracer
        .time_calls("engine.memo_get", 64, 1024, |i| hot.get(&lookups[i % n]));
    ctx.layer("engine.memo_get_ns", get);
    let cold: SharedCache<(u32, u64, u64), f64> = SharedCache::new(16, capacity);
    for i in 0..capacity as u64 {
        cold.get_or_insert((0, i, u64::MAX), 0.0);
    }
    let m = inserts.len().max(1);
    let insert = ctx
        .tracer
        .time_calls("engine.memo_insert", 16, m.min(1024), |i| {
            cold.get_or_insert(inserts[i % m], i as f64)
        });
    ctx.layer("engine.memo_insert_ns", insert);
}

/// Times `protocol::decode_request` over `frames` and
/// `protocol::encode_response` over `responses`; returns the decode time
/// (ns/req).
pub fn codec(ctx: &mut Ctx, frames: &[u8], responses: &[fpsping_serve::Response]) -> f64 {
    use fpsping_serve::protocol::{decode_request, encode_response, REQ_FRAME_LEN};
    let n = (frames.len() / REQ_FRAME_LEN).max(1);
    let decode = ctx.tracer.time_calls("serve.decode", 64, 1024, |i| {
        let at = (i % n) * REQ_FRAME_LEN;
        decode_request(&frames[at..at + REQ_FRAME_LEN])
    });
    let m = responses.len().max(1);
    let encode = ctx.tracer.time_calls("serve.encode", 64, 1024, |i| {
        encode_response(&responses[i % m])
    });
    ctx.layer("serve.decode_ns_per_req", decode);
    ctx.layer("serve.encode_ns_per_req", encode);
    decode
}
