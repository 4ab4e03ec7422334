//! The `sim-estimate` workload: 1000-player packet simulations with the
//! per-player RTT estimator on (C = 50 Mbit/s, the rest at §4 values),
//! one replication at a time on one thread.
//!
//! The set-up builds the network several times before anything runs.
//! Each replication then builds its own network and runs it; the run is
//! one timed operation. Replications repeat with seeds drawn
//! from `--seed` until `--seconds` have passed; their estimator
//! summaries are pooled for the checks.

use crate::common::{peak_rss_mib, Ctx, Rng};
use crate::layers;
use crate::oracle;
use crate::stats;
use crate::trace::{ratio, Counters};
use fpsping::{RttModel, Scenario};
use fpsping_dist::Deterministic;
use fpsping_sim::calendar::{Calendar, CalendarKind, Scheduled};
use fpsping_sim::network::Network;
use fpsping_sim::{BurstSizing, NetworkConfig, SimTime};
use fpsping_traffic::estimator::DEFAULT_CHECKPOINTS;
use fpsping_traffic::{EstimatorBank, EstimatorSummary};
use std::hint::black_box;
use std::time::Instant;

const PLAYERS: usize = 1000;
const C_BPS: f64 = 50e6;
const TICK_MS: f64 = 40.0;
const K: u32 = 9;
const P_S: f64 = 125.0;
const P_C: f64 = 80.0;
/// Simulated length of one replication, and its warm-up. Each player
/// then sends ~125 pings per replication: the per-player P² tail
/// estimates the pooled p99 merges are biased low on short histories
/// (about −15 % at 3 s, −6 % at 6 s, −4 % at 8 s on seed 1).
const DURATION_S: f64 = 6.0;
const WARMUP_S: f64 = 1.0;
/// Set-ups per run; the median is reported.
const SETUPS: usize = 9;

fn config(seed: u64) -> NetworkConfig {
    let mut cfg =
        NetworkConfig::paper_scenario(PLAYERS, Box::new(Deterministic::new(P_S)), TICK_MS, seed);
    cfg.client_packet_bytes = Box::new(Deterministic::new(P_C));
    cfg.c_bps = C_BPS;
    cfg.burst_sizing = BurstSizing::ErlangBurst { k: K };
    cfg.duration = SimTime::from_secs(DURATION_S);
    cfg.warmup = SimTime::from_secs(WARMUP_S);
    cfg.estimate = true;
    cfg
}

/// The analytic counterpart of the simulated scenario.
fn scenario() -> Scenario {
    let mut s = Scenario::paper_default()
        .with_gamers(PLAYERS as u32)
        .with_erlang_order(K)
        .with_tick_ms(TICK_MS);
    s.c_bps = C_BPS;
    s.quantile = 0.99;
    s
}

pub fn run(ctx: &mut Ctx) -> Result<(), String> {
    let analytic = RttModel::build(&scenario())
        .map_err(|e| format!("analytic model of the simulated scenario: {e}"))?
        .rtt_quantile_ms();
    let mut rng = Rng::new(ctx.seed, 20);
    // Set-up: building the 1000-player network, several times before the
    // first replication runs (so every run measures it from the same
    // allocator state), median reported.
    let mut setups = Vec::new();
    for _ in 0..SETUPS {
        let cfg = config(rng.next_u64());
        let t = Instant::now();
        let net = ctx.tracer.span("sim.setup", |_| Network::new(cfg));
        setups.push(t.elapsed().as_secs_f64());
        drop(net);
    }
    let mut run_us = Vec::new();
    let mut rep_rates = Vec::new();
    let mut packets = 0u64;
    let mut run_s = 0.0;
    let (mut util_up, mut util_down) = (0.0, 0.0);
    let mut ping_replies = 0u64;
    let mut pooled: Option<EstimatorSummary> = None;
    let before = Counters::now();
    let deadline = ctx.deadline();
    let mut reps = 0u64;
    while reps == 0 || Instant::now() < deadline {
        reps += 1;
        let cfg = config(rng.next_u64());
        ctx.tracer.begin("sim.replication");
        let net = ctx.tracer.span("sim.build", |_| Network::new(cfg));
        let t = Instant::now();
        let m = ctx.tracer.span("sim.run", |_| net.run_measurements());
        let dt = t.elapsed();
        ctx.tracer.end();
        run_us.push(dt.as_nanos() as f64 / 1e3);
        run_s += dt.as_secs_f64();
        packets += m.packets_upstream + m.packets_downstream;
        rep_rates.push((m.packets_upstream + m.packets_downstream) as f64 / dt.as_secs_f64());
        util_up += m.up_utilization;
        util_down += m.down_utilization;
        ping_replies += m.ping_rtt.count();
        let est = m.estimator.ok_or("simulation ran without its estimator")?;
        match &mut pooled {
            Some(p) => p.merge(&est),
            None => pooled = Some(est),
        }
        ctx.tally.ok(1);
    }
    let delta = Counters::now().since(&before);
    let est = pooled.ok_or("no replication ran")?;
    let measured = est.pooled_p99.as_ref().map_or(f64::NAN, |q| q.estimate());
    let measured = ctx.checks.answer(measured);
    ctx.checks.check(oracle::check_sim_p99(measured, analytic));
    let n = reps as f64;
    ctx.checks.check(oracle::check_utilization(
        "upstream",
        util_up / n,
        oracle::offered_load(PLAYERS, P_C, TICK_MS, C_BPS),
    ));
    ctx.checks.check(oracle::check_utilization(
        "downstream",
        util_down / n,
        oracle::offered_load(PLAYERS, P_S, TICK_MS, C_BPS),
    ));
    let c = est.counters;
    ctx.checks.check(oracle::check_estimator(
        c.matches,
        c.late_replies,
        c.invalid_samples,
        ping_replies,
        PLAYERS as u64 * reps,
    ));
    layers::verify_zetas(ctx, &[scenario()]);
    ctx.notes.push(format!(
        "replications {reps}; {packets} packets in {run_s:.3} s; pooled p99 {measured:.4} ms vs \
         analytic {analytic:.4} ms; latency tail = p90 of {} replication times; set-ups (s) \
         {setups:?}",
        run_us.len(),
    ));
    ctx.e2e("setup_s", stats::median(&setups).unwrap_or(f64::NAN), "s");
    ctx.e2e(
        "work_per_s",
        stats::median(&rep_rates).unwrap_or(f64::NAN),
        "1/s",
    );
    ctx.e2e(
        "latency_p50_us",
        stats::median(&run_us).unwrap_or(f64::NAN),
        "us",
    );
    ctx.e2e(
        "latency_tail_us",
        stats::percentile(&run_us, 90.0).unwrap_or(f64::NAN),
        "us",
    );
    ctx.e2e("peak_rss_mib", peak_rss_mib(), "MiB");
    if ctx.traced() {
        let pkts = delta.sum(&["sim.packets.up", "sim.packets.down"]);
        ctx.layer(
            "sim.events_per_packet",
            ratio(delta.get("sim.events"), pkts),
        );
        ctx.layer(
            "sim.calendar_spills",
            ratio(delta.get("sim.calendar.spills"), n),
        );
        ctx.layer(
            "estimator.matches_per_player",
            ratio(delta.get("traffic.estimator.matches"), n * PLAYERS as f64),
        );
        let seed = ctx.seed;
        let ops = calendar_trace(seed);
        let pushes = ops.iter().filter(|o| matches!(o, Op::Push(_))).count();
        let per_op = ctx
            .tracer
            .time_calls("sim.calendar_replay", 5, 1, |_| replay(&ops));
        ctx.layer("sim.calendar_op_ns", per_op / (2 * pushes) as f64);
        let stream = ping_stream(seed);
        let pongs = stream
            .iter()
            .filter(|o| matches!(o, Ping::Pong { .. }))
            .count();
        let per_pong = ctx
            .tracer
            .time_calls("estimator.replay", 5, 1, |_| ingest(&stream));
        ctx.layer("estimator.pong_ns", per_pong / pongs as f64);
        let cells = vec![scenario(); 64];
        layers::queue_stages(ctx, &cells);
    }
    Ok(())
}

/// One calendar operation of the mirrored event loop (push at time ns,
/// or pop).
#[derive(Clone, Copy)]
enum Op {
    Push(u64),
    Pop,
}

#[derive(Debug, Clone, Copy)]
enum Ev {
    Emit(usize),
    UpDone,
    AggDone,
    Tick,
    SrvDone,
    DownDone,
}

/// Records the calendar push/pop sequence of an event loop with the
/// simulated scenario's shape: every player emits once per tick into its
/// uplink and the shared upstream link; every tick sends one packet per
/// player through the shared downstream link into the player's downlink.
/// Links serve one packet at a time and schedule their next completion
/// as the previous one ends, as the simulator's links do.
fn calendar_trace(seed: u64) -> Vec<Op> {
    let mut rng = Rng::new(seed, 21);
    let ser = |bytes: f64, bps: f64| SimTime::from_secs(8.0 * bytes / bps);
    let tick = SimTime::from_millis(TICK_MS);
    let end = SimTime::from_secs(DURATION_S);
    let mut cal: CalendarKind<Ev> =
        Calendar::Heap.build(4 * PLAYERS + 64, SimTime::from_millis(4.0 * TICK_MS));
    let mut ops = Vec::new();
    let mut seq = 0u64;
    let mut push = |cal: &mut CalendarKind<Ev>, ops: &mut Vec<Op>, time: SimTime, ev: Ev| {
        seq += 1;
        ops.push(Op::Push(time.0));
        cal.push(Scheduled { time, seq, ev });
    };
    for i in 0..PLAYERS {
        push(
            &mut cal,
            &mut ops,
            SimTime::from_millis(rng.unit() * TICK_MS),
            Ev::Emit(i),
        );
    }
    push(
        &mut cal,
        &mut ops,
        SimTime::from_millis(rng.unit() * TICK_MS),
        Ev::Tick,
    );
    // Packets queued at (or in service on) the shared up and down links.
    let (mut agg_q, mut srv_q) = (0usize, 0usize);
    loop {
        ops.push(Op::Pop);
        let Some(s) = cal.pop() else { break };
        if s.time > end {
            break;
        }
        let now = s.time;
        match s.ev {
            Ev::Emit(i) => {
                push(&mut cal, &mut ops, now + ser(P_C, 128_000.0), Ev::UpDone);
                push(&mut cal, &mut ops, now + tick, Ev::Emit(i));
            }
            Ev::UpDone => {
                agg_q += 1;
                if agg_q == 1 {
                    push(&mut cal, &mut ops, now + ser(P_C, C_BPS), Ev::AggDone);
                }
            }
            Ev::AggDone => {
                agg_q -= 1;
                if agg_q > 0 {
                    push(&mut cal, &mut ops, now + ser(P_C, C_BPS), Ev::AggDone);
                }
            }
            Ev::Tick => {
                if srv_q == 0 {
                    push(&mut cal, &mut ops, now + ser(P_S, C_BPS), Ev::SrvDone);
                }
                srv_q += PLAYERS;
                push(&mut cal, &mut ops, now + tick, Ev::Tick);
            }
            Ev::SrvDone => {
                srv_q -= 1;
                push(
                    &mut cal,
                    &mut ops,
                    now + ser(P_S, 1_024_000.0),
                    Ev::DownDone,
                );
                if srv_q > 0 {
                    push(&mut cal, &mut ops, now + ser(P_S, C_BPS), Ev::SrvDone);
                }
            }
            Ev::DownDone => {}
        }
    }
    ops
}

/// Replays a recorded trace through the bucket calendar; returns a
/// checksum of the popped sequence numbers.
fn replay(ops: &[Op]) -> u64 {
    let mut cal: CalendarKind<()> =
        Calendar::Bucket.build(4 * PLAYERS + 64, SimTime::from_millis(4.0 * TICK_MS));
    let (mut seq, mut sum) = (0u64, 0u64);
    for op in ops {
        match *op {
            Op::Push(t) => {
                seq += 1;
                cal.push(Scheduled {
                    time: SimTime(t),
                    seq,
                    ev: (),
                });
            }
            Op::Pop => {
                if let Some(s) = cal.pop() {
                    sum = sum.wrapping_add(s.seq);
                }
            }
        }
    }
    sum
}

/// One event of the estimator replay stream.
#[derive(Clone, Copy)]
enum Ping {
    Sent {
        player: usize,
        at_ms: f64,
    },
    Pong {
        player: usize,
        nth: usize,
        at_ms: f64,
        hold_ms: f64,
    },
}

/// A ping/pong stream with the simulated scenario's shape: each player
/// pings once per tick for the replication length; each reply returns
/// after the serialization floor plus an exponential queueing delay and
/// a uniform tick-alignment hold.
fn ping_stream(seed: u64) -> Vec<Ping> {
    let mut rng = Rng::new(seed, 22);
    let pings = (DURATION_S * 1e3 / TICK_MS) as usize;
    let mut ev = Vec::with_capacity(2 * PLAYERS * pings);
    for player in 0..PLAYERS {
        let phase = rng.unit() * TICK_MS;
        for nth in 0..pings {
            let at_ms = phase + nth as f64 * TICK_MS;
            let hold_ms = rng.unit() * TICK_MS;
            let rtt = 6.5 - 1.5 * (1.0 - rng.unit()).ln();
            ev.push(Ping::Sent { player, at_ms });
            ev.push(Ping::Pong {
                player,
                nth,
                at_ms: at_ms + rtt + hold_ms,
                hold_ms,
            });
        }
    }
    let at = |p: &Ping| match *p {
        Ping::Sent { at_ms, .. } | Ping::Pong { at_ms, .. } => at_ms,
    };
    ev.sort_by(|a, b| at(a).total_cmp(&at(b)));
    ev
}

/// Feeds a stream through a fresh estimator bank; returns total matches.
fn ingest(stream: &[Ping]) -> u64 {
    let pings = (DURATION_S * 1e3 / TICK_MS) as usize;
    let mut bank = EstimatorBank::new(PLAYERS, &DEFAULT_CHECKPOINTS);
    let mut seqs = vec![0u16; PLAYERS * pings];
    let mut sent = vec![0usize; PLAYERS];
    for p in stream {
        match *p {
            Ping::Sent { player, at_ms } => {
                seqs[player * pings + sent[player]] = bank.on_ping_sent(player, at_ms);
                sent[player] += 1;
            }
            Ping::Pong {
                player,
                nth,
                at_ms,
                hold_ms,
            } => bank.on_pong(player, seqs[player * pings + nth], at_ms, hold_ms),
        }
    }
    black_box(bank.player(0).samples())
}
