//! The `serve-hot` and `serve-churn` workloads: one client thread on one
//! connection against a server started in-process, closed loop.
//!
//! A run is made of whole rounds. Each round sends pipelined blocks of
//! 1024 binary frames (throughput), then ping-pong requests with one
//! outstanding (latency); on `serve-hot` it ends with the first-frame
//! probe below. Rounds repeat until `--seconds` have passed.

use crate::common::{peak_rss_mib, Ctx, Rng};
use crate::layers;
use crate::oracle;
use crate::stats;
use crate::trace::{ratio, Counters};
use fpsping::{RttModel, Scenario};
use fpsping_serve::protocol::{
    decode_response, encode_request, Request, Response, REQ_FRAME_LEN, RESP_FRAME_LEN,
    STATUS_INFEASIBLE, STATUS_OK,
};
use fpsping_serve::{ServeConfig, Server};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Frames per pipelined block.
const BLOCK: usize = 1024;
/// A read that waits this long means the server stalled.
const STALL: Duration = Duration::from_secs(10);
/// How long the first-frame probe waits for its answer.
const PROBE_WAIT: Duration = Duration::from_millis(100);
/// Id of the probe's only frame: its low byte is 0x7B, `{`.
const PROBE_ID: u64 = 123;
/// Set-ups per run; the median is reported.
const SETUPS: usize = 3;

/// Shape of one serve workload.
struct Shape {
    hot: bool,
    cache_entries: usize,
    blocks_per_round: usize,
    pings_per_round: usize,
}

const HOT: Shape = Shape {
    hot: true,
    cache_entries: 1 << 18,
    blocks_per_round: 256,
    pings_per_round: 4000,
};

const CHURN: Shape = Shape {
    hot: false,
    cache_entries: 256,
    blocks_per_round: 8,
    pings_per_round: 1000,
};

/// Erlang orders of the hot table.
const HOT_KS: [u32; 8] = [2, 3, 5, 7, 9, 12, 16, 20];
/// Tick intervals (ms) of the hot table.
const HOT_TS: [f64; 2] = [40.0, 60.0];
/// Loads per (K, T) in the hot table: 8 × 2 × 256 = 4096 cells.
const HOT_LOADS: usize = 256;
/// Zipf exponent of the hot query mix.
const ZIPF_S: f64 = 1.1;

fn scenario(k: u32, t_ms: f64, load: f64) -> Scenario {
    Scenario::paper_default()
        .with_erlang_order(k)
        .with_tick_ms(t_ms)
        .with_load(load)
}

fn frame(id: u64, s: &Scenario) -> [u8; REQ_FRAME_LEN] {
    encode_request(&Request::rtt(id, s.erlang_order, s.t_ms, s.downlink_load()))
}

/// Hot-table loads past saturation (the last ones of each (K, T) row).
const HOT_INFEASIBLE: usize = 6;

/// The 4096 hot cells, (K, T)-major with loads ascending. The load grid
/// is shared by every (K, T) and jittered by the seed: stable loads in
/// (0.02, 0.90], then a few in [1, 1.05) that must be answered
/// infeasible. Loads in (0.90, 1) are left out: see [`crate::oracle::MAX_STABLE_LOAD`].
fn hot_table(seed: u64) -> Vec<Scenario> {
    let mut rng = Rng::new(seed, 1);
    let stable = HOT_LOADS - HOT_INFEASIBLE;
    let loads: Vec<f64> = (0..HOT_LOADS)
        .map(|i| {
            let u = rng.unit();
            if i < stable {
                0.02 + (oracle::MAX_STABLE_LOAD - 0.02) * (i as f64 + u) / stable as f64
            } else {
                1.0 + 0.05 * ((i - stable) as f64 + u) / HOT_INFEASIBLE as f64
            }
        })
        .collect();
    let mut cells = Vec::with_capacity(HOT_KS.len() * HOT_TS.len() * HOT_LOADS);
    for &k in &HOT_KS {
        for &t in &HOT_TS {
            cells.extend(loads.iter().map(|&l| scenario(k, t, l)));
        }
    }
    cells
}

/// `n` draws of cell indices: Zipf(1.1) over ranks, ranks mapped to
/// cells by a seeded permutation.
fn zipf_stream(seed: u64, cells: usize, n: usize) -> Vec<usize> {
    let mut rng = Rng::new(seed, 2);
    let perm = rng.permutation(cells);
    let mut cdf: Vec<f64> = (1..=cells).map(|r| (r as f64).powf(-ZIPF_S)).collect();
    let mut acc = 0.0;
    for w in cdf.iter_mut() {
        acc += *w;
        *w = acc;
    }
    (0..n)
        .map(|_| {
            let u = rng.unit() * acc;
            perm[cdf.partition_point(|&c| c < u).min(cells - 1)]
        })
        .collect()
}

/// Never-repeating cells: K cycles 2..=20, loads follow a golden-ratio
/// sequence from a seeded start over [0.05, 0.90), and every 128th cell
/// is past saturation (load in [1, 1.1)).
struct Churn {
    i: u64,
    start: f64,
}

impl Churn {
    fn new(seed: u64) -> Self {
        Self {
            i: 0,
            start: Rng::new(seed, 3).unit(),
        }
    }

    fn next(&mut self) -> Scenario {
        const PHI: f64 = 0.618_033_988_749_894_8;
        let i = self.i;
        self.i += 1;
        let u = (self.start + i as f64 * PHI).fract();
        let load = if i % 128 == 127 {
            1.0 + 0.1 * u
        } else {
            0.05 + (oracle::MAX_STABLE_LOAD - 0.05) * u
        };
        scenario(2 + (i % 19) as u32, 40.0, load)
    }
}

/// One client connection with read and write timeouts.
struct Client {
    stream: TcpStream,
}

impl Client {
    fn connect(addr: SocketAddr, timeout: Duration) -> std::io::Result<Self> {
        let stream = TcpStream::connect_timeout(&addr, STALL)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(STALL))?;
        Ok(Self { stream })
    }

    fn exchange(&mut self, req: &[u8], resp: &mut [u8]) -> std::io::Result<()> {
        self.stream.write_all(req)?;
        self.stream.read_exact(resp)
    }
}

/// The expected answer of one request: the served value is compared
/// with it after the exchange.
#[derive(Clone, Copy)]
enum Expect {
    /// Answer must be within tolerance of this value (`None`:
    /// infeasible).
    Value(Option<f64>),
    /// Check feasibility and the floor.
    Fresh { load: f64 },
}

/// Checks one response frame against its request.
fn check_response(ctx: &mut Ctx, id: u64, buf: &[u8], expect: Expect) {
    let r = match decode_response(buf) {
        Ok(r) => r,
        Err(e) => {
            return ctx.checks.check(Err(oracle::Failed {
                check: "response_frame",
                detail: e.to_string(),
            }))
        }
    };
    if r.id != id || !(r.status == STATUS_OK || r.status == STATUS_INFEASIBLE) {
        return ctx.checks.check(Err(oracle::Failed {
            check: "response_frame",
            detail: format!("request {id}: got id {} status {}", r.id, r.status),
        }));
    }
    let served = (r.status == STATUS_OK).then_some(r.value);
    match expect {
        Expect::Value(want) => ctx.checks.check(oracle::check_near_serial(
            "served vs first answer",
            served,
            want,
        )),
        Expect::Fresh { load } => {
            ctx.checks.check(oracle::check_feasibility(load, served));
            if let Some(v) = served {
                ctx.checks.check(oracle::check_above_floor(load, v));
            }
        }
    }
}

/// Served values of [`oracle::reference_cells`] against the serial,
/// bit-exact path.
fn check_reference(ctx: &mut Ctx, cells: &[Scenario], served: &[Option<f64>]) {
    for (s, &v) in cells.iter().zip(served) {
        let v = v.map(|v| ctx.checks.answer(v));
        let serial = RttModel::build(s).ok().map(|m| m.rtt_quantile_ms());
        ctx.checks.check(oracle::check_near_serial(
            &format!(
                "K={} T={} load={}",
                s.erlang_order,
                s.t_ms,
                s.downlink_load()
            ),
            v,
            serial,
        ));
    }
}

/// A started server with its connected client.
struct Up {
    server: Server,
    client: Client,
}

fn stop(up: Up) {
    drop(up.client);
    up.server.request_shutdown();
    up.server.join();
}

/// Sends `cells` in pipelined blocks and returns the served answers.
fn solve_all(
    ctx: &Ctx,
    client: &mut Client,
    cells: &[Scenario],
    phase: &str,
) -> Result<Vec<Option<f64>>, String> {
    let mut out = Vec::with_capacity(cells.len());
    let mut resp = vec![0u8; BLOCK * RESP_FRAME_LEN];
    for (b, chunk) in cells.chunks(BLOCK).enumerate() {
        let req: Vec<u8> = chunk
            .iter()
            .enumerate()
            .flat_map(|(i, s)| frame((b * BLOCK + i) as u64, s))
            .collect();
        let resp = &mut resp[..chunk.len() * RESP_FRAME_LEN];
        client
            .exchange(&req, resp)
            .map_err(|e| ctx.stalled(phase, e))?;
        for f in resp.chunks(RESP_FRAME_LEN) {
            let r = decode_response(f).map_err(|e| ctx.stalled(phase, e))?;
            out.push((r.status == STATUS_OK).then_some(r.value));
        }
    }
    Ok(out)
}

/// The probe for the known framing fault: a fresh connection whose first
/// binary frame has id 123, so its first byte is `{`. Returns whether
/// the server answered it correctly within [`PROBE_WAIT`].
fn probe_first_frame(ctx: &Ctx, addr: SocketAddr, want: Option<f64>) -> Result<bool, String> {
    let mut c = Client::connect(addr, PROBE_WAIT).map_err(|e| ctx.stalled("probe", e))?;
    let mut buf = [0u8; RESP_FRAME_LEN];
    let s = scenario(9, 40.0, 0.4);
    match c.exchange(&frame(PROBE_ID, &s), &mut buf) {
        Ok(()) => Ok(decode_response(&buf).is_ok_and(|r| {
            r.id == PROBE_ID
                && r.status == STATUS_OK
                && oracle::check_near_serial("probe", Some(r.value), want).is_ok()
        })),
        Err(_) => Ok(false),
    }
}

pub fn run_hot(ctx: &mut Ctx) -> Result<(), String> {
    run(ctx, &HOT)
}

pub fn run_churn(ctx: &mut Ctx) -> Result<(), String> {
    run(ctx, &CHURN)
}

fn run(ctx: &mut Ctx, shape: &Shape) -> Result<(), String> {
    let seed = ctx.seed;
    // ---- set-up, several times; the last one serves the run --------
    let mut setups = Vec::new();
    let mut up: Option<Up> = None;
    let mut table = Vec::new();
    let mut hot_ref: Vec<Option<f64>> = Vec::new();
    let mut stream_pool: Vec<usize> = Vec::new();
    let mut churn = Churn::new(seed);
    for _ in 0..SETUPS {
        if let Some(prev) = up.take() {
            stop(prev);
        }
        let t0 = Instant::now();
        let server = Server::start(ServeConfig {
            cache_entries: shape.cache_entries,
            ..ServeConfig::default()
        })
        .map_err(|e| ctx.stalled("setup", e))?;
        let mut client =
            Client::connect(server.local_addr(), STALL).map_err(|e| ctx.stalled("setup", e))?;
        if shape.hot {
            table = hot_table(seed);
            stream_pool = zipf_stream(seed, table.len(), 64 * BLOCK);
            hot_ref = solve_all(ctx, &mut client, &table, "setup warm-up")?;
        } else {
            churn = Churn::new(seed);
            let first: Vec<Scenario> = (0..BLOCK).map(|_| churn.next()).collect();
            let answers = solve_all(ctx, &mut client, &first, "setup warm-up")?;
            for (s, a) in first.iter().zip(&answers) {
                ctx.checks
                    .check(oracle::check_feasibility(s.downlink_load(), *a));
            }
        }
        setups.push(t0.elapsed().as_secs_f64());
        up = Some(Up { server, client });
    }
    let Up { server, mut client } = up.ok_or("no set-up ran")?;
    let addr = server.local_addr();
    if shape.hot {
        check_hot_table(ctx, &table, &hot_ref);
    }
    let reference = oracle::reference_cells();
    let served = solve_all(ctx, &mut client, &reference, "reference cells")?;
    check_reference(ctx, &reference, &served);
    // ---- measured rounds ------------------------------------------
    // Per-round figures; the run reports their medians, so a burst of
    // interference from outside the process moves one round, not the run.
    let (mut round_qps, mut round_p50, mut round_p99) = (Vec::new(), Vec::new(), Vec::new());
    let mut latencies_us: Vec<f64> = Vec::with_capacity(shape.pings_per_round);
    let mut pipe_counters = Counters::default();
    let mut main_counters = Counters::default();
    let probe_ref = probe_reference();
    let mut req = Vec::with_capacity(BLOCK * REQ_FRAME_LEN);
    let mut expect: Vec<(u64, Expect)> = Vec::with_capacity(BLOCK);
    let mut resp = vec![0u8; BLOCK * RESP_FRAME_LEN];
    let mut cursor = 0usize;
    let mut next_id = 1u64 << 20;
    let mut first_churn_block: Vec<Scenario> = Vec::new();
    let deadline = ctx.deadline();
    let mut rounds = 0u64;
    while rounds == 0 || Instant::now() < deadline {
        rounds += 1;
        ctx.tracer.begin("serve.round");
        let before = Counters::now();
        let mut pipelined_s = 0.0;
        for _ in 0..shape.blocks_per_round {
            req.clear();
            expect.clear();
            for _ in 0..BLOCK {
                let id = next_id;
                next_id += 1;
                if shape.hot {
                    let c = stream_pool[cursor % stream_pool.len()];
                    cursor += 1;
                    req.extend_from_slice(&frame(id, &table[c]));
                    expect.push((id, Expect::Value(hot_ref[c])));
                } else {
                    let s = churn.next();
                    req.extend_from_slice(&frame(id, &s));
                    expect.push((
                        id,
                        Expect::Fresh {
                            load: s.downlink_load(),
                        },
                    ));
                    if first_churn_block.len() < BLOCK {
                        first_churn_block.push(s);
                    }
                }
            }
            let t = Instant::now();
            let sent = ctx.tracer.span("serve.pipelined_block", |_| {
                client.exchange(&req, &mut resp)
            });
            sent.map_err(|e| ctx.stalled("pipelined", e))?;
            pipelined_s += t.elapsed().as_secs_f64();
            for (i, &(id, e)) in expect.iter().enumerate() {
                let f = &resp[i * RESP_FRAME_LEN..(i + 1) * RESP_FRAME_LEN];
                check_response(ctx, id, f, e);
            }
        }
        round_qps.push((BLOCK * shape.blocks_per_round) as f64 / pipelined_s);
        let after_pipe = Counters::now();
        pipe_counters.add(&after_pipe.since(&before));
        ctx.tally.ok(BLOCK as u64 * shape.blocks_per_round as u64);
        let mut one = [0u8; RESP_FRAME_LEN];
        latencies_us.clear();
        for _ in 0..shape.pings_per_round {
            let id = next_id;
            next_id += 1;
            let (s, e) = if shape.hot {
                let c = stream_pool[cursor % stream_pool.len()];
                cursor += 1;
                (table[c].clone(), Expect::Value(hot_ref[c]))
            } else {
                let s = churn.next();
                let load = s.downlink_load();
                (s, Expect::Fresh { load })
            };
            let f = frame(id, &s);
            let t = Instant::now();
            client
                .exchange(&f, &mut one)
                .map_err(|e| ctx.stalled("ping-pong", e))?;
            latencies_us.push(t.elapsed().as_nanos() as f64 / 1e3);
            check_response(ctx, id, &one, e);
        }
        round_p50.push(stats::percentile(&latencies_us, 50.0).unwrap_or(f64::NAN));
        round_p99.push(stats::percentile(&latencies_us, 99.0).unwrap_or(f64::NAN));
        ctx.tally.ok(shape.pings_per_round as u64);
        main_counters.add(&Counters::now().since(&before));
        if shape.hot {
            ctx.tracer.begin("serve.probe");
            let answered = probe_first_frame(ctx, addr, probe_ref)?;
            ctx.tracer.end();
            if answered {
                ctx.tally.ok(1);
            } else {
                ctx.tally.fail();
            }
        }
        ctx.tracer.end();
    }
    let total_reqs = rounds * (BLOCK * shape.blocks_per_round + shape.pings_per_round) as u64;
    let qps = stats::median(&round_qps).unwrap_or(f64::NAN);
    let setup = stats::median(&setups).unwrap_or(f64::NAN);
    ctx.notes.push(format!(
        "rounds {rounds} of {} pipelined and {} ping-pong requests; per round the highest \
         ping-pong percentile with >= 10 samples beyond is p{}; set-ups (s) {setups:?}",
        BLOCK * shape.blocks_per_round,
        shape.pings_per_round,
        stats::highest_supported_percentile(shape.pings_per_round).map_or(50.0, |p| p.0)
    ));
    drop(client);
    server.request_shutdown();
    server.join();
    // A small sample of cells through the eq.-26 residual check.
    let zeta_cells: Vec<Scenario> = if shape.hot {
        let mut rng = Rng::new(seed, 4);
        (0..16)
            .map(|_| table[rng.below(table.len())].clone())
            .collect()
    } else {
        first_churn_block.iter().take(16).cloned().collect()
    };
    layers::verify_zetas(ctx, &zeta_cells);
    ctx.e2e("setup_s", setup, "s");
    ctx.e2e("work_per_s", qps, "1/s");
    ctx.e2e(
        "latency_p50_us",
        stats::median(&round_p50).unwrap_or(f64::NAN),
        "us",
    );
    ctx.e2e(
        "latency_tail_us",
        stats::median(&round_p99).unwrap_or(f64::NAN),
        "us",
    );
    ctx.e2e("peak_rss_mib", peak_rss_mib(), "MiB");
    if ctx.traced() {
        trace_layers(
            ctx,
            shape,
            &table,
            &stream_pool,
            &first_churn_block,
            &main_counters,
            &pipe_counters,
            total_reqs,
            qps,
        );
    }
    Ok(())
}

/// Reference answer of the probe's cell (K = 9, T = 40 ms, load 0.4).
fn probe_reference() -> Option<f64> {
    RttModel::build(&scenario(9, 40.0, 0.4))
        .ok()
        .map(|m| m.rtt_quantile_ms())
}

/// Checks of the warmed hot table: feasibility, floor, monotonicity in
/// load and in K.
fn check_hot_table(ctx: &mut Ctx, table: &[Scenario], answers: &[Option<f64>]) {
    for (s, &a) in table.iter().zip(answers) {
        ctx.checks
            .check(oracle::check_feasibility(s.downlink_load(), a));
        if let Some(v) = a {
            ctx.checks
                .check(oracle::check_above_floor(s.downlink_load(), v));
        }
    }
    let idx = |ki: usize, ti: usize, li: usize| (ki * HOT_TS.len() + ti) * HOT_LOADS + li;
    for ki in 0..HOT_KS.len() {
        for ti in 0..HOT_TS.len() {
            let mut pts: Vec<(f64, f64)> = (0..HOT_LOADS)
                .filter_map(|li| {
                    answers[idx(ki, ti, li)].map(|v| (table[idx(ki, ti, li)].downlink_load(), v))
                })
                .collect();
            ctx.checks
                .check(oracle::check_monotone_in_load(HOT_KS[ki], &mut pts));
        }
    }
    for ti in 0..HOT_TS.len() {
        for li in 0..HOT_LOADS {
            let mut pts: Vec<(u32, f64)> = (0..HOT_KS.len())
                .filter_map(|ki| answers[idx(ki, ti, li)].map(|v| (HOT_KS[ki], v)))
                .collect();
            let load = table[idx(0, ti, li)].downlink_load();
            ctx.checks
                .check(oracle::check_monotone_in_k(load, &mut pts));
        }
    }
}

/// The traced run's per-layer figures for a serve workload.
#[allow(clippy::too_many_arguments)]
fn trace_layers(
    ctx: &mut Ctx,
    shape: &Shape,
    table: &[Scenario],
    stream_pool: &[usize],
    churn_cells: &[Scenario],
    main: &Counters,
    pipe: &Counters,
    requests: u64,
    qps: f64,
) {
    let reqs = requests as f64;
    layers::solver_counters(ctx, main, reqs);
    layers::memo_counters(ctx, main, reqs);
    ctx.layer(
        "serve.batch_size_mean",
        ratio(pipe.get("serve.requests"), pipe.get("serve.batches")),
    );
    let seed = ctx.seed;
    let (cells, batches, lookups, inserts, engine) = if shape.hot {
        let mut rng = Rng::new(seed, 6);
        let cells: Vec<Scenario> = (0..512)
            .map(|_| table[rng.below(table.len())].clone())
            .collect();
        let engine = layers::serving_engine(shape.cache_entries);
        engine.rtt_batch(table);
        let batches: Vec<Vec<Scenario>> = stream_pool
            .chunks(BLOCK)
            .take(16)
            .map(|b| b.iter().map(|&c| table[c].clone()).collect())
            .collect();
        let lookups: Vec<_> = stream_pool
            .iter()
            .map(|&c| layers::memo_key(&table[c]))
            .collect();
        let inserts: Vec<_> = table.iter().map(layers::memo_key).collect();
        (cells, batches, lookups, inserts, engine)
    } else {
        let mut churn = Churn::new(seed ^ 0x5EED);
        let batches: Vec<Vec<Scenario>> = (0..16)
            .map(|_| (0..BLOCK).map(|_| churn.next()).collect())
            .collect();
        let lookups: Vec<_> = churn_cells.iter().map(layers::memo_key).collect();
        let inserts: Vec<_> = batches.iter().flatten().map(layers::memo_key).collect();
        let cells = churn_cells.iter().take(512).cloned().collect();
        (
            cells,
            batches,
            lookups,
            inserts,
            layers::serving_engine(shape.cache_entries),
        )
    };
    layers::queue_stages(ctx, &cells);
    layers::rtt_batch_us(ctx, &engine, &batches);
    let capacity = if shape.hot { 1024 } else { shape.cache_entries };
    layers::memo_ops(ctx, &lookups, &inserts, capacity);
    let frames: Vec<u8> = batches[0]
        .iter()
        .enumerate()
        .flat_map(|(i, s)| frame(i as u64, s))
        .collect();
    let responses: Vec<Response> = (0..BLOCK as u64)
        .map(|i| Response::ok(i, 20.0 + i as f64 * 1e-3, 0))
        .collect();
    let dec = layers::codec(ctx, &frames, &responses);
    // The server times each batch's engine pass and encoding itself
    // (`serve.latency_us`); what the client waited beyond that and the
    // decode is socket I/O, wake-ups and batch bookkeeping.
    let service_us = ratio(pipe.get("serve.latency_us.sum"), pipe.get("serve.requests"));
    ctx.layer("serve.other_us_per_req", 1e6 / qps - service_us - dec / 1e3);
}
