//! fpsping benchmark: one workload per call, end to end or layer by layer.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve-hot --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! With `--trace 0` the metrics are the end-to-end ones; with
//! `--trace 1` they are the per-layer ones, and the spans of the run are
//! written to `perfbench/out/`. A failed correctness check names itself
//! on standard error and the exit code is 1; a stalled or unusable
//! server names the workload and phase and the exit code is 2.
//!
//! `perfbench --spread < results.txt` summarizes result lines of several
//! runs: per metric the median, the quartiles and the spread.

#![forbid(unsafe_code)]

mod common;
mod layers;
mod oracle;
mod plan;
mod serve;
mod sim;
mod stats;
mod trace;

use common::{Checks, Ctx};
use std::fmt::Write as _;
use std::process::ExitCode;

/// A workload's entry point: fills the context, or fails naming the
/// phase that stalled.
type Workload = fn(&mut Ctx) -> Result<(), String>;

/// Workloads: name and entry point.
const WORKLOADS: [(&str, Workload); 4] = [
    ("serve-hot", serve::run_hot),
    ("serve-churn", serve::run_churn),
    ("plan-cold", plan::run),
    ("sim-estimate", sim::run),
];

/// Per-layer metrics and their units, in output order. A workload that
/// does not reach a layer reports 0 for that layer's metrics.
const PER_LAYER: [(&str, &str); 28] = [
    ("num.zeta_newton_steps_per_cell", "1/cell"),
    ("num.euler_inversions_per_cell", "1/cell"),
    ("num.euler_evals_per_cell", "1/cell"),
    ("num.brent_iters_per_cell", "1/cell"),
    ("queue.dek1_solve_us", "us"),
    ("queue.dek1_weights_us", "us"),
    ("queue.mg1_pole_us", "us"),
    ("queue.combine_us", "us"),
    ("queue.quantile_us", "us"),
    ("queue.expansion_skipped_per_cell", "1/cell"),
    ("queue.warm_accept_ratio", "ratio"),
    ("queue.quantile_fast_fallback_ratio", "ratio"),
    ("engine.memo_hit_ratio", "ratio"),
    ("engine.evictions_per_req", "1/req"),
    ("engine.rtt_batch_us_per_req", "us/req"),
    ("engine.memo_get_ns", "ns"),
    ("engine.memo_insert_ns", "ns"),
    ("engine.max_load_us", "us"),
    ("engine.probes_per_dimension", "1/query"),
    ("serve.decode_ns_per_req", "ns/req"),
    ("serve.encode_ns_per_req", "ns/req"),
    ("serve.batch_size_mean", "req/batch"),
    ("serve.other_us_per_req", "us/req"),
    ("sim.events_per_packet", "1/packet"),
    ("sim.calendar_spills", "1/rep"),
    ("sim.calendar_op_ns", "ns/op"),
    ("estimator.pong_ns", "ns/pong"),
    ("estimator.matches_per_player", "1/player"),
];

struct Args {
    workload: &'static str,
    run: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    inject_wrong_answer: bool,
}

const USAGE: &str = "usage: perfbench --workload <serve-hot|serve-churn|plan-cold|sim-estimate> \
                     --seed <n> --seconds <s> --trace <0|1> [--inject-wrong-answer]";

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut inject) = (None, None, None, false);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(
                    *WORKLOADS
                        .iter()
                        .find(|w| w.0 == v)
                        .ok_or(format!("unknown workload `{v}`"))?,
                );
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not `{v}`")),
                })
            }
            "--inject-wrong-answer" => inject = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let (workload, run) = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        run,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        inject_wrong_answer: inject,
    })
}

/// One parsed result line: attempted, failed, and (name, value) metrics.
type RunResult = (u64, u64, Vec<(String, f64)>);

/// Parses a result line this program printed.
fn parse_result(line: &str) -> Option<RunResult> {
    let field = |key: &str| -> Option<u64> {
        let at = line.find(&format!("\"{key}\": "))? + key.len() + 4;
        line[at..].split([',', '}']).next()?.trim().parse().ok()
    };
    let (attempted, failed) = (field("attempted")?, field("failed")?);
    let mut metrics = Vec::new();
    let mut rest = &line[line.find("\"metrics\": {")? + 12..];
    while let Some(q) = rest.find('"') {
        rest = &rest[q + 1..];
        let name_end = rest.find('"')?;
        let name = rest[..name_end].to_string();
        let v_at = rest.find("\"value\": ")? + 9;
        let value: f64 = rest[v_at..].split(',').next()?.trim().parse().ok()?;
        rest = &rest[rest.find('}')? + 1..];
        metrics.push((name, value));
    }
    Some((attempted, failed, metrics))
}

/// `--spread`: reads result lines on standard input (one per run) and
/// prints, per metric, the median, the quartiles and their distance as a
/// share of the median, plus each run's failed share.
fn spread() -> ExitCode {
    use std::io::BufRead;
    let runs: Vec<RunResult> = std::io::stdin()
        .lock()
        .lines()
        .map_while(Result::ok)
        .filter_map(|l| parse_result(&l))
        .collect();
    let Some(first) = runs.first() else {
        eprintln!("perfbench --spread: no result lines on standard input");
        return ExitCode::from(2);
    };
    println!("{} runs", runs.len());
    for (name, _) in &first.2 {
        let values: Vec<f64> = runs
            .iter()
            .filter_map(|r| r.2.iter().find(|m| &m.0 == name).map(|m| m.1))
            .collect();
        let med = stats::median(&values).unwrap_or(f64::NAN);
        let (q1, q3) = stats::quartiles(&values).unwrap_or((f64::NAN, f64::NAN));
        println!(
            "{name:<36} median {med:<14.6} q1 {q1:<14.6} q3 {q3:<14.6} spread {:.4}",
            stats::relative_spread(&values).unwrap_or(f64::NAN)
        );
    }
    let shares: Vec<String> = runs
        .iter()
        .map(|r| {
            let t = stats::Tally {
                attempted: r.0,
                failed: r.1,
            };
            format!("{}/{} = {:e}", t.failed, t.attempted, t.failed_share())
        })
        .collect();
    println!("failed shares: {}", shares.join(", "));
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--spread") {
        return spread();
    }
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut ctx = Ctx {
        workload: args.workload,
        seed: args.seed,
        seconds: args.seconds,
        tracer: trace::Tracer::new(args.trace),
        checks: Checks {
            corrupt_next: args.inject_wrong_answer,
            ..Checks::default()
        },
        tally: stats::Tally::default(),
        e2e: Vec::new(),
        layers: Vec::new(),
        notes: Vec::new(),
    };
    println!(
        "perfbench: workload {} seed {} seconds {} trace {} available_parallelism {cores}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    if let Err(e) = (args.run)(&mut ctx) {
        eprintln!("perfbench: {e}");
        return ExitCode::from(2);
    }
    for n in &ctx.notes {
        println!("perfbench: {n}");
    }
    let metrics: Vec<(&str, f64, &str)> = if args.trace {
        // End-to-end figures of the traced run, to read the tracing
        // overhead against an untraced run.
        let e2e: Vec<String> = ctx
            .e2e
            .iter()
            .map(|m| format!("{} {}", m.name, m.value))
            .collect();
        println!("perfbench: traced run end-to-end: {}", e2e.join(", "));
        let header = [
            ("workload", format!("\"{}\"", args.workload)),
            ("seed", args.seed.to_string()),
            ("available_parallelism", cores.to_string()),
        ];
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("{}-seed{}.trace.json", args.workload, args.seed));
        if let Err(e) = ctx.tracer.write_json(&path, &header) {
            eprintln!("perfbench: could not write {}: {e}", path.display());
        }
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let v = ctx
                    .layers
                    .iter()
                    .rev()
                    .find(|m| m.0 == name)
                    .map_or(0.0, |m| m.1);
                (name, v, unit)
            })
            .collect()
    } else {
        ctx.e2e.iter().map(|m| (m.name, m.value, m.unit)).collect()
    };
    let mut correct = ctx.checks.failed.is_none();
    if let Some((name, v, _)) = metrics.iter().find(|m| !m.1.is_finite()) {
        eprintln!("perfbench: metric {name} is not a number ({v})");
        correct = false;
    }
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        ctx.tally.attempted, ctx.tally.failed
    );
    for (i, (name, v, unit)) in metrics.iter().enumerate() {
        let v = if v.is_finite() { *v } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    if let Some(f) = &ctx.checks.failed {
        eprintln!("perfbench: workload {}: {f}", args.workload);
    }
    eprintln!(
        "perfbench: {} checks, {} of {} operations failed",
        ctx.checks.run, ctx.tally.failed, ctx.tally.attempted
    );
    println!("{out}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::parse_result;

    #[test]
    fn result_lines_parse_back() {
        let line = "{\"correct\": true, \"attempted\": 1000, \"failed\": 2, \"metrics\": \
                    {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, \
                    \"work_per_s\": {\"value\": 1500000.0, \"unit\": \"1/s\"}}}";
        let (a, f, m) = parse_result(line).unwrap();
        assert_eq!((a, f), (1000, 2));
        assert_eq!(
            m,
            vec![
                ("setup_s".to_string(), 0.25),
                ("work_per_s".to_string(), 1.5e6)
            ]
        );
        assert!(parse_result("perfbench: a note").is_none());
    }
}
