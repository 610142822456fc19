//! The NDFT repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <cold_solves|md_flood> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it prints the end-to-end metrics; with `--trace 1`
//! the per-layer metrics (see `perfbench/README.md`). The last line of
//! standard output is one JSON object; the exit code is non-zero when any
//! check fails.

mod check;
mod drive;
mod host;
mod layers;
mod stats;
mod trace;
mod workload;

use drive::Round;
use ndft::serve::{ServeReport, Stage, TelemetrySnapshot};
use stats::{median, percentile};
use std::fmt::Write as _;
use std::process::ExitCode;
use trace::Tracer;
use workload::{Kind, Workload};

/// Directory, under the working directory, that receives span dumps.
const OUT_DIR: &str = ".perfbench-out";

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let at = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(at + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let name = value("--workload")?;
    let kind = Kind::parse(name).ok_or(format!("unknown workload {name}"))?;
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    Ok(Args {
        kind,
        seed,
        seconds,
        trace,
    })
}

/// A run's outcome: counts, metrics, and every check that failed.
#[derive(Default)]
struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
    errors: Vec<String>,
}

impl Outcome {
    fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Records failed checks; each counts as one failed job.
    fn fail_all(&mut self, errors: Vec<String>) {
        self.failed += errors.len() as u64;
        self.errors.extend(errors);
    }

    /// Folds a round's counts in and checks its served payloads and the
    /// job conservation of its engine.
    fn count(&mut self, round: &Round) {
        self.attempted += round.attempted;
        self.failed += round.refused + round.failed;
        if round.refused + round.failed > 0 {
            self.errors.push(format!(
                "{} submissions refused, {} jobs failed",
                round.refused, round.failed
            ));
        }
        let r = &round.last;
        if !r.conservation_holds() {
            self.fail_all(vec![format!(
                "conservation broken: submitted {} != completed {} + failed {} + cancelled {} + dropped {} + orphaned {}",
                r.submitted, r.completed, r.failed, r.cancelled, r.deadline_dropped, r.orphaned
            )]);
        }
        self.fail_all(check::samples(&round.samples));
    }

    fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.errors.is_empty(),
            self.attempted,
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

/// Median over `rounds` of a per-round value.
fn per_round(rounds: &[&Round], f: impl Fn(&Round) -> f64) -> f64 {
    median(&rounds.iter().map(|r| f(r)).collect::<Vec<_>>())
}

/// Completed jobs per wall second: the median of the rounds' rates, so a
/// host episode that slows a minority of rounds does not move it.
fn jobs_per_s(rounds: &[&Round]) -> f64 {
    per_round(rounds, |r| r.completed as f64 / r.wall_s)
}

/// Latency `q`-quantile over every completion of `rounds`: the median of
/// the rounds' own quantiles when each round completes enough jobs for
/// one (`md_flood`), otherwise the quantile of all rounds' completions
/// pooled (`cold_solves`, 15 jobs a round).
fn latency_ms(rounds: &[&Round], q: f64) -> Result<f64, String> {
    let each: Result<Vec<f64>, String> = rounds
        .iter()
        .map(|r| percentile(&pooled(&[r], |r| &r.latencies_ms), q))
        .collect();
    match each {
        Ok(each) => Ok(median(&each)),
        Err(_) => percentile(&pooled(rounds, |r| &r.latencies_ms), q),
    }
}

/// The ascending union of one per-job sample over `rounds`.
fn pooled(rounds: &[&Round], field: impl Fn(&Round) -> &[f32]) -> Vec<f64> {
    let mut v: Vec<f64> = rounds
        .iter()
        .flat_map(|r| field(r).iter().map(|&x| f64::from(x)))
        .collect();
    v.sort_by(f64::total_cmp);
    v
}

/// Sum of `field` of the engine reports over `rounds`' closed loops.
fn delta(rounds: &[&Round], field: impl Fn(&ServeReport) -> f64) -> f64 {
    rounds
        .iter()
        .map(|r| field(&r.after.0) - field(&r.before.0))
        .sum()
}

/// Runs the given rounds in order: each is a round index and whether
/// its closed loop is traced.
fn rounds(
    args: &Args,
    plan: impl Iterator<Item = (usize, bool)>,
    tracer: &mut Tracer,
) -> Result<Vec<Round>, String> {
    plan.map(|(round, traced)| {
        drive::round(
            args.kind,
            args.seed,
            args.seconds,
            round,
            traced.then_some(&mut *tracer),
        )
    })
    .collect()
}

/// The untraced run: the end-to-end metrics.
fn untraced(args: &Args, out: &mut Outcome) -> Result<(), String> {
    let n = Workload::new(args.kind, args.seed, args.seconds).rounds();
    let all = rounds(args, (0..n).map(|k| (k, false)), &mut Tracer::default())?;
    // Before the checks, whose direct re-executions are not serving.
    let peak_rss_mib = host::peak_rss_mib();
    for r in &all {
        out.count(r);
    }
    out.fail_all(check::probes());

    let all: Vec<&Round> = all.iter().collect();
    let setups: Vec<f64> = all.iter().map(|r| r.setup_s).collect();
    out.metric("jobs_per_s", jobs_per_s(&all), "1/s");
    out.metric("latency_p50_ms", latency_ms(&all, 0.5)?, "ms");
    out.metric("latency_p90_ms", latency_ms(&all, 0.9)?, "ms");
    out.metric(
        "cpu_ms_per_job",
        per_round(&all, |r| r.cpu_s * 1e3 / r.completed as f64),
        "ms",
    );
    out.metric("peak_rss_mb", peak_rss_mib, "MiB");
    out.metric("setup_s", median(&setups), "s");
    out.metric(
        "modeled_speedup",
        delta(&all, |r| r.modeled_cpu_pinned_s) / delta(&all, |r| r.modeled_total_s),
        "x",
    );
    out.metric(
        "success_share",
        1.0 - out.failed as f64 / out.attempted as f64,
        "ratio",
    );
    eprintln!(
        "{}: {} rounds of {} jobs, round walls {:?} s, set-ups {:?} s",
        args.kind.name(),
        all.len(),
        all[0].attempted,
        all.iter().map(|r| r.wall_s).collect::<Vec<_>>(),
        setups
    );
    Ok(())
}

/// Sum of one stage's recorded nanoseconds over `rounds`' closed loops.
fn stage_ns(rounds: &[&Round], stage: Stage) -> f64 {
    let sum = |t: &TelemetrySnapshot| t.stage_total(stage).sum_ns() as f64;
    rounds
        .iter()
        .map(|r| sum(&r.after.1) - sum(&r.before.1))
        .sum()
}

/// Median over `rounds` of one stage's p50 on each round's engine, µs,
/// over the engine's life up to the end of the closed loop. The engine's
/// histograms cannot be differenced, so the warm-up's jobs are included:
/// 1 of a round's ~13 000 on `md_flood`, 5 of 20 on `cold_solves`.
fn stage_p50_us(rounds: &[&Round], stage: Stage) -> f64 {
    let p50s: Vec<f64> = rounds
        .iter()
        .map(|r| r.after.1.stage_total(stage).p50_ns() as f64 / 1e3)
        .collect();
    median(&p50s)
}

/// The traced run: untraced and traced rounds alternate, then the serial
/// layer replay and the host roofline.
fn traced(args: &Args, out: &mut Outcome) -> Result<(), String> {
    let workload = Workload::new(args.kind, args.seed, args.seconds);
    let mut tracer = Tracer::default();
    // As many traced rounds as an untraced run has, so the traced
    // percentiles have the samples the untraced ones do; a traced run
    // takes about as long as two untraced ones.
    let plan = (0..workload.rounds()).flat_map(|k| [(k, false), (k, true)]);
    let all = rounds(args, plan, &mut tracer)?;
    for r in &all {
        out.count(r);
    }
    out.fail_all(check::probes());
    let (t, plain): (Vec<&Round>, Vec<&Round>) = all.iter().partition(|r| !r.submit_us.is_empty());

    let executions: u64 = t.iter().map(|r| r.executions()).sum();
    let hits: u64 = t.iter().map(|r| r.cache.hits).sum();
    let misses: u64 = t.iter().map(|r| r.cache.misses).sum();
    let batches = delta(&t, |r| r.batches as f64);
    let completed: u64 = t.iter().map(|r| r.completed).sum();
    let latency_us: f64 = pooled(&t, |r| &r.latencies_ms).iter().sum::<f64>() * 1e3;
    let submit_us = pooled(&t, |r| &r.submit_us);
    let read_us = pooled(&t, |r| &r.cache.read_us);
    let serve = [
        ("serve.submit_us_p50", percentile(&submit_us, 0.5)?, "us"),
        ("serve.submit_us_p90", percentile(&submit_us, 0.9)?, "us"),
        (
            "serve.fulfill_us_p50",
            stage_p50_us(&t, Stage::Fulfill),
            "us",
        ),
        (
            "serve.queue_wait_ms_p50",
            stage_p50_us(&t, Stage::QueueWait) / 1e3,
            "ms",
        ),
        ("serve.plan_ms_sum", stage_ns(&t, Stage::Plan) / 1e6, "ms"),
        (
            "serve.overhead_us_per_job",
            (latency_us - stage_ns(&t, Stage::Execute) / 1e3) / completed as f64,
            "us",
        ),
        (
            "serve.planner_calls",
            delta(&t, |r| r.planner_calls as f64),
            "count",
        ),
        ("serve.batches", batches, "count"),
        (
            "serve.batch_size_mean",
            executions as f64 / batches.max(1.0),
            "jobs",
        ),
        (
            "serve.fused_jobs",
            delta(&t, |r| r.fused_jobs as f64),
            "count",
        ),
        ("serve.executions", executions as f64, "count"),
        (
            "serve.duplicate_executions",
            t.iter().map(|r| r.cache.duplicate_executions).sum::<u64>() as f64,
            "count",
        ),
        ("serve.cache_hits", hits as f64, "count"),
        (
            "serve.hit_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
            "ratio",
        ),
        ("serve.cache_read_us_p50", percentile(&read_us, 0.5)?, "us"),
        ("serve.steals", delta(&t, |r| r.steals as f64), "count"),
        (
            "trace.overhead_ratio",
            jobs_per_s(&t) / jobs_per_s(&plain),
            "ratio",
        ),
    ];
    for (name, value, unit) in serve {
        out.metric(name, value, unit);
    }

    let roofline = host::Roofline::measure();
    eprintln!(
        "roofline: LLC {} MiB, copy arrays {} MiB each, {:.2} GB/s, {:.2} GFLOP/s",
        roofline.llc_bytes >> 20,
        roofline.array_bytes >> 20,
        roofline.copy_gbps,
        roofline.fma_gflops
    );
    out.metric("host.copy_gbps", roofline.copy_gbps, "GB/s");
    out.metric("host.fma_gflops", roofline.fma_gflops, "GFLOP/s");
    out.metrics
        .extend(layers::replay(&workload, &roofline, &mut tracer));

    let path = format!(
        "{OUT_DIR}/trace-{}-seed{}.json",
        args.kind.name(),
        args.seed
    );
    let header = [
        ("workload", format!("\"{}\"", args.kind.name())),
        ("seed", args.seed.to_string()),
        ("llc_bytes", roofline.llc_bytes.to_string()),
        ("copy_array_bytes", roofline.array_bytes.to_string()),
    ];
    std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| std::fs::write(&path, tracer.to_json(&header)))
        .map_err(|e| format!("writing {path}: {e}"))?;
    eprintln!("spans written to {path}");
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <cold_solves|md_flood> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let mut out = Outcome::default();
    let run = if args.trace {
        traced(&args, &mut out)
    } else {
        untraced(&args, &mut out)
    };
    if let Err(e) = run {
        eprintln!("perfbench: {e}");
        return ExitCode::from(2);
    }
    if let Some((name, value, _)) = out.metrics.iter().find(|(_, v, _)| !v.is_finite()) {
        eprintln!("perfbench: metric {name} is not finite ({value})");
        return ExitCode::from(2);
    }
    for e in &out.errors {
        eprintln!("perfbench: check failed: {e}");
    }
    println!("{}", out.json());
    if out.errors.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
