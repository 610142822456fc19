//! One round: a fresh engine, its serial warm-up, and the closed loop.

use crate::host;
use crate::trace::{SpanId, Tracer};
use crate::workload::{mix, Kind, Workload};
use ndft::serve::{
    CompletionStream, DftJob, DftService, JobOutcome, ServeReport, SessionCompletion,
    TelemetrySnapshot,
};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Longest the client waits for one completion before declaring the
/// engine hung.
const COMPLETION_TIMEOUT: Duration = Duration::from_secs(120);

/// Served payloads each round keeps for re-execution.
const SAMPLES_PER_ROUND: u64 = 2;

/// Most of a round's jobs that a traced round resubmits to its cache.
const CACHE_READS: usize = 16;

/// What one round measured.
pub struct Round {
    /// Input generation + engine start + serial warm-up, seconds.
    pub setup_s: f64,
    /// Submissions attempted.
    pub attempted: u64,
    /// Submissions refused at admission.
    pub refused: u64,
    /// Completions that carried an error.
    pub failed: u64,
    /// Completions that carried a result.
    pub completed: u64,
    /// First submission → last completion, seconds.
    pub wall_s: f64,
    /// Process CPU seconds over the closed loop.
    pub cpu_s: f64,
    /// Submit → completion received, per completion, ms.
    pub latencies_ms: Vec<f32>,
    /// Duration of each `submit` call, µs (traced rounds only).
    pub submit_us: Vec<f32>,
    /// Engine report and telemetry when the closed loop started.
    pub before: (ServeReport, TelemetrySnapshot),
    /// Engine report and telemetry once the closed loop drained.
    pub after: (ServeReport, TelemetrySnapshot),
    /// The engine's final report after shutdown.
    pub last: ServeReport,
    /// Seeded sample of served jobs with their outcomes.
    pub samples: Vec<(DftJob, Arc<JobOutcome>)>,
    /// The cache pass after a traced closed loop.
    pub cache: CachePass,
}

/// What a traced round's cache pass measured.
#[derive(Default)]
pub struct CachePass {
    /// Cache hits and misses of the serial resubmissions.
    pub hits: u64,
    pub misses: u64,
    /// Submit → completion of each resubmission, µs.
    pub read_us: Vec<f32>,
    /// Executions of the duplicate probe beyond one per distinct job.
    pub duplicate_executions: u64,
}

/// Starts an engine for `workload` and runs its serial warm-up.
fn start(workload: &Workload) -> Result<DftService, String> {
    let svc = DftService::start(workload.config());
    for job in workload.warmup() {
        let ticket = svc
            .submit_blocking(job.clone())
            .map_err(|e| format!("warm-up {job} refused: {e}"))?;
        ticket
            .wait()
            .map_err(|e| format!("warm-up {job} failed: {e}"))?;
    }
    Ok(svc)
}

/// Runs round `round`: sets up a fresh engine, then keeps `window()`
/// jobs in flight from this one client thread, submitting the next job
/// only when a completion frees a slot, until the round's jobs have all
/// completed. With a tracer, each job gets a `job` span (submit →
/// completion) with a `submit` child.
///
/// # Errors
///
/// Reports a failed warm-up or a completion that never arrived.
pub fn round(
    kind: Kind,
    seed: u64,
    seconds: f64,
    round: usize,
    mut tracer: Option<&mut Tracer>,
) -> Result<Round, String> {
    let t = Instant::now();
    let workload = Workload::new(kind, seed, seconds);
    let svc = start(&workload)?;
    let setup_s = t.elapsed().as_secs_f64();

    let n = workload.round_jobs();
    let sampled: HashSet<usize> = (0..SAMPLES_PER_ROUND)
        .map(|k| (mix(seed ^ mix((round as u64) << 8 | k)) % n as u64) as usize)
        .collect();
    let (session, stream) = svc.session();
    let mut inflight: HashMap<u64, (Instant, usize, SpanId)> =
        HashMap::with_capacity(2 * workload.window());
    let snapshot = (svc.report(), svc.telemetry());
    let mut r = Round {
        setup_s,
        attempted: 0,
        refused: 0,
        failed: 0,
        completed: 0,
        wall_s: 0.0,
        cpu_s: 0.0,
        latencies_ms: Vec::with_capacity(n),
        submit_us: Vec::new(),
        last: snapshot.0.clone(),
        after: snapshot.clone(),
        before: snapshot,
        samples: Vec::new(),
        cache: CachePass::default(),
    };

    let cpu0 = host::cpu_seconds();
    let start = Instant::now();
    let mut last = start;
    let mut next = 0;
    loop {
        while next < n && inflight.len() < workload.window() {
            let job = workload.job(round, next);
            r.attempted += 1;
            let t0 = Instant::now();
            let result = session.submit(job);
            let span = match tracer.as_deref_mut() {
                Some(tr) => {
                    let t1 = Instant::now();
                    let span = tr.open("job", t0, SpanId::ROOT, next as u64);
                    tr.record("submit", t0, t1, span, next as u64);
                    r.submit_us.push(((t1 - t0).as_secs_f64() * 1e6) as f32);
                    span
                }
                None => SpanId::ROOT,
            };
            match result {
                Ok(id) => {
                    inflight.insert(id.0, (t0, next, span));
                }
                Err(_) => r.refused += 1,
            }
            next += 1;
        }
        if inflight.is_empty() {
            break;
        }
        let c = next_completion(&stream)?;
        last = Instant::now();
        let (t0, i, span) = inflight
            .remove(&c.id.0)
            .ok_or("completion for an unknown job id")?;
        r.latencies_ms
            .push(((last - t0).as_secs_f64() * 1e3) as f32);
        if let Some(tr) = tracer.as_deref_mut() {
            tr.close(span, last);
        }
        match c.result {
            Ok(outcome) => {
                r.completed += 1;
                if sampled.contains(&i) {
                    r.samples.push((workload.job(round, i), outcome));
                }
            }
            Err(_) => r.failed += 1,
        }
    }
    r.wall_s = (last - start).as_secs_f64();
    r.cpu_s = host::cpu_seconds() - cpu0;
    r.after = (svc.report(), svc.telemetry());
    if let Some(tr) = tracer {
        let reads = (n.saturating_sub(CACHE_READS)..n).map(|i| workload.job(round, i));
        let probe = workload.duplicate_probe(round);
        r.cache = cache_pass(&svc, &session, &stream, reads, &probe, tr)?;
        r.attempted += r.cache.read_us.len() as u64 + 2 * probe.len() as u64;
    }
    drop(session);
    r.last = svc.shutdown();
    Ok(r)
}

fn next_completion(stream: &CompletionStream) -> Result<SessionCompletion, String> {
    stream
        .next_timeout(COMPLETION_TIMEOUT)
        .ok_or_else(|| "no completion within the timeout: engine hung".to_string())
}

/// After a traced closed loop, on the same engine: resubmits `reads`, jobs
/// the loop already completed, one at a time, then submits each `probe`
/// job twice back to back, so the second copy arrives while the first is
/// in flight. Every resubmission counts as attempted, and a refusal or a
/// failed result is an error.
fn cache_pass(
    svc: &DftService,
    session: &ndft::serve::ClientSession,
    stream: &CompletionStream,
    reads: impl Iterator<Item = DftJob>,
    probe: &[DftJob],
    tracer: &mut Tracer,
) -> Result<CachePass, String> {
    let completed = |c: SessionCompletion| {
        c.result
            .map(|_| ())
            .map_err(|e| format!("cache pass job failed: {e}"))
    };
    let mut pass = CachePass::default();
    let before = svc.report();
    for (k, job) in reads.enumerate() {
        let t0 = Instant::now();
        session
            .submit(job)
            .map_err(|e| format!("cache pass resubmission refused: {e}"))?;
        completed(next_completion(stream)?)?;
        let t1 = Instant::now();
        tracer.record("cache_read", t0, t1, SpanId::ROOT, k as u64);
        pass.read_us.push(((t1 - t0).as_secs_f64() * 1e6) as f32);
    }
    let reads = svc.report();
    pass.hits = reads.cache.hits - before.cache.hits;
    pass.misses = reads.cache.misses - before.cache.misses;
    for job in probe {
        for _ in 0..2 {
            session
                .submit(job.clone())
                .map_err(|e| format!("duplicate probe refused: {e}"))?;
        }
    }
    for _ in 0..2 * probe.len() {
        completed(next_completion(stream)?)?;
    }
    let after = svc.report();
    let executions =
        (after.completed - reads.completed) - (after.served_from_cache - reads.served_from_cache);
    pass.duplicate_executions = executions.saturating_sub(probe.len() as u64);
    Ok(pass)
}

impl Round {
    /// Jobs the engine executed in the closed loop (not served from its
    /// cache).
    pub fn executions(&self) -> u64 {
        let (a, b) = (&self.before.0, &self.after.0);
        (b.completed - a.completed) - (b.served_from_cache - a.served_from_cache)
    }
}
