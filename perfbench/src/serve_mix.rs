//! The `serve-mix` workload: independent clients of an in-process daemon.
//!
//! A daemon (`Server::bind` + `EngineRunner`, at most `nproc` workers,
//! `jobs=1` per engine run, shared cache) is driven open loop at a fixed
//! absolute rate. Jobs arrive as a seeded Poisson process, as independent
//! clients do, which also keeps arrivals from locking into step with the
//! daemon's polling period. At most `nproc` client connections are open at
//! once, so when all are busy the generator falls behind and the lateness
//! shows in the latency, which is timed from each job's due time. Each job
//! opens its own connection, as an independent client would.
//!
//! The jobs are a frozen pool of `eco_fuzz` revision chains (later
//! revisions share the implementation, so they can reuse the shared cache)
//! interleaved with fresh single scenarios (which miss and write), spread
//! over three tenants. The seed draws the arrival times: the traffic is
//! fresh on every seed while the work stays the same, as the `suite`
//! workload presents the same designs under fresh names. No job is
//! cancelled or carries a deadline, so every failure is a real one. Every
//! phase starts a fresh daemon on an empty cache.
//!
//! A job the daemon reports as degraded passes only when every degraded
//! output is a [`DegradeReason::MergeConflict`] fallback: the engine's
//! designed answer when two per-output patches clash, which a small share
//! of fuzz scenarios hit deterministically. Any other degradation is a
//! failure. A fallback that a cold run of the same job does not take means
//! cache reuse changed the patch; it is counted, not failed.
//!
//! Patch size is taken from cold direct `Session` runs of the latency
//! phase's jobs, after the daemon phases: with a shared cache, a chain
//! revision's daemon patch depends on arrival timing.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use eco_fuzz::{generate, generate_chain, FuzzError, ScenarioConfig};
use eco_netlist::{read_blif, write_blif, Circuit};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use syseco::serve::{
    Client, JobRequest, JobStatus, Message, Priority, Server, ServerConfig, SubmitReply,
};
use syseco::telemetry::Counter;
use syseco::{DegradeReason, EcoOptions, EngineRunner, MetricsSnapshot, Session, Telemetry};

use crate::check::check_patch;
use crate::engine::{layer_metrics, run_case, Prepared};
use crate::report::Report;
use crate::stats::{median, peak_rss_mb, percentile};

/// The offered rate of the latency phase, jobs per second: 40 % of the
/// daemon's measured capacity, the median ladder result of 76 jobs/s over
/// 30 runs on a 2-core host (`perfbench/README.md`). At 50 % (38 jobs/s)
/// the p90 latency spread across seeds was twice as wide: nearer capacity,
/// the wait for a free connection slot follows the host's speed.
const RATE: f64 = 30.0;
/// The p90 latency limit, in milliseconds, that `max_rate_qps` must meet.
const LATENCY_LIMIT_MS: f64 = 250.0;
/// Rung `k` of the fixed rate ladder `max_rate_qps` is searched on is
/// `LADDER_BASE * LADDER_STEP^k` jobs per second, for `k < LADDER_RUNGS`.
const LADDER_BASE: f64 = 30.0;
const LADDER_STEP: f64 = 1.05;
const LADDER_RUNGS: usize = 43;
/// Revisions per fuzz chain; one fresh scenario follows each chain.
const CHAIN_LEN: usize = 3;
/// Share of the run's seconds given to the latency phase; the ladder
/// search gets the rest.
const LATENCY_SHARE: f64 = 0.5;
/// Probes a ladder search makes (`ceil(log2(LADDER_RUNGS + 1))`).
const LADDER_PROBES: usize = 6;
/// Fewest jobs in any phase.
const MIN_JOBS: usize = 20;
/// Latency-phase jobs submitted one at a time to check that tracing does
/// not change a patch; the engine profile of a traced run is taken on them
/// too.
const SERIAL_JOBS: usize = 120;
/// Seeds the frozen job pool. The pool is the same on every run; the
/// run's seed draws the arrival times.
const POOL_SEED: u64 = 0x5E7F_1C5E;

/// One job: the request the daemon receives and the spec to check against.
struct Job {
    request: JobRequest,
    spec: Circuit,
}

/// What the benchmark saw of one job.
struct JobRecord {
    /// Due time to `Done`, ms; infinite for a failed job.
    latency_ms: f64,
    /// How late the generator opened the connection, ms.
    lag_ms: f64,
    /// Connect to `Accepted`, ms.
    connect_ms: f64,
    /// `Accepted` to `Progress running`, ms.
    queue_ms: f64,
    /// `Progress running` to `Done`, ms.
    run_ms: f64,
    rejected: bool,
    /// The job took a merge-conflict fallback that a cold run of it does
    /// not: reuse from the shared cache changed its patch.
    cold_divergent: bool,
    /// What the daemon returned, or why the job failed.
    outcome: Result<Served, String>,
}

/// A completed or degraded job's `Done` frame.
struct Served {
    patch_blif: String,
    degradations: u32,
    detail: String,
}

/// One phase: a fresh daemon, one set of jobs at one rate.
struct Phase {
    setup_s: f64,
    /// From the first job's due time to the last `Done`, seconds.
    span_s: f64,
    records: Vec<JobRecord>,
    snapshot: MetricsSnapshot,
}

/// A generated scenario, or `None` when the generator rejects the draw as
/// degenerate (no output reachable from an input): no job can be made
/// from it, so the next draw is used.
fn usable<T>(generated: Result<T, FuzzError>) -> Option<T> {
    match generated {
        Ok(value) => Some(value),
        Err(FuzzError::Generator(_)) => None,
        Err(e) => panic!("fuzz scenario generation failed: {e}"),
    }
}

/// Builds `count` jobs for `seed`: chains of [`CHAIN_LEN`] revisions, each
/// followed by one fresh scenario, with tenants, weights and priorities
/// rotating as in `syseco-load`. The revisions of a chain share their
/// engine seed, as one designer's successive runs share their options, so
/// they can reuse each other's cache records.
fn build_jobs(seed: u64, count: usize) -> Vec<Job> {
    let config = ScenarioConfig::default();
    let mut scenarios = Vec::with_capacity(count + CHAIN_LEN);
    let mut k = 0u64;
    while scenarios.len() < count {
        let base = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(k * 2);
        k += 1;
        if let Some(chain) = usable(generate_chain(base, &config, CHAIN_LEN)) {
            scenarios.extend(chain.into_iter().map(|s| (s, base)));
        }
        if let Some(fresh) = usable(generate(base + 1, &config)) {
            scenarios.push((fresh, base + 1));
        }
    }
    scenarios.truncate(count);
    scenarios
        .iter()
        .enumerate()
        .map(|(i, (scenario, engine_seed))| {
            let spec_blif = write_blif(&scenario.spec);
            let mut request = JobRequest::new(
                format!("tenant-{}", i % 3),
                write_blif(&scenario.implementation),
                spec_blif.clone(),
            );
            request.seed = *engine_seed;
            request.weight = if i % 3 == 0 { 4 } else { 1 };
            request.priority = match i % 7 {
                0 => Priority::High,
                3 => Priority::Low,
                _ => Priority::Normal,
            };
            request.tag = format!("job-{i}");
            let spec = read_blif(&spec_blif).expect("generated BLIF parses");
            Job { request, spec }
        })
        .collect()
}

/// Worker threads of the daemon and client connections of the generator.
fn parallelism() -> usize {
    thread::available_parallelism()
        .map_or(1, usize::from)
        .min(2)
}

/// Submits one job over a fresh connection and waits for its outcome.
fn drive(addr: &str, request: &JobRequest, due: Instant) -> JobRecord {
    let sent = Instant::now();
    let ms = |from: Instant, to: Instant| (to - from).as_secs_f64() * 1e3;
    let mut record = JobRecord {
        latency_ms: f64::INFINITY,
        lag_ms: ms(due, sent),
        connect_ms: 0.0,
        queue_ms: 0.0,
        run_ms: 0.0,
        rejected: false,
        cold_divergent: false,
        outcome: Err(String::new()),
    };
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            record.outcome = Err(format!("connect: {e}"));
            return record;
        }
    };
    let job_id = match client.submit(request) {
        Ok(SubmitReply::Accepted(id)) => id,
        Ok(SubmitReply::Rejected { reason, detail }) => {
            record.rejected = true;
            record.outcome = Err(format!("rejected ({}): {detail}", reason.label()));
            return record;
        }
        Err(e) => {
            record.outcome = Err(format!("submit: {e}"));
            return record;
        }
    };
    let accepted = Instant::now();
    record.connect_ms = ms(sent, accepted);
    let mut running = accepted;
    loop {
        match client.recv() {
            Ok(Message::Progress { stage, .. }) if stage == "running" => {
                running = Instant::now();
                record.queue_ms = ms(accepted, running);
            }
            Ok(Message::Progress { .. }) => {}
            Ok(Message::Done {
                job_id: id,
                status,
                degradations,
                patch_blif,
                detail,
                ..
            }) if id == job_id => {
                let done = Instant::now();
                record.run_ms = ms(running, done);
                record.outcome = match status {
                    JobStatus::Completed | JobStatus::Degraded => {
                        record.latency_ms = ms(due, done);
                        Ok(Served {
                            patch_blif,
                            degradations,
                            detail,
                        })
                    }
                    other => Err(format!("job ended {}: {detail}", other.label())),
                };
                return record;
            }
            Ok(other) => {
                record.outcome = Err(format!("unexpected frame kind {}", other.kind()));
                return record;
            }
            Err(e) => {
                record.outcome = Err(format!("receive: {e}"));
                return record;
            }
        }
    }
}

/// Due times of `count` Poisson arrivals at `rate`, as offsets from the
/// start of a phase.
fn arrivals(seed: u64, count: usize, rate: f64) -> Vec<Duration> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut at = 0.0;
    (0..count)
        .map(|_| {
            let offset = Duration::from_secs_f64(at);
            at += -(1.0 - rng.gen::<f64>()).ln() / rate;
            offset
        })
        .collect()
}

/// How a phase offers its jobs.
#[derive(Clone, Copy)]
enum Schedule {
    /// Open loop: Poisson arrivals at `rate` jobs/s drawn from `seed`.
    Open { rate: f64, seed: u64 },
    /// Closed loop, one job at a time: each job starts after the previous
    /// one is done, so the shared cache evolves the same way on every run.
    Serial,
}

/// Offers `jobs` to `addr` on `schedule`, over at most [`parallelism`]
/// connections.
fn offer(addr: &str, jobs: &[Job], schedule: Schedule) -> Vec<JobRecord> {
    let Schedule::Open { rate, seed } = schedule else {
        return jobs
            .iter()
            .map(|job| drive(addr, &job.request, Instant::now()))
            .collect();
    };
    let dues = arrivals(seed, jobs.len(), rate);
    let next = AtomicUsize::new(0);
    let records: Mutex<Vec<(usize, JobRecord)>> = Mutex::new(Vec::with_capacity(jobs.len()));
    let start = Instant::now();
    thread::scope(|scope| {
        for _ in 0..parallelism() {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(job) = jobs.get(i) else { return };
                let due = start + dues[i];
                thread::sleep(due.saturating_duration_since(Instant::now()));
                let record = drive(addr, &job.request, due);
                records
                    .lock()
                    .expect("no client thread panics")
                    .push((i, record));
            });
        }
    });
    let mut records = records.into_inner().expect("no client thread panics");
    records.sort_by_key(|&(i, _)| i);
    records.into_iter().map(|(_, r)| r).collect()
}

/// Starts a daemon on an empty cache under `dir`, offers `jobs` on `schedule`,
/// drains it and returns what the phase measured. Set-up runs from bind
/// to the first accepted job: a small probe job, not part of `records`,
/// whose connection is already pending when the accept loop starts.
fn phase(dir: &Path, probe: &Job, jobs: &[Job], schedule: Schedule, traced: bool) -> Phase {
    let cache = dir.join("cache");
    let _ = std::fs::remove_dir_all(&cache);
    std::fs::create_dir_all(&cache).expect("benchmark work directory is writable");
    let telemetry = if traced {
        Telemetry::enabled()
    } else {
        Telemetry::disabled()
    };

    let t0 = Instant::now();
    let options = EcoOptions::builder().jobs(1).cache_dir(&cache).build();
    let runner = Arc::new(EngineRunner::new(options, telemetry.clone()));
    let config = ServerConfig {
        workers: parallelism(),
        ..ServerConfig::default()
    };
    let server = Server::bind(config, runner, telemetry.clone()).expect("daemon binds");
    let addr = server.addr().expect("bound address").to_string();
    let stop = server.shutdown_handle();
    let mut probe_client = Client::connect(&addr).expect("daemon accepts connections");
    let (setup_s, span_s, records) = thread::scope(|scope| {
        let daemon = scope.spawn(move || server.run());
        let accepted = probe_client.submit(&probe.request);
        let setup_s = t0.elapsed().as_secs_f64();
        let probe_ok = match accepted {
            Ok(SubmitReply::Accepted(id)) => probe_client.wait_done(id).is_ok(),
            _ => false,
        };
        let offered = Instant::now();
        let records = if probe_ok {
            offer(&addr, jobs, schedule)
        } else {
            Vec::new()
        };
        let span_s = offered.elapsed().as_secs_f64();
        stop.store(true, Ordering::Relaxed);
        daemon
            .join()
            .expect("daemon thread")
            .expect("daemon drains");
        (setup_s, span_s, records)
    });
    assert!(
        !records.is_empty() || jobs.is_empty(),
        "the daemon did not serve its probe job"
    );
    Phase {
        setup_s,
        span_s,
        records,
        snapshot: telemetry.snapshot(),
    }
}

/// Accepts the degraded outputs of a served job only when each is a
/// merge-conflict fallback, and returns whether a direct cold session run
/// of the job degrades the same way. The `Done` detail names only the
/// first degraded output's reason, so a job with several degraded outputs
/// is accepted only when the cold run confirms them all.
fn merge_conflicts_only(job: &Job, served: &Served) -> Result<bool, String> {
    let implementation = read_blif(&job.request.impl_blif).map_err(|e| e.to_string())?;
    let options = EcoOptions::builder().jobs(1).seed(job.request.seed).build();
    let direct = Session::new(options)
        .run(&implementation, &job.spec)
        .map_err(|e| format!("direct run: {e}"))?;
    let found = &direct.rectify.degradations;
    let cold_agrees = found.len() == served.degradations as usize
        && found
            .iter()
            .all(|d| d.reason == DegradeReason::MergeConflict);
    let named = served.degradations == 1
        && served
            .detail
            .contains(&DegradeReason::MergeConflict.to_string());
    if cold_agrees || named {
        Ok(cold_agrees)
    } else {
        let direct: Vec<String> = found.iter().map(ToString::to_string).collect();
        Err(format!(
            "daemon: {}; a cold run degrades [{}]",
            served.detail,
            direct.join("; ")
        ))
    }
}

/// Parses a returned patch and checks it independently.
fn check_patch_blif(patch_blif: &str, spec: &Circuit, seed: u64) -> Result<(), String> {
    let patched = read_blif(patch_blif).map_err(|e| format!("unparsable patch: {e}"))?;
    check_patch(&patched, spec, seed)
}

/// Checks every returned patch independently and counts it in `report`.
fn check_phase(label: &str, jobs: &[Job], records: &mut [JobRecord], report: &mut Report) {
    for (i, (job, record)) in jobs.iter().zip(records.iter_mut()).enumerate() {
        let what = format!("{label} job {i}");
        let outcome = match &record.outcome {
            Ok(served) if served.degradations > 0 => merge_conflicts_only(job, served)
                .map(|cold_agrees| {
                    if !cold_agrees {
                        record.cold_divergent = true;
                        report.note(format!(
                            "{what}: merge-conflict fallback that a cold run does not take \
                             (cache reuse changed the patch)"
                        ));
                    }
                })
                .and_then(|()| check_patch_blif(&served.patch_blif, &job.spec, i as u64)),
            Ok(served) => check_patch_blif(&served.patch_blif, &job.spec, i as u64),
            Err(why) => Err(why.clone()),
        };
        if outcome.is_err() {
            // A failed check counts as a missed latency limit.
            record.latency_ms = f64::INFINITY;
        }
        report.check(&what, outcome);
    }
}

/// Rung `k` of the ladder, jobs per second.
fn rung(k: usize) -> f64 {
    LADDER_BASE * LADDER_STEP.powi(k as i32)
}

/// Whether a ladder probe met the limit: every job succeeded, p90 is under
/// the limit, and the generator was not falling behind by the end.
fn meets_limit(records: &[JobRecord]) -> bool {
    let latencies: Vec<f64> = records.iter().map(|r| r.latency_ms).collect();
    let tail = &records[records.len() * 3 / 4..];
    let tail_lag = median(&tail.iter().map(|r| r.lag_ms).collect::<Vec<_>>());
    percentile(&latencies, 0.9) <= LATENCY_LIMIT_MS && tail_lag <= LATENCY_LIMIT_MS / 2.0
}

/// Runs the workload and returns its report.
pub fn run(seed: u64, seconds: f64, trace: bool) -> Report {
    let mut report = Report::default();
    let dir: PathBuf = Path::new("perfbench")
        .join("work")
        .join(std::process::id().to_string());
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        measure(&dir, seed, seconds, trace, &mut report)
    }));
    let _ = std::fs::remove_dir_all(&dir);
    // Removes the shared parent too once no other run is using it.
    let _ = dir.parent().map(std::fs::remove_dir);
    if let Err(panic) = result {
        std::panic::resume_unwind(panic);
    }
    report
}

fn measure(dir: &Path, seed: u64, seconds: f64, trace: bool, report: &mut Report) {
    let jobs_at = |share: f64, rate: f64| ((seconds * share * rate).round() as usize).max(MIN_JOBS);
    let probe_share = (1.0 - LATENCY_SHARE) / LADDER_PROBES as f64;
    let latency_jobs = jobs_at(LATENCY_SHARE, RATE);
    let t0 = Instant::now();
    let probe = build_jobs(POOL_SEED ^ 1, 1).pop().expect("one probe job");
    let pool = build_jobs(
        POOL_SEED,
        latency_jobs.max(jobs_at(probe_share, rung(LADDER_RUNGS - 1))),
    );
    let generate_s = t0.elapsed().as_secs_f64();
    let jobs = &pool[..latency_jobs];
    let schedule = Schedule::Open { rate: RATE, seed };

    if trace {
        let mut plain = phase(dir, &probe, jobs, schedule, false);
        let mut traced = phase(dir, &probe, jobs, schedule, true);
        check_phase("open", jobs, &mut plain.records, report);
        check_phase("open traced", jobs, &mut traced.records, report);
        // Tracing must not change a patch. Under open-loop arrivals a chain
        // revision's patch depends on which earlier revisions the shared
        // cache already holds when it runs, so the comparison is made on
        // serial runs, where the cache evolves the same way with tracing on
        // and off. They run untraced, traced, traced, untraced, so a drift
        // in the host's speed cancels out of the overhead ratio.
        let serial_jobs = &jobs[..SERIAL_JOBS.min(jobs.len())];
        let mut serial: Vec<(bool, Phase)> = [false, true, true, false]
            .into_iter()
            .map(|t| (t, phase(dir, &probe, serial_jobs, Schedule::Serial, t)))
            .collect();
        for (k, (t, p)) in serial.iter_mut().enumerate() {
            let label = format!("serial {k}{}", if *t { " traced" } else { "" });
            check_phase(&label, serial_jobs, &mut p.records, report);
        }
        for (k, (_, p)) in serial.iter().enumerate().skip(1) {
            for (i, (x, y)) in serial[0].1.records.iter().zip(&p.records).enumerate() {
                let outcome = match (&x.outcome, &y.outcome) {
                    (Ok(a), Ok(b)) if a.patch_blif == b.patch_blif => Ok(()),
                    (Ok(_), Ok(_)) => Err("patch differs from serial run 0's".to_string()),
                    (Err(why), _) | (_, Err(why)) => Err(why.clone()),
                };
                report.check(&format!("serial {k} job {i}, same patch"), outcome);
            }
        }
        serve_layers(&plain, &traced, &serial, report);

        // The engine's layers on the same jobs, through direct sessions
        // without the daemon or its cache, each job untraced then traced.
        let (cases, parse_s) = prepare(serial_jobs);
        let (mut untraced, mut traced) = (Vec::new(), Vec::new());
        for case in &cases {
            for (runs, mode) in [(&mut untraced, false), (&mut traced, true)] {
                let what = format!(
                    "direct job {}{}",
                    case.id,
                    if mode { " traced" } else { "" }
                );
                let run = run_case(case, mode);
                report.check(&what, run.as_ref().map(|_| ()).map_err(Clone::clone));
                runs.push(run.ok());
            }
        }
        layer_metrics(&cases, &untraced, &traced, report);
        report.metric("netlist.parse_s", parse_s, "s");
        report.metric("workload.generate_s", generate_s, "s");
        return;
    }

    let mut p = phase(dir, &probe, jobs, schedule, false);
    check_phase("open", jobs, &mut p.records, report);
    let mut setups = vec![p.setup_s];
    let latencies: Vec<f64> = p.records.iter().map(|r| r.latency_ms).collect();

    // Binary search on the fixed ladder for the highest rate that meets
    // the limit; every probe gets a fresh daemon and fresh arrival times.
    let (mut lo, mut hi) = (None::<usize>, LADDER_RUNGS);
    let mut round = 0u64;
    while lo.map_or(0, |l| l + 1) < hi {
        let mid = (lo.map_or(0, |l| l + 1) + hi) / 2;
        round += 1;
        let rate = rung(mid);
        let jobs = &pool[..jobs_at(probe_share, rate)];
        let schedule = Schedule::Open {
            rate,
            seed: seed ^ (round << 48),
        };
        let mut p = phase(dir, &probe, jobs, schedule, false);
        check_phase(&format!("ladder {rate:.1}"), jobs, &mut p.records, report);
        setups.push(p.setup_s);
        if meets_limit(&p.records) {
            lo = Some(mid);
        } else {
            hi = mid;
        }
    }

    // Patch size: the Table-2 totals of cold direct runs of the latency
    // phase's jobs, which a shared cache cannot make depend on timing.
    let (cases, _) = prepare(jobs);
    let (mut gates, mut nets) = (0, 0);
    for case in &cases {
        let run = run_case(case, false);
        if let Ok(run) = &run {
            gates += run.gates;
            nets += run.nets;
        }
        let what = format!("cold job {}", case.id);
        report.check(&what, run.map(|_| ()));
    }

    report.metric("latency_p50_ms", percentile(&latencies, 0.5), "ms");
    report.metric("latency_p90_ms", percentile(&latencies, 0.9), "ms");
    report.metric("capacity_jobs_per_s", lo.map_or(0.0, rung), "1/s");
    report.metric("patch_gates", gates as f64, "count");
    report.metric("patch_nets", nets as f64, "count");
    report.metric("ok_frac", report.ok_frac(), "ratio");
    report.metric("setup_s", median(&setups), "s");
    report.metric("peak_rss_mb", peak_rss_mb(), "MiB");
}

/// Parses each job's pair for a direct session run with the options the
/// daemon would give it. Returns the cases and the seconds spent parsing.
fn prepare(jobs: &[Job]) -> (Vec<Prepared>, f64) {
    let mut parse_s = 0.0;
    let cases = jobs
        .iter()
        .enumerate()
        .map(|(i, job)| {
            let t0 = Instant::now();
            let implementation = read_blif(&job.request.impl_blif).expect("generated BLIF parses");
            let spec = read_blif(&job.request.spec_blif).expect("generated BLIF parses");
            parse_s += t0.elapsed().as_secs_f64();
            let options = EcoOptions::builder().jobs(1).seed(job.request.seed).build();
            Prepared::new(i as u64, implementation, spec, options)
        })
        .collect();
    (cases, parse_s)
}

/// The daemon's own layers, printed as details: the benchmark's timers on
/// the untraced open-loop phase, cache counters from the traced one, and
/// the tracing overhead from the serial runs (each marked traced or not).
fn serve_layers(plain: &Phase, traced: &Phase, serial: &[(bool, Phase)], report: &mut Report) {
    // Busy shares over the phase: of the daemon's workers (`running` to
    // `Done`), and of the generator's connection slots (connect to `Done`).
    let slots = parallelism() as f64;
    let busy = |f: fn(&JobRecord) -> f64| -> f64 {
        plain.records.iter().map(f).sum::<f64>() / 1e3 / (slots * plain.span_s)
    };
    report.detail("serve.worker_util", busy(|r| r.run_ms), "ratio");
    report.detail(
        "serve.slot_util",
        busy(|r| r.connect_ms + r.queue_ms + r.run_ms),
        "ratio",
    );
    let records = &plain.records;
    let done: Vec<&JobRecord> = records.iter().filter(|r| r.outcome.is_ok()).collect();
    for (name, values) in [
        (
            "serve.connect_ms",
            done.iter().map(|r| r.connect_ms).collect::<Vec<_>>(),
        ),
        ("serve.queue_ms", done.iter().map(|r| r.queue_ms).collect()),
        ("serve.run_ms", done.iter().map(|r| r.run_ms).collect()),
    ] {
        if !values.is_empty() {
            report.detail(format!("{name}.p50"), percentile(&values, 0.5), "ms");
            report.detail(format!("{name}.p90"), percentile(&values, 0.9), "ms");
        }
    }
    let lags: Vec<f64> = records.iter().map(|r| r.lag_ms).collect();
    report.detail("serve.gen_lag_ms", percentile(&lags, 0.9), "ms");
    report.detail(
        "serve.rejected",
        records.iter().filter(|r| r.rejected).count() as f64,
        "count",
    );
    let degraded = records
        .iter()
        .filter(|r| matches!(&r.outcome, Ok(served) if served.degradations > 0))
        .count();
    report.detail("serve.degraded", degraded as f64, "count");
    let divergent = records.iter().filter(|r| r.cold_divergent).count();
    report.detail("serve.cache_divergent", divergent as f64, "count");
    let counter = |c: Counter| traced.snapshot.counter(c) as f64;
    let (hits, misses) = (counter(Counter::CacheHits), counter(Counter::CacheMisses));
    report.detail("cache.hit_frac", hits / (hits + misses), "ratio");
    report.detail(
        "cache.verify_reject",
        counter(Counter::CacheVerifyRejects),
        "count",
    );
    let run_total = |traced: bool| -> f64 {
        serial
            .iter()
            .filter(|(t, _)| *t == traced)
            .flat_map(|(_, p)| &p.records)
            .map(|r| r.run_ms)
            .sum()
    };
    report.detail(
        "serve.trace_overhead_ratio",
        run_total(true) / run_total(false),
        "ratio",
    );
}
