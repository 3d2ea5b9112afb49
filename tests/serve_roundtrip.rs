//! End-to-end daemon tests: an in-process `syseco::serve::Server` backed
//! by the real [`EngineRunner`], driven over real TCP connections with the
//! framed protocol client (DESIGN.md §15).
//!
//! Everything here is deterministic by construction: single-worker
//! configurations serialize claims, progress frames are used to observe
//! "job A is running" before racing job B against it, and tests that
//! need the worker to *stay* occupied hold it with a [`GatedRunner`]
//! instead of betting on engine slowness.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use eco_fuzz::{generate, generate_chain, ScenarioConfig};
use eco_netlist::write_blif;
use syseco::serve::{
    Client, JobControl, JobOutcome, JobRequest, JobRunner, JobStatus, Message, RejectReason,
    SchedulerConfig, Server, ServerConfig, SubmitReply,
};
use syseco::telemetry::Counter;
use syseco::{EcoOptions, EngineRunner, Session, Telemetry};

/// A moderately sized fuzz scenario for the queueing tests. Worker
/// occupancy is enforced by the daemon's gate, not by scenario size.
fn busy_config() -> ScenarioConfig {
    ScenarioConfig {
        input_words: (4, 4),
        width: (3, 3),
        logic_signals: (24, 24),
        output_words: (4, 4),
        mutations: (3, 4),
        heavy_optimization: false,
    }
}

/// Holds every `run` call until the test opens the gate (or the job is
/// cancel-flagged by drain), so "job A occupies the worker while B
/// queues behind it" is a property the test enforces rather than a bet
/// on the engine being slow enough.
struct GatedRunner {
    inner: EngineRunner,
    gate: Arc<(Mutex<bool>, Condvar)>,
}

impl JobRunner for GatedRunner {
    fn run(&self, request: &JobRequest, control: &JobControl) -> JobOutcome {
        let (open, released) = &*self.gate;
        let mut is_open = open.lock().unwrap();
        while !*is_open && !control.is_cancelled() {
            is_open = released
                .wait_timeout(is_open, Duration::from_millis(5))
                .unwrap()
                .0;
        }
        drop(is_open);
        self.inner.run(request, control)
    }
}

/// Scheduler config whose default deadline is far beyond any debug-build
/// engine run, so time grants never expire under test-harness contention
/// and `Completed` assertions stay deterministic.
fn patient() -> SchedulerConfig {
    SchedulerConfig {
        default_deadline: std::time::Duration::from_secs(3600),
        ..SchedulerConfig::default()
    }
}

fn request_from_seed(client: &str, seed: u64, config: &ScenarioConfig) -> JobRequest {
    let scenario = generate(seed, config).expect("scenario generation");
    let mut request = JobRequest::new(
        client,
        write_blif(&scenario.implementation),
        write_blif(&scenario.spec),
    );
    request.seed = seed;
    request
}

struct Daemon {
    addr: String,
    shutdown: Arc<AtomicBool>,
    telemetry: Telemetry,
    thread: JoinHandle<std::io::Result<()>>,
    root: PathBuf,
    gate: Arc<(Mutex<bool>, Condvar)>,
}

impl Daemon {
    /// Binds and runs a daemon with `workers` engine workers and a shared
    /// cache + checkpoint store under a fresh temp root.
    fn start(name: &str, workers: usize, sched: SchedulerConfig) -> Daemon {
        Daemon::start_gated(name, workers, sched, true)
    }

    /// Like [`Daemon::start`], but claimed jobs block inside the engine
    /// runner until [`Daemon::release`] — or a drain cancel-flag — lets
    /// them proceed.
    fn start_held(name: &str, workers: usize, sched: SchedulerConfig) -> Daemon {
        Daemon::start_gated(name, workers, sched, false)
    }

    fn start_gated(name: &str, workers: usize, sched: SchedulerConfig, open: bool) -> Daemon {
        let root =
            std::env::temp_dir().join(format!("syseco-serve-test-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(root.join("cache")).unwrap();
        std::fs::create_dir_all(root.join("ckpt")).unwrap();
        let base = EcoOptions::builder()
            .jobs(1)
            .cache_dir(root.join("cache"))
            .checkpoint_dir(root.join("ckpt"))
            .build();
        let telemetry = Telemetry::enabled();
        let gate = Arc::new((Mutex::new(open), Condvar::new()));
        let runner = Arc::new(GatedRunner {
            inner: EngineRunner::new(base, telemetry.clone()),
            gate: gate.clone(),
        });
        let server = Server::bind(
            ServerConfig {
                addr: "127.0.0.1:0".into(),
                http_addr: None,
                workers,
                sched,
            },
            runner,
            telemetry.clone(),
        )
        .expect("bind");
        let addr = server.addr().unwrap().to_string();
        let shutdown = server.shutdown_handle();
        let thread = std::thread::spawn(move || server.run());
        Daemon {
            addr,
            shutdown,
            telemetry,
            thread,
            root,
            gate,
        }
    }

    /// Opens the gate: held jobs proceed into the real engine.
    fn release(&self) {
        let (open, released) = &*self.gate;
        *open.lock().unwrap() = true;
        released.notify_all();
    }

    fn stop(self) {
        self.shutdown.store(true, Ordering::Relaxed);
        self.thread.join().unwrap().unwrap();
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

fn accept(reply: SubmitReply) -> u64 {
    match reply {
        SubmitReply::Accepted(id) => id,
        SubmitReply::Rejected { reason, detail } => {
            panic!("unexpected rejection: {} ({detail})", reason.label())
        }
    }
}

/// Waits until the daemon reports `job_id` as running (its first
/// progress frame), so later submissions deterministically queue behind.
fn wait_running(client: &mut Client, job_id: u64) {
    loop {
        match client.recv().expect("progress frame") {
            Message::Progress { job_id: id, stage } if id == job_id && stage == "running" => return,
            Message::Progress { .. } => {}
            other => panic!("expected progress, got kind {}", other.kind()),
        }
    }
}

#[test]
fn completed_cancelled_and_expired_jobs_are_all_accounted() {
    let daemon = Daemon::start_held("accounting", 1, patient());
    let config = busy_config();

    // A runs; B and C queue behind it on the single worker.
    let mut client_a = Client::connect(&daemon.addr).unwrap();
    let id_a = accept(
        client_a
            .submit(&request_from_seed("tenant-a", 40, &config))
            .unwrap(),
    );
    wait_running(&mut client_a, id_a);

    let mut client_b = Client::connect(&daemon.addr).unwrap();
    let id_b = accept(
        client_b
            .submit(&request_from_seed("tenant-b", 41, &config))
            .unwrap(),
    );
    client_b.cancel(id_b).unwrap();

    let mut client_c = Client::connect(&daemon.addr).unwrap();
    let mut late = request_from_seed("tenant-c", 42, &config);
    late.deadline_ms = 1;
    let id_c = accept(client_c.submit(&late).unwrap());

    // Let C's 1 ms deadline lapse while A still holds the worker, then
    // open the gate so A can finish and C can be claimed (and expired).
    std::thread::sleep(Duration::from_millis(10));
    daemon.release();

    let done_a = client_a.wait_done(id_a).unwrap();
    assert_eq!(done_a.status, JobStatus::Completed, "{}", done_a.detail);
    assert!(!done_a.patch_blif.is_empty());

    // Cancelled while queued: resolved without touching the engine.
    let done_b = client_b.wait_done(id_b).unwrap();
    assert_eq!(done_b.status, JobStatus::Cancelled, "{}", done_b.detail);

    // Its 1 ms deadline passed while A ran: expired at claim time.
    let done_c = client_c.wait_done(id_c).unwrap();
    assert_eq!(done_c.status, JobStatus::Expired, "{}", done_c.detail);

    // The daemon patch is byte-identical to the CLI path: a plain Session
    // over the same BLIF text the wire carried (the CLI parses its inputs
    // from files exactly like the daemon parses them from frames).
    let sent = request_from_seed("tenant-a", 40, &config);
    let direct = Session::new(EcoOptions::builder().seed(40).jobs(1).build())
        .run(
            &eco_netlist::read_blif(&sent.impl_blif).unwrap(),
            &eco_netlist::read_blif(&sent.spec_blif).unwrap(),
        )
        .unwrap();
    assert_eq!(done_a.patch_blif, write_blif(&direct.patched));

    // Every admitted job shows up as exactly one terminal counter.
    let snapshot = daemon.telemetry.snapshot();
    assert_eq!(snapshot.counter(Counter::ServeSubmitted), 3);
    assert_eq!(snapshot.counter(Counter::ServeAdmitted), 3);
    assert_eq!(snapshot.counter(Counter::ServeCompleted), 1);
    assert_eq!(snapshot.counter(Counter::ServeCancelled), 1);
    assert_eq!(snapshot.counter(Counter::ServeExpired), 1);
    assert_eq!(snapshot.counter(Counter::ServeFailed), 0);
    daemon.stop();
}

#[test]
fn bounded_admission_rejects_overload_and_recovers() {
    let sched = SchedulerConfig {
        lane_capacity: 1,
        ..patient()
    };
    let daemon = Daemon::start_held("overload", 1, sched);
    let config = busy_config();

    let mut client_a = Client::connect(&daemon.addr).unwrap();
    let id_a = accept(
        client_a
            .submit(&request_from_seed("tenant-a", 50, &config))
            .unwrap(),
    );
    wait_running(&mut client_a, id_a);

    // A is active, so B fills the lane's single queue slot and C bounces.
    let mut client_b = Client::connect(&daemon.addr).unwrap();
    let id_b = accept(
        client_b
            .submit(&request_from_seed("tenant-b", 51, &config))
            .unwrap(),
    );
    let mut client_c = Client::connect(&daemon.addr).unwrap();
    match client_c
        .submit(&request_from_seed("tenant-c", 52, &config))
        .unwrap()
    {
        SubmitReply::Rejected { reason, .. } => assert_eq!(reason, RejectReason::Overloaded),
        SubmitReply::Accepted(id) => panic!("job {id} admitted past a full lane"),
    }

    // Backpressure is transient: once the queue drains, C's retry lands.
    daemon.release();
    assert_eq!(
        client_a.wait_done(id_a).unwrap().status,
        JobStatus::Completed
    );
    assert_eq!(
        client_b.wait_done(id_b).unwrap().status,
        JobStatus::Completed
    );
    let id_c = accept(
        client_c
            .submit(&request_from_seed("tenant-c", 52, &config))
            .unwrap(),
    );
    let done_c = client_c.wait_done(id_c).unwrap();
    assert_eq!(done_c.status, JobStatus::Completed, "{}", done_c.detail);

    let snapshot = daemon.telemetry.snapshot();
    assert_eq!(snapshot.counter(Counter::ServeRejected), 1);
    assert_eq!(snapshot.counter(Counter::ServeAdmitted), 3);
    daemon.stop();
}

#[test]
fn revision_chain_reuses_the_shared_cache_across_jobs() {
    let daemon = Daemon::start("chain", 2, patient());
    let chain = generate_chain(7, &ScenarioConfig::default(), 3).unwrap();

    for (step, scenario) in chain.iter().enumerate() {
        let mut client = Client::connect(&daemon.addr).unwrap();
        let mut request = JobRequest::new(
            "tenant-chain",
            write_blif(&scenario.implementation),
            write_blif(&scenario.spec),
        );
        request.seed = 7;
        request.tag = format!("rev-{step}");
        let id = accept(client.submit(&request).unwrap());
        let done = client.wait_done(id).unwrap();
        // Accumulated mutations may legitimately push a revision onto the
        // degradation ladder; what matters here is honest resolution.
        assert!(
            matches!(done.status, JobStatus::Completed | JobStatus::Degraded),
            "rev {step}: {} ({})",
            done.status.label(),
            done.detail
        );
        assert!(!done.patch_blif.is_empty(), "rev {step} patch");
    }

    // Later revisions re-present the same implementation cones, so the
    // shared store must have produced real cross-job hits, and the cache
    // directory must have been populated by the daemon.
    let snapshot = daemon.telemetry.snapshot();
    assert!(
        snapshot.counter(Counter::CacheHits) > 0,
        "revision chain produced no cross-job cache hits"
    );
    let segments = std::fs::read_dir(daemon.root.join("cache"))
        .unwrap()
        .count();
    assert!(segments > 0, "shared cache directory is empty");
    daemon.stop();
}

#[test]
fn shutdown_frame_drains_queued_jobs_and_stops_the_daemon() {
    let daemon = Daemon::start_held("drain", 1, patient());
    let config = busy_config();

    let mut client_a = Client::connect(&daemon.addr).unwrap();
    let id_a = accept(
        client_a
            .submit(&request_from_seed("tenant-a", 60, &config))
            .unwrap(),
    );
    wait_running(&mut client_a, id_a);
    let mut client_b = Client::connect(&daemon.addr).unwrap();
    let id_b = accept(
        client_b
            .submit(&request_from_seed("tenant-b", 61, &config))
            .unwrap(),
    );

    // The frame-level SIGTERM: drain resolves the running job (cancelled
    // mid-engine, with whatever honest patch it had) and the queued one.
    // The gate stays closed — A is parked inside the runner until drain's
    // cancel-flag reaches it, which proves B could never have been
    // claimed before drain resolved it as Cancelled.
    let mut controller = Client::connect(&daemon.addr).unwrap();
    controller.shutdown_daemon().unwrap();

    let done_a = client_a.wait_done(id_a).unwrap();
    assert!(
        matches!(done_a.status, JobStatus::Cancelled | JobStatus::Completed),
        "running job must resolve on drain, got {}",
        done_a.status.label()
    );
    let done_b = client_b.wait_done(id_b).unwrap();
    assert_eq!(done_b.status, JobStatus::Cancelled, "{}", done_b.detail);

    daemon.thread.join().unwrap().unwrap();
    let snapshot = daemon.telemetry.snapshot();
    assert_eq!(
        snapshot.counter(Counter::ServeAdmitted),
        snapshot.counter(Counter::ServeCompleted) + snapshot.counter(Counter::ServeCancelled),
    );
    let _ = std::fs::remove_dir_all(&daemon.root);
}

/// The daemon parses client BLIF with the same reader as the CLI: a port
/// declared only in `.outputs` and driven by its same-named net is
/// compared and patched, an undriven declared output fails the job with a
/// parse error, and a pair without output ports fails instead of passing.
#[test]
fn outputs_without_assign_are_rectified_and_undriven_outputs_fail() {
    const IMPL: &str = ".model impl\n.inputs a b\n.outputs o\n.gate and o a b\n.end\n";
    const SPEC: &str = ".model spec\n.inputs a b\n.outputs o\n.gate or o a b\n.end\n";
    const UNDRIVEN: &str = ".model u\n.inputs a b\n.outputs o\n.end\n";
    const PORTLESS: &str = ".model p\n.inputs a b\n.gate and w a b\n.end\n";
    let daemon = Daemon::start("outputs", 1, patient());
    let mut client = Client::connect(&daemon.addr).unwrap();
    let mut submit = |impl_blif: &str, spec_blif: &str| {
        let mut request = JobRequest::new("tenant", impl_blif, spec_blif);
        request.seed = 3;
        let id = accept(client.submit(&request).unwrap());
        client.wait_done(id).unwrap()
    };

    let done = submit(IMPL, SPEC);
    assert_eq!(done.status, JobStatus::Completed, "{}", done.detail);
    let spec = eco_netlist::read_blif(SPEC).unwrap();
    let implementation = eco_netlist::read_blif(IMPL).unwrap();
    assert!(!syseco::verify_rectification(&implementation, &spec).unwrap());
    let patched = eco_netlist::read_blif(&done.patch_blif).unwrap();
    assert!(syseco::verify_rectification(&patched, &spec).unwrap());

    let done = submit(UNDRIVEN, SPEC);
    assert_eq!(done.status, JobStatus::Failed);
    assert!(
        done.detail.contains("output \"o\" has no driver"),
        "{}",
        done.detail
    );

    let done = submit(PORTLESS, PORTLESS);
    assert_eq!(done.status, JobStatus::Failed);
    assert!(done.detail.contains("no output pairs"), "{}", done.detail);
    daemon.stop();
}
