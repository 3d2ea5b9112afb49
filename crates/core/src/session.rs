//! A configured rectification session — the engine's one entry point:
//! options plus the run-scoped state (cancellation token, progress
//! observer, telemetry hub).
//!
//! ```
//! use eco_netlist::{Circuit, GateKind};
//! use syseco::{CancelToken, EcoOptions, Session};
//!
//! # fn main() -> Result<(), syseco::EcoError> {
//! let mut c = Circuit::new("impl");
//! let a = c.add_input("a");
//! let b = c.add_input("b");
//! let g = c.add_gate(GateKind::And, &[a, b])?;
//! c.add_output("y", g);
//! let mut s = Circuit::new("spec");
//! let a = s.add_input("a");
//! let b = s.add_input("b");
//! let g = s.add_gate(GateKind::Or, &[a, b])?;
//! s.add_output("y", g);
//!
//! let token = CancelToken::new();
//! let session = Session::new(EcoOptions::builder().jobs(1).build())
//!     .with_cancel(&token)
//!     .on_progress(|event| eprintln!("{event:?}"));
//! let result = session.run(&c, &s)?;
//! assert!(syseco::verify_rectification(&result.patched, &s)?);
//! # Ok(())
//! # }
//! ```

use std::sync::Arc;

use eco_netlist::Circuit;
use eco_telemetry::{MetricsSnapshot, Telemetry};

use crate::budget::{Budget, CancelToken};
use crate::engine::{rectify_with, EcoResult};
use crate::options::EcoOptions;
use crate::progress::{ProgressCallback, ProgressEvent};
use crate::EcoError;

/// A rectification session handle.
///
/// Construct with [`Session::new`], attach a [`CancelToken`] and/or a
/// progress observer, then [`run`](Session::run) a pair. The session is
/// reusable: every run derives a fresh [`Budget`] from the options'
/// timeout, sharing the attached token.
#[derive(Clone)]
pub struct Session {
    options: EcoOptions,
    cancel: Option<CancelToken>,
    observer: Option<ProgressCallback>,
    telemetry: Telemetry,
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("options", &self.options)
            .field("cancel", &self.cancel)
            .field("observer", &self.observer.as_ref().map(|_| "<callback>"))
            .field("telemetry", &self.telemetry.is_enabled())
            .finish()
    }
}

impl Session {
    /// A session over `options`, with no cancellation or observer attached.
    pub fn new(options: EcoOptions) -> Self {
        Session {
            options,
            cancel: None,
            observer: None,
            telemetry: Telemetry::disabled(),
        }
    }

    /// The session's options.
    pub fn options(&self) -> &EcoOptions {
        &self.options
    }

    /// Attaches a cancellation token: cancelling it degrades the run (every
    /// unfinished output takes the fallback) instead of aborting it.
    #[must_use]
    pub fn with_cancel(mut self, token: &CancelToken) -> Self {
        self.cancel = Some(token.clone());
        self
    }

    /// Attaches a progress observer invoked with every
    /// [`ProgressEvent`]. Events arrive from worker threads, so the
    /// callback must be `Send + Sync` and should be cheap.
    #[must_use]
    pub fn on_progress<F>(mut self, callback: F) -> Self
    where
        F: Fn(&ProgressEvent) + Send + Sync + 'static,
    {
        self.observer = Some(Arc::new(callback));
        self
    }

    /// Attaches a [`Telemetry`] hub: runs record structured trace spans
    /// (returned in [`EcoResult::trace`]), and each finished run adds its
    /// [`RectifyStats::counters`](crate::RectifyStats::counters) to the
    /// metrics registry readable via [`Session::metrics_snapshot`]. The
    /// handle is shared — clone-cheap — so the caller can keep one for
    /// export while the session records into it. A disabled hub (the
    /// default) costs nothing: no clock reads, no allocation.
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: &Telemetry) -> Self {
        self.telemetry = telemetry.clone();
        self
    }

    /// A point-in-time view of the attached [`Telemetry`]'s metrics: every
    /// finished run's counters (summed; gauges keep their maximum) plus the
    /// timing histograms. Empty when telemetry is disabled.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.telemetry.snapshot()
    }

    /// A fresh budget for one run: the options' timeout plus the attached
    /// cancellation token.
    fn budget(&self) -> Budget {
        let mut budget = match self.options.timeout {
            Some(t) => Budget::with_deadline(t),
            None => Budget::unlimited(),
        };
        if let Some(token) = &self.cancel {
            budget = budget.with_cancel(token);
        }
        budget
    }

    /// Rectifies `implementation` against the revised specification `spec`
    /// under this session's budget and observer, returning the patched
    /// circuit and the patch.
    ///
    /// Specification inputs absent from the implementation are added as new
    /// primary inputs; specification-only outputs are added as new ports
    /// (initially constant) and rectified like any failing output.
    ///
    /// # Errors
    ///
    /// [`EcoError::PortMismatch`] when an implementation output has no
    /// specification counterpart, and [`EcoError`] wrappers for malformed
    /// circuits.
    pub fn run(&self, implementation: &Circuit, spec: &Circuit) -> Result<EcoResult, EcoError> {
        let budget = self.budget();
        self.run_with_budget(implementation, spec, &budget)
    }

    /// Like [`Session::run`] with an externally owned [`Budget`] (the
    /// attached cancellation token is *not* merged into it). On exhaustion
    /// the run degrades gracefully — remaining outputs take the
    /// output-rewire fallback and the cuts are recorded in
    /// [`RectifyStats::degradations`](crate::RectifyStats::degradations) —
    /// instead of aborting.
    ///
    /// # Errors
    ///
    /// Same as [`Session::run`].
    pub fn run_with_budget(
        &self,
        implementation: &Circuit,
        spec: &Circuit,
        budget: &Budget,
    ) -> Result<EcoResult, EcoError> {
        rectify_with(
            &self.options,
            implementation,
            spec,
            budget,
            self.observer.as_ref(),
            &self.telemetry,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::verify_rectification;
    use eco_netlist::GateKind;
    use std::sync::Mutex;

    fn and_or_pair() -> (Circuit, Circuit) {
        let mut c = Circuit::new("impl");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let g = c.add_gate(GateKind::And, &[a, b]).unwrap();
        c.add_output("y", g);
        let mut s = Circuit::new("spec");
        let sa = s.add_input("a");
        let sb = s.add_input("b");
        let sg = s.add_gate(GateKind::Or, &[sa, sb]).unwrap();
        s.add_output("y", sg);
        (c, s)
    }

    #[test]
    fn session_runs_and_reports_progress() {
        let (c, s) = and_or_pair();
        let events: Arc<Mutex<usize>> = Arc::default();
        let sink = Arc::clone(&events);
        let session =
            Session::new(EcoOptions::with_seed(3)).on_progress(move |_| *sink.lock().unwrap() += 1);
        let result = session.run(&c, &s).unwrap();
        assert!(verify_rectification(&result.patched, &s).unwrap());
        assert!(*events.lock().unwrap() >= 2, "RunStarted + RunFinished");
        // Reusable: a second run works and reports again.
        let before = *events.lock().unwrap();
        session.run(&c, &s).unwrap();
        assert!(*events.lock().unwrap() > before);
    }

    #[test]
    fn cancelled_session_degrades_gracefully() {
        let (c, s) = and_or_pair();
        let token = CancelToken::new();
        token.cancel();
        let session = Session::new(EcoOptions::with_seed(3)).with_cancel(&token);
        let result = session.run(&c, &s).unwrap();
        assert!(!result.rectify.degradations.is_empty());
        assert!(verify_rectification(&result.patched, &s).unwrap());
    }

    #[test]
    fn session_telemetry_records_spans_and_metrics() {
        use crate::fault::FaultPolicy;
        use eco_telemetry::{Counter, Gauge};

        let (c, s) = and_or_pair();
        let dir =
            std::env::temp_dir().join(format!("syseco-session-metrics-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cold = EcoOptions::with_seed(3);
        let cached = EcoOptions::builder()
            .seed(3)
            .cache_dir(dir.join("cache"))
            .build();
        let checkpointed = EcoOptions::builder()
            .seed(3)
            .checkpoint_dir(dir.join("checkpoint"))
            .build();
        let panicking = Budget::unlimited().with_faults(FaultPolicy {
            panic_at: Some(1),
            ..FaultPolicy::default()
        });
        let unlimited = Budget::unlimited();
        // (run, options, budget, earlier runs that prime the measured one,
        // proof the measured run took the path its row names)
        type Took = fn(&EcoResult) -> bool;
        let rows: [(&str, &EcoOptions, &Budget, usize, Took); 4] = [
            ("cold", &cold, &unlimited, 0, |r| {
                r.trace.iter().any(|sp| sp.name == "run")
                    && r.trace.iter().any(|sp| sp.name == "search")
            }),
            ("cache replay", &cached, &unlimited, 1, |r| {
                let n = &r.rectify.counters;
                n[Counter::CacheHits] == 1
                    && n[Counter::RectifyRewired] + n[Counter::RectifyFallbacks] > 0
            }),
            ("checkpoint resume", &checkpointed, &unlimited, 1, |r| {
                r.rectify.counters[Counter::CheckpointHits] > 0
            }),
            ("contained panic", &cold, &panicking, 0, |r| {
                r.rectify.counters[Counter::FaultInjections] == 1
                    && r.rectify.degradations.len() == 1
            }),
        ];
        for (label, options, budget, priming, took) in rows {
            for _ in 0..priming {
                Session::new(options.clone()).run(&c, &s).unwrap();
            }
            let session = Session::new(options.clone()).with_telemetry(&Telemetry::enabled());
            let result = session.run_with_budget(&c, &s, budget).unwrap();
            let verified = verify_rectification(&result.patched, &s).unwrap();
            assert!(verified, "{label}");
            assert!(took(&result), "{label}: {:?}", result.rectify);
            // The snapshot is the run's counters, entry for entry.
            let snap = session.metrics_snapshot();
            let counters = &result.rectify.counters;
            for &counter in Counter::ALL {
                let name = counter.name();
                assert_eq!(snap.counter(counter), counters[counter], "{label}: {name}");
            }
            for &gauge in Gauge::ALL {
                let name = gauge.name();
                assert_eq!(snap.gauge(gauge), counters[gauge], "{label}: {name}");
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
        // Without telemetry the same run records nothing and costs nothing.
        let bare = Session::new(EcoOptions::with_seed(3)).run(&c, &s).unwrap();
        assert!(bare.trace.is_empty());
        assert!(Session::new(EcoOptions::with_seed(3))
            .metrics_snapshot()
            .is_empty());
    }
}
