//! The overall rectification flow `RewireRectification` (paper §5.2).
//!
//! For every non-equivalent output pair, in increasing order of logical
//! complexity:
//!
//! 1. select error samples and build the sampling domain (§5.1),
//! 2. enumerate feasible rectification point-sets via `H(t)` (§4.2),
//! 3. assign candidate rewiring nets per point (§4.3),
//! 4. compute valid rewiring choices via `Ξ(c)` (§4.4),
//! 5. validate choices with resource-constrained SAT; counterexamples
//!    refine the domain, damaged outputs prune the choice, and the choice
//!    correcting the most outputs is favored.
//!
//! The output pin is itself a rectification point, so rewiring the output
//! to a cloned specification cone is an always-applicable fallback — the
//! flow never fails, it only degrades to a bigger patch.
//!
//! # Execution model
//!
//! A `Run` goes through five named phases, each owning the span it
//! records: **detect** (classify every output pair), **fan-out search**
//! (one pure per-output `Search` per failing output, on
//! [`EcoOptions::jobs`] workers), **merge/commit** (apply the proposals in
//! a fixed order), **verify** (re-classify after multiple merges) and
//! **record** (cache and checkpoint write-back). Each search reads the
//! post-normalization base circuit and returns a rewiring **proposal**
//! without mutating anything. The merge phase then applies the proposals
//! in a deterministic order (increasing cone size), re-validating any
//! proposal applied after the circuit changed; a proposal invalidated by
//! an earlier merge degrades to the output-rewire fallback with
//! [`DegradeReason::MergeConflict`]. Because every search derives its RNG
//! stream from the run seed and the output index, and the merge order is
//! independent of completion order, results are bit-identical for every
//! worker count (see DESIGN.md "Parallel execution model").

#![warn(clippy::too_many_lines)]

use std::collections::{HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use eco_bdd::{Bdd, BddError, BddManager};
use eco_netlist::{topo, Circuit, NetId, Pin};
use eco_sat::SolverStats;
use eco_telemetry::{
    ArgValue, Counter, Counters, Gauge, Histogram, MetricsShard, SpanRecord, SpanToken, Telemetry,
    TraceBuffer,
};
use eco_timing::{DelayModel, TimingReport};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::budget::{Budget, Degradation, DegradeAction, DegradeReason};
use crate::checkpoint::{CheckpointRecord, CheckpointSession};
use crate::choices::find_choices;
use crate::correspond::{Correspondence, OutputPair};
use crate::error_domain::{
    check_output_pair_with_stats, classify_outputs_with_stats, collect_samples_with_stats,
    Equivalence,
};
use crate::fault::SpanPoint;
use crate::memo::{CacheSession, OutputEntry, WarmStart};
use crate::options::EcoOptions;
use crate::patch::Patch;
use crate::points::{self, candidate_pins, feasible_point_sets, PointSet, Selection};
use crate::prefilter;
use crate::progress::{emit, OutputAction, ProgressCallback, ProgressEvent};
use crate::rewire_nets::{candidates_for_pin, RewireCandidate, RewireNetContext};
use crate::sampling::{eval_all_bdd, SamplingDomain};
use crate::schedule::{self, per_output_seed};
use crate::validate::{validate_rewires_with_stats, CandidateRewire, Validation};
use crate::EcoError;

/// BDD variable layout: choice block, selection block, rectification
/// inputs, sampling block — the `c < t < y < z` order of DESIGN.md.
const C_BASE: u32 = 0;
const T_BASE: u32 = 64;
const Y_BASE: u32 = 128;
const Z_BASE: u32 = 140;

/// Maximum number of rectification points `m` tried per output (§4.2).
const MAX_POINTS: usize = 3;
/// Cap `M` on candidate sink pins considered per output; a BDD node-limit
/// cut halves it (the §8 degradation ladder).
const MAX_CANDIDATE_PINS: usize = 48;
/// Maximum counterexample-refinement rounds per output before falling
/// back to the next candidate.
const MAX_REFINEMENTS: usize = 6;
/// Hard cap on SAT validations per output per domain attempt; when
/// exhausted, the best validated option so far is committed (or the search
/// falls back).
const MAX_VALIDATIONS_PER_OUTPUT: usize = 24;
/// Stop escalating to more rectification points once a validated option
/// with at most this clone cost (in spec gates) exists.
const GOOD_ENOUGH_COST: usize = 4;
/// A validated option at most this costly (pure or almost pure reuse of
/// existing implementation logic) commits immediately: nothing can beat it.
const EARLY_COMMIT_COST: usize = 1;
/// Node budget of the per-output BDD manager.
const BDD_NODE_LIMIT: usize = 2_000_000;
/// Live-node threshold that triggers a BDD mark-and-sweep pass at the next
/// point-set boundary of a search. Adapts upward after each pass so a
/// genuinely large working set is not thrashed.
const BDD_GC_THRESHOLD: Option<usize> = Some(1 << 16);

// Every selection the search builds — at most `MAX_POINTS` points over at
// most `MAX_CANDIDATE_PINS - 1` gate pins plus the output pin — is within
// the H(t) enumeration's reach, so its over-budget cut never fires here,
// and the selection and rectification-input blocks fit the variable layout.
const _: () = assert!(points::enumerable(MAX_CANDIDATE_PINS - 1, MAX_POINTS));
const _: () = assert!(
    MAX_POINTS as u32 * Selection::block_bits(MAX_CANDIDATE_PINS) <= Y_BASE - T_BASE
        && Y_BASE + MAX_POINTS as u32 <= Z_BASE
);

/// How one output was handled, with its search wall-clock.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutputTiming {
    /// Output label.
    pub output: String,
    /// Wall-clock time of the per-output search (zero for outputs only
    /// touched by the post-merge verification pass).
    pub search: Duration,
    /// How the output ended up rectified.
    pub action: OutputAction,
}

/// What a rectification run did: its outputs, degradations, per-output
/// outcomes, and every count of the run.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RectifyStats {
    /// Matched output pairs.
    pub outputs_total: usize,
    /// Pairs initially non-equivalent.
    pub outputs_failing: usize,
    /// Outputs whose search was cut short (budget exhaustion, resource
    /// limits, panics), with the recovery taken for each. Empty on a clean
    /// run; every listed output is still rectified, just less thoroughly
    /// searched.
    pub degradations: Vec<Degradation>,
    /// One entry per rectified output, in merge order: search wall-clock
    /// and the action taken.
    pub per_output: Vec<OutputTiming>,
    /// Every counter and gauge of the run, indexed by [`Counter`] and
    /// [`Gauge`]: SAT effort across detection, search, validation and
    /// rechecks; BDD cache traffic and peaks; search work (refinements —
    /// the metric behind ablations A and B — validations, point-sets,
    /// choices, pre-filter verdicts); outcomes (rewired, fallbacks,
    /// degradations, merge conflicts); cache, checkpoint and fault
    /// activity.
    ///
    /// Deterministic for a given seed and input — independent of `jobs` —
    /// because each solver and manager sees a deterministic query sequence
    /// and sums commute. A [`Session`](crate::Session) publishes exactly
    /// this block to its telemetry, so
    /// [`Session::metrics_snapshot`](crate::Session::metrics_snapshot)
    /// agrees with it.
    pub counters: Counters,
}

impl RectifyStats {
    /// A copy with every wall-clock field zeroed, so runs that differ only
    /// in timing (e.g. different `jobs` values) compare equal.
    pub fn normalized(&self) -> RectifyStats {
        let mut s = self.clone();
        for t in &mut s.per_output {
            t.search = Duration::ZERO;
        }
        s
    }
}

/// What one per-output search concluded, without mutating anything.
///
/// The *clean* verdicts — equivalent, an uncut proposal, a fallback with no
/// reason — are the ones a checkpoint persists and resumes (DESIGN.md §13).
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum SearchVerdict {
    /// No distinguishing assignment exists: the pair is equivalent after
    /// all (detection was conservative).
    Equivalent,
    /// A SAT-validated rewiring against the base circuit.
    Proposal {
        rewires: Vec<CandidateRewire>,
        /// Budget reason when the search stopped early but could still
        /// return its best validated option.
        cut: Option<DegradeReason>,
    },
    /// The search found nothing usable; take the guaranteed output-rewire
    /// fallback. `reason` is set when the search was cut short rather than
    /// exhausted cleanly.
    Fallback { reason: Option<DegradeReason> },
    /// The fault plan simulated a hard crash inside this search. Never
    /// merged: the coordinator aborts the whole run as soon as any slot
    /// reports it, modeling a process killed mid-fan-out.
    #[cfg(any(test, feature = "fault-injection"))]
    Aborted,
}

/// What [`Run::rectify`] produced.
pub(crate) struct Rectified {
    pub patch: Patch,
    pub stats: RectifyStats,
    /// The merged trace: coordinator spans (lane 0) first, then each
    /// search's spans in merge-slot order (lane `i + 1`) — independent of
    /// worker scheduling. Empty when telemetry is disabled.
    pub trace: Vec<SpanRecord>,
    /// The committed rewire groups in commit order — everything
    /// `apply_rewires` executed and kept — from which the caller can build
    /// a whole-run replay record (DESIGN.md §11).
    pub committed: Vec<Vec<CandidateRewire>>,
}

/// What one search accumulates as it runs.
struct SearchLog {
    counters: Counters,
    /// The search's trace lane.
    trace: TraceBuffer,
    /// Refinement counterexamples hit during the search, recorded so a
    /// later run can warm-start its sampling domain past them.
    refined: Vec<Vec<bool>>,
}

/// One merge slot's search outcome, with its wall-clock.
struct SearchResult {
    verdict: SearchVerdict,
    search: Duration,
    log: SearchLog,
}

enum Attempt {
    /// Found a validated rewiring; `cut` carries the budget reason when the
    /// search stopped early but could still return its best option.
    Found {
        rewires: Vec<CandidateRewire>,
        cut: Option<DegradeReason>,
    },
    /// The domain produced a false positive; refine with this assignment.
    Refine(Vec<bool>),
    /// BDD budget exceeded; retry with fewer candidate pins.
    NodeLimit,
    /// SAT validation ran out of budget on every remaining choice.
    SatExhausted,
    /// No valid choice found in this domain.
    Exhausted,
    /// The run budget (deadline/cancellation) expired mid-attempt with
    /// nothing validated yet.
    BudgetOut(DegradeReason),
}

/// Extracts a human-readable message from a caught panic payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Adds one SAT effort reading to `counters`.
fn count_sat(counters: &mut Counters, s: SolverStats) {
    counters.add(Counter::SatConflicts, s.conflicts);
    counters.add(Counter::SatDecisions, s.decisions);
    counters.add(Counter::SatPropagations, s.propagations);
    counters.add(Counter::SatRestarts, s.restarts);
    counters.add(Counter::SatLearntClauses, s.learnt_clauses);
    counters.add(Counter::SatLearntLiterals, s.learnt_literals);
}

/// Adds one BDD manager's cache counters and high-water marks to
/// `counters`.
fn count_bdd(counters: &mut Counters, m: &BddManager) {
    let b = m.counters();
    counters.add(Counter::BddApplyHits, b.apply_hits);
    counters.add(Counter::BddApplyMisses, b.apply_misses);
    counters.add(Counter::BddIteHits, b.ite_hits);
    counters.add(Counter::BddIteMisses, b.ite_misses);
    counters.add(Counter::BddQuantHits, b.quant_hits);
    counters.add(Counter::BddQuantMisses, b.quant_misses);
    counters.add(Counter::BddUniqueResizes, b.unique_resizes);
    counters.add(Counter::BddEvictions, b.evictions);
    counters.add(Counter::BddGcRuns, b.gc_runs);
    counters.add(Counter::BddGcFreed, b.gc_freed_nodes);
    counters.max(Gauge::BddPeakNodes, m.peak_num_nodes() as u64);
    counters.max(Gauge::BddUniqueEntries, m.unique_table_len() as u64);
}

/// One rectification run: the specification and port correspondence it
/// rectifies against, its options and budget, and where it reports.
///
/// [`Run::rectify`] runs the phases in order — detect, fan-out search,
/// merge/commit, verify, record — each a method owning the span it records.
pub(crate) struct Run<'a> {
    pub spec: &'a Circuit,
    /// Correspondence of the (port-normalized) implementation and `spec`.
    pub corr: Correspondence,
    pub options: &'a EcoOptions,
    pub budget: &'a Budget,
    pub telemetry: &'a Telemetry,
    pub observer: Option<&'a ProgressCallback>,
    pub cache: Option<&'a mut CacheSession>,
    pub checkpoint: Option<&'a CheckpointSession>,
}

/// What the coordinator fixes before the fan-out: the detect phase's
/// findings and every merge slot's warm data. Every slot sees fixed
/// inputs, so lookups cannot perturb jobs-determinism.
struct Plan {
    /// Implementation indices of the outputs that (may) need a patch.
    failing: HashSet<u32>,
    /// Detection counterexample per failing output, where one was found.
    seeds: HashMap<u32, Vec<bool>>,
    /// Detection counterexamples in output order: every search's initial
    /// sample bank, identical across runs and worker counts.
    bank: Vec<Vec<bool>>,
    /// Failing pairs in merge order: increasing logical complexity (cone
    /// size), stable on ties — fixed before the fan-out, independent of
    /// completion order.
    order: Vec<OutputPair>,
    /// Cache entries in merge order. Empty without a cache, or when the
    /// spec walk fails (cannot happen on the well-formed circuits that
    /// reach this point): the fan-out then runs cold.
    entries: Vec<OutputEntry>,
    /// Stored clean verdicts in merge order; empty without checkpointing.
    resumed: Vec<Option<CheckpointRecord>>,
}

impl Run<'_> {
    /// Runs the full rectification flow, mutating `implementation` in place
    /// — the flow behind [`Session`](crate::Session), which pre-normalizes
    /// ports and runs the post-processing patch sweep around it.
    ///
    /// Per-output searches are isolated: a budget expiry, an error, or a
    /// panic inside one output's search degrades only that output to the
    /// always-applicable output-rewire fallback and records a
    /// [`Degradation`] — the run as a whole still succeeds with every
    /// output rectified.
    ///
    /// With a [`CacheSession`], per-output records warm-start searches
    /// (stored sampling minterms plus the previously validated proposal,
    /// which is SAT-re-validated before reuse) and finished searches are
    /// recorded back.
    pub(crate) fn rectify(mut self, implementation: &mut Circuit) -> Result<Rectified, EcoError> {
        let t_run = Instant::now();
        let mut tb = self.telemetry.buffer(0);
        let span_run = tb.start();
        self.budget.fault_span(SpanPoint::Run)?;
        let mut stats = RectifyStats {
            outputs_total: self.corr.outputs.len(),
            ..Default::default()
        };
        let timing = self.timing(implementation)?;
        let plan = self.detect(implementation, &mut stats, &mut tb)?;
        let results = self.fan_out(implementation, &plan, timing.as_ref());
        // A simulated crash in any search slot kills the whole run *now*,
        // before the merge phase writes anything — exactly what a SIGKILL
        // mid-fan-out leaves behind: durable checkpoints, no partial patch.
        #[cfg(any(test, feature = "fault-injection"))]
        if results
            .iter()
            .any(|r| matches!(r.verdict, SearchVerdict::Aborted))
        {
            return Err(EcoError::InjectedAbort);
        }
        let mut merge = Merge::new(implementation, &self, stats);
        let logs = self.merge(&mut merge, &plan.order, results, &mut tb)?;
        // With two or more merged proposals, a later one can damage an
        // earlier one's output (each was re-checked only for its own pair).
        // A resumed run with any merged proposal also verifies: resumed
        // slots skipped their searches, so the end-to-end re-classification
        // is what discharges the "always re-verified" resume guarantee.
        let resumed = plan.resumed.iter().flatten().count();
        if merge.applied >= 2 || (resumed > 0 && merge.applied >= 1) {
            merge.verify(&self.corr, &mut tb)?;
        }
        self.record(&mut merge, &plan.entries, &logs, resumed);
        Ok(self.finish(merge, logs, tb, span_run, t_run))
    }

    /// Arrival times for level-driven selection, computed once: the base
    /// circuit is immutable during the search phase.
    fn timing(&self, implementation: &Circuit) -> Result<Option<TimingReport>, EcoError> {
        if !self.options.level_driven {
            return Ok(None);
        }
        let model = DelayModel::default();
        let probe = TimingReport::analyze(implementation, &model, 0.0)?;
        Ok(Some(TimingReport::analyze(
            implementation,
            &model,
            probe.critical_delay() * 1.1,
        )?))
    }

    /// The SAT conflict budget of one whole-pair check (detect, merge
    /// rechecks, verify).
    fn recheck_budget(&self) -> Option<u64> {
        Some(self.options.validation_budget.saturating_mul(10))
    }

    /// Detect phase: classifies every output pair (one miter encoding,
    /// per-pair assumptions), fixes the merge order of the failing ones and
    /// looks up each merge slot's cache entry and checkpoint record.
    fn detect(
        &mut self,
        implementation: &Circuit,
        stats: &mut RectifyStats,
        tb: &mut TraceBuffer,
    ) -> Result<Plan, EcoError> {
        let mut failing: HashSet<u32> = HashSet::new();
        let mut seeds: HashMap<u32, Vec<bool>> = HashMap::new();
        let span_detect = tb.start();
        self.budget.fault_span(SpanPoint::Detect)?;
        let (verdicts, detect_sat) = classify_outputs_with_stats(
            implementation,
            self.spec,
            &self.corr,
            self.recheck_budget(),
            Some(self.budget),
        )?;
        count_sat(&mut stats.counters, detect_sat);
        for (pair, verdict) in self.corr.outputs.iter().zip(verdicts) {
            match verdict {
                Equivalence::Equivalent => {}
                Equivalence::Counterexample(x) => {
                    failing.insert(pair.impl_index);
                    seeds.insert(pair.impl_index, x);
                }
                Equivalence::Unknown => {
                    // Conservatively treat as failing; sample collection
                    // will show whether anything is actually wrong.
                    failing.insert(pair.impl_index);
                }
            }
        }
        stats.outputs_failing = failing.len();
        tb.end_with(span_detect, "detect", "rectify", || {
            vec![
                (
                    "outputs_total",
                    ArgValue::U64(self.corr.outputs.len() as u64),
                ),
                ("outputs_failing", ArgValue::U64(failing.len() as u64)),
                ("sat_conflicts", ArgValue::U64(detect_sat.conflicts)),
            ]
        });
        let outputs = &self.corr.outputs;
        let bank = outputs
            .iter()
            .filter_map(|p| seeds.get(&p.impl_index).cloned())
            .collect();
        let mut order: Vec<&OutputPair> = outputs
            .iter()
            .filter(|p| failing.contains(&p.impl_index))
            .collect();
        order.sort_by_key(|p| {
            topo::cone_size(self.spec, self.spec.outputs()[p.spec_index as usize].net())
                + topo::cone_size(
                    implementation,
                    implementation.outputs()[p.impl_index as usize].net(),
                )
        });
        let order: Vec<OutputPair> = order.into_iter().cloned().collect();
        let entries = match self.cache.as_deref_mut() {
            Some(session) => session
                .output_entries(self.spec, &order)
                .unwrap_or_default(),
            None => Vec::new(),
        };
        let resumed = match self.checkpoint {
            Some(ck) => order
                .iter()
                .map(|p| ck.load(ck.slot_key(&p.name)))
                .collect(),
            None => Vec::new(),
        };
        Ok(Plan {
            failing,
            seeds,
            bank,
            order,
            entries,
            resumed,
        })
    }

    /// Fan-out search phase: one pure search per failing output on the
    /// worker threads, results in merge-slot order.
    fn fan_out(
        &self,
        base: &Circuit,
        plan: &Plan,
        timing: Option<&TimingReport>,
    ) -> Vec<SearchResult> {
        let shard = self.telemetry.shard();
        let order = &plan.order;
        let jobs = self.options.effective_jobs();
        emit(
            self.observer,
            ProgressEvent::RunStarted {
                outputs_total: self.corr.outputs.len(),
                outputs_failing: order.len(),
                jobs,
            },
        );
        schedule::fan_out(jobs, order.len(), |i| {
            let pair = &order[i];
            let search = Search {
                base,
                spec: self.spec,
                corr: &self.corr,
                pair,
                failing: &plan.failing,
                seed: plan.seeds.get(&pair.impl_index).map(Vec::as_slice),
                bank: &plan.bank,
                warm: plan.entries.get(i).and_then(|e| e.warm.as_ref()),
                options: self.options,
                timing,
                budget: self.budget,
                shard: &shard,
            };
            self.search_slot(&search, i, plan.resumed.get(i).cloned().flatten())
        })
    }

    /// One merge slot of the fan-out: resumes the slot's checkpointed
    /// verdict or runs (and checkpoints) its search, tracing it on lane
    /// `position + 1` — the slot's lane regardless of which worker ran it,
    /// so the merged trace is independent of scheduling.
    fn search_slot(
        &self,
        search: &Search<'_>,
        position: usize,
        resumed: Option<CheckpointRecord>,
    ) -> SearchResult {
        let pair = search.pair;
        emit(
            self.observer,
            ProgressEvent::OutputStarted {
                output: pair.name.clone(),
                position,
                failing_total: search.failing.len(),
            },
        );
        let t_search = Instant::now();
        let mut log = SearchLog {
            counters: Counters::default(),
            trace: self.telemetry.buffer(position as u32 + 1),
            refined: Vec::new(),
        };
        let span_search = log.trace.start();
        let verdict = match resumed {
            // Resumed: skip the search entirely. The stored refinement
            // minterms are carried over so the cache write-back matches an
            // uninterrupted run's.
            Some(record) => {
                log.refined = record.refined;
                record.verdict
            }
            None => {
                let verdict = search.run(&mut log);
                // Persist the verdict the moment the search finishes: after
                // `record` returns, a kill at any later instant leaves this
                // output resumable.
                if let Some(ck) = self.checkpoint {
                    ck.record(ck.slot_key(&pair.name), &verdict, &log.refined);
                }
                verdict
            }
        };
        let elapsed = t_search.elapsed();
        let proposal = matches!(verdict, SearchVerdict::Proposal { .. });
        log.trace.end_with(span_search, "search", "rectify", || {
            let n = |c: Counter| ArgValue::U64(log.counters[c]);
            vec![
                ("output", ArgValue::Str(pair.name.clone())),
                ("refinements", n(Counter::RectifyRefinements)),
                ("validations", n(Counter::RectifyValidations)),
                ("point_sets", n(Counter::RectifyPointSets)),
                ("choices", n(Counter::RectifyChoices)),
                ("screened", n(Counter::PrefilterScreened)),
                ("sat_conflicts", n(Counter::SatConflicts)),
                ("proposal", ArgValue::U64(u64::from(proposal))),
            ]
        });
        search
            .shard
            .observe(Histogram::SearchMicros, elapsed.as_micros() as u64);
        emit(
            self.observer,
            ProgressEvent::OutputSearched {
                output: pair.name.clone(),
                position,
                search: elapsed,
                proposal,
            },
        );
        SearchResult {
            verdict,
            search: elapsed,
            log,
        }
    }

    /// Merge/commit phase: commits the verdicts one at a time in the fixed
    /// merge order. Returns each slot's search log for the later phases.
    fn merge(
        &self,
        merge: &mut Merge<'_>,
        order: &[OutputPair],
        results: Vec<SearchResult>,
        tb: &mut TraceBuffer,
    ) -> Result<Vec<SearchLog>, EcoError> {
        let mut logs = Vec::with_capacity(results.len());
        let span_merge = tb.start();
        self.budget.fault_span(SpanPoint::Merge)?;
        for (position, (pair, result)) in order.iter().zip(results).enumerate() {
            merge.stats.counters += &result.log.counters;
            logs.push(result.log);
            let span_commit = tb.start();
            self.budget.fault_span(SpanPoint::Commit)?;
            let degradations = merge.stats.degradations.len();
            let group = merge.committed.len();
            let action = merge.commit(pair, result.verdict)?;
            merge
                .proposals
                .push((action == OutputAction::Rewired).then_some(group));
            merge.stats.per_output.push(OutputTiming {
                output: pair.name.clone(),
                search: result.search,
                action,
            });
            // Any degradation of this output was just recorded; its reason
            // feeds the run report's narrative.
            let degradation = merge.stats.degradations[degradations..].last();
            tb.end_with(span_commit, "commit", "rectify", || {
                let mut args = vec![
                    ("output", ArgValue::Str(pair.name.clone())),
                    ("action", ArgValue::Str(action.to_string())),
                    ("degraded", ArgValue::U64(u64::from(degradation.is_some()))),
                ];
                if let Some(d) = degradation {
                    args.push(("reason", ArgValue::Str(d.reason.to_string())));
                }
                args
            });
            emit(
                self.observer,
                ProgressEvent::OutputRectified {
                    output: pair.name.clone(),
                    position,
                    action,
                    degraded: degradation.is_some(),
                },
            );
        }
        tb.end_with(span_merge, "merge", "rectify", || {
            vec![
                ("proposals_applied", ArgValue::U64(merge.applied as u64)),
                (
                    "fallbacks",
                    ArgValue::U64(merge.stats.counters[Counter::RectifyFallbacks]),
                ),
            ]
        });
        Ok(logs)
    }

    /// Record phase: stores per-output outcomes for future warm starts and
    /// folds the checkpoint's activity into the run's counters.
    ///
    /// A proposal is stored only when it survived both the merge rechecks
    /// and the verification pass (`per_output` actions are final by now);
    /// refinement counterexamples are stored for every searched output,
    /// with previously stored minterms carried forward so repeated runs do
    /// not erode the warm-start data.
    fn record(
        &mut self,
        merge: &mut Merge<'_>,
        entries: &[OutputEntry],
        logs: &[SearchLog],
        resumed: usize,
    ) {
        if let Some(session) = self.cache.as_deref_mut() {
            let minterm_cap = self.options.num_samples.max(1);
            for (i, entry) in entries.iter().enumerate() {
                let proposal = merge.proposals[i]
                    .filter(|_| merge.stats.per_output[i].action == OutputAction::Rewired)
                    .map(|group| merge.committed[group].as_slice());
                let mut minterms: Vec<Vec<bool>> = entry
                    .warm
                    .as_ref()
                    .map(|w| w.minterms.clone())
                    .unwrap_or_default();
                for x in &logs[i].refined {
                    if minterms.len() >= minterm_cap {
                        break;
                    }
                    if !minterms.contains(x) {
                        minterms.push(x.clone());
                    }
                }
                minterms.truncate(minterm_cap);
                session.record_output(entry, proposal, &minterms);
            }
        }
        if let Some(ck) = self.checkpoint {
            let counters = &mut merge.stats.counters;
            counters.add(Counter::CheckpointHits, resumed as u64);
            counters.add(Counter::CheckpointWrites, ck.writes());
            counters.add(Counter::CacheCorruptSegments, ck.corrupt_segments());
            let (io_errors, retries) = ck.io_counters();
            counters.add(Counter::CacheIoErrors, io_errors);
            counters.add(Counter::CacheRetries, retries);
        }
    }

    /// Closes the run: outcome counters, the run span, and the merged trace
    /// — coordinator spans first, then each search's spans in merge-slot
    /// order, deterministic for any worker count.
    fn finish(
        &self,
        merge: Merge<'_>,
        logs: Vec<SearchLog>,
        mut tb: TraceBuffer,
        span_run: SpanToken,
        t_run: Instant,
    ) -> Rectified {
        let Merge {
            implementation,
            patch,
            committed,
            mut stats,
            ..
        } = merge;
        implementation.sweep();
        let merge_conflicts = stats
            .degradations
            .iter()
            .filter(|d| matches!(d.reason, DegradeReason::MergeConflict))
            .count();
        let counters = &mut stats.counters;
        counters.add(
            Counter::RectifyDegradations,
            stats.degradations.len() as u64,
        );
        counters.add(Counter::RectifyMergeConflicts, merge_conflicts as u64);
        emit(
            self.observer,
            ProgressEvent::RunFinished {
                duration: t_run.elapsed(),
                degradations: stats.degradations.len(),
            },
        );
        tb.end_with(span_run, "run", "rectify", || {
            let n = |c: Counter| ArgValue::U64(stats.counters[c]);
            vec![
                ("outputs_total", ArgValue::U64(stats.outputs_total as u64)),
                (
                    "outputs_failing",
                    ArgValue::U64(stats.outputs_failing as u64),
                ),
                ("rewired", n(Counter::RectifyRewired)),
                ("fallbacks", n(Counter::RectifyFallbacks)),
                (
                    "degradations",
                    ArgValue::U64(stats.degradations.len() as u64),
                ),
            ]
        });
        for log in logs {
            tb.append(log.trace);
        }
        Rectified {
            patch,
            stats,
            trace: tb.into_spans(),
            committed,
        }
    }
}

/// The merge phase's state: the circuit under rectification and
/// everything committed to it so far.
struct Merge<'r> {
    implementation: &'r mut Circuit,
    spec: &'r Circuit,
    budget: &'r Budget,
    recheck_budget: Option<u64>,
    patch: Patch,
    /// Spec logic already instantiated by earlier merges, shared so
    /// overlapping revisions are cloned once (one patch, many sinks).
    shared_clones: HashMap<NetId, NetId>,
    /// Rewire groups that were applied *and kept*, in commit order. Because
    /// [`Patch::apply`] is the only circuit mutation in the merge phase and
    /// a rolled-back group restores the pre-apply snapshot, replaying
    /// exactly these groups through a fresh clone map reproduces the final
    /// circuit and patch byte for byte — the whole-run cache record.
    committed: Vec<Vec<CandidateRewire>>,
    /// For each merge slot, the index into `committed` of the proposal
    /// that stuck (fallback groups are never memoized per output:
    /// recording them would let a warm run skip the search that might beat
    /// them).
    proposals: Vec<Option<usize>>,
    stats: RectifyStats,
    /// Proposals merged so far.
    applied: usize,
}

impl<'r> Merge<'r> {
    fn new(implementation: &'r mut Circuit, run: &Run<'r>, stats: RectifyStats) -> Self {
        Merge {
            patch: Patch::new(implementation.num_nodes()),
            implementation,
            spec: run.spec,
            budget: run.budget,
            recheck_budget: run.recheck_budget(),
            shared_clones: HashMap::new(),
            committed: Vec::new(),
            proposals: Vec::new(),
            stats,
            applied: 0,
        }
    }

    /// Commits one search verdict and returns how the output ended up.
    fn commit(
        &mut self,
        pair: &OutputPair,
        verdict: SearchVerdict,
    ) -> Result<OutputAction, EcoError> {
        match verdict {
            SearchVerdict::Equivalent => Ok(OutputAction::AlreadyEquivalent),
            #[cfg(any(test, feature = "fault-injection"))]
            SearchVerdict::Aborted => unreachable!("aborted runs never reach the merge phase"),
            SearchVerdict::Fallback { reason } => {
                let reason = reason.or_else(|| self.budget.degrade_reason());
                if reason.is_none() && self.fixed_earlier(pair)? {
                    return Ok(OutputAction::AlreadyEquivalent);
                }
                self.fall_back(pair, reason)
            }
            SearchVerdict::Proposal { rewires, cut } => self.commit_proposal(pair, rewires, cut),
        }
    }

    /// Commits a validated proposal, or falls back when the merged state
    /// no longer admits it.
    fn commit_proposal(
        &mut self,
        pair: &OutputPair,
        rewires: Vec<CandidateRewire>,
        cut: Option<DegradeReason>,
    ) -> Result<OutputAction, EcoError> {
        if let Some(reason) = self.budget.degrade_reason() {
            // The proposal was validated against the pristine base circuit;
            // re-validating against the merged state is no longer
            // affordable, so take the guaranteed fallback instead of
            // trusting it blindly.
            return self.fall_back(pair, Some(reason));
        }
        if self.fixed_earlier(pair)? {
            return Ok(OutputAction::AlreadyEquivalent);
        }
        // Snapshot so a conflicting proposal cannot leave a half-applied
        // rewire behind.
        let snapshot = (
            self.implementation.clone(),
            self.patch.clone(),
            self.shared_clones.clone(),
        );
        let applied = self.patch.apply(
            self.implementation,
            self.spec,
            &rewires,
            &mut self.shared_clones,
        );
        let conflict = match applied {
            Err(_) => Some(DegradeReason::MergeConflict),
            // Proposals after the first were validated against a circuit
            // that has since changed: re-confirm before keeping them.
            Ok(()) if self.applied == 0 || self.recheck(pair)? => None,
            Ok(()) => Some(
                self.budget
                    .degrade_reason()
                    .unwrap_or(DegradeReason::MergeConflict),
            ),
        };
        if let Some(reason) = conflict {
            (*self.implementation, self.patch, self.shared_clones) = snapshot;
            return self.fall_back(pair, Some(reason));
        }
        self.stats.counters.add(Counter::RectifyRewired, 1);
        self.applied += 1;
        self.committed.push(rewires);
        if let Some(reason) = cut {
            self.degrade(pair, reason, DegradeAction::CommittedBest);
        }
        Ok(OutputAction::Rewired)
    }

    /// Whether an earlier merged proposal already fixed `pair` as a side
    /// effect — only worth a query once the circuit actually changed.
    fn fixed_earlier(&mut self, pair: &OutputPair) -> Result<bool, EcoError> {
        Ok(self.applied > 0 && self.recheck(pair)?)
    }

    /// Whether `pair` is equivalent in the merged circuit.
    fn recheck(&mut self, pair: &OutputPair) -> Result<bool, EcoError> {
        let (verdict, s) = check_output_pair_with_stats(
            self.implementation,
            self.spec,
            pair,
            self.recheck_budget,
            Some(self.budget),
        )?;
        count_sat(&mut self.stats.counters, s);
        Ok(matches!(verdict, Equivalence::Equivalent))
    }

    /// The one fallback path: applies the §3.3 output-rewire fallback for
    /// `pair` — rewire the output pin to a clone of the corresponding
    /// specification cone, always applicable on a well-formed design — and
    /// records `reason`, when there is one, as the output's degradation.
    fn fall_back(
        &mut self,
        pair: &OutputPair,
        reason: Option<DegradeReason>,
    ) -> Result<OutputAction, EcoError> {
        let fallback = vec![CandidateRewire {
            pin: Pin::output(pair.impl_index),
            candidate: RewireCandidate {
                net: self.spec.outputs()[pair.spec_index as usize].net(),
                from_spec: true,
                utility: 1.0,
                arrival: 0.0,
            },
        }];
        self.patch
            .apply(
                self.implementation,
                self.spec,
                &fallback,
                &mut self.shared_clones,
            )
            .map_err(|_| EcoError::RectificationFailed {
                output: pair.name.clone(),
            })?;
        self.stats.counters.add(Counter::RectifyFallbacks, 1);
        self.committed.push(fallback);
        if let Some(reason) = reason {
            self.degrade(pair, reason, DegradeAction::OutputRewireFallback);
        }
        Ok(OutputAction::Fallback)
    }

    /// Records a degradation of `pair`: at most one per output, so a later
    /// one replaces an earlier entry.
    fn degrade(&mut self, pair: &OutputPair, reason: DegradeReason, action: DegradeAction) {
        let degradations = &mut self.stats.degradations;
        match degradations.iter_mut().find(|d| d.output == pair.name) {
            Some(d) => {
                d.reason = reason;
                d.action = action;
            }
            None => degradations.push(Degradation {
                output: pair.name.clone(),
                reason,
                action,
            }),
        }
    }

    /// Verify phase: re-classifies every output of the merged circuit and
    /// repairs damage with the fallback.
    fn verify(&mut self, corr: &Correspondence, tb: &mut TraceBuffer) -> Result<(), EcoError> {
        let span_verify = tb.start();
        self.budget.fault_span(SpanPoint::Verify)?;
        let (verdicts, verify_sat) = classify_outputs_with_stats(
            self.implementation,
            self.spec,
            corr,
            self.recheck_budget,
            Some(self.budget),
        )?;
        count_sat(&mut self.stats.counters, verify_sat);
        let mut repaired = 0u64;
        for (pair, verdict) in corr.outputs.iter().zip(verdicts) {
            if matches!(verdict, Equivalence::Equivalent) {
                continue;
            }
            repaired += 1;
            // Damaged by a later merge.
            let reason = self
                .budget
                .degrade_reason()
                .unwrap_or(DegradeReason::MergeConflict);
            let action = self.fall_back(pair, Some(reason))?;
            let per_output = &mut self.stats.per_output;
            match per_output.iter_mut().find(|t| t.output == pair.name) {
                Some(t) => t.action = action,
                None => per_output.push(OutputTiming {
                    output: pair.name.clone(),
                    search: Duration::ZERO,
                    action,
                }),
            }
        }
        tb.end_with(span_verify, "verify", "rectify", || {
            vec![("repaired", ArgValue::U64(repaired))]
        });
        Ok(())
    }
}

/// One per-output search: the immutable base circuit it searches against,
/// the output it serves, and the run-wide inputs it reads.
struct Search<'a> {
    base: &'a Circuit,
    spec: &'a Circuit,
    corr: &'a Correspondence,
    pair: &'a OutputPair,
    /// Every failing output: validation must not damage the others.
    failing: &'a HashSet<u32>,
    /// This output's detection counterexample, if one was found.
    seed: Option<&'a [bool]>,
    /// The run's initial sample bank (detection counterexamples).
    bank: &'a [Vec<bool>],
    warm: Option<&'a WarmStart>,
    options: &'a EcoOptions,
    timing: Option<&'a TimingReport>,
    budget: &'a Budget,
    shard: &'a MetricsShard,
}

/// A search's evolving sampling state.
struct Samples {
    /// The §5.1 sampling domain.
    domain: Vec<Vec<bool>>,
    /// Every distinguishing assignment known to the search — a superset of
    /// `domain` — against which validation and the prefilter check.
    bank: Vec<Vec<bool>>,
}

impl Samples {
    fn new(initial_bank: &[Vec<bool>], domain: Vec<Vec<bool>>) -> Self {
        let mut bank = initial_bank.to_vec();
        for s in &domain {
            if !bank.contains(s) {
                bank.push(s.clone());
            }
        }
        Samples { domain, bank }
    }

    fn add(&mut self, x: Vec<bool>) {
        if !self.bank.contains(&x) {
            self.bank.push(x.clone());
        }
        self.domain.push(x);
    }
}

impl Search<'_> {
    /// Runs the search with its failures contained: an error or a panic
    /// degrades this output to the fallback instead of failing the run.
    fn run(&self, log: &mut SearchLog) -> SearchVerdict {
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            self.budget.fault_span(SpanPoint::Search)?;
            self.budget.inject_search_panic();
            self.search_one_output(log)
        }));
        match outcome {
            Ok(Ok(v)) => v,
            #[cfg(any(test, feature = "fault-injection"))]
            Ok(Err(EcoError::InjectedAbort)) => SearchVerdict::Aborted,
            Ok(Err(e)) => SearchVerdict::Fallback {
                reason: Some(DegradeReason::SearchError(e.to_string())),
            },
            Err(payload) => SearchVerdict::Fallback {
                reason: Some(DegradeReason::SearchPanicked(panic_message(payload))),
            },
        }
    }

    /// Searches one output pair against the immutable base circuit.
    ///
    /// Pure: mutates nothing outside `log`; the returned [`SearchVerdict`]
    /// is applied (or discarded) by the merge phase. The RNG stream is
    /// derived from the run seed and the output index so the verdict is
    /// independent of worker count and scheduling.
    fn search_one_output(&self, log: &mut SearchLog) -> Result<SearchVerdict, EcoError> {
        let collected = self.collect_samples(log)?;
        if collected.is_empty() {
            return Ok(match self.budget.degrade_reason() {
                // The sampler gave up before finding a distinguishing
                // input, so we cannot claim equivalence: take the
                // guaranteed fallback.
                Some(reason) => SearchVerdict::Fallback {
                    reason: Some(reason),
                },
                // No error exists: the pair is equivalent after all.
                None => SearchVerdict::Equivalent,
            });
        }
        let mut samples = Samples::new(self.bank, collected);
        if let Some(verdict) = self.warm_start(&mut samples, log)? {
            return Ok(verdict);
        }
        self.refine(samples, log)
    }

    /// Collects the output's error samples (§5.1).
    fn collect_samples(&self, log: &mut SearchLog) -> Result<Vec<Vec<bool>>, EcoError> {
        let mut rng =
            SmallRng::seed_from_u64(per_output_seed(self.options.seed, self.pair.impl_index));
        let span_samples = log.trace.start();
        self.budget.fault_span(SpanPoint::Samples)?;
        let (samples, sample_sat) = collect_samples_with_stats(
            self.base,
            self.spec,
            self.corr,
            self.pair,
            self.options.num_samples,
            self.options.sample_policy,
            self.seed,
            &mut rng,
            Some(self.budget),
        )?;
        count_sat(&mut log.counters, sample_sat);
        log.trace.end_with(span_samples, "samples", "rectify", || {
            vec![
                ("collected", ArgValue::U64(samples.len() as u64)),
                ("sat_conflicts", ArgValue::U64(sample_sat.conflicts)),
            ]
        });
        Ok(samples)
    }

    /// Warm start (DESIGN.md §11). Previously recorded refinement
    /// counterexamples extend the sampling domain so it begins past the
    /// false-positive phase a cold run pays refinements for, and a
    /// previously validated proposal is SAT-re-validated up front — a hit
    /// skips the search entirely (`Some` verdict). Both run only once
    /// samples show an error exists, so stale warm data can never mask
    /// true equivalence.
    fn warm_start(
        &self,
        samples: &mut Samples,
        log: &mut SearchLog,
    ) -> Result<Option<SearchVerdict>, EcoError> {
        let Some(warm) = self.warm else {
            return Ok(None);
        };
        let num_inputs = self.base.num_inputs();
        let cap = self.options.num_samples.max(1).saturating_mul(2);
        for x in &warm.minterms {
            if samples.domain.len() >= cap {
                break;
            }
            if x.len() == num_inputs && !samples.domain.contains(x) {
                samples.add(x.clone());
            }
        }
        let Some(proposal) = &warm.proposal else {
            return Ok(None);
        };
        match self.validate(log, proposal, &samples.bank, true)? {
            Ok(Validation::Valid { .. }) => {
                log.counters.add(Counter::CacheHits, 1);
                return Ok(Some(SearchVerdict::Proposal {
                    rewires: proposal.clone(),
                    cut: None,
                }));
            }
            Ok(Validation::CounterExample(x)) => {
                // The rejection's counterexample is fresh signal: feed it
                // into the domain before starting the cold search.
                log.counters.add(Counter::CacheVerifyRejects, 1);
                if x.len() == num_inputs && !samples.domain.contains(&x) {
                    log.refined.push(x.clone());
                    samples.add(x);
                }
            }
            // Damaged, infeasible, SAT-unknown, or a record so stale it no
            // longer applies cleanly: discard and search cold.
            _ => log.counters.add(Counter::CacheVerifyRejects, 1),
        }
        Ok(None)
    }

    /// The counterexample-guided refinement loop: attempts over a growing
    /// sampling domain, shrinking the candidate-pin cap on BDD node-limit
    /// cuts, until a proposal is found or the search ends in the fallback.
    fn refine(&self, mut samples: Samples, log: &mut SearchLog) -> Result<SearchVerdict, EcoError> {
        let mut pin_cap = MAX_CANDIDATE_PINS;
        let mut refinements_left = MAX_REFINEMENTS;
        let ended = loop {
            if let Some(reason) = self.budget.degrade_reason() {
                break Some(reason);
            }
            match self.attempt_with_domain(&samples, pin_cap, log)? {
                Attempt::Found { rewires, cut } => {
                    return Ok(SearchVerdict::Proposal { rewires, cut });
                }
                Attempt::Refine(x) => {
                    if refinements_left == 0 {
                        break None;
                    }
                    refinements_left -= 1;
                    log.counters.add(Counter::RectifyRefinements, 1);
                    log.trace.instant("refine", "rectify");
                    log.refined.push(x.clone());
                    samples.add(x);
                }
                Attempt::NodeLimit => {
                    if pin_cap <= 4 {
                        break Some(DegradeReason::BddNodeLimit);
                    }
                    pin_cap /= 2;
                }
                Attempt::SatExhausted => break Some(DegradeReason::SatBudgetExhausted),
                Attempt::BudgetOut(reason) => break Some(reason),
                Attempt::Exhausted => break None,
            }
        };
        // Fallback: the output pin is a rectification point whose
        // rectification function is f' itself, realized by the
        // corresponding output of C' (§3.3 completeness argument). The
        // merge phase applies it.
        Ok(SearchVerdict::Fallback { reason: ended })
    }

    /// The one validation step: SAT-validates `rewires` against the base
    /// circuit over `bank`, counting the validation and its SAT effort,
    /// tracing a `validate` span (`memoized` marks a warm-start proposal)
    /// and timing it.
    ///
    /// The outer error is the validate fault point; the inner one is the
    /// validation's own, left to the caller — a memoized proposal that no
    /// longer applies is a cache reject, not a search failure.
    fn validate(
        &self,
        log: &mut SearchLog,
        rewires: &[CandidateRewire],
        bank: &[Vec<bool>],
        memoized: bool,
    ) -> Result<Result<Validation, EcoError>, EcoError> {
        log.counters.add(Counter::RectifyValidations, 1);
        let t_val = Instant::now();
        let span_val = log.trace.start();
        self.budget.fault_span(SpanPoint::Validate)?;
        // Searches run against the pristine base circuit, so there is no
        // cross-output clone sharing to account for.
        let result = validate_rewires_with_stats(
            self.base,
            self.spec,
            self.corr,
            rewires,
            self.pair,
            self.failing,
            bank,
            &HashMap::new(),
            self.options.validation_budget,
            Some(self.budget),
        );
        let sat = result
            .as_ref()
            .map_or_else(|_| SolverStats::default(), |(_, s)| *s);
        count_sat(&mut log.counters, sat);
        log.trace.end_with(span_val, "validate", "rectify", || {
            let mut args = vec![
                ("rewires", ArgValue::U64(rewires.len() as u64)),
                ("sat_conflicts", ArgValue::U64(sat.conflicts)),
            ];
            if memoized {
                args.push(("memoized", ArgValue::U64(1)));
            }
            args
        });
        if self.shard.is_enabled() {
            self.shard.observe(
                Histogram::ValidateMicros,
                t_val.elapsed().as_micros() as u64,
            );
            self.shard
                .observe(Histogram::SatConflictsPerCall, sat.conflicts);
        }
        Ok(result.map(|(validation, _)| validation))
    }

    /// One search attempt over a fixed sampling domain. Read-only with
    /// respect to the circuit: a validated choice is returned as
    /// [`Attempt::Found`], not applied.
    ///
    /// Owns the attempt's [`BddManager`] so its cache counters and peak
    /// node count are folded into the log on **every** exit path of the
    /// inner search, early cuts included.
    fn attempt_with_domain(
        &self,
        samples: &Samples,
        pin_cap: usize,
        log: &mut SearchLog,
    ) -> Result<Attempt, EcoError> {
        let node_limit = if self.budget.inject_bdd_node_limit() {
            1 // fault injection: force an immediate NodeLimit on the first op
        } else {
            BDD_NODE_LIMIT
        };
        let mut m = BddManager::with_node_limit(node_limit);
        // Automatic collection trigger, checked at point-set boundaries.
        // Fault arming may lower it to force the machinery under test.
        m.set_gc_threshold(BDD_GC_THRESHOLD);
        self.budget.arm_bdd(&mut m);
        let mut found = Findings::new();
        let result = self.attempt_in_manager(&mut m, samples, pin_cap, &mut found, log);
        count_bdd(&mut log.counters, &m);
        match result {
            Ok(()) | Err(Stop::Settle) => Ok(found.conclude()),
            Err(Stop::End(attempt)) => Ok(attempt),
            Err(Stop::Fail(e)) => Err(e),
        }
    }

    /// The body of [`Search::attempt_with_domain`], running inside the
    /// supplied manager: escalates the number of rectification points `m`,
    /// validating the choices of every feasible point-set into `found`.
    fn attempt_in_manager(
        &self,
        m: &mut BddManager,
        samples: &Samples,
        pin_cap: usize,
        found: &mut Findings,
        log: &mut SearchLog,
    ) -> Result<(), Stop> {
        let prep = self.prepare(m, samples, pin_cap)?;
        for m_points in 1..=MAX_POINTS {
            found.check_budget(self.budget)?;
            // Escalating m is for finding *cheaper* multi-point rewirings;
            // once a good-enough option exists, stop growing the search.
            if found.valid.iter().any(|v| v.cost <= GOOD_ENOUGH_COST) {
                break;
            }
            for point_set in self.point_sets(m, &prep, m_points, log)? {
                found.check_budget(self.budget)?;
                log.counters.add(Counter::RectifyPointSets, 1);
                // Point-set boundary: the previous iteration's H(t) and
                // choice intermediates are garbage now. Give the manager a
                // chance to collect against the handles still needed; a
                // no-op until its automatic threshold trips.
                m.maybe_gc(&prep.roots).map_err(bdd_cut)?;
                self.try_point_set(m, &prep, m_points, &point_set, found, log)?;
            }
        }
        Ok(())
    }

    /// Builds the attempt's BDD images of both circuits over the sampling
    /// domain and the candidate machinery derived from it.
    fn prepare<'s>(
        &self,
        m: &mut BddManager,
        samples: &'s Samples,
        pin_cap: usize,
    ) -> Result<Prepared<'s>, Stop> {
        let root = self.base.outputs()[self.pair.impl_index as usize].net();
        let spec_root = self.spec.outputs()[self.pair.spec_index as usize].net();
        let domain = SamplingDomain::new(samples.domain.clone(), Z_BASE)?;
        let g_impl = domain
            .input_functions(m, self.base.num_inputs())
            .map_err(bdd_cut)?;
        let mut g_spec = vec![m.zero(); self.spec.num_inputs()];
        for (pos, sp) in self.corr.spec_input_pos.iter().enumerate() {
            if let Some(sp) = sp {
                g_spec[*sp] = g_impl[pos];
            }
        }
        let impl_vals = eval_all_bdd(self.base, m, &g_impl).map_err(bdd_cut)?;
        let spec_vals = eval_all_bdd(self.spec, m, &g_spec).map_err(bdd_cut)?;
        let fprime = spec_vals[spec_root.index()];
        // The revised output value per sample — the constants the
        // sample-wise H(t) construction compares each restricted cone
        // against.
        let fprime_bits: Vec<bool> = (0..domain.len())
            .map(|k| m.eval(fprime, &domain.code_assignment(k)))
            .collect();
        let pins = candidate_pins(self.base, root, self.pair.impl_index, pin_cap);
        let ctx =
            RewireNetContext::build(self.base, self.spec, self.corr, spec_root, &samples.domain)
                .map_err(EcoError::from)?;
        // Reference bits for the candidate screen, over the full sample
        // bank (a strict superset of this attempt's sampling domain): one
        // spec simulation per attempt, reused by every screen.
        let pf_bank =
            prefilter::PrefilterBank::build(self.spec, self.corr, self.pair, &samples.bank)?;
        // Handles the search must keep across GC boundaries: the per-input
        // domain functions and every evaluated net of both circuits
        // (`fprime` and `g_spec` entries are aliases into these).
        let mut roots: Vec<Bdd> =
            Vec::with_capacity(g_impl.len() + impl_vals.len() + spec_vals.len());
        roots.extend_from_slice(&g_impl);
        roots.extend_from_slice(&impl_vals);
        roots.extend_from_slice(&spec_vals);
        Ok(Prepared {
            samples,
            root,
            domain,
            g_impl,
            impl_vals,
            spec_vals,
            fprime,
            fprime_bits,
            pins,
            ctx,
            pf_bank,
            roots,
        })
    }

    /// Enumerates the feasible `m_points`-point rectification sets (§4.2).
    fn point_sets(
        &self,
        m: &mut BddManager,
        prep: &Prepared<'_>,
        m_points: usize,
        log: &mut SearchLog,
    ) -> Result<Vec<PointSet>, Stop> {
        let selection = Selection::new(T_BASE, m_points, prep.pins.len());
        let span_sets = log.trace.start();
        self.budget.fault_span(SpanPoint::PointSets)?;
        let sets = feasible_point_sets(
            self.base,
            m,
            &prep.samples.domain,
            &prep.fprime_bits,
            prep.root,
            self.pair.impl_index,
            &prep.pins,
            &selection,
        )
        .map_err(bdd_cut)?;
        log.trace.end_with(span_sets, "point_sets", "rectify", || {
            vec![
                ("m", ArgValue::U64(m_points as u64)),
                ("sets", ArgValue::U64(sets.len() as u64)),
            ]
        });
        Ok(sets)
    }

    /// Computes the valid rewiring choices of one point-set (§4.3, §4.4)
    /// and validates them in rank order, recording each outcome in `found`.
    fn try_point_set(
        &self,
        m: &mut BddManager,
        prep: &Prepared<'_>,
        m_points: usize,
        point_set: &[Pin],
        found: &mut Findings,
        log: &mut SearchLog,
    ) -> Result<(), Stop> {
        let mut cand_lists: Vec<Vec<RewireCandidate>> = Vec::with_capacity(point_set.len());
        for &p in point_set {
            cand_lists.push(
                candidates_for_pin(self.base, &prep.ctx, p, self.timing).map_err(EcoError::from)?,
            );
        }
        let span_choices = log.trace.start();
        self.budget.fault_span(SpanPoint::Choices)?;
        let choices = find_choices(
            self.base,
            m,
            &prep.g_impl,
            &prep.impl_vals,
            &prep.spec_vals,
            prep.fprime,
            prep.root,
            self.pair.impl_index,
            point_set,
            &cand_lists,
            Y_BASE,
            C_BASE,
            &prep.domain.z_vars(),
        )
        .map_err(bdd_cut)?;
        log.trace.end_with(span_choices, "choices", "rectify", || {
            vec![
                ("m", ArgValue::U64(m_points as u64)),
                ("choices", ArgValue::U64(choices.len() as u64)),
            ]
        });
        for choice in rank_choices(choices, &cand_lists) {
            log.counters.add(Counter::RectifyChoices, 1);
            let mut rewires: Vec<CandidateRewire> = Vec::new();
            for (i, (&pin, &j)) in point_set.iter().zip(choice.iter()).enumerate() {
                if j == 0 {
                    continue; // trivial: the point keeps its driver
                }
                rewires.push(CandidateRewire {
                    pin,
                    candidate: cand_lists[i][j].clone(),
                });
            }
            if rewires.is_empty() {
                continue; // all-trivial: no actual change
            }
            if found.validations_left == 0 {
                return Err(Stop::Settle);
            }
            found.check_budget(self.budget)?;
            // Bit-parallel simulation screen (sound: any banked mismatch
            // proves the candidate invalid) — provably dead candidates
            // never consume a validation slot; every passed candidate goes
            // straight to SAT validation.
            match prep
                .pf_bank
                .screen(self.base, self.spec, &rewires, self.pair)?
            {
                prefilter::Screen::Screened => {
                    log.counters.add(Counter::PrefilterScreened, 1);
                    continue;
                }
                prefilter::Screen::Pass => log.counters.add(Counter::PrefilterPassed, 1),
            }
            found.validations_left -= 1;
            let validation = self.validate(log, &rewires, &prep.samples.bank, false)??;
            found.record(validation, rewires, self.spec)?;
        }
        Ok(())
    }
}

/// One attempt's view of its sampling domain: the BDD images of both
/// circuits over it and the candidate machinery derived from it.
struct Prepared<'s> {
    samples: &'s Samples,
    /// The implementation output's net.
    root: NetId,
    domain: SamplingDomain,
    g_impl: Vec<Bdd>,
    impl_vals: Vec<Bdd>,
    spec_vals: Vec<Bdd>,
    /// The revised output function `f'` over the domain.
    fprime: Bdd,
    fprime_bits: Vec<bool>,
    pins: Vec<Pin>,
    ctx: RewireNetContext,
    pf_bank: prefilter::PrefilterBank,
    /// Handles kept across GC boundaries.
    roots: Vec<Bdd>,
}

/// Why an attempt's search loops stop before running out of point-sets.
enum Stop {
    /// Stop searching and settle on the best validated option so far.
    Settle,
    /// End the attempt with this outcome.
    End(Attempt),
    Fail(EcoError),
}

impl From<EcoError> for Stop {
    fn from(e: EcoError) -> Self {
        Stop::Fail(e)
    }
}

/// Maps a BDD failure inside an attempt to how the attempt stops:
/// node-limit hits shrink the domain, budget cuts bubble up as
/// degradations, anything else is a hard error.
fn bdd_cut(e: BddError) -> Stop {
    match e {
        BddError::NodeLimit { .. } => Stop::End(Attempt::NodeLimit),
        BddError::DeadlineExceeded => {
            Stop::End(Attempt::BudgetOut(DegradeReason::DeadlineExceeded))
        }
        BddError::Cancelled => Stop::End(Attempt::BudgetOut(DegradeReason::Cancelled)),
        // An armed bdd-gc fault point vetoed the pass through the event
        // hook: simulate a hard crash, exactly like an abort: span fault —
        // the run must be resumable from its checkpoints.
        #[cfg(any(test, feature = "fault-injection"))]
        BddError::Aborted => Stop::Fail(EcoError::InjectedAbort),
        other => Stop::Fail(EcoError::from(other)),
    }
}

/// Ranks one point-set's choices: fewer non-trivial rewires first, then
/// higher total utility; under level-driven selection, earlier arrival
/// breaks remaining ties (the Table-3 lever).
fn rank_choices(
    mut choices: Vec<Vec<usize>>,
    cand_lists: &[Vec<RewireCandidate>],
) -> Vec<Vec<usize>> {
    choices.sort_by(|a, b| {
        let nt = |ch: &Vec<usize>| ch.iter().filter(|&&j| j != 0).count();
        let util = |ch: &Vec<usize>| -> f64 {
            ch.iter()
                .enumerate()
                .map(|(i, &j)| cand_lists[i][j].utility)
                .sum()
        };
        let arr = |ch: &Vec<usize>| -> f64 {
            ch.iter()
                .enumerate()
                .map(|(i, &j)| cand_lists[i][j].arrival)
                .sum()
        };
        nt(a)
            .cmp(&nt(b))
            .then_with(|| {
                util(b)
                    .partial_cmp(&util(a))
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .then_with(|| {
                arr(a)
                    .partial_cmp(&arr(b))
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
    });
    choices
}

/// A validated rewiring, scored by patch cost: cloned spec gates
/// (estimated by cone size), then fewer rewires, then more outputs fixed.
struct ValidOption {
    cost: usize,
    rewires_len: usize,
    arrival: f64,
    fixed: Vec<u32>,
    rewires: Vec<CandidateRewire>,
}

/// What one attempt has found so far. All validated options across every
/// `m` are kept: a near-zero-cost one commits immediately, otherwise a
/// larger `m` may still find a cheaper multi-point rewiring (the Figure-1
/// effect), so the search continues before committing the global best.
struct Findings {
    valid: Vec<ValidOption>,
    validations_left: usize,
    /// Validations SAT gave up on.
    unknowns: usize,
    first_counterexample: Option<Vec<bool>>,
    /// The budget reason when the search settled early.
    cut: Option<DegradeReason>,
}

impl Findings {
    fn new() -> Self {
        Findings {
            valid: Vec::new(),
            validations_left: MAX_VALIDATIONS_PER_OUTPUT,
            unknowns: 0,
            first_counterexample: None,
            cut: None,
        }
    }

    /// Checks the run budget at a search boundary: once it is spent, an
    /// attempt with nothing validated ends, and one with options in hand
    /// settles on them.
    fn check_budget(&mut self, budget: &Budget) -> Result<(), Stop> {
        let Some(reason) = budget.degrade_reason() else {
            return Ok(());
        };
        if self.valid.is_empty() {
            return Err(Stop::End(Attempt::BudgetOut(reason)));
        }
        self.cut = Some(reason);
        Err(Stop::Settle)
    }

    /// Records one validation outcome.
    fn record(
        &mut self,
        validation: Validation,
        rewires: Vec<CandidateRewire>,
        spec: &Circuit,
    ) -> Result<(), Stop> {
        match validation {
            Validation::Valid { fixed } => {
                let cost = rewires
                    .iter()
                    .filter(|r| r.candidate.from_spec)
                    .map(|r| topo::cone_size(spec, r.candidate.net).max(1))
                    .sum();
                let arrival = rewires
                    .iter()
                    .map(|r| r.candidate.arrival)
                    .fold(0.0, f64::max);
                self.valid.push(ValidOption {
                    cost,
                    rewires_len: rewires.len(),
                    arrival,
                    fixed,
                    rewires,
                });
                if cost <= EARLY_COMMIT_COST {
                    return Err(Stop::Settle); // (near-)pure reuse: unbeatable
                }
            }
            Validation::CounterExample(x) => {
                self.first_counterexample.get_or_insert(x);
                // The domain endorsed a wrong choice; its siblings were
                // endorsed by the same deficient domain, so refine
                // immediately unless a valid option is already in hand.
                if self.valid.is_empty() {
                    return Err(Stop::Settle);
                }
            }
            Validation::Damaged | Validation::Infeasible => {}
            // SAT ran out of resources before reaching a verdict.
            Validation::Unknown => self.unknowns += 1,
        }
        Ok(())
    }

    /// The attempt's outcome: the best validated option — smallest clone
    /// cost, then fewest rewires, then most outputs fixed (§5.2's
    /// favoring) — or what to do without one.
    fn conclude(mut self) -> Attempt {
        self.valid.sort_by(|a, b| {
            a.cost
                .cmp(&b.cost)
                .then_with(|| a.rewires_len.cmp(&b.rewires_len))
                .then_with(|| b.fixed.len().cmp(&a.fixed.len()))
                // Level-driven selection (§6): among otherwise equal
                // options, prefer the one fed by earlier-arriving nets.
                .then_with(|| {
                    a.arrival
                        .partial_cmp(&b.arrival)
                        .unwrap_or(std::cmp::Ordering::Equal)
                })
        });
        if let Some(best) = self.valid.into_iter().next() {
            return Attempt::Found {
                rewires: best.rewires,
                cut: self.cut,
            };
        }
        match self.first_counterexample {
            Some(x) => Attempt::Refine(x),
            None if self.unknowns > 0 => Attempt::SatExhausted,
            None => Attempt::Exhausted,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error_domain::check_output_pair;
    use eco_netlist::GateKind;
    use std::sync::{Arc, Mutex};

    /// The rectification flow alone: no observer, telemetry, cache or
    /// checkpoint.
    fn rewire_rectify(
        implementation: &mut Circuit,
        spec: &Circuit,
        options: &EcoOptions,
        budget: &Budget,
    ) -> Result<(Patch, RectifyStats), EcoError> {
        let run = Run {
            spec,
            corr: Correspondence::build(implementation, spec)?,
            options,
            budget,
            telemetry: &Telemetry::disabled(),
            observer: None,
            cache: None,
            checkpoint: None,
        };
        run.rectify(implementation).map(|r| (r.patch, r.stats))
    }

    /// impl: y = a & b (wrong), d = a & b reused elsewhere must survive;
    /// spec: y = a | b, d unchanged.
    fn and_or_case() -> (Circuit, Circuit) {
        let mut c = Circuit::new("impl");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let g = c.add_gate(GateKind::And, &[a, b]).unwrap();
        let d = c.add_gate(GateKind::Not, &[g]).unwrap();
        c.add_output("y", g);
        c.add_output("d", d);
        let mut s = Circuit::new("spec");
        let sa = s.add_input("a");
        let sb = s.add_input("b");
        let sg = s.add_gate(GateKind::Or, &[sa, sb]).unwrap();
        let sand = s.add_gate(GateKind::And, &[sa, sb]).unwrap();
        let sd = s.add_gate(GateKind::Not, &[sand]).unwrap();
        s.add_output("y", sg);
        s.add_output("d", sd);
        (c, s)
    }

    fn check_equiv(c: &Circuit, s: &Circuit) {
        let corr = Correspondence::build(c, s).unwrap();
        for pair in &corr.outputs {
            assert_eq!(
                check_output_pair(c, s, pair, None, None).unwrap(),
                Equivalence::Equivalent,
                "output {} must be rectified",
                pair.name
            );
        }
    }

    #[test]
    fn rectifies_and_to_or_preserving_sibling() {
        let (mut c, s) = and_or_case();
        let options = EcoOptions::with_seed(3);
        let (patch, stats) = rewire_rectify(&mut c, &s, &options, &Budget::unlimited()).unwrap();
        check_equiv(&c, &s);
        assert_eq!(stats.outputs_failing, 1, "only y fails");
        assert!(!patch.rewires().is_empty());
        // The protected output d (= nand) must still be driven by the
        // original AND cone: rewiring the output pin of y, not the AND's
        // internals, is the only non-damaging single rewire here.
        c.check_well_formed().unwrap();
    }

    #[test]
    fn equivalent_designs_need_no_patch() {
        let (c0, _) = and_or_case();
        let mut c = c0.clone();
        let s = c0;
        let options = EcoOptions::with_seed(1);
        let (patch, stats) = rewire_rectify(&mut c, &s, &options, &Budget::unlimited()).unwrap();
        assert_eq!(stats.outputs_failing, 0);
        assert!(patch.rewires().is_empty());
        assert_eq!(patch.stats(&c), crate::PatchStats::default());
    }

    /// The Figure-1 scenario reduced: an existing net (NOT s1) in the
    /// implementation realizes the revised behaviour — the engine should
    /// rewire to it instead of cloning spec logic.
    #[test]
    fn reuses_existing_logic_when_available() {
        let mut c = Circuit::new("impl");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let s0 = c.add_input("s0");
        let s1 = c.add_input("s1");
        let ns1 = c.add_gate(GateKind::Not, &[s1]).unwrap();
        let t1 = c.add_gate(GateKind::And, &[a, s0]).unwrap();
        let t2 = c.add_gate(GateKind::And, &[b, s1]).unwrap();
        let y = c.add_gate(GateKind::Or, &[t1, t2]).unwrap();
        c.add_output("y", y);
        c.add_output("aux", ns1);

        let mut s = Circuit::new("spec");
        let sa = s.add_input("a");
        let sb = s.add_input("b");
        let _ss0 = s.add_input("s0");
        let ss1 = s.add_input("s1");
        let sns1 = s.add_gate(GateKind::Not, &[ss1]).unwrap();
        let st1 = s.add_gate(GateKind::And, &[sa, sns1]).unwrap();
        let st2 = s.add_gate(GateKind::And, &[sb, ss1]).unwrap();
        let sy = s.add_gate(GateKind::Or, &[st1, st2]).unwrap();
        s.add_output("y", sy);
        s.add_output("aux", sns1);

        let options = EcoOptions::with_seed(11);
        let (patch, stats) = rewire_rectify(&mut c, &s, &options, &Budget::unlimited()).unwrap();
        check_equiv(&c, &s);
        let pstats = patch.stats(&c);
        assert_eq!(
            pstats.gates, 0,
            "existing NOT gate should be reused, not cloned: {pstats:?} ({stats:?})"
        );
    }

    #[test]
    fn multi_output_design_fully_rectified() {
        // Three outputs, two of them revised.
        let mut c = Circuit::new("impl");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let d = c.add_input("d");
        let g1 = c.add_gate(GateKind::And, &[a, b]).unwrap();
        let g2 = c.add_gate(GateKind::Xor, &[g1, d]).unwrap();
        let g3 = c.add_gate(GateKind::Or, &[a, d]).unwrap();
        c.add_output("u", g1);
        c.add_output("v", g2);
        c.add_output("w", g3);

        let mut s = Circuit::new("spec");
        let sa = s.add_input("a");
        let sb = s.add_input("b");
        let sd = s.add_input("d");
        let h1 = s.add_gate(GateKind::Nand, &[sa, sb]).unwrap(); // changed
        let h2 = s.add_gate(GateKind::Xor, &[h1, sd]).unwrap(); // changed: ¬(a∧b)⊕d
        let h3 = s.add_gate(GateKind::Or, &[sa, sd]).unwrap(); // same
        s.add_output("u", h1);
        s.add_output("v", h2);
        s.add_output("w", h3);

        let options = EcoOptions::with_seed(5);
        let (_patch, stats) = rewire_rectify(&mut c, &s, &options, &Budget::unlimited()).unwrap();
        check_equiv(&c, &s);
        assert_eq!(stats.outputs_failing, 2);
        c.check_well_formed().unwrap();
    }

    #[test]
    fn per_output_stats_and_progress_events_are_reported() {
        let (mut c, s) = and_or_case();
        let options = EcoOptions::builder().seed(3).jobs(1).build();
        let events: Arc<Mutex<Vec<String>>> = Arc::default();
        let sink = Arc::clone(&events);
        let observer: ProgressCallback = Arc::new(move |e: &ProgressEvent| {
            let tag = match e {
                ProgressEvent::RunStarted { .. } => "start",
                ProgressEvent::OutputStarted { .. } => "out-start",
                ProgressEvent::OutputSearched { .. } => "out-search",
                ProgressEvent::OutputRectified { .. } => "out-done",
                ProgressEvent::RunFinished { .. } => "finish",
            };
            sink.lock().unwrap().push(tag.to_string());
        });
        let budget = Budget::unlimited();
        let telemetry = Telemetry::enabled();
        let run = Run {
            spec: &s,
            corr: Correspondence::build(&c, &s).unwrap(),
            options: &options,
            budget: &budget,
            telemetry: &telemetry,
            observer: Some(&observer),
            cache: None,
            checkpoint: None,
        };
        let Rectified { stats, trace, .. } = run.rectify(&mut c).unwrap();
        // The run span closes the coordinator lane; the per-output search
        // span sits on lane 1. The search's counters reached the run's.
        assert!(trace.iter().any(|sp| sp.name == "run" && sp.lane == 0));
        assert!(trace.iter().any(|sp| sp.name == "search" && sp.lane == 1));
        let counters = &stats.counters;
        assert!(counters[Counter::RectifyValidations] > 0);
        assert!(counters[Counter::SatPropagations] > 0, "{stats:?}");
        assert!(counters[Counter::BddApplyMisses] > 0, "{stats:?}");
        assert!(counters[Gauge::BddPeakNodes] >= 2);
        assert_eq!(stats.per_output.len(), 1);
        assert_eq!(stats.per_output[0].output, "y");
        assert_ne!(stats.per_output[0].action, OutputAction::AlreadyEquivalent);
        assert_eq!(stats.normalized().per_output[0].search, Duration::ZERO);
        let events = events.lock().unwrap();
        assert_eq!(events.first().map(String::as_str), Some("start"));
        assert_eq!(events.last().map(String::as_str), Some("finish"));
        assert_eq!(
            events.iter().filter(|t| t.as_str() == "out-done").count(),
            1
        );
    }

    // --- resource-governance and fault-injection paths ---

    use crate::fault::FaultPolicy;

    fn rectify_with_faults(faults: FaultPolicy) -> (Circuit, Circuit, RectifyStats) {
        let (mut c, s) = and_or_case();
        let budget = Budget::unlimited().with_faults(faults);
        let options = EcoOptions::with_seed(3);
        let (_patch, stats) = rewire_rectify(&mut c, &s, &options, &budget).unwrap();
        (c, s, stats)
    }

    #[test]
    fn injected_bdd_node_limit_falls_back_to_output_rewire() {
        let (c, s, stats) = rectify_with_faults(FaultPolicy {
            bdd_node_limit_from: Some(1),
            ..FaultPolicy::default()
        });
        // Every BDD attempt hits the forced node limit, the pin cap shrinks
        // to its floor, and the output takes the guaranteed fallback.
        assert_eq!(stats.degradations.len(), 1);
        let d = &stats.degradations[0];
        assert_eq!(d.output, "y");
        assert_eq!(d.reason, DegradeReason::BddNodeLimit);
        assert!(matches!(d.action, DegradeAction::OutputRewireFallback));
        assert!(stats.counters[Counter::RectifyFallbacks] >= 1);
        check_equiv(&c, &s);
        c.check_well_formed().unwrap();
    }

    #[test]
    fn injected_sat_exhaustion_falls_back_to_output_rewire() {
        let (c, s, stats) = rectify_with_faults(FaultPolicy {
            sat_exhaust_from: Some(1),
            ..FaultPolicy::default()
        });
        // Every candidate validation comes back Unknown, so the search ends
        // with nothing provable and degrades to the fallback.
        assert_eq!(stats.degradations.len(), 1);
        let d = &stats.degradations[0];
        assert_eq!(d.output, "y");
        assert_eq!(d.reason, DegradeReason::SatBudgetExhausted);
        assert!(matches!(d.action, DegradeAction::OutputRewireFallback));
        check_equiv(&c, &s);
        c.check_well_formed().unwrap();
    }

    #[test]
    fn injected_panic_is_isolated_and_falls_back() {
        let (c, s, stats) = rectify_with_faults(FaultPolicy {
            panic_at: Some(1),
            ..FaultPolicy::default()
        });
        assert_eq!(stats.degradations.len(), 1);
        let d = &stats.degradations[0];
        assert_eq!(d.output, "y");
        let DegradeReason::SearchPanicked(msg) = &d.reason else {
            panic!("expected SearchPanicked, got {:?}", d.reason);
        };
        assert!(msg.contains("synthetic fault"), "got {msg:?}");
        assert!(matches!(d.action, DegradeAction::OutputRewireFallback));
        // The search is pure, so a panic inside it cannot corrupt the
        // circuit; the merge phase applies the fallback.
        check_equiv(&c, &s);
        c.check_well_formed().unwrap();
    }

    #[test]
    fn expired_deadline_degrades_every_failing_output() {
        let (mut c, s) = and_or_case();
        let budget = Budget::with_deadline(std::time::Duration::ZERO);
        let options = EcoOptions::with_seed(3);
        let (_patch, stats) = rewire_rectify(&mut c, &s, &options, &budget).unwrap();
        assert_eq!(stats.degradations.len(), stats.outputs_failing);
        for d in &stats.degradations {
            assert_eq!(d.reason, DegradeReason::DeadlineExceeded);
            assert!(matches!(d.action, DegradeAction::OutputRewireFallback));
        }
        check_equiv(&c, &s);
        c.check_well_formed().unwrap();
    }

    #[test]
    fn cancelled_token_degrades_instead_of_aborting() {
        let (mut c, s) = and_or_case();
        let token = crate::CancelToken::new();
        token.cancel();
        let budget = Budget::unlimited().with_cancel(&token);
        let options = EcoOptions::with_seed(3);
        let (_patch, stats) = rewire_rectify(&mut c, &s, &options, &budget).unwrap();
        assert!(!stats.degradations.is_empty());
        for d in &stats.degradations {
            assert_eq!(d.reason, DegradeReason::Cancelled);
        }
        check_equiv(&c, &s);
    }

    #[test]
    fn clean_run_reports_no_degradations() {
        let (mut c, s) = and_or_case();
        let options = EcoOptions::with_seed(3);
        let (_patch, stats) = rewire_rectify(&mut c, &s, &options, &Budget::unlimited()).unwrap();
        assert!(stats.degradations.is_empty());
    }

    #[test]
    fn jobs_do_not_change_the_patch() {
        // The multi-output case exercises search + merge; the patch and the
        // normalized stats must be identical for every worker count.
        let build = |jobs: usize| {
            let mut c = Circuit::new("impl");
            let a = c.add_input("a");
            let b = c.add_input("b");
            let d = c.add_input("d");
            let g1 = c.add_gate(GateKind::And, &[a, b]).unwrap();
            let g2 = c.add_gate(GateKind::Xor, &[g1, d]).unwrap();
            c.add_output("u", g1);
            c.add_output("v", g2);
            let mut s = Circuit::new("spec");
            let sa = s.add_input("a");
            let sb = s.add_input("b");
            let sd = s.add_input("d");
            let h1 = s.add_gate(GateKind::Nand, &[sa, sb]).unwrap();
            let h2 = s.add_gate(GateKind::Xor, &[h1, sd]).unwrap();
            s.add_output("u", h1);
            s.add_output("v", h2);
            let options = EcoOptions::builder().seed(7).jobs(jobs).build();
            let (patch, stats) =
                rewire_rectify(&mut c, &s, &options, &Budget::unlimited()).unwrap();
            (format!("{:?}", patch.rewires()), stats.normalized())
        };
        let (p1, s1) = build(1);
        let (p4, s4) = build(4);
        assert_eq!(p1, p4);
        assert_eq!(s1, s4);
    }
}
