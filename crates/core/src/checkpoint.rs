//! Crash-safe per-output checkpointing (resume after SIGKILL).
//!
//! A long rectification run owes the operator restartability: if the
//! process is killed — OOM, preemption, a pulled plug — rerunning with the
//! same inputs and `--checkpoint-dir` must *resume*, not restart. This
//! module persists each per-output search verdict the moment the search
//! finishes, reusing the `eco-cache` append-only CRC-checked segment
//! machinery (atomic tempfile-rename commits, corruption-as-miss), so the
//! checkpoint directory is valid after a kill at **any** instant: a record
//! is either durably whole or invisible.
//!
//! # Safety argument
//!
//! * Records are keyed by the structural run signature
//!   (implementation × specification × semantic options, DESIGN.md §11)
//!   plus the output label — a checkpoint from different inputs can never
//!   be resumed by accident; it just misses.
//! * Only **clean** verdicts are persisted: an equivalent output, a fully
//!   validated proposal, or a degradation-free fallback. A search cut
//!   short by a deadline, fault, or panic is *not* checkpointed — the
//!   resumed run searches it again properly.
//! * Resume substitutes stored verdicts for their searches but changes
//!   nothing downstream: the merge phase re-checks and the engine's
//!   always-re-verify policy re-classifies, so a resumed run's final patch
//!   is byte-identical to an uninterrupted run's (enforced by the
//!   crash-resume proptests and the chaos harness).
//!
//! Checkpoint I/O is best-effort with bounded retry: a failed write costs
//! the resumability of that one output, never the run.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use eco_cache::{circuit_sig, hash_str, Sig128, Store, Vfs};
use eco_netlist::Circuit;

use crate::budget::Budget;
use crate::memo::{self, options_fingerprint, Reader};
use crate::options::EcoOptions;
use crate::rectify::SearchVerdict;

/// Record kind under which checkpoint slots are stored (disjoint from the
/// cache's `KIND_RUN`/`KIND_OUTPUT` namespaces even if the two stores ever
/// share a directory).
const KIND_CHECKPOINT: u8 = 3;
/// Leading payload byte; bump on any encoding change so old checkpoints
/// decode as misses instead of garbage.
const CHECKPOINT_VERSION: u8 = 1;
/// Folded into the run key; bump when resume *semantics* change.
const CHECKPOINT_KEY_VERSION: u64 = 1;

/// One resumed slot: the clean verdict plus the refinement
/// counterexamples the original search accumulated (carried forward so the
/// cache write-back of a resumed run matches the uninterrupted run's).
#[derive(Debug, Clone)]
pub(crate) struct CheckpointRecord {
    pub verdict: SearchVerdict,
    pub refined: Vec<Vec<bool>>,
}

/// A checkpoint store scoped to one `rectify` call.
///
/// Shared by reference across search workers: `record` is called from the
/// worker that finishes a search, so the store sits behind a
/// poison-recovering [`Mutex`] (a panicking worker must never wedge
/// checkpointing for the others).
pub(crate) struct CheckpointSession {
    store: Mutex<Store>,
    run_key: Sig128,
    writes: AtomicU64,
}

impl CheckpointSession {
    /// Opens the checkpoint directory named by
    /// `options.checkpoint_dir`, or `None` when checkpointing is off or
    /// the directory cannot be opened (degrades to a checkpoint-free run).
    ///
    /// The `budget` supplies the I/O seam: its fault plan's checkpoint VFS
    /// and retry schedule under test, real I/O otherwise.
    pub fn open(
        options: &EcoOptions,
        implementation: &Circuit,
        spec: &Circuit,
        budget: &Budget,
    ) -> Option<Self> {
        let dir = options.checkpoint_dir.as_deref()?;
        let vfs: Arc<dyn Vfs> = budget
            .checkpoint_vfs()
            .unwrap_or_else(|| Arc::new(eco_cache::RealVfs));
        let store = Store::open_with(dir, false, vfs, budget.io_retry()).ok()?;
        let impl_sig = circuit_sig(implementation).ok()?;
        let spec_sig = circuit_sig(spec).ok()?;
        let run_key = Sig128::fold(&[
            impl_sig,
            spec_sig,
            options_fingerprint(options),
            eco_cache::fingerprint_words(&[CHECKPOINT_KEY_VERSION]),
        ]);
        Some(CheckpointSession {
            store: Mutex::new(store),
            run_key,
            writes: AtomicU64::new(0),
        })
    }

    /// The slot key of one output, stable across reruns of the same
    /// inputs.
    pub fn slot_key(&self, output: &str) -> Sig128 {
        self.run_key.mix(hash_str(output))
    }

    /// Loads the clean verdict checkpointed under `key`, if any.
    pub fn load(&self, key: Sig128) -> Option<CheckpointRecord> {
        let store = self.store.lock().unwrap_or_else(PoisonError::into_inner);
        store.get(key, KIND_CHECKPOINT).and_then(decode_record)
    }

    /// Persists one verdict, if it is clean, and commits it durably,
    /// immediately: after this returns `true`, a kill at any later instant
    /// leaves the record resumable. A degraded or aborted verdict is not
    /// persisted (`false`): resume searches that output again rather than
    /// resuming it into a worse-than-necessary patch. Failures (after
    /// bounded retries) are swallowed — a lost checkpoint costs resume
    /// coverage, not correctness.
    pub fn record(&self, key: Sig128, verdict: &SearchVerdict, refined: &[Vec<bool>]) -> bool {
        let Some(payload) = encode_record(verdict, refined) else {
            return false;
        };
        let mut store = self.store.lock().unwrap_or_else(PoisonError::into_inner);
        if store.get(key, KIND_CHECKPOINT) == Some(payload.as_slice()) {
            return true;
        }
        store.put(key, KIND_CHECKPOINT, payload);
        let committed = store.commit().is_ok();
        if committed {
            self.writes.fetch_add(1, Ordering::Relaxed);
        }
        committed
    }

    /// Records durably committed by this session.
    pub fn writes(&self) -> u64 {
        self.writes.load(Ordering::Relaxed)
    }

    /// Damaged segments skipped when the store was opened.
    pub fn corrupt_segments(&self) -> u64 {
        let store = self.store.lock().unwrap_or_else(PoisonError::into_inner);
        store.corrupt_segments()
    }

    /// Operations that failed after all retries, plus retries performed.
    pub fn io_counters(&self) -> (u64, u64) {
        let store = self.store.lock().unwrap_or_else(PoisonError::into_inner);
        (store.io_errors(), store.retries())
    }
}

/// Encodes a clean verdict (raw net indices — the resumed run rectifies
/// byte-identical circuits); `None` for a verdict that is not clean.
fn encode_record(verdict: &SearchVerdict, refined: &[Vec<bool>]) -> Option<Vec<u8>> {
    let mut buf = vec![CHECKPOINT_VERSION];
    match verdict {
        SearchVerdict::Equivalent => buf.push(0),
        SearchVerdict::Proposal { rewires, cut: None } => {
            buf.push(1);
            memo::put_group(&mut buf, rewires, None)?;
        }
        SearchVerdict::Fallback { reason: None } => buf.push(2),
        _ => return None,
    }
    memo::put_minterms(&mut buf, refined);
    Some(buf)
}

fn decode_record(payload: &[u8]) -> Option<CheckpointRecord> {
    let mut r = Reader::new(payload);
    if r.u8()? != CHECKPOINT_VERSION {
        return None;
    }
    let verdict = match r.u8()? {
        0 => SearchVerdict::Equivalent,
        1 => SearchVerdict::Proposal {
            rewires: r.group(None)?,
            cut: None,
        },
        2 => SearchVerdict::Fallback { reason: None },
        _ => return None,
    };
    let refined = r.minterms()?;
    r.done().then_some(CheckpointRecord { verdict, refined })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::DegradeReason;
    use crate::rewire_nets::RewireCandidate;
    use crate::validate::CandidateRewire;
    use eco_netlist::{GateKind, NetId, Pin};

    fn tiny() -> Circuit {
        let mut c = Circuit::new("tiny");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let g = c.add_gate(GateKind::And, &[a, b]).unwrap();
        c.add_output("y", g);
        c
    }

    fn ck_options(tag: &str) -> EcoOptions {
        EcoOptions {
            checkpoint_dir: Some(
                std::env::temp_dir().join(format!("eco-ckpt-test-{tag}-{}", std::process::id())),
            ),
            ..EcoOptions::default()
        }
    }

    fn rewires() -> Vec<CandidateRewire> {
        vec![CandidateRewire {
            pin: Pin::output(0),
            candidate: RewireCandidate {
                net: NetId::from_index(1),
                from_spec: true,
                utility: 1.0,
                arrival: 0.0,
            },
        }]
    }

    fn proposal() -> SearchVerdict {
        SearchVerdict::Proposal {
            rewires: rewires(),
            cut: None,
        }
    }

    #[test]
    fn record_roundtrips_and_rejects_damage() {
        let refined = vec![vec![true, false], vec![false, true]];
        for verdict in [
            SearchVerdict::Equivalent,
            proposal(),
            SearchVerdict::Fallback { reason: None },
        ] {
            let payload = encode_record(&verdict, &refined).unwrap();
            let decoded = decode_record(&payload).unwrap();
            assert_eq!(decoded.verdict, verdict);
            assert_eq!(decoded.refined, refined);
            for cut in 0..payload.len() {
                assert!(decode_record(&payload[..cut]).is_none(), "cut at {cut}");
            }
            let mut wrong = payload.clone();
            wrong[0] = CHECKPOINT_VERSION + 1;
            assert!(decode_record(&wrong).is_none());
        }
        // Degraded verdicts are not persisted.
        let cut = DegradeReason::DeadlineExceeded;
        for verdict in [
            SearchVerdict::Proposal {
                rewires: rewires(),
                cut: Some(cut.clone()),
            },
            SearchVerdict::Fallback { reason: Some(cut) },
        ] {
            assert!(encode_record(&verdict, &refined).is_none());
        }
    }

    #[test]
    fn session_persists_across_reopen_and_keys_by_inputs() {
        let options = ck_options("reopen");
        let dir = options.checkpoint_dir.clone().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        let c = tiny();
        let budget = Budget::unlimited();
        {
            let s = CheckpointSession::open(&options, &c, &c, &budget).unwrap();
            let key = s.slot_key("y");
            assert!(s.load(key).is_none());
            assert!(s.record(key, &proposal(), &[vec![true, true]]));
        }
        let s = CheckpointSession::open(&options, &c, &c, &budget).unwrap();
        let rec = s.load(s.slot_key("y")).unwrap();
        assert_eq!(rec.verdict, proposal());
        assert_eq!(rec.refined, vec![vec![true, true]]);
        assert!(s.load(s.slot_key("z")).is_none(), "keys are per output");

        // A different implementation misses: the run key covers the inputs.
        let mut other = tiny();
        other.add_output("y2", NetId::from_index(0));
        let s2 = CheckpointSession::open(&options, &other, &c, &budget).unwrap();
        assert!(s2.load(s2.slot_key("y")).is_none());
        assert_eq!(s.corrupt_segments(), 0);
        assert_eq!(s.io_counters(), (0, 0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn session_none_without_checkpoint_dir() {
        let c = tiny();
        assert!(
            CheckpointSession::open(&EcoOptions::default(), &c, &c, &Budget::unlimited()).is_none()
        );
    }
}
