//! The background delta compactor: its sizing, the task it sweeps,
//! and the thread that runs it.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, SyncSender, TryRecvError};
use std::sync::Arc;
use std::time::Duration;

use super::{SchedCore, Scheduler};

/// Sizing of the background delta compactor a [`Scheduler`] may run
/// (see [`Scheduler::start_compactor`]). Compaction folds a relation's
/// delta log into a new sorted base version off the query path, at
/// most four relations per sweep; the knobs bound how eagerly.
#[derive(Debug, Clone)]
pub struct CompactionConfig {
    /// Delta ops that make a relation *eligible* for a background
    /// sweep. Writers below the threshold only pay the (tiny) merge at
    /// read time; the periodic sweep ignores them.
    pub threshold: usize,
    /// How long the compactor sleeps between sweeps when nobody nudges
    /// it (writers nudge as soon as a delta crosses the threshold).
    pub interval: Duration,
}

impl Default for CompactionConfig {
    fn default() -> Self {
        CompactionConfig { threshold: 4096, interval: Duration::from_millis(50) }
    }
}

impl CompactionConfig {
    /// A config whose background sweep never triggers on its own:
    /// compaction happens only through explicit calls (e.g.
    /// `Session::compact`). Deterministic tests and delta-fraction
    /// benchmarks use this to hold the delta where they put it.
    pub fn manual() -> Self {
        CompactionConfig::default().threshold(usize::MAX).interval(Duration::from_secs(3600))
    }

    /// Builder-style override of the eligibility threshold.
    pub fn threshold(mut self, ops: usize) -> Self {
        self.threshold = ops;
        self
    }

    /// Builder-style override of the sweep interval.
    pub fn interval(mut self, interval: Duration) -> Self {
        self.interval = interval;
        self
    }
}

/// What the background compactor runs each sweep. Implemented by the
/// session's shared catalog; kept as a trait so the scheduler owns the
/// *thread* without owning (or even knowing about) the catalog — no
/// reference cycle between `Session` and `Scheduler`.
pub trait CompactionTask: Send + Sync {
    /// Fold eligible deltas per `config`; returns how many relations
    /// were compacted (folded into the scheduler's `compactions`
    /// metric).
    fn compact_pending(&self, config: &CompactionConfig) -> usize;
}

/// The running compactor: its thread and the wake channel's sender.
/// The channel holds one message, so a full channel is a pending
/// nudge and any number of nudges before the next wake coalesce into
/// one sweep; dropping the sender is the shutdown signal.
pub(super) struct CompactorHandle {
    pub(super) wake: SyncSender<()>,
    pub(super) thread: std::thread::JoinHandle<()>,
}

impl Scheduler {
    /// Start the background delta compactor. `task` (the session's
    /// catalog) is swept every [`CompactionConfig::interval`] — or
    /// immediately after [`Scheduler::nudge_compactor`] — and each
    /// relation it folds bumps the `compactions` metric. At most one
    /// compactor per scheduler; it drains on drop before the
    /// coordinators do.
    pub fn start_compactor(&mut self, task: Arc<dyn CompactionTask>, config: CompactionConfig) {
        assert!(self.compactor.is_none(), "compactor already started");
        let (wake, woken) = mpsc::sync_channel(1);
        let thread = {
            let core = Arc::clone(&self.core);
            std::thread::spawn(move || compactor_loop(&woken, &core, &*task, &config))
        };
        self.compactor = Some(CompactorHandle { wake, thread });
    }

    /// Wake the compactor before its next interval tick (writers call
    /// this through the session once a delta crosses the threshold).
    /// A no-op when no compactor is attached.
    pub fn nudge_compactor(&self) {
        if let Some(compactor) = &self.compactor {
            let _ = compactor.wake.try_send(());
        }
    }

    /// Fold `n` explicit compactions into the `compactions` metric
    /// (the session's manual [`crate::session::Session::compact`] path
    /// reports through this).
    pub(crate) fn note_compactions(&self, n: u64) {
        self.core.metrics.compactions.fetch_add(n, Ordering::Relaxed);
    }
}

fn compactor_loop(
    woken: &Receiver<()>,
    core: &SchedCore,
    task: &dyn CompactionTask,
    config: &CompactionConfig,
) {
    loop {
        // Woken by a nudge or the interval tick. A disconnected channel
        // means shutdown, also when a nudge was still pending: check it
        // after every wake so a shutdown never starts a sweep.
        if woken.recv_timeout(config.interval) == Err(RecvTimeoutError::Disconnected)
            || woken.try_recv() == Err(TryRecvError::Disconnected)
        {
            return;
        }
        // A panicking sweep (e.g. a pool phase re-panicking inside a
        // fold) fails only itself and is counted: the next nudge or
        // tick sweeps again.
        match catch_unwind(AssertUnwindSafe(|| task.compact_pending(config))) {
            Ok(folded) => {
                core.metrics.compactions.fetch_add(folded as u64, Ordering::Relaxed);
            }
            Err(_) => {
                core.metrics.compactions_failed.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}
