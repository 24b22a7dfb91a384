//! The durability layer: a write-ahead log plus periodic checkpoints
//! around any snapshot-capable [`JoinSampler`].
//!
//! [`Persistent`] wraps an engine and gives its turnstile stream crash
//! recovery with **byte-identical** semantics: every op is appended to a
//! segmented, checksummed WAL (`rsj_storage::wal::Wal`) *before* it is
//! applied to the engine, and on a checkpoint the engine's complete
//! dynamic state (`JoinSampler::snapshot_state`) is written atomically
//! next to the log, which is then truncated. Recovery restores the last
//! checkpoint and replays the log suffix — the recovered engine is
//! byte-for-byte the engine that would have resulted from an
//! uninterrupted run of the same flushed prefix, including its future
//! random choices.
//!
//! ```text
//!   op ──▶ wal.append ──▶ engine.process_op
//!                │
//!                └─ every N ops: checkpoint = snapshot_state @ lsn
//!                               wal.truncate_at_checkpoint()
//! ```
//!
//! The recovery invariant the crash tests pin (tests/recovery.rs): after a
//! kill at any op boundary, `Persistent::open` with the same engine
//! builder restores exactly the flushed prefix — finishing the stream then
//! yields the same sample digest as a run that never crashed. See
//! ARCHITECTURE.md, "Durability".

use rsj_core::{validate_op, JoinSampler, RebuildFn, SamplerService, SamplerStats, ServiceError};
use rsj_storage::wal::{Checkpoint, Sleeper, Wal, WalError, WalFs, WalOptions};
use rsj_storage::StreamOp;
use std::path::{Path, PathBuf};

/// File name of the checkpoint inside the durability directory.
pub const CHECKPOINT_FILE: &str = "checkpoint.rsjc";

/// Engine tag [`PersistentService`] writes into its checkpoints, so a
/// service checkpoint can never be restored into a single-engine wrapper
/// (or vice versa) silently.
pub const SERVICE_ENGINE: &str = "SamplerService";

/// When the wrapper takes a checkpoint on its own.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CheckpointPolicy {
    /// Checkpoint after every `n` logged ops (and truncate the log).
    EveryOps(u64),
    /// Only when [`Persistent::checkpoint`] is called explicitly.
    Manual,
}

/// Whether the durability guarantee currently holds.
///
/// The wrapper degrades instead of failing when the log runs out of space:
/// reads keep working, ops keep flowing to the engine, and the lost logging
/// is reported here until a successful checkpoint re-establishes a durable
/// baseline (the checkpoint captures the engine state *including* the
/// unlogged ops, so recovery coverage is restored in full).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DurabilityHealth {
    /// Every applied op is covered by the log or a checkpoint.
    Durable,
    /// Logging is lost: ops since `since_lsn` are applied to the engine but
    /// not recoverable until the next successful checkpoint.
    Degraded {
        /// Ops applied without log coverage so far.
        lost_ops: u64,
        /// First LSN whose durability is no longer guaranteed.
        since_lsn: u64,
    },
}

/// Why a durable operation failed.
#[derive(Debug)]
pub enum PersistError {
    /// The wrapped engine has no snapshot capability
    /// (`JoinSampler::supports_snapshot` is `false`).
    Unsupported(&'static str),
    /// WAL or checkpoint I/O / integrity failure.
    Wal(WalError),
    /// The engine rejected restored state or a replayed op.
    Engine(String),
    /// The op was refused before it reached the log (see
    /// [`rsj_core::validate_op`]); nothing was logged or applied.
    Rejected(ServiceError),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Unsupported(engine) => {
                write!(f, "engine {engine} does not support state snapshots")
            }
            PersistError::Wal(e) => write!(f, "wal failure: {e}"),
            PersistError::Engine(m) => write!(f, "engine failure: {m}"),
            PersistError::Rejected(e) => write!(f, "{e} (nothing logged)"),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<WalError> for PersistError {
    fn from(e: WalError) -> PersistError {
        PersistError::Wal(e)
    }
}

/// A [`JoinSampler`] with crash recovery: WAL-logged ops, periodic atomic
/// checkpoints, byte-identical restore (see the [module docs](self)).
///
/// The wrapper owns a durability directory holding the log segments and
/// the checkpoint file. Ops flow through [`process_op`](Persistent::process_op);
/// reads pass through to the engine.
pub struct Persistent<S: JoinSampler> {
    inner: S,
    wal: Wal,
    checkpoint_path: PathBuf,
    policy: CheckpointPolicy,
    ops_since_checkpoint: u64,
    /// First LSN with lost logging, set when the log hit out-of-space.
    lost_since: Option<u64>,
    /// Ops applied without log coverage while degraded.
    lost_ops: u64,
    /// Checkpoint attempts that failed (the previous checkpoint stayed
    /// valid each time — the write is atomic).
    checkpoint_failures: u64,
}

impl<S: JoinSampler> Persistent<S> {
    /// Wraps `inner` with durability rooted at `dir`, recovering any state
    /// already there: if a checkpoint exists it is restored into `inner`
    /// (which must be freshly built with the construction parameters of
    /// the original run), then the log suffix is replayed; a log without a
    /// checkpoint is replayed from the beginning.
    ///
    /// Fails with [`PersistError::Unsupported`] when the engine cannot
    /// snapshot, with [`PersistError::Wal`] on unrecoverable log damage
    /// (a torn tail on the final segment is fine — it is truncated), and
    /// with [`PersistError::Engine`] when the checkpoint belongs to a
    /// different engine or the state bytes do not fit.
    pub fn open(
        inner: S,
        dir: impl AsRef<Path>,
        policy: CheckpointPolicy,
    ) -> Result<Persistent<S>, PersistError> {
        Persistent::open_with(
            inner,
            dir,
            policy,
            WalOptions::default(),
            Box::new(rsj_storage::wal::RealFs::new()),
            Box::new(rsj_storage::wal::SystemSleeper),
        )
    }

    /// [`open`](Persistent::open) with explicit WAL tuning, filesystem
    /// shim, and backoff clock — the constructor the fault-injection
    /// harness uses to drive I/O errors through the whole durability
    /// stack.
    pub fn open_with(
        inner: S,
        dir: impl AsRef<Path>,
        policy: CheckpointPolicy,
        opts: WalOptions,
        fs: Box<dyn WalFs>,
        sleeper: Box<dyn Sleeper>,
    ) -> Result<Persistent<S>, PersistError> {
        let mut inner = inner;
        if !inner.supports_snapshot() {
            return Err(PersistError::Unsupported(inner.name()));
        }
        let dir = dir.as_ref();
        let mut wal = Wal::open_with(dir.join("wal"), opts, fs, sleeper)?;
        let checkpoint_path = dir.join(CHECKPOINT_FILE);
        let mut from_lsn = 0;
        if checkpoint_path.exists() {
            let cp = Checkpoint::read_from(&checkpoint_path)?;
            if cp.engine != inner.name() {
                return Err(PersistError::Engine(format!(
                    "checkpoint was written by engine {} but {} is being restored",
                    cp.engine,
                    inner.name()
                )));
            }
            inner
                .restore_state(&cp.state)
                .map_err(|e| PersistError::Engine(format!("checkpoint state rejected: {e}")))?;
            from_lsn = cp.lsn;
        }
        for op in &wal.replay_from(from_lsn)? {
            inner
                .process_op(op)
                .map_err(|e| PersistError::Engine(e.to_string()))?;
        }
        Ok(Persistent {
            inner,
            wal,
            checkpoint_path,
            policy,
            ops_since_checkpoint: 0,
            lost_since: None,
            lost_ops: 0,
            checkpoint_failures: 0,
        })
    }

    /// Validates one op against the engine's input schema, logs it,
    /// applies it to the engine, and checkpoints when the policy says so.
    /// An op the engine would reject — unknown relation, wrong arity, a
    /// delete for an insert-only engine — fails with
    /// [`PersistError::Rejected`] before anything is logged. The append
    /// is buffered — call
    /// [`flush`](Persistent::flush) (or [`sync`](Persistent::sync)) to
    /// make it crash-durable; the recovery invariant covers the flushed
    /// prefix.
    ///
    /// **Out of space degrades instead of failing.** When the append hits
    /// `ENOSPC` the op is still applied to the engine, the wrapper enters
    /// degraded mode (see [`health`](Persistent::health)), and this call
    /// returns the out-of-space error exactly once so the caller learns
    /// about the lost durability. Subsequent ops skip the log silently,
    /// are counted as lost, and keep serving reads; a later successful
    /// checkpoint heals the wrapper (its snapshot covers the unlogged
    /// ops). Any other WAL error is returned without applying the op.
    pub fn process_op(&mut self, op: &StreamOp) -> Result<(), PersistError> {
        let blocker = (!self.inner.supports_deletes()).then(|| self.inner.name());
        validate_op(self.inner.input_query(), blocker, op).map_err(PersistError::Rejected)?;
        let mut just_degraded: Option<WalError> = None;
        if self.lost_since.is_some() {
            self.lost_ops += 1;
        } else {
            match self.wal.append(op) {
                Ok(_) => {}
                Err(e) if e.is_out_of_space() => {
                    self.lost_since = Some(self.wal.flushed_lsn());
                    self.lost_ops = 1;
                    just_degraded = Some(e);
                }
                Err(e) => return Err(e.into()),
            }
        }
        self.inner
            .process_op(op)
            .map_err(|e| PersistError::Engine(e.to_string()))?;
        self.ops_since_checkpoint += 1;
        if let CheckpointPolicy::EveryOps(n) = self.policy {
            if self.ops_since_checkpoint >= n {
                // Policy-driven checkpoints are non-fatal: a failure counts
                // and re-arms the policy (checkpoint() does both), the
                // previous checkpoint stays valid, and the op itself
                // already succeeded.
                let _ = self.checkpoint();
            }
        }
        match just_degraded {
            Some(e) => Err(PersistError::Wal(e)),
            None => Ok(()),
        }
    }

    /// Convenience insert mirroring [`JoinSampler::process`].
    pub fn process(&mut self, rel: usize, tuple: &[rsj_common::Value]) -> Result<(), PersistError> {
        self.process_op(&StreamOp::insert(rel, tuple.to_vec()))
    }

    /// Takes a checkpoint now: snapshots the engine at the current LSN,
    /// writes it atomically (tmp + rename), then truncates the log so it
    /// holds only ops after the checkpoint.
    ///
    /// A failed attempt never damages recoverability: the write is atomic,
    /// so the previous checkpoint (and the log) stay valid, the failure is
    /// counted ([`checkpoint_failures`](Persistent::checkpoint_failures)),
    /// and the policy window is re-armed so a later attempt retries. A
    /// successful checkpoint also heals a degraded wrapper — its snapshot
    /// includes any ops that were applied without log coverage.
    pub fn checkpoint(&mut self) -> Result<(), PersistError> {
        let state = self
            .inner
            .snapshot_state()
            .ok_or(PersistError::Unsupported(self.inner.name()))?;
        let cp = Checkpoint {
            engine: self.inner.name().to_string(),
            lsn: self.wal.next_lsn(),
            state,
        };
        let attempt = (|| -> Result<(), PersistError> {
            self.wal
                .write_atomic(&self.checkpoint_path, &cp.to_bytes())?;
            self.wal.truncate_at_checkpoint()?;
            Ok(())
        })();
        // Either way the policy window restarts: on success because the
        // checkpoint is the new baseline, on failure so one bad attempt
        // does not turn into an attempt per op.
        self.ops_since_checkpoint = 0;
        match attempt {
            Ok(()) => {
                self.lost_since = None;
                self.lost_ops = 0;
                Ok(())
            }
            Err(e) => {
                self.checkpoint_failures += 1;
                Err(e)
            }
        }
    }

    /// Pushes buffered log appends to the OS (what the crash tests call
    /// before a simulated kill).
    pub fn flush(&mut self) -> Result<(), PersistError> {
        self.wal.flush()?;
        Ok(())
    }

    /// Flushes and `fdatasync`s the active log segment.
    pub fn sync(&mut self) -> Result<(), PersistError> {
        self.wal.sync()?;
        Ok(())
    }

    /// LSN the next op will get — equals the total number of ops ever
    /// logged through this directory.
    pub fn next_lsn(&self) -> u64 {
        self.wal.next_lsn()
    }

    /// Ops logged since the last checkpoint (the policy counter).
    pub fn ops_since_checkpoint(&self) -> u64 {
        self.ops_since_checkpoint
    }

    /// Whether every applied op is currently recoverable (see
    /// [`DurabilityHealth`]).
    pub fn health(&self) -> DurabilityHealth {
        match self.lost_since {
            None => DurabilityHealth::Durable,
            Some(since_lsn) => DurabilityHealth::Degraded {
                lost_ops: self.lost_ops,
                since_lsn,
            },
        }
    }

    /// Transient I/O errors absorbed by the WAL's retry/backoff so far.
    pub fn retries(&self) -> u64 {
        self.wal.retries()
    }

    /// Checkpoint attempts that failed non-fatally (the previous
    /// checkpoint stayed valid each time).
    pub fn checkpoint_failures(&self) -> u64 {
        self.checkpoint_failures
    }

    /// The engine's stats with the durability counters filled in:
    /// `retries` accumulates the WAL's absorbed transient errors onto
    /// whatever the engine reports, and `degraded` is `1` while logging is
    /// lost (see [`health`](Persistent::health)).
    pub fn stats(&self) -> SamplerStats {
        let mut s = self.inner.stats();
        s.retries = Some(s.retries.unwrap_or(0) + self.wal.retries());
        s.degraded = Some(s.degraded.unwrap_or(0) + u64::from(self.lost_since.is_some()));
        s
    }

    /// The wrapped engine, for reads (`samples`, `stats`, ...).
    pub fn engine(&self) -> &S {
        &self.inner
    }

    /// The wrapped engine, mutably — for maintenance calls like
    /// [`JoinSampler::replan`] that do not consume stream ops. Feeding the
    /// engine tuples through this reference bypasses the log and forfeits
    /// recovery; use [`process_op`](Persistent::process_op).
    pub fn engine_mut(&mut self) -> &mut S {
        &mut self.inner
    }

    /// Unwraps the engine, dropping durability (the log is flushed by
    /// `Wal`'s drop).
    pub fn into_engine(self) -> S {
        self.inner
    }
}

/// Durability for the resident [`SamplerService`]: the same
/// append-then-apply WAL discipline as [`Persistent`], wrapped around the
/// whole service — one log covers every registered query, because they
/// all consume the one retained stream.
///
/// What is durable when:
///
/// * **Ops** are covered from the moment
///   [`process_op`](PersistentService::process_op) returns (flushed
///   prefix, as for [`Persistent`]). Every op is validated
///   ([`SamplerService::validate_op`]) *before* it is logged, so nothing
///   reaches the WAL that recovery replay would reject.
/// * **Registrations** are part of checkpoints, not the log: a
///   [`checkpoint`](PersistentService::checkpoint) captures the full
///   service (store, shared indexes, member cores, boxed engine states).
///   A query registered after the last checkpoint is absent after
///   recovery — re-registering it backfills from the recovered history
///   and lands byte-identical, so the loss is recoverable; checkpoint
///   after registration churn to avoid it entirely.
///
/// This wrapper is the strict path: a WAL error fails the op without
/// applying it. The out-of-space degradation machinery (serve
/// non-durably, heal at the next checkpoint) lives in [`Persistent`].
pub struct PersistentService {
    inner: SamplerService,
    wal: Wal,
    checkpoint_path: PathBuf,
    policy: CheckpointPolicy,
    ops_since_checkpoint: u64,
}

impl PersistentService {
    /// Wraps `inner` (freshly built over the original run's universe)
    /// with durability rooted at `dir`, recovering any state already
    /// there: an existing checkpoint is restored into `inner` — boxed
    /// members are rebuilt through `rebuild(engine_name, k)`, see
    /// [`SamplerService::restore_from_snapshot`] — and the log suffix is
    /// replayed through the service.
    pub fn open(
        inner: SamplerService,
        dir: impl AsRef<Path>,
        policy: CheckpointPolicy,
        rebuild: &mut RebuildFn,
    ) -> Result<PersistentService, PersistError> {
        Self::open_with(
            inner,
            dir,
            policy,
            rebuild,
            WalOptions::default(),
            Box::new(rsj_storage::wal::RealFs::new()),
            Box::new(rsj_storage::wal::SystemSleeper),
        )
    }

    /// [`open`](PersistentService::open) with explicit WAL tuning,
    /// filesystem shim, and backoff clock (the fault-injection entry
    /// point, as for [`Persistent::open_with`]).
    pub fn open_with(
        inner: SamplerService,
        dir: impl AsRef<Path>,
        policy: CheckpointPolicy,
        rebuild: &mut RebuildFn,
        opts: WalOptions,
        fs: Box<dyn WalFs>,
        sleeper: Box<dyn Sleeper>,
    ) -> Result<PersistentService, PersistError> {
        let mut inner = inner;
        let dir = dir.as_ref();
        let mut wal = Wal::open_with(dir.join("wal"), opts, fs, sleeper)?;
        let checkpoint_path = dir.join(CHECKPOINT_FILE);
        let mut from_lsn = 0;
        if checkpoint_path.exists() {
            let cp = Checkpoint::read_from(&checkpoint_path)?;
            if cp.engine != SERVICE_ENGINE {
                return Err(PersistError::Engine(format!(
                    "checkpoint was written by engine {} but a service is being restored",
                    cp.engine
                )));
            }
            let mut dec = rsj_common::codec::Decoder::new(&cp.state);
            inner
                .restore_from_snapshot(&mut dec, rebuild)
                .and_then(|()| dec.finish())
                .map_err(|e| PersistError::Engine(format!("checkpoint state rejected: {e}")))?;
            from_lsn = cp.lsn;
        }
        for op in &wal.replay_from(from_lsn)? {
            inner
                .process_op(op)
                .map_err(|e| PersistError::Engine(e.to_string()))?;
        }
        Ok(PersistentService {
            inner,
            wal,
            checkpoint_path,
            policy,
            ops_since_checkpoint: 0,
        })
    }

    /// Validates, logs, and applies one op, checkpointing when the policy
    /// says so. Validation failures ([`PersistError::Rejected`], the same
    /// error [`Persistent::process_op`] returns) and WAL errors fail the
    /// call without applying anything.
    pub fn process_op(&mut self, op: &StreamOp) -> Result<u64, PersistError> {
        self.inner.validate_op(op).map_err(PersistError::Rejected)?;
        self.wal.append(op)?;
        let lsn = self
            .inner
            .process_op(op)
            .map_err(|e| PersistError::Engine(e.to_string()))?;
        self.ops_since_checkpoint += 1;
        if let CheckpointPolicy::EveryOps(n) = self.policy {
            if self.ops_since_checkpoint >= n {
                // Non-fatal, as for Persistent: the previous checkpoint
                // stays valid and the window re-arms.
                let _ = self.checkpoint();
            }
        }
        Ok(lsn)
    }

    /// Takes a checkpoint of the whole service now (atomic write, then
    /// log truncation). Fails without damaging recoverability when a
    /// registered boxed engine cannot snapshot or on I/O errors — the
    /// previous checkpoint and the log stay valid.
    pub fn checkpoint(&mut self) -> Result<(), PersistError> {
        let mut enc = rsj_common::codec::Encoder::new();
        self.inner
            .snapshot_to(&mut enc)
            .map_err(|e| PersistError::Engine(e.to_string()))?;
        let cp = Checkpoint {
            engine: SERVICE_ENGINE.to_string(),
            lsn: self.wal.next_lsn(),
            state: enc.into_bytes(),
        };
        self.ops_since_checkpoint = 0;
        self.wal
            .write_atomic(&self.checkpoint_path, &cp.to_bytes())?;
        self.wal.truncate_at_checkpoint()?;
        Ok(())
    }

    /// Pushes buffered log appends to the OS.
    pub fn flush(&mut self) -> Result<(), PersistError> {
        self.wal.flush()?;
        Ok(())
    }

    /// Flushes and `fdatasync`s the active log segment.
    pub fn sync(&mut self) -> Result<(), PersistError> {
        self.wal.sync()?;
        Ok(())
    }

    /// LSN the next op will get.
    pub fn next_lsn(&self) -> u64 {
        self.wal.next_lsn()
    }

    /// Ops logged since the last checkpoint.
    pub fn ops_since_checkpoint(&self) -> u64 {
        self.ops_since_checkpoint
    }

    /// The wrapped service, for reads and registration
    /// ([`SamplerService::register`] backfills from the retained history;
    /// checkpoint afterwards to make the registration durable).
    pub fn service(&self) -> &SamplerService {
        &self.inner
    }

    /// The wrapped service, mutably — registration and deregistration go
    /// through here. Feeding stream ops through this reference bypasses
    /// the log and forfeits recovery; use
    /// [`process_op`](PersistentService::process_op).
    pub fn service_mut(&mut self) -> &mut SamplerService {
        &mut self.inner
    }

    /// Unwraps the service, dropping durability.
    pub fn into_service(self) -> SamplerService {
        self.inner
    }
}
