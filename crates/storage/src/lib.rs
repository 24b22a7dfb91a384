#![warn(missing_docs)]

//! Relation storage for streaming joins.
//!
//! The paper's streaming model (§2.1) inserts tuples one at a time into the
//! relations of a database instance, under set semantics. Tuple arenas only
//! ever grow — deletion tombstones a slot instead of compacting — so a
//! `TupleId` is a stable address and positional access into any list is a
//! plain vector index, for insert-only and turnstile streams alike.
//!
//! * [`relation::Relation`] — a flat, arena-backed tuple store with
//!   set-semantics deduplication and tombstone-based removal;
//! * [`relation::Database`] — the collection of relations a query runs over;
//! * [`semijoin::SemijoinIndex`] — hash index from a composite key to the
//!   positional list of matching tuples (`R_e ⋉ t` in the paper), the
//!   building block of both the dynamic index and the baselines;
//! * [`input::InputTuple`] / [`input::TupleStream`] — the insert-only input
//!   stream fed to the drivers;
//! * [`input::StreamOp`] / [`input::OpStream`] — the fully-dynamic
//!   (turnstile) stream of interleaved inserts and deletes;
//! * [`columnar::ColumnarBatch`] — an insert-only stream window in
//!   struct-of-arrays form (one column vector per attribute, per relation),
//!   the batch transport format that engines shred back to rows;
//! * [`shared::SharedStore`] — the sampler service's retained op history
//!   with per-relation registration reference counts (one copy of the
//!   stream shared by every registered query);
//! * [`stats::TableStatistics`] — observed per-relation/per-column stream
//!   statistics, the evidence the cost-based planner (`rsj-query::plan`)
//!   scores candidate join trees with;
//! * [`wal::Wal`] / [`wal::Checkpoint`] — the durability layer: a
//!   segmented, checksummed write-ahead log of [`input::StreamOp`]s and the
//!   checkpoint file format that truncates it.

pub mod columnar;
pub mod input;
pub mod relation;
pub mod semijoin;
pub mod shared;
pub mod stats;
pub mod wal;

pub use columnar::{ColumnarBatch, RelationColumns};
pub use input::{InputTuple, OpStream, StreamOp, TupleStream};
pub use relation::{Database, Relation};
pub use semijoin::SemijoinIndex;
pub use shared::{SharedStore, SharedStoreError};
pub use stats::{ColumnStats, RelationStats, TableStatistics};
pub use wal::{Checkpoint, Wal, WalError, FORMAT_VERSION};
