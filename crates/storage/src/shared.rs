//! [`SharedStore`] — the retained, reference-counted op history behind the
//! sampler service.
//!
//! A resident service serves queries that register *after* ingest has been
//! running for a while; to give them the full history (and to rebuild
//! state after a restore), the service retains the op stream **once**,
//! here, instead of once per registered query. The store also tracks a
//! per-relation reference count — how many live registrations read each
//! relation — so the service can assert, and the leak property test can
//! check, that deregistration releases exactly what registration acquired
//! (`live_refs() == 0` and heap back to the retained-history baseline
//! after every query deregisters).

use crate::input::{OpStream, StreamOp};
use rsj_common::codec::{CodecError, Decoder, Encoder};
use rsj_common::HeapSize;

/// The schema of one relation slot: display name and arity.
pub type RelationSchema = (String, usize);

/// A validation or accounting failure in the shared store.
#[derive(Debug, PartialEq, Eq)]
pub enum SharedStoreError {
    /// An op addressed a relation index outside the universe.
    UnknownRelation(usize),
    /// An op's tuple width disagreed with the relation's arity.
    ArityMismatch {
        /// The relation the op addressed.
        relation: usize,
        /// The relation's declared arity.
        expected: usize,
        /// The op's tuple width.
        got: usize,
    },
    /// `release` on a relation whose reference count is already zero.
    ReleaseUnderflow(usize),
}

impl std::fmt::Display for SharedStoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SharedStoreError::UnknownRelation(r) => {
                write!(f, "op addresses unknown relation {r}")
            }
            SharedStoreError::ArityMismatch {
                relation,
                expected,
                got,
            } => write!(
                f,
                "relation {relation} has arity {expected} but the op carries {got} values"
            ),
            SharedStoreError::ReleaseUnderflow(r) => {
                write!(f, "release on relation {r} with zero references")
            }
        }
    }
}

impl std::error::Error for SharedStoreError {}

/// Checks `op`'s relation id and tuple width against a relation universe
/// whose arity per relation `arity_of` yields (`None` past its end). The
/// store's own append and the durability wrappers' validation share it.
pub fn check_op(
    op: &StreamOp,
    arity_of: impl FnOnce(usize) -> Option<usize>,
) -> Result<(), SharedStoreError> {
    let t = op.tuple();
    let expected = arity_of(t.relation).ok_or(SharedStoreError::UnknownRelation(t.relation))?;
    if t.values.len() != expected {
        return Err(SharedStoreError::ArityMismatch {
            relation: t.relation,
            expected,
            got: t.values.len(),
        });
    }
    Ok(())
}

/// One retained copy of the op history plus per-relation registration
/// reference counts. See the [module docs](self).
#[derive(Clone, Debug)]
pub struct SharedStore {
    schema: Vec<RelationSchema>,
    history: OpStream,
    refs: Vec<u64>,
}

impl SharedStore {
    /// An empty store over the given relation universe.
    pub fn new(schema: Vec<RelationSchema>) -> SharedStore {
        let refs = vec![0; schema.len()];
        SharedStore {
            schema,
            history: OpStream::new(),
            refs,
        }
    }

    /// The relation universe (name, arity per slot).
    pub fn schema(&self) -> &[RelationSchema] {
        &self.schema
    }

    /// Validates `op` against the universe and appends it to the retained
    /// history. The returned LSN is the op's position (0-based).
    pub fn append(&mut self, op: &StreamOp) -> Result<u64, SharedStoreError> {
        self.append_owned(op.clone())
    }

    /// [`append`](SharedStore::append) by move — the hot ingest path: the
    /// caller's op *becomes* the retained history entry, so a per-op
    /// producer pays one allocation (building the op), not two.
    pub fn append_owned(&mut self, op: StreamOp) -> Result<u64, SharedStoreError> {
        check_op(&op, |r| self.schema.get(r).map(|(_, arity)| *arity))?;
        let lsn = self.history.len() as u64;
        self.history.push(op);
        Ok(lsn)
    }

    /// Ops retained so far — the LSN the *next* op will get.
    pub fn lsn(&self) -> u64 {
        self.history.len() as u64
    }

    /// The retained history in arrival order.
    pub fn history(&self) -> &OpStream {
        &self.history
    }

    /// Records one registration reading `rel`.
    pub fn acquire(&mut self, rel: usize) -> Result<(), SharedStoreError> {
        let slot = self
            .refs
            .get_mut(rel)
            .ok_or(SharedStoreError::UnknownRelation(rel))?;
        *slot += 1;
        Ok(())
    }

    /// Releases one registration's reference on `rel`.
    pub fn release(&mut self, rel: usize) -> Result<(), SharedStoreError> {
        let slot = self
            .refs
            .get_mut(rel)
            .ok_or(SharedStoreError::UnknownRelation(rel))?;
        if *slot == 0 {
            return Err(SharedStoreError::ReleaseUnderflow(rel));
        }
        *slot -= 1;
        Ok(())
    }

    /// Live registration references on `rel`.
    pub fn ref_count(&self, rel: usize) -> u64 {
        self.refs.get(rel).copied().unwrap_or(0)
    }

    /// Total live references across all relations. Zero when no query is
    /// registered — the leak property tests pin that deregistration always
    /// gets back here.
    pub fn live_refs(&self) -> u64 {
        self.refs.iter().sum()
    }

    /// Serializes schema, history, and reference counts.
    pub fn snapshot_to(&self, enc: &mut Encoder) {
        enc.put_usize(self.schema.len());
        for (name, arity) in &self.schema {
            enc.put_str(name);
            enc.put_usize(*arity);
        }
        enc.put_usize(self.history.len());
        for op in self.history.iter() {
            op.encode_to(enc);
        }
        enc.put_u64s(&self.refs);
    }

    /// Restores a store written by [`snapshot_to`](SharedStore::snapshot_to).
    pub fn restore_from(dec: &mut Decoder) -> Result<SharedStore, CodecError> {
        let nrels = dec.seq_len(1)?;
        let mut schema = Vec::with_capacity(nrels);
        for _ in 0..nrels {
            let name = dec.str()?.to_string();
            let arity = dec.usize()?;
            schema.push((name, arity));
        }
        let nops = dec.seq_len(1)?;
        let mut history = OpStream::new();
        for _ in 0..nops {
            history.push(StreamOp::decode_from(dec)?);
        }
        let refs = dec.u64s()?;
        if refs.len() != nrels {
            return Err(CodecError::Corrupt("shared store refcount width mismatch"));
        }
        Ok(SharedStore {
            schema,
            history,
            refs,
        })
    }
}

impl HeapSize for SharedStore {
    fn heap_size(&self) -> usize {
        let schema: usize = self
            .schema
            .iter()
            .map(|(name, _)| std::mem::size_of::<RelationSchema>() + name.capacity())
            .sum();
        schema + self.refs.capacity() * std::mem::size_of::<u64>() + self.history.heap_size()
    }
}

impl HeapSize for OpStream {
    fn heap_size(&self) -> usize {
        self.ops()
            .iter()
            .map(|op| {
                std::mem::size_of::<StreamOp>()
                    + op.tuple().values.capacity() * std::mem::size_of::<rsj_common::Value>()
            })
            .sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_rel_store() -> SharedStore {
        SharedStore::new(vec![("R".to_string(), 2), ("S".to_string(), 2)])
    }

    #[test]
    fn append_validates_and_numbers_ops() {
        let mut store = two_rel_store();
        assert_eq!(store.append(&StreamOp::insert(0, vec![1, 2])), Ok(0));
        assert_eq!(store.append(&StreamOp::delete(1, vec![3, 4])), Ok(1));
        assert_eq!(store.lsn(), 2);
        assert_eq!(
            store.append(&StreamOp::insert(2, vec![1, 2])),
            Err(SharedStoreError::UnknownRelation(2))
        );
        assert_eq!(
            store.append(&StreamOp::insert(0, vec![1])),
            Err(SharedStoreError::ArityMismatch {
                relation: 0,
                expected: 2,
                got: 1
            })
        );
        assert_eq!(store.lsn(), 2, "rejected ops are not retained");
    }

    #[test]
    fn refcounts_balance() {
        let mut store = two_rel_store();
        store.acquire(0).unwrap();
        store.acquire(0).unwrap();
        store.acquire(1).unwrap();
        assert_eq!(store.ref_count(0), 2);
        assert_eq!(store.live_refs(), 3);
        store.release(0).unwrap();
        store.release(0).unwrap();
        store.release(1).unwrap();
        assert_eq!(store.live_refs(), 0);
        assert_eq!(store.release(0), Err(SharedStoreError::ReleaseUnderflow(0)));
        assert_eq!(store.acquire(5), Err(SharedStoreError::UnknownRelation(5)));
    }

    #[test]
    fn snapshot_round_trips() {
        let mut store = two_rel_store();
        store.append(&StreamOp::insert(0, vec![1, 2])).unwrap();
        store.append(&StreamOp::delete(0, vec![1, 2])).unwrap();
        store.append(&StreamOp::insert(1, vec![7, 8])).unwrap();
        store.acquire(1).unwrap();
        let mut enc = Encoder::new();
        store.snapshot_to(&mut enc);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        let back = SharedStore::restore_from(&mut dec).unwrap();
        dec.finish().unwrap();
        assert_eq!(back.schema(), store.schema());
        assert_eq!(back.history().ops(), store.history().ops());
        assert_eq!(back.ref_count(1), 1);
    }

    #[test]
    fn heap_size_tracks_history_growth() {
        let mut store = two_rel_store();
        let empty = store.heap_size();
        for i in 0..100 {
            store.append(&StreamOp::insert(0, vec![i, i])).unwrap();
        }
        assert!(store.heap_size() > empty, "history growth must be visible");
    }
}
