//! Struct-of-arrays ingest batches: the columnar counterpart of the
//! row-shaped [`InputTuple`] stream.
//!
//! A [`ColumnarBatch`] groups a window of insert-only arrivals by target
//! relation and stores each relation's tuples column-wise — one
//! `Vec<Value>` per attribute — plus the arrival permutation:
//!
//! ```text
//! arrivals:  (R0,row0) (R1,row0) (R0,row1) (R0,row2) (R1,row1) ...
//!                │         │
//!                ▼         ▼
//! R0 columns:  col A: [a0, a1, a2, ..]      R1 columns: col A: [..]
//!              col B: [b0, b1, b2, ..]                  col B: [..]
//! ```
//!
//! The batch is a *transport* format: the sharded router splits it by
//! key columns, and every consumer turns it back into the ordinary
//! per-tuple path by replaying the arrival permutation
//! ([`ColumnarBatch::shred`], [`RelationColumns::write_row`]), so each row
//! reaches the index and the reservoir in its original stream position.
//!
//! Within one relation, row order is arrival order — shredding a batch
//! back to rows ([`ColumnarBatch::shred`]) reproduces the source stream
//! exactly.

use crate::input::{InputTuple, StreamOp, TupleStream};
use rsj_common::{HeapSize, Value};

/// The struct-of-arrays tuples of one relation inside a [`ColumnarBatch`]:
/// one values vector per attribute, rows in arrival order.
#[derive(Clone, Debug, Default)]
pub struct RelationColumns {
    cols: Vec<Vec<Value>>,
}

impl RelationColumns {
    /// Number of attributes per tuple (0 until the first row arrives).
    pub fn arity(&self) -> usize {
        self.cols.len()
    }

    /// Number of buffered rows.
    pub fn rows(&self) -> usize {
        self.cols.first().map_or(0, Vec::len)
    }

    /// The values of attribute `c`, one per row.
    pub fn column(&self, c: usize) -> &[Value] {
        &self.cols[c]
    }

    /// Appends row `row`'s values (in schema order) to `out`.
    pub fn write_row(&self, row: usize, out: &mut Vec<Value>) {
        for col in &self.cols {
            out.push(col[row]);
        }
    }

    fn push_row(&mut self, values: &[Value]) {
        if self.cols.is_empty() {
            self.cols = vec![Vec::new(); values.len()];
        }
        assert_eq!(
            values.len(),
            self.cols.len(),
            "arity mismatch within a columnar batch"
        );
        for (col, &v) in self.cols.iter_mut().zip(values) {
            col.push(v);
        }
    }
}

impl HeapSize for RelationColumns {
    fn heap_size(&self) -> usize {
        self.cols.iter().map(HeapSize::heap_size).sum::<usize>()
            + self.cols.capacity() * std::mem::size_of::<Vec<Value>>()
    }
}

/// An insert-only window of the input stream in struct-of-arrays form:
/// per-relation column vectors plus the arrival permutation.
#[derive(Clone, Debug, Default)]
pub struct ColumnarBatch {
    rels: Vec<RelationColumns>,
    /// Arrival order → `(relation, row within that relation's columns)`.
    arrivals: Vec<(u32, u32)>,
}

impl ColumnarBatch {
    /// Creates an empty batch.
    pub fn new() -> ColumnarBatch {
        ColumnarBatch::default()
    }

    /// Appends one arrival.
    pub fn push(&mut self, relation: usize, values: &[Value]) {
        if relation >= self.rels.len() {
            self.rels
                .resize_with(relation + 1, RelationColumns::default);
        }
        let rc = &mut self.rels[relation];
        self.arrivals.push((relation as u32, rc.rows() as u32));
        rc.push_row(values);
    }

    /// Builds a batch from row-shaped tuples, preserving arrival order.
    pub fn from_rows(rows: &[InputTuple]) -> ColumnarBatch {
        let mut b = ColumnarBatch::new();
        for t in rows {
            b.push(t.relation, &t.values);
        }
        b
    }

    /// Builds a batch from an op window, or `None` if any op is a delete
    /// (the columnar path is insert-only; turnstile windows stay on the
    /// per-op path).
    pub fn from_insert_ops(ops: &[StreamOp]) -> Option<ColumnarBatch> {
        if ops.iter().any(StreamOp::is_delete) {
            return None;
        }
        let mut b = ColumnarBatch::new();
        for op in ops {
            let t = op.tuple();
            b.push(t.relation, &t.values);
        }
        Some(b)
    }

    /// Total arrivals in the batch.
    pub fn len(&self) -> usize {
        self.arrivals.len()
    }

    /// True when no arrival is buffered.
    pub fn is_empty(&self) -> bool {
        self.arrivals.is_empty()
    }

    /// One past the highest relation index seen (relations without rows in
    /// this batch report zero rows).
    pub fn num_relations(&self) -> usize {
        self.rels.len()
    }

    /// The columns of relation `rel`.
    pub fn relation(&self, rel: usize) -> &RelationColumns {
        &self.rels[rel]
    }

    /// The arrival permutation: stream position → `(relation, row)`.
    pub fn arrivals(&self) -> &[(u32, u32)] {
        &self.arrivals
    }

    /// Replays the batch row-at-a-time in arrival order — the shred-back
    /// adapter row-path consumers use. The callback borrows a scratch row;
    /// it is bit-identical to the stream the batch was built from.
    pub fn shred(&self, mut f: impl FnMut(usize, &[Value])) {
        let mut buf = Vec::new();
        for &(rel, row) in &self.arrivals {
            buf.clear();
            self.rels[rel as usize].write_row(row as usize, &mut buf);
            f(rel as usize, &buf);
        }
    }

    /// Shreds back to owned row-shaped tuples in arrival order.
    pub fn to_rows(&self) -> Vec<InputTuple> {
        let mut out = Vec::with_capacity(self.len());
        self.shred(|rel, values| out.push(InputTuple::new(rel, values.to_vec())));
        out
    }
}

impl From<&TupleStream> for ColumnarBatch {
    fn from(stream: &TupleStream) -> ColumnarBatch {
        ColumnarBatch::from_rows(stream.tuples())
    }
}

impl HeapSize for ColumnarBatch {
    fn heap_size(&self) -> usize {
        self.rels.iter().map(HeapSize::heap_size).sum::<usize>()
            + self.rels.capacity() * std::mem::size_of::<RelationColumns>()
            + self.arrivals.heap_size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_rows() -> Vec<InputTuple> {
        vec![
            InputTuple::new(0, vec![1, 2]),
            InputTuple::new(2, vec![7]),
            InputTuple::new(0, vec![3, 4]),
            InputTuple::new(2, vec![9]),
            InputTuple::new(0, vec![5, 6]),
        ]
    }

    #[test]
    fn round_trips_rows_in_arrival_order() {
        let rows = sample_rows();
        let b = ColumnarBatch::from_rows(&rows);
        assert_eq!(b.len(), 5);
        assert_eq!(b.num_relations(), 3);
        assert_eq!(b.to_rows(), rows);
    }

    #[test]
    fn columns_are_struct_of_arrays() {
        let b = ColumnarBatch::from_rows(&sample_rows());
        let r0 = b.relation(0);
        assert_eq!(r0.arity(), 2);
        assert_eq!(r0.rows(), 3);
        assert_eq!(r0.column(0), &[1, 3, 5]);
        assert_eq!(r0.column(1), &[2, 4, 6]);
        assert_eq!(b.relation(1).rows(), 0);
        assert_eq!(b.relation(2).column(0), &[7, 9]);
    }

    #[test]
    fn insert_ops_convert_and_deletes_refuse() {
        let inserts = vec![
            StreamOp::insert(0, vec![1, 2]),
            StreamOp::insert(1, vec![3]),
        ];
        let b = ColumnarBatch::from_insert_ops(&inserts).expect("insert-only");
        assert_eq!(b.len(), 2);
        assert_eq!(
            b.to_rows(),
            vec![InputTuple::new(0, vec![1, 2]), InputTuple::new(1, vec![3])]
        );
        let mixed = vec![
            StreamOp::insert(0, vec![1, 2]),
            StreamOp::delete(0, vec![1, 2]),
        ];
        assert!(ColumnarBatch::from_insert_ops(&mixed).is_none());
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn arity_mismatch_panics() {
        let mut b = ColumnarBatch::new();
        b.push(0, &[1, 2]);
        b.push(0, &[1]);
    }

    #[test]
    fn stream_conversion_matches_from_rows() {
        let mut s = TupleStream::new();
        for t in sample_rows() {
            s.push(t.relation, t.values);
        }
        let b = ColumnarBatch::from(&s);
        assert_eq!(b.to_rows(), sample_rows());
        assert!(b.heap_size() > 0);
    }
}
