//! Columnar storage engine backing the [`crate::Thicket`] performance
//! dataframe.
//!
//! The row-oriented engine kept one `BTreeMap<(node, profile), f64>` per
//! metric column; every aggregation walked pointer-chasing tree nodes and
//! every filter cloned the full structure. At `rajaperfd` corpus scale
//! (10⁵–10⁶ profiles) that is the analysis bottleneck, so this module stores
//! the dataframe the way an analytical engine does:
//!
//! * one **row index**: `(node, profile)` pairs sorted node-major (node
//!   ascending, then profile ascending), deduplicated;
//! * per-column **dense value vectors** aligned to the row index, paired
//!   with a **validity bitmap** (a row a column never observed is invalid,
//!   not absent — the row exists because *some* column observed it);
//! * `node_starts` offsets so "all rows of node n" is a contiguous slice.
//!
//! Appends do not disturb the sorted index: they land in a small row-major
//! **pending chunk** that [`Frame::compact`] merges in sorted order. The
//! compaction trigger is geometric (pending ≥ half the base), so streaming
//! N profiles costs O(N) amortized merge work instead of O(N²) re-sorts.
//!
//! Duplicate `(node, profile)` cells keep the *last* appended valid value
//! per column, reproducing the `BTreeMap::insert` overwrite semantics of
//! the row engine.
//!
//! Parallel scans go through the vendored `rayon` pool with the per-chunk
//! combine discipline used elsewhere in the workspace: chunk results are
//! collected in chunk order, so outputs are bitwise-identical for any
//! `RAYON_NUM_THREADS`.

use rayon::IntoParallelIterator;
use std::collections::BTreeMap;

/// Row identity: `(node id, profile id)`. `u32` halves index memory versus
/// `usize`; 2³² nodes or profiles is far beyond any corpus we model, and
/// the conversions assert rather than wrap.
pub(crate) type Row = (u32, u32);

/// Compact once pending reaches this many rows, even on small bases.
const PENDING_MIN_ROWS: usize = 4096;

/// Validity bitmap: one bit per row position of the owning column.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct Bitmap {
    words: Vec<u64>,
    len: usize,
}

impl Bitmap {
    pub(crate) fn get(&self, i: usize) -> bool {
        (self.words[i >> 6] >> (i & 63)) & 1 == 1
    }

    pub(crate) fn push(&mut self, v: bool) {
        if self.len & 63 == 0 {
            self.words.push(0);
        }
        if v {
            *self.words.last_mut().expect("word pushed above") |= 1 << (self.len & 63);
        }
        self.len += 1;
    }

    pub(crate) fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }
}

/// One metric column: values dense over the owning frame's row index (or a
/// prefix of it, in the pending chunk), plus validity.
#[derive(Debug, Clone, Default)]
pub(crate) struct Column {
    pub(crate) values: Vec<f64>,
    pub(crate) valid: Bitmap,
}

impl Column {
    /// The value at row position `i`, if observed. Positions past the
    /// column's end (possible only in the pending chunk, where columns grow
    /// lazily) read as unobserved.
    pub(crate) fn get(&self, i: usize) -> Option<f64> {
        if i < self.values.len() && self.valid.get(i) {
            Some(self.values[i])
        } else {
            None
        }
    }

    fn pad_to(&mut self, n: usize) {
        while self.values.len() < n {
            self.values.push(f64::NAN);
            self.valid.push(false);
        }
    }

    fn push_valid(&mut self, v: f64) {
        self.values.push(v);
        self.valid.push(true);
    }

    fn push_invalid(&mut self) {
        self.values.push(f64::NAN);
        self.valid.push(false);
    }

    pub(crate) fn observed(&self) -> usize {
        self.valid.count_ones()
    }
}

/// Unsorted appends awaiting compaction. Rows are in append order; columns
/// are dense over the row positions they have reached (shorter tails read
/// as unobserved).
#[derive(Debug, Clone, Default)]
struct Pending {
    rows: Vec<Row>,
    columns: BTreeMap<String, Column>,
}

impl Pending {
    /// The pending column `name`, created empty on first use. (Not `entry`:
    /// that would clone the name on every call, not only the first.)
    fn column_mut(&mut self, name: &str) -> &mut Column {
        if !self.columns.contains_key(name) {
            self.columns.insert(name.to_string(), Column::default());
        }
        self.columns.get_mut(name).expect("inserted above")
    }
}

/// The columnar performance dataframe.
#[derive(Debug, Clone, Default)]
pub struct Frame {
    /// Sorted node-major row index, deduplicated.
    index: Vec<Row>,
    /// `node_starts[n]..node_starts[n+1]` is node `n`'s slice of `index`.
    /// Rebuilt by [`Frame::compact`]; reads fall back to binary search when
    /// a node id postdates the last compaction.
    node_starts: Vec<usize>,
    /// Metric columns aligned to `index`.
    columns: BTreeMap<String, Column>,
    pending: Pending,
}

impl Frame {
    // ------------------------------------------------------------- writes

    /// Append a whole profile whose column names are interned: each of
    /// `rows` is `(node, cells)`, a cell `(id, value)` with `names[id]` its
    /// column and no id twice in one row. A row with no cells creates no row
    /// (the row engine likewise only materialized rows through column
    /// entries). The ids are the caller's shorthand only — columns stay
    /// keyed by name — and buy one map lookup per column instead of one per
    /// cell.
    pub(crate) fn append_cells(
        &mut self,
        profile: u32,
        rows: &[(u32, &[(usize, f64)])],
        names: &[String],
    ) {
        // Counting sort of the cells by column, each tagged with the pending
        // position of its row: `starts[id]..starts[id + 1]` is column `id`'s
        // run of `by_column`, in row order.
        let mut starts = vec![0usize; names.len() + 1];
        for &(id, _) in rows.iter().flat_map(|&(_, cells)| cells) {
            starts[id + 1] += 1;
        }
        for id in 0..names.len() {
            starts[id + 1] += starts[id];
        }
        let mut by_column = vec![(0usize, 0.0f64); starts[names.len()]];
        let mut next = starts.clone();
        for &(node, cells) in rows.iter().filter(|(_, cells)| !cells.is_empty()) {
            let pos = self.pending.rows.len();
            self.pending.rows.push((node, profile));
            for &(id, v) in cells {
                by_column[next[id]] = (pos, v);
                next[id] += 1;
            }
        }
        for (id, name) in names.iter().enumerate() {
            let run = &by_column[starts[id]..starts[id + 1]];
            if run.is_empty() {
                continue;
            }
            let col = self.pending.column_mut(name);
            for &(pos, v) in run {
                col.pad_to(pos);
                col.push_valid(v);
            }
        }
    }

    /// Bulk-append another (compacted) frame with node/profile ids remapped.
    /// `prof_map` must cover every profile id in `other`.
    pub(crate) fn append_frame(
        &mut self,
        other: &Frame,
        node_map: &[u32],
        prof_map: &std::collections::HashMap<u32, u32>,
    ) {
        debug_assert!(other.pending.rows.is_empty(), "append_frame takes compacted input");
        let offset = self.pending.rows.len();
        for &(n, p) in &other.index {
            self.pending
                .rows
                .push((node_map[n as usize], prof_map[&p]));
        }
        for (name, col) in &other.columns {
            let dst = self.pending.column_mut(name);
            dst.pad_to(offset);
            for i in 0..other.index.len() {
                match col.get(i) {
                    Some(v) => dst.push_valid(v),
                    None => dst.push_invalid(),
                }
            }
        }
    }

    /// True when enough appends have accumulated to justify a merge. The
    /// geometric trigger keeps total compaction work linear in the stream.
    pub(crate) fn should_compact(&self) -> bool {
        self.pending.rows.len() >= PENDING_MIN_ROWS
            && self.pending.rows.len() >= self.index.len() / 2
    }

    /// True when there are no uncompacted appends.
    pub(crate) fn pending_is_empty(&self) -> bool {
        self.pending.rows.is_empty()
    }

    /// Merge the pending chunk into the sorted base and rebuild
    /// `node_starts` for `nnodes` nodes. Idempotent; cheap when pending is
    /// empty and `node_starts` is current.
    pub(crate) fn compact(&mut self, nnodes: usize) {
        if self.pending.rows.is_empty() {
            if self.node_starts.len() != nnodes + 1 {
                self.rebuild_node_starts(nnodes);
            }
            return;
        }
        // Pending positions sorted by (row, append position): a stable key
        // so the LAST append to a duplicated cell wins per column.
        let mut porder: Vec<u32> = (0..self.pending.rows.len() as u32).collect();
        porder.sort_unstable_by_key(|&p| (self.pending.rows[p as usize], p));

        // Merge plan: one entry per output row — the base position (or
        // `NO_BASE`) plus the run of pending positions (`porder[ps..pe]`)
        // that lands on that row.
        const NO_BASE: u32 = u32::MAX;
        let mut plan: Vec<(u32, u32, u32)> = Vec::with_capacity(self.index.len() + porder.len());
        let mut new_index: Vec<Row> = Vec::with_capacity(self.index.len() + porder.len());
        let (mut i, mut j) = (0usize, 0usize);
        while i < self.index.len() || j < porder.len() {
            let take_base = j >= porder.len()
                || (i < self.index.len()
                    && self.index[i] <= self.pending.rows[porder[j] as usize]);
            let row = if take_base {
                self.index[i]
            } else {
                self.pending.rows[porder[j] as usize]
            };
            let ps = j;
            while j < porder.len() && self.pending.rows[porder[j] as usize] == row {
                j += 1;
            }
            let base = if take_base {
                assert!(i < NO_BASE as usize, "frame exceeds u32 row positions");
                i as u32
            } else {
                NO_BASE
            };
            if take_base {
                i += 1;
            }
            plan.push((base, ps as u32, j as u32));
            new_index.push(row);
        }

        let names: Vec<String> = {
            let mut v: Vec<String> = self.columns.keys().cloned().collect();
            v.extend(self.pending.columns.keys().cloned());
            v.sort();
            v.dedup();
            v
        };
        let mut new_columns = BTreeMap::new();
        for name in names {
            let bcol = self.columns.get(&name);
            let pcol = self.pending.columns.get(&name);
            let mut col = Column::default();
            for &(base, ps, pe) in &plan {
                // Latest valid pending write wins; otherwise the base value.
                let mut chosen: Option<f64> = None;
                if let Some(pc) = pcol {
                    for jj in (ps..pe).rev() {
                        if let Some(v) = pc.get(porder[jj as usize] as usize) {
                            chosen = Some(v);
                            break;
                        }
                    }
                }
                if chosen.is_none() && base != NO_BASE {
                    if let Some(bc) = bcol {
                        chosen = bc.get(base as usize);
                    }
                }
                match chosen {
                    Some(v) => col.push_valid(v),
                    None => col.push_invalid(),
                }
            }
            new_columns.insert(name, col);
        }

        self.index = new_index;
        self.columns = new_columns;
        self.pending = Pending::default();
        self.rebuild_node_starts(nnodes);
    }

    fn rebuild_node_starts(&mut self, nnodes: usize) {
        let mut starts = vec![0usize; nnodes + 1];
        for &(n, _) in &self.index {
            starts[n as usize + 1] += 1;
        }
        for k in 0..nnodes {
            starts[k + 1] += starts[k];
        }
        self.node_starts = starts;
    }

    /// A compacted view of this frame: borrowed when there is nothing
    /// pending, otherwise a compacted clone. Bulk read paths use this so
    /// their scans see only the sorted base.
    pub(crate) fn compacted(&self, nnodes: usize) -> std::borrow::Cow<'_, Frame> {
        if self.pending_is_empty() && self.node_starts.len() == nnodes + 1 {
            std::borrow::Cow::Borrowed(self)
        } else {
            let mut f = self.clone();
            f.compact(nnodes);
            std::borrow::Cow::Owned(f)
        }
    }

    // -------------------------------------------------------------- reads

    pub(crate) fn rows(&self) -> &[Row] {
        &self.index
    }

    pub(crate) fn columns(&self) -> &BTreeMap<String, Column> {
        &self.columns
    }

    /// Sorted union of base and pending column names.
    pub(crate) fn column_names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.columns.keys().map(String::as_str).collect();
        if !self.pending.columns.is_empty() {
            names.extend(self.pending.columns.keys().map(String::as_str));
            names.sort_unstable();
            names.dedup();
        }
        names
    }

    /// Node `n`'s contiguous range of base-index positions.
    pub(crate) fn node_range(&self, node: u32) -> std::ops::Range<usize> {
        let n = node as usize;
        if n + 1 < self.node_starts.len() {
            self.node_starts[n]..self.node_starts[n + 1]
        } else {
            // Node created after the last compaction: its rows (if any) are
            // still findable by binary search.
            let s = self.index.partition_point(|r| r.0 < node);
            let e = s + self.index[s..].partition_point(|r| r.0 <= node);
            s..e
        }
    }

    /// The cell value at `(node, profile)`, honoring pending overwrites.
    pub(crate) fn value(&self, column: &str, node: u32, profile: u32) -> Option<f64> {
        if !self.pending.rows.is_empty() {
            if let Some(pc) = self.pending.columns.get(column) {
                for (pos, &row) in self.pending.rows.iter().enumerate().rev() {
                    if row == (node, profile) {
                        if let Some(v) = pc.get(pos) {
                            return Some(v);
                        }
                    }
                }
            }
        }
        let col = self.columns.get(column)?;
        let r = self.node_range(node);
        let off = self.index[r.clone()].partition_point(|row| row.1 < profile);
        let pos = r.start + off;
        if pos < r.end && self.index[pos].1 == profile {
            col.get(pos)
        } else {
            None
        }
    }

    /// All observed `(profile, value)` pairs of `column` at `node`, profile
    /// ascending, honoring pending overwrites.
    pub(crate) fn node_values(&self, column: &str, node: u32) -> Vec<(u32, f64)> {
        let mut out: Vec<(u32, f64)> = Vec::new();
        if let Some(col) = self.columns.get(column) {
            for i in self.node_range(node) {
                if let Some(v) = col.get(i) {
                    out.push((self.index[i].1, v));
                }
            }
        }
        if !self.pending.rows.is_empty() {
            if let Some(pc) = self.pending.columns.get(column) {
                // Forward order: later appends overwrite earlier/base ones.
                for (pos, &(n, p)) in self.pending.rows.iter().enumerate() {
                    if n != node {
                        continue;
                    }
                    if let Some(v) = pc.get(pos) {
                        match out.binary_search_by_key(&p, |e| e.0) {
                            Ok(k) => out[k].1 = v,
                            Err(k) => out.insert(k, (p, v)),
                        }
                    }
                }
            }
        }
        out
    }

    /// Observed values of `column` over node `n`'s base slice (no pending;
    /// callers compact first). The allocation-free hot path under `stats`.
    pub(crate) fn node_column_values(&self, column: &str, node: u32) -> Vec<f64> {
        let Some(col) = self.columns.get(column) else {
            return Vec::new();
        };
        self.node_range(node)
            .filter_map(|i| col.get(i))
            .collect()
    }

    // --------------------------------------------------------- selections

    /// Sub-frame of rows whose profile is in `keep`.
    /// Requires a compacted frame; the output is compacted. Columns
    /// left with no observed value are dropped, matching the row engine's
    /// filter semantics. The row scan and per-column gathers are chunk
    /// parallel with deterministic chunk-ordered concatenation.
    pub(crate) fn select_profiles(&self, keep: &[u32], nnodes: usize) -> Frame {
        debug_assert!(self.pending.rows.is_empty());
        let kept = IdSet::new(keep);
        let keep_pos = par_filter_positions(self.index.len(), |i| kept.contains(self.index[i].1));
        let index: Vec<Row> = keep_pos.iter().map(|&i| self.index[i]).collect();
        let names: Vec<&String> = self.columns.keys().collect();
        let gathered: Vec<Column> = (0..names.len())
            .into_par_iter()
            .map(|c| {
                let src = &self.columns[names[c]];
                let mut col = Column::default();
                for &i in &keep_pos {
                    match src.get(i) {
                        Some(v) => col.push_valid(v),
                        None => col.push_invalid(),
                    }
                }
                col
            })
            .collect();
        let mut columns = BTreeMap::new();
        for (name, col) in names.into_iter().zip(gathered) {
            if col.observed() > 0 {
                columns.insert(name.clone(), col);
            }
        }
        let mut f = Frame {
            index,
            node_starts: Vec::new(),
            columns,
            pending: Pending::default(),
        };
        f.rebuild_node_starts(nnodes);
        f
    }

    /// Construct directly from parts (the `.tkt` reader).
    pub(crate) fn from_parts(
        index: Vec<Row>,
        columns: BTreeMap<String, Column>,
        nnodes: usize,
    ) -> Frame {
        let mut f = Frame {
            index,
            node_starts: Vec::new(),
            columns,
            pending: Pending::default(),
        };
        f.rebuild_node_starts(nnodes);
        f
    }
}

/// Positions `i in 0..n` satisfying `pred`, ascending. Chunk-parallel:
/// each chunk filters its sub-range locally and the per-chunk hit lists
/// are concatenated in chunk order, so the result is independent of the
/// pool width.
/// A set of `u32` ids with O(1) membership: open addressing with linear
/// probing over a power-of-two table at most half full, so it is sized by
/// the number of ids, never by their values.
struct IdSet {
    /// `u64::MAX` marks an empty slot; no `u32` id equals it.
    slots: Vec<u64>,
    shift: u32,
}

impl IdSet {
    fn new(ids: &[u32]) -> IdSet {
        let cap = (ids.len() * 2).next_power_of_two().max(2);
        let mut set = IdSet {
            slots: vec![u64::MAX; cap],
            shift: 64 - cap.trailing_zeros(),
        };
        for &id in ids {
            let s = set.probe(id);
            set.slots[s] = u64::from(id);
        }
        set
    }

    /// The slot holding `id`, or the empty slot where it would go.
    fn probe(&self, id: u32) -> usize {
        let mask = self.slots.len() - 1;
        // Fibonacci hashing: the top bits of a multiplicative hash.
        let mut s = (u64::from(id).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize;
        while self.slots[s] != u64::MAX && self.slots[s] != u64::from(id) {
            s = (s + 1) & mask;
        }
        s
    }

    fn contains(&self, id: u32) -> bool {
        self.slots[self.probe(id)] != u64::MAX
    }
}

fn par_filter_positions(n: usize, pred: impl Fn(usize) -> bool + Sync) -> Vec<usize> {
    const CHUNK: usize = 64 * 1024;
    if n <= CHUNK {
        return (0..n).filter(|&i| pred(i)).collect();
    }
    let nchunks = n.div_ceil(CHUNK);
    let parts: Vec<Vec<usize>> = (0..nchunks)
        .into_par_iter()
        .map(|c| {
            (c * CHUNK..((c + 1) * CHUNK).min(n))
                .filter(|&i| pred(i))
                .collect()
        })
        .collect();
    parts.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Append one row at `(node, profile)`: its cells by column name.
    fn append(f: &mut Frame, node: u32, profile: u32, cells: &[(&str, f64)]) {
        let names: Vec<String> = cells.iter().map(|&(k, _)| k.to_string()).collect();
        let ids: Vec<(usize, f64)> = cells.iter().map(|&(_, v)| v).enumerate().collect();
        f.append_cells(profile, &[(node, &ids)], &names);
    }

    #[test]
    fn append_then_compact_sorts_node_major() {
        let mut f = Frame::default();
        append(&mut f, 2, 0, &[("t", 1.0)]);
        append(&mut f, 0, 1, &[("t", 2.0)]);
        append(&mut f, 0, 0, &[("t", 3.0)]);
        f.compact(3);
        assert_eq!(f.rows(), &[(0, 0), (0, 1), (2, 0)]);
        assert_eq!(f.value("t", 0, 0), Some(3.0));
        assert_eq!(f.value("t", 2, 0), Some(1.0));
        assert_eq!(f.node_range(1), 2..2, "empty node range");
    }

    #[test]
    fn duplicate_cell_last_write_wins_per_column() {
        let mut f = Frame::default();
        append(&mut f, 0, 0, &[("a", 1.0), ("b", 10.0)]);
        append(&mut f, 0, 0, &[("a", 2.0)]);
        // Pre-compaction reads already see the overwrite...
        assert_eq!(f.value("a", 0, 0), Some(2.0));
        assert_eq!(f.value("b", 0, 0), Some(10.0), "b not overwritten");
        f.compact(1);
        // ...and compaction preserves it.
        assert_eq!(f.rows().len(), 1);
        assert_eq!(f.value("a", 0, 0), Some(2.0));
        assert_eq!(f.value("b", 0, 0), Some(10.0));
    }

    #[test]
    fn pending_reads_match_compacted_reads() {
        let mut f = Frame::default();
        append(&mut f, 1, 3, &[("t", 1.0)]);
        append(&mut f, 1, 1, &[("t", 2.0)]);
        append(&mut f, 0, 2, &[("u", 9.0)]);
        let before = f.node_values("t", 1);
        f.compact(2);
        assert_eq!(before, f.node_values("t", 1));
        assert_eq!(before, vec![(1, 2.0), (3, 1.0)], "profile ascending");
    }

    #[test]
    fn select_profiles_drops_empty_columns() {
        let mut f = Frame::default();
        append(&mut f, 0, 0, &[("only0", 1.0)]);
        append(&mut f, 0, 1, &[("only1", 2.0)]);
        f.compact(1);
        let g = f.select_profiles(&[0], 1);
        assert_eq!(g.rows(), &[(0, 0)]);
        assert!(g.columns().contains_key("only0"));
        assert!(!g.columns().contains_key("only1"), "empty column dropped");
    }

    #[test]
    fn id_set_is_membership_whatever_the_ids() {
        let ids = [0, 1, 7, 64, 1 << 20, u32::MAX - 1, u32::MAX];
        for k in 0..=ids.len() {
            let set = IdSet::new(&ids[..k]);
            assert!(set.slots.len() <= 4 * k.max(1), "sized by the count");
            for (j, &id) in ids.iter().enumerate() {
                assert_eq!(set.contains(id), j < k, "{id} in the first {k}");
            }
            assert!(!set.contains(2) && !set.contains(u32::MAX - 2));
        }
    }

    #[test]
    fn geometric_trigger_scales_with_base() {
        let mut f = Frame::default();
        for i in 0..PENDING_MIN_ROWS as u32 {
            append(&mut f, 0, i, &[("t", 1.0)]);
        }
        assert!(f.should_compact());
        f.compact(1);
        append(&mut f, 0, 0, &[("t", 2.0)]);
        assert!(!f.should_compact(), "small pending over a large base waits");
    }
}
