//! A B+-tree keyed map whose nodes are [`PagePool`] pages.
//!
//! Keys and values are arbitrary byte strings ordered lexicographically
//! (the codecs in [`super::codec`] are designed so that byte order equals
//! the domain order). Entries live exclusively in leaf pages as sorted
//! variable-length cells; interior pages hold separator keys and child
//! page ids. Leaves are chained through a `next` pointer, so a range scan
//! is one tree descent plus a linked-list walk — O(page) per page served,
//! independent of the map's size.
//!
//! Node layout (all integers little-endian):
//!
//! ```text
//! leaf:     [type=1][count u16][used u16][next u32]     then cells:
//!           [klen u16][vlen u16][key][value]
//! interior: [type=2][count u16][used u16][child0 u32]   then cells:
//!           [klen u16][child u32][key]
//! ```
//!
//! `used` is the byte offset one past the last cell. An interior node
//! with cells `(k1,c1)…(kn,cn)` routes `key < k1` to `child0` and
//! `ki ≤ key < ki+1` to `ci`. A cell is capped at a quarter page
//! ([`max_entry_bytes`]), which guarantees both halves of any overflow
//! split fit in fresh pages. Deletion never merges or frees nodes —
//! emptied leaves stay chained and are refilled by later inserts — so no
//! operation other than a split, or the first insert into an empty map,
//! ever allocates.
//!
//! [`Appender`] builds a map from entries in ascending key order, as a
//! snapshot restore does: each entry is written at the end of the
//! rightmost leaf, and an overflow takes the same split as
//! [`PagedMap::insert`], so the pages come out exactly as repeated
//! inserts would leave them.

// icbtc-lint: allow-file(unmetered-loop) -- invariant: every loop here walks cells of a single 8 KiB page or descends a tree of depth O(log n); the per-entry cost is charged by UtxoSet at the call boundary (INSERT_OUTPUT_BASE / REMOVE_INPUT_BASE / STABLE_UTXO_FETCH), calibrated to include the page walks

use super::page::{PagePool, NO_PAGE};
use super::StorageError;

const NODE_LEAF: u8 = 1;
const NODE_INNER: u8 = 2;

/// Node header bytes: type(1) + count(2) + used(2) + link(4). The link is
/// the next-leaf pointer in leaves and the leftmost child in interior
/// nodes.
pub(crate) const NODE_HEADER_BYTES: usize = 9;

/// Largest admissible leaf cell (`4 + key + value`) for a page size: a
/// quarter of the cell area, so a split of an overflowing node always
/// yields two halves that fit.
pub(crate) fn max_entry_bytes(page_size: usize) -> usize {
    (page_size - NODE_HEADER_BYTES) / 4
}

fn u16_at(page: &[u8], off: usize) -> usize {
    u16::from_le_bytes([page[off], page[off + 1]]) as usize
}

fn u32_at(page: &[u8], off: usize) -> u32 {
    u32::from_le_bytes([page[off], page[off + 1], page[off + 2], page[off + 3]])
}

fn put_u16(page: &mut [u8], off: usize, v: usize) {
    page[off..off + 2].copy_from_slice(&(v as u16).to_le_bytes());
}

fn put_u32(page: &mut [u8], off: usize, v: u32) {
    page[off..off + 4].copy_from_slice(&v.to_le_bytes());
}

fn node_count(page: &[u8]) -> usize {
    u16_at(page, 1)
}

fn node_used(page: &[u8]) -> usize {
    u16_at(page, 3)
}

fn node_link(page: &[u8]) -> u32 {
    u32_at(page, 5)
}

fn set_header(page: &mut [u8], count: usize, used: usize, link: u32) {
    put_u16(page, 1, count);
    put_u16(page, 3, used);
    put_u32(page, 5, link);
}

fn init_node(page: &mut [u8], node_type: u8, link: u32) {
    page[0] = node_type;
    set_header(page, 0, NODE_HEADER_BYTES, link);
}

/// Decodes the leaf cell at `off`: `(key, value, next_cell_offset)`.
fn leaf_cell(page: &[u8], off: usize) -> (&[u8], &[u8], usize) {
    let klen = u16_at(page, off);
    let vlen = u16_at(page, off + 2);
    let key_start = off + 4;
    let val_start = key_start + klen;
    (&page[key_start..val_start], &page[val_start..val_start + vlen], val_start + vlen)
}

/// Byte length of the cell at `off` in a leaf or interior node.
fn cell_len(page: &[u8], off: usize) -> usize {
    match page[0] {
        NODE_LEAF => 4 + u16_at(page, off) + u16_at(page, off + 2),
        _ => 6 + u16_at(page, off),
    }
}

/// Key of the cell at `off` in a leaf or interior node.
fn cell_key(page: &[u8], off: usize) -> &[u8] {
    let start = off + if page[0] == NODE_LEAF { 4 } else { 6 };
    &page[start..start + u16_at(page, off)]
}

/// Finds `key` in a leaf: `(found, cell_offset, cell_index)`. On a miss
/// the offset/index are the sorted insertion position.
fn leaf_seek(page: &[u8], key: &[u8]) -> (bool, usize, usize) {
    let used = node_used(page);
    let mut off = NODE_HEADER_BYTES;
    let mut idx = 0;
    while off < used {
        let (cell_key, _, next) = leaf_cell(page, off);
        match cell_key.cmp(key) {
            std::cmp::Ordering::Less => {
                off = next;
                idx += 1;
            }
            std::cmp::Ordering::Equal => return (true, off, idx),
            std::cmp::Ordering::Greater => return (false, off, idx),
        }
    }
    (false, off, idx)
}

/// Routes `key` through an interior node: `(child_page, child_index,
/// offset)` where index 0 is the leftmost child and `offset` is where a
/// separator split off that child goes (cell `child_index`'s offset).
fn inner_search(page: &[u8], key: &[u8]) -> (u32, usize, usize) {
    let used = node_used(page);
    let mut child = node_link(page);
    let mut idx = 0;
    let mut off = NODE_HEADER_BYTES;
    while off < used {
        let klen = u16_at(page, off);
        let sep = &page[off + 6..off + 6 + klen];
        if key < sep {
            break;
        }
        child = u32_at(page, off + 2);
        idx += 1;
        off += 6 + klen;
    }
    (child, idx, off)
}

/// A cell on its way into a node: a leaf entry or an interior separator.
#[derive(Clone, Copy)]
enum Cell<'a> {
    Leaf { key: &'a [u8], value: &'a [u8] },
    Inner { sep: &'a [u8], child: u32 },
}

impl Cell<'_> {
    fn len(&self) -> usize {
        match self {
            Cell::Leaf { key, value } => 4 + key.len() + value.len(),
            Cell::Inner { sep, .. } => 6 + sep.len(),
        }
    }

    fn key(&self) -> &[u8] {
        match self {
            Cell::Leaf { key, .. } => key,
            Cell::Inner { sep, .. } => sep,
        }
    }
}

/// Removes `len` cell bytes at `off` by sliding the tail left.
fn splice_remove(page: &mut [u8], off: usize, len: usize) {
    let used = node_used(page);
    let count = node_count(page);
    page.copy_within(off + len..used, off);
    put_u16(page, 3, used - len);
    put_u16(page, 1, count - 1);
}

/// Inserts `cell` at `off` by sliding the tail right. The caller has
/// checked it fits.
fn splice_insert(page: &mut [u8], off: usize, cell: Cell<'_>) {
    let used = node_used(page);
    let count = node_count(page);
    let len = cell.len();
    page.copy_within(off..used, off + len);
    match cell {
        Cell::Leaf { key, value } => {
            put_u16(page, off, key.len());
            put_u16(page, off + 2, value.len());
            page[off + 4..off + 4 + key.len()].copy_from_slice(key);
            page[off + 4 + key.len()..off + len].copy_from_slice(value);
        }
        Cell::Inner { sep, child } => {
            put_u16(page, off, sep.len());
            put_u32(page, off + 2, child);
            page[off + 6..off + len].copy_from_slice(sep);
        }
    }
    put_u16(page, 3, used + len);
    put_u16(page, 1, count + 1);
}

/// Where an overflowing node splits once a cell of `pending` bytes joins
/// it at cell index `at`: the first index past the byte midpoint of all
/// its cells, clamped so both halves are non-empty. With cells capped at
/// a quarter page, both halves always fit a fresh page.
///
/// Returns `(index, cut, kept)`: `cut` is the offset of the node's first
/// own cell at or past that index (`used` if none), and `kept` is how
/// many of its own cells lie before `cut`.
fn split_point(page: &[u8], at: usize, pending: usize) -> (usize, usize, usize) {
    let count = node_count(page);
    let total = node_used(page) - NODE_HEADER_BYTES + pending;
    let mut acc = 0;
    let mut off = NODE_HEADER_BYTES;
    for i in 0..count {
        if i == at {
            acc += pending;
        } else {
            let len = cell_len(page, off);
            acc += len;
            off += len;
        }
        if acc >= total / 2 {
            return (i + 1, off, i + 1 - usize::from(at <= i));
        }
    }
    (count, off, count - usize::from(at < count))
}

/// Splits the full node `left` into itself and the fresh page `right`
/// (id `right_id`) while inserting `cell` at offset `off`, cell index
/// `at`. With `s` the [`split_point`] index over the node's cells and
/// `cell` together, a leaf keeps cells `..s`, `right` takes `s..` and is
/// chained in after `left`; an interior node keeps `..s`, cell `s` moves
/// up and leaves its child as `right`'s leftmost child, and `right` takes
/// `s + 1..`. Each half moves as one byte range.
///
/// Returns the separator for the parent (cell `s`'s key) and whether
/// `cell` went right of `left`: into `right`, or up as that separator.
fn split(
    left: &mut [u8],
    right: &mut [u8],
    right_id: u32,
    off: usize,
    at: usize,
    cell: Cell<'_>,
) -> (Vec<u8>, bool) {
    let leaf = left[0] == NODE_LEAF;
    let count = node_count(left);
    let used = node_used(left);
    let (s, cut, kept) = split_point(left, at, cell.len());
    let sep = if s == at { cell.key() } else { cell_key(left, cut) }.to_vec();
    // An interior node's own cell at the split moves up: `right` starts
    // past it and inherits its child.
    let (moved_up, right_link) = match cell {
        _ if leaf => (0, node_link(left)),
        Cell::Inner { child, .. } if s == at => (0, child),
        _ => (cell_len(left, cut), u32_at(left, cut + 2)),
    };
    let from = cut + moved_up;
    right[0] = left[0];
    right[NODE_HEADER_BYTES..NODE_HEADER_BYTES + used - from].copy_from_slice(&left[from..used]);
    let right_count = count - kept - usize::from(moved_up > 0);
    set_header(right, right_count, NODE_HEADER_BYTES + used - from, right_link);
    let left_link = if leaf { right_id } else { node_link(left) };
    set_header(left, kept, cut, left_link);
    if s > at {
        splice_insert(left, off, cell);
    } else if s < at || leaf {
        splice_insert(right, NODE_HEADER_BYTES + off - from, cell);
    }
    (sep, s <= at)
}

/// One interior node on a root-to-leaf path: its page, and the cell
/// index and offset where a separator promoted from below goes.
#[derive(Clone, Copy, Debug)]
struct Step {
    page: u32,
    at: usize,
    off: usize,
}

impl Step {
    /// The step that appends to interior node `page`.
    fn at_end(pool: &PagePool, page: u32) -> Step {
        let node = pool.page(page);
        Step { page, at: node_count(node), off: node_used(node) }
    }
}

/// A B+-tree map over pages of an external [`PagePool`].
///
/// The handle itself is three integers; all node state lives in the pool,
/// which is passed into every operation. That lets several maps (the
/// UTXO set's outpoint map and address index) share one budgeted pool.
#[derive(Clone, Copy, Debug)]
pub struct PagedMap {
    root: u32,
    len: u64,
    entry_bytes: u64,
}

impl Default for PagedMap {
    fn default() -> PagedMap {
        PagedMap::new()
    }
}

impl PagedMap {
    /// Creates an empty map. No pages are allocated until first insert.
    pub fn new() -> PagedMap {
        PagedMap { root: NO_PAGE, len: 0, entry_bytes: 0 }
    }

    /// Number of entries.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Returns `true` if the map holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Serialized key+value bytes across all entries.
    pub fn entry_bytes(&self) -> u64 {
        self.entry_bytes
    }

    /// Bytes the entries occupy as leaf cells (entry bytes plus the
    /// 4-byte cell header each).
    pub fn cell_bytes(&self) -> u64 {
        self.entry_bytes + 4 * self.len
    }

    /// Descends to the leaf page that would hold `key`.
    fn find_leaf(&self, pool: &PagePool, key: &[u8]) -> u32 {
        let mut page_id = self.root;
        loop {
            let page = pool.page(page_id);
            if page[0] == NODE_LEAF {
                return page_id;
            }
            page_id = inner_search(page, key).0;
        }
    }

    /// Looks up `key`, returning the stored value in place.
    pub fn get<'a>(&self, pool: &'a PagePool, key: &[u8]) -> Option<&'a [u8]> {
        if self.root == NO_PAGE {
            return None;
        }
        let page = pool.page(self.find_leaf(pool, key));
        let (found, off, _) = leaf_seek(page, key);
        if !found {
            return None;
        }
        let (_, value, _) = leaf_cell(page, off);
        Some(value)
    }

    /// Inserts `key → value`, returning the previous value if any.
    ///
    /// # Errors
    ///
    /// [`StorageError::EntryTooLarge`] if the cell exceeds a quarter
    /// page; [`StorageError::BudgetExhausted`] if a node split would
    /// allocate past the pool budget. Budget checks run *before* any
    /// page is modified, so a failed insert leaves the map unchanged.
    pub fn insert(
        &mut self,
        pool: &mut PagePool,
        key: &[u8],
        value: &[u8],
    ) -> Result<Option<Vec<u8>>, StorageError> {
        let cell = Cell::Leaf { key, value };
        check_cell_len(pool, cell)?;
        if self.root == NO_PAGE {
            self.plant(pool, cell)?;
            return Ok(None);
        }

        // Descend, remembering where each interior node takes a
        // separator for the child we took, so a split can push its
        // separator into the right parent slot.
        let mut path = Vec::new();
        let mut page_id = self.root;
        loop {
            let page = pool.page(page_id);
            if page[0] == NODE_LEAF {
                break;
            }
            let (child, at, off) = inner_search(page, key);
            path.push(Step { page: page_id, at, off });
            page_id = child;
        }

        let page = pool.page(page_id);
        let (found, off, at) = leaf_seek(page, key);
        let mut old_value = None;
        let mut removed = 0usize;
        if found {
            let (_, value, next) = leaf_cell(page, off);
            old_value = Some(value.to_vec());
            removed = next - off;
        }
        // A split allocates at worst one page per tree level plus a new
        // root; pre-flight the budget so nothing is half-written when it
        // fails.
        if node_used(page) - removed + cell.len() > pool.page_size()
            && !pool.can_allocate(path.len() + 2)
        {
            return Err(pool.budget_error(path.len() + 2));
        }
        if removed > 0 {
            splice_remove(pool.page_mut(page_id), off, removed);
        }
        self.place(pool, &mut path, page_id, off, at, cell)?;
        match &old_value {
            Some(old) => {
                self.entry_bytes = self.entry_bytes - old.len() as u64 + value.len() as u64;
            }
            None => self.account_new(cell),
        }
        Ok(old_value)
    }

    /// Counts a new entry of leaf cell `cell`.
    fn account_new(&mut self, cell: Cell<'_>) {
        self.len += 1;
        self.entry_bytes += cell.len() as u64 - 4;
    }

    /// Allocates the root leaf of an empty map and puts `cell` in it.
    fn plant(&mut self, pool: &mut PagePool, cell: Cell<'_>) -> Result<u32, StorageError> {
        let id = pool.allocate()?;
        let page = pool.page_mut(id);
        init_node(page, NODE_LEAF, NO_PAGE);
        splice_insert(page, NODE_HEADER_BYTES, cell);
        self.root = id;
        self.account_new(cell);
        Ok(id)
    }

    /// Puts `cell` into leaf `leaf` at offset `off`, cell index `at`: in
    /// place when it fits (at most one memmove, no allocation), otherwise
    /// by splitting the leaf and promoting its separator up `path`, the
    /// interior nodes above it. A split must have been pre-flighted
    /// against the budget. Returns the leaf that now holds `cell`.
    fn place(
        &mut self,
        pool: &mut PagePool,
        path: &mut Vec<Step>,
        leaf: u32,
        off: usize,
        at: usize,
        cell: Cell<'_>,
    ) -> Result<u32, StorageError> {
        if node_used(pool.page(leaf)) + cell.len() <= pool.page_size() {
            splice_insert(pool.page_mut(leaf), off, cell);
            return Ok(leaf);
        }
        let right = pool.allocate()?;
        let (left_page, right_page) = pool.pages_mut(leaf, right);
        let (sep, went_right) = split(left_page, right_page, right, off, at, cell);
        self.promote(pool, path, sep, right)?;
        Ok(if went_right { right } else { leaf })
    }

    /// Pushes a split's separator up `path`, splitting interior nodes
    /// (and finally the root) as needed. Each node that splits with the
    /// new separator going right is replaced in `path` by its right
    /// half, and a new root is prepended, so `path` ends up leading to
    /// `right`. The budget was pre-flighted, so allocations here cannot
    /// fail.
    fn promote(
        &mut self,
        pool: &mut PagePool,
        path: &mut Vec<Step>,
        mut sep: Vec<u8>,
        mut right: u32,
    ) -> Result<(), StorageError> {
        for step in path.iter_mut().rev() {
            let cell = Cell::Inner { sep: &sep, child: right };
            if node_used(pool.page(step.page)) + cell.len() <= pool.page_size() {
                splice_insert(pool.page_mut(step.page), step.off, cell);
                return Ok(());
            }
            let right_id = pool.allocate()?;
            let (left_page, right_page) = pool.pages_mut(step.page, right_id);
            let (promoted, went_right) =
                split(left_page, right_page, right_id, step.off, step.at, cell);
            if went_right {
                step.page = right_id;
            }
            sep = promoted;
            right = right_id;
        }
        let new_root = pool.allocate()?;
        let page = pool.page_mut(new_root);
        init_node(page, NODE_INNER, self.root);
        splice_insert(page, NODE_HEADER_BYTES, Cell::Inner { sep: &sep, child: right });
        self.root = new_root;
        path.insert(0, Step::at_end(pool, new_root));
        Ok(())
    }

    /// Removes `key`, returning its value. Never allocates: emptied
    /// leaves stay chained (scans skip them) and refill on later inserts.
    pub fn remove(&mut self, pool: &mut PagePool, key: &[u8]) -> Option<Vec<u8>> {
        if self.root == NO_PAGE {
            return None;
        }
        let page_id = self.find_leaf(pool, key);
        let page = pool.page(page_id);
        let (found, off, _) = leaf_seek(page, key);
        if !found {
            return None;
        }
        let (cell_key, value, next) = leaf_cell(page, off);
        let old = value.to_vec();
        let entry = (cell_key.len() + old.len()) as u64;
        let cell = next - off;
        splice_remove(pool.page_mut(page_id), off, cell);
        self.len -= 1;
        self.entry_bytes -= entry;
        Some(old)
    }

    /// Iterates entries with `key ≥ start` in ascending key order:
    /// one descent, then a walk along the leaf chain.
    pub fn range_from<'a>(&self, pool: &'a PagePool, start: &[u8]) -> Scan<'a> {
        if self.root == NO_PAGE {
            return Scan { pool, page: NO_PAGE, offset: NODE_HEADER_BYTES };
        }
        let page_id = self.find_leaf(pool, start);
        let page = pool.page(page_id);
        let (_, off, _) = leaf_seek(page, start);
        Scan { pool, page: page_id, offset: off }
    }

    /// Iterates all entries in ascending key order.
    pub fn iter<'a>(&self, pool: &'a PagePool) -> Scan<'a> {
        self.range_from(pool, &[])
    }
}

/// Rejects a leaf cell over [`max_entry_bytes`].
fn check_cell_len(pool: &PagePool, cell: Cell<'_>) -> Result<(), StorageError> {
    let max = max_entry_bytes(pool.page_size());
    if cell.len() > max {
        return Err(StorageError::EntryTooLarge { entry_bytes: cell.len(), max_bytes: max });
    }
    Ok(())
}

/// Builds a [`PagedMap`] from entries in strictly ascending key order.
///
/// It keeps the map's rightmost root-to-leaf path, so an entry costs no
/// descent and no leaf seek: it is written at the rightmost leaf's `used`
/// offset. A full leaf splits through the same routine as
/// [`PagedMap::insert`], after the same budget pre-flight, so every
/// allocation, split and page byte up to each node's `used` offset, and
/// every error, is what inserting the same entries one by one gives.
#[derive(Debug)]
pub(crate) struct Appender {
    map: PagedMap,
    /// Interior nodes of the rightmost path, root first.
    path: Vec<Step>,
    /// The rightmost leaf, once the map has one.
    leaf: u32,
}

impl Appender {
    /// Starts an empty map.
    pub(crate) fn new() -> Appender {
        Appender { map: PagedMap::new(), path: Vec::new(), leaf: NO_PAGE }
    }

    /// Appends `key → value`. `key` must sort above every key appended
    /// before it.
    ///
    /// # Errors
    ///
    /// As [`PagedMap::insert`], at the same entry and with the same
    /// values; the map built so far is left intact.
    pub(crate) fn append(
        &mut self,
        pool: &mut PagePool,
        key: &[u8],
        value: &[u8],
    ) -> Result<(), StorageError> {
        let cell = Cell::Leaf { key, value };
        check_cell_len(pool, cell)?;
        if self.leaf == NO_PAGE {
            self.leaf = self.map.plant(pool, cell)?;
            return Ok(());
        }
        let page = pool.page(self.leaf);
        let (at, off) = (node_count(page), node_used(page));
        if off + cell.len() > pool.page_size() {
            if !pool.can_allocate(self.path.len() + 2) {
                return Err(pool.budget_error(self.path.len() + 2));
            }
            for step in &mut self.path {
                *step = Step::at_end(pool, step.page);
            }
        }
        self.leaf = self.map.place(pool, &mut self.path, self.leaf, off, at, cell)?;
        self.map.account_new(cell);
        Ok(())
    }

    /// The map built so far.
    pub(crate) fn finish(self) -> PagedMap {
        self.map
    }
}

/// Ascending iterator over `(key, value)` slices living in pool pages.
pub struct Scan<'a> {
    pool: &'a PagePool,
    page: u32,
    offset: usize,
}

impl<'a> Iterator for Scan<'a> {
    type Item = (&'a [u8], &'a [u8]);

    fn next(&mut self) -> Option<(&'a [u8], &'a [u8])> {
        loop {
            if self.page == NO_PAGE {
                return None;
            }
            let page = self.pool.page(self.page);
            if self.offset >= node_used(page) {
                self.page = node_link(page);
                self.offset = NODE_HEADER_BYTES;
                continue;
            }
            let (key, value, next) = leaf_cell(page, self.offset);
            self.offset = next;
            return Some((key, value));
        }
    }
}

/// A node's live bytes: its header and cells up to `used`.
#[cfg(test)]
pub(crate) fn live_bytes(page: &[u8]) -> &[u8] {
    &page[..node_used(page)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::StorageConfig;
    use icbtc_sim::{testkit, SimRng};
    use std::collections::BTreeMap;

    fn small_pool() -> PagePool {
        // Tiny pages force deep trees and frequent splits.
        PagePool::new(StorageConfig { page_size: 512, byte_budget: 16 << 20 })
    }

    fn key(n: u64) -> Vec<u8> {
        n.to_be_bytes().to_vec()
    }

    #[test]
    fn insert_get_replace_remove() {
        let mut pool = small_pool();
        let mut map = PagedMap::new();
        assert_eq!(map.insert(&mut pool, b"alpha", b"1"), Ok(None));
        assert_eq!(map.insert(&mut pool, b"beta", b"2"), Ok(None));
        assert_eq!(map.get(&pool, b"alpha"), Some(&b"1"[..]));
        assert_eq!(map.insert(&mut pool, b"alpha", b"one"), Ok(Some(b"1".to_vec())));
        assert_eq!(map.get(&pool, b"alpha"), Some(&b"one"[..]));
        assert_eq!(map.len(), 2);
        assert_eq!(map.remove(&mut pool, b"alpha"), Some(b"one".to_vec()));
        assert_eq!(map.get(&pool, b"alpha"), None);
        assert_eq!(map.remove(&mut pool, b"alpha"), None);
        assert_eq!(map.len(), 1);
    }

    #[test]
    fn default_is_the_empty_map() {
        let mut pool = small_pool();
        let mut map = PagedMap::default();
        assert_eq!(map.get(&pool, b"k"), None);
        assert_eq!(map.insert(&mut pool, b"k", b"v"), Ok(None));
        assert_eq!(map.get(&pool, b"k"), Some(&b"v"[..]));
    }

    #[test]
    fn splits_preserve_order_and_content() {
        let mut pool = small_pool();
        let mut map = PagedMap::new();
        // Interleaved insert order exercises left, right and middle splits.
        for n in (0..2000u64).step_by(2).chain((1..2000).step_by(2)) {
            map.insert(&mut pool, &key(n), &key(n * 7)).unwrap();
        }
        assert_eq!(map.len(), 2000);
        assert!(pool.pages_allocated() > 10, "tree must actually page out");
        for n in 0..2000u64 {
            assert_eq!(map.get(&pool, &key(n)), Some(&key(n * 7)[..]), "key {n}");
        }
        let keys: Vec<u64> =
            map.iter(&pool).map(|(k, _)| u64::from_be_bytes(k.try_into().unwrap())).collect();
        assert_eq!(keys, (0..2000).collect::<Vec<u64>>());
    }

    #[test]
    fn range_from_lands_on_the_first_key_geq_start() {
        let mut pool = small_pool();
        let mut map = PagedMap::new();
        for n in (0..500u64).map(|n| n * 10) {
            map.insert(&mut pool, &key(n), b"v").unwrap();
        }
        let from_35: Vec<u64> = map
            .range_from(&pool, &key(35))
            .map(|(k, _)| u64::from_be_bytes(k.try_into().unwrap()))
            .take(3)
            .collect();
        assert_eq!(from_35, vec![40, 50, 60]);
        // Exact hit starts at the key itself.
        let from_40: Vec<u64> = map
            .range_from(&pool, &key(40))
            .map(|(k, _)| u64::from_be_bytes(k.try_into().unwrap()))
            .take(2)
            .collect();
        assert_eq!(from_40, vec![40, 50]);
        // Past the end yields nothing.
        assert_eq!(map.range_from(&pool, &key(1_000_000)).count(), 0);
    }

    #[test]
    fn emptied_leaves_are_skipped_by_scans_and_refilled() {
        let mut pool = small_pool();
        let mut map = PagedMap::new();
        for n in 0..600u64 {
            map.insert(&mut pool, &key(n), &[0u8; 24]).unwrap();
        }
        // Hollow out the middle so whole leaves go empty.
        for n in 150..450u64 {
            assert!(map.remove(&mut pool, &key(n)).is_some());
        }
        let pages_after_removal = pool.pages_allocated();
        let keys: Vec<u64> =
            map.iter(&pool).map(|(k, _)| u64::from_be_bytes(k.try_into().unwrap())).collect();
        let expected: Vec<u64> = (0..150).chain(450..600).collect();
        assert_eq!(keys, expected);
        // Re-inserting the hollowed range reuses the emptied cells
        // without growing the tree.
        for n in 150..450u64 {
            map.insert(&mut pool, &key(n), &[0u8; 24]).unwrap();
        }
        assert_eq!(pool.pages_allocated(), pages_after_removal);
        assert_eq!(map.len(), 600);
    }

    #[test]
    fn oversized_entries_are_rejected() {
        let mut pool = small_pool();
        let mut map = PagedMap::new();
        let max = max_entry_bytes(pool.page_size());
        let fat = vec![0xAA; max];
        let err = map.insert(&mut pool, b"k", &fat).unwrap_err();
        assert!(matches!(err, StorageError::EntryTooLarge { .. }), "{err:?}");
        assert_eq!(map.len(), 0);
        // Right at the cap is fine.
        let fits = vec![0xAA; max - 4 - 1];
        assert_eq!(map.insert(&mut pool, b"k", &fits), Ok(None));
    }

    #[test]
    fn budget_exhaustion_fails_before_mutating() {
        let mut pool = PagePool::new(StorageConfig { page_size: 512, byte_budget: 2 * 512 });
        let mut map = PagedMap::new();
        let mut n = 0u64;
        let err = loop {
            match map.insert(&mut pool, &key(n), &[0u8; 16]) {
                Ok(_) => n += 1,
                Err(err) => break err,
            }
        };
        assert!(matches!(err, StorageError::BudgetExhausted { .. }), "{err:?}");
        // Every entry inserted before the failure is still intact.
        assert_eq!(map.len(), n);
        for m in 0..n {
            assert_eq!(map.get(&pool, &key(m)), Some(&[0u8; 16][..]), "key {m}");
        }
    }

    #[test]
    fn matches_btreemap_on_random_operation_sequences() {
        testkit::check(0x57_0001, testkit::DEFAULT_CASES, |rng| {
            let mut pool = small_pool();
            let mut map = PagedMap::new();
            let mut oracle: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
            let ops = testkit::u64_in(rng, 50..400);
            for _ in 0..ops {
                let k = key(testkit::u64_in(rng, 0..120));
                match testkit::u64_in(rng, 0..10) {
                    0..=5 => {
                        let v = vec![rng.below(256) as u8; testkit::u64_in(rng, 1..40) as usize];
                        assert_eq!(map.insert(&mut pool, &k, &v).unwrap(), oracle.insert(k, v));
                    }
                    6..=8 => {
                        assert_eq!(map.remove(&mut pool, &k), oracle.remove(&k));
                    }
                    _ => {
                        assert_eq!(map.get(&pool, &k).map(<[u8]>::to_vec), oracle.get(&k).cloned());
                    }
                }
            }
            assert_eq!(map.len() as usize, oracle.len());
            let got: Vec<(Vec<u8>, Vec<u8>)> =
                map.iter(&pool).map(|(k, v)| (k.to_vec(), v.to_vec())).collect();
            let want: Vec<(Vec<u8>, Vec<u8>)> =
                oracle.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
            assert_eq!(got, want);
            let total: u64 = oracle.iter().map(|(k, v)| (k.len() + v.len()) as u64).sum();
            assert_eq!(map.entry_bytes(), total);
        });
    }

    /// Every page's live bytes: the node header and cells up to `used`.
    fn live_pages(pool: &PagePool) -> Vec<Vec<u8>> {
        (0..pool.pages_allocated() as u32).map(|id| live_bytes(pool.page(id)).to_vec()).collect()
    }

    fn assert_same_tree(a: (&PagedMap, &PagePool), b: (&PagedMap, &PagePool)) {
        assert_eq!(a.0.len(), b.0.len());
        assert_eq!(a.0.entry_bytes(), b.0.entry_bytes());
        assert_eq!(a.0.root, b.0.root);
        assert_eq!(a.1.pages_allocated(), b.1.pages_allocated());
        assert_eq!(live_pages(a.1), live_pages(b.1));
    }

    /// A strictly ascending stream of entries with key and value lengths
    /// drawn up to the cell cap of `pool`'s pages.
    fn ascending_entries(rng: &mut SimRng, pool: &PagePool, n: usize) -> Vec<(Vec<u8>, Vec<u8>)> {
        let max = max_entry_bytes(pool.page_size());
        let mut keys: Vec<Vec<u8>> = (0..n).map(|_| testkit::bytes(rng, 1..max / 2)).collect();
        keys.sort();
        keys.dedup();
        keys.into_iter()
            .map(|key| {
                let value = testkit::bytes(rng, 0..max - 4 - key.len() + 1);
                (key, value)
            })
            .collect()
    }

    #[test]
    fn appends_lay_out_the_pages_repeated_inserts_do() {
        testkit::check(0x57_0002, 64, |rng| {
            let mut by_insert = small_pool();
            let mut by_append = small_pool();
            let n = testkit::usize_in(rng, 1..1500);
            let entries = ascending_entries(rng, &by_insert, n);
            let mut inserted = PagedMap::new();
            let mut appender = Appender::new();
            for (key, value) in &entries {
                assert_eq!(inserted.insert(&mut by_insert, key, value), Ok(None));
                appender.append(&mut by_append, key, value).unwrap();
            }
            let appended = appender.finish();
            assert_same_tree((&inserted, &by_insert), (&appended, &by_append));
            let scanned: Vec<(Vec<u8>, Vec<u8>)> =
                appended.iter(&by_append).map(|(k, v)| (k.to_vec(), v.to_vec())).collect();
            assert_eq!(scanned, entries);
        });
    }

    #[test]
    fn deep_appends_split_interior_nodes() {
        let mut pool = small_pool();
        let mut appender = Appender::new();
        for n in 0..3000u64 {
            appender.append(&mut pool, &key(n), &[7; 100]).unwrap();
        }
        let map = appender.finish();
        // At least three interior levels above the leaves: interior
        // nodes split, the root among them.
        let mut depth = 0;
        let mut page = map.root;
        while pool.page(page)[0] == NODE_INNER {
            depth += 1;
            page = node_link(pool.page(page));
        }
        assert!(depth >= 3, "depth {depth}");
        for n in (0..3000u64).step_by(7) {
            assert_eq!(map.get(&pool, &key(n)), Some(&[7; 100][..]), "key {n}");
        }
    }

    #[test]
    fn appends_fail_at_the_entry_and_with_the_error_inserts_do() {
        testkit::check(0x57_0003, 64, |rng| {
            let config =
                StorageConfig { page_size: 512, byte_budget: 512 * testkit::u64_in(rng, 1..40) };
            let mut by_insert = PagePool::new(config);
            let mut by_append = PagePool::new(config);
            let entries = ascending_entries(rng, &by_insert, 600);
            let mut inserted = PagedMap::new();
            let mut appender = Appender::new();
            let insert_failure = entries.iter().enumerate().find_map(|(i, (k, v))| {
                inserted.insert(&mut by_insert, k, v).err().map(|e| (i, e))
            });
            let append_failure = entries.iter().enumerate().find_map(|(i, (k, v))| {
                appender.append(&mut by_append, k, v).err().map(|e| (i, e))
            });
            assert_eq!(append_failure, insert_failure);
            assert_same_tree((&inserted, &by_insert), (&appender.finish(), &by_append));
        });
    }

    #[test]
    fn oversized_appends_are_rejected_like_inserts() {
        let mut pool = small_pool();
        let mut appender = Appender::new();
        let fat = vec![0xAA; max_entry_bytes(pool.page_size())];
        let err = appender.append(&mut pool, b"k", &fat).unwrap_err();
        assert_eq!(Err(err), PagedMap::new().insert(&mut small_pool(), b"k", &fat));
        assert_eq!(pool.pages_allocated(), 0);
    }

    /// The parse-and-rewrite insert the byte-level split replaced: each
    /// split parses the node into owned cells, inserts the new one and
    /// rewrites both halves. Kept as the reference the split must match.
    mod rewrite {
        use super::super::*;

        fn leaf_cells(page: &[u8]) -> Vec<(Vec<u8>, Vec<u8>)> {
            let used = node_used(page);
            let mut cells = Vec::with_capacity(node_count(page));
            let mut off = NODE_HEADER_BYTES;
            while off < used {
                let (key, value, next) = leaf_cell(page, off);
                cells.push((key.to_vec(), value.to_vec()));
                off = next;
            }
            cells
        }

        fn write_leaf(page: &mut [u8], cells: &[(Vec<u8>, Vec<u8>)], next: u32) {
            init_node(page, NODE_LEAF, next);
            for (key, value) in cells {
                splice_insert(page, node_used(page), Cell::Leaf { key, value });
            }
        }

        fn inner_cells(page: &[u8]) -> (u32, Vec<(Vec<u8>, u32)>) {
            let used = node_used(page);
            let mut cells = Vec::with_capacity(node_count(page));
            let mut off = NODE_HEADER_BYTES;
            while off < used {
                let klen = u16_at(page, off);
                let child = u32_at(page, off + 2);
                cells.push((page[off + 6..off + 6 + klen].to_vec(), child));
                off += 6 + klen;
            }
            (node_link(page), cells)
        }

        fn write_inner(page: &mut [u8], first_child: u32, cells: &[(Vec<u8>, u32)]) {
            init_node(page, NODE_INNER, first_child);
            for (sep, child) in cells {
                splice_insert(page, node_used(page), Cell::Inner { sep, child: *child });
            }
        }

        fn inner_cell_offset(page: &[u8], idx: usize) -> usize {
            let mut off = NODE_HEADER_BYTES;
            for _ in 0..idx {
                off += 6 + u16_at(page, off);
            }
            off
        }

        fn split_point(sizes: impl Iterator<Item = usize>, len: usize) -> usize {
            let sizes: Vec<usize> = sizes.collect();
            let total: usize = sizes.iter().sum();
            let mut acc = 0;
            for (i, size) in sizes.iter().enumerate() {
                acc += size;
                if acc >= total / 2 && i + 1 < len {
                    return i + 1;
                }
            }
            len - 1
        }

        pub(super) fn insert(
            map: &mut PagedMap,
            pool: &mut PagePool,
            key: &[u8],
            value: &[u8],
        ) -> Result<Option<Vec<u8>>, StorageError> {
            let cell_len = 4 + key.len() + value.len();
            let max = max_entry_bytes(pool.page_size());
            if cell_len > max {
                return Err(StorageError::EntryTooLarge { entry_bytes: cell_len, max_bytes: max });
            }
            if map.root == NO_PAGE {
                map.plant(pool, Cell::Leaf { key, value })?;
                return Ok(None);
            }
            let mut path: Vec<(u32, usize)> = Vec::new();
            let mut page_id = map.root;
            while pool.page(page_id)[0] != NODE_LEAF {
                let (child, idx, _) = inner_search(pool.page(page_id), key);
                path.push((page_id, idx));
                page_id = child;
            }
            let page = pool.page(page_id);
            let used = node_used(page);
            let (found, off, idx) = leaf_seek(page, key);
            let mut old_value = None;
            let mut removed = 0usize;
            if found {
                let (_, value, next) = leaf_cell(page, off);
                old_value = Some(value.to_vec());
                removed = next - off;
            }
            if used - removed + cell_len <= pool.page_size() {
                let page = pool.page_mut(page_id);
                if removed > 0 {
                    splice_remove(page, off, removed);
                }
                splice_insert(page, off, Cell::Leaf { key, value });
            } else {
                if !pool.can_allocate(path.len() + 2) {
                    return Err(pool.budget_error(path.len() + 2));
                }
                let mut cells = leaf_cells(page);
                if found {
                    cells[idx] = (key.to_vec(), value.to_vec());
                } else {
                    cells.insert(idx, (key.to_vec(), value.to_vec()));
                }
                let next = node_link(page);
                let split =
                    split_point(cells.iter().map(|(k, v)| 4 + k.len() + v.len()), cells.len());
                let right_id = pool.allocate()?;
                let sep = cells[split].0.clone();
                write_leaf(pool.page_mut(page_id), &cells[..split], right_id);
                write_leaf(pool.page_mut(right_id), &cells[split..], next);
                promote(map, pool, path, sep, right_id)?;
            }
            match &old_value {
                Some(old) => {
                    map.entry_bytes = map.entry_bytes - old.len() as u64 + value.len() as u64
                }
                None => map.account_new(Cell::Leaf { key, value }),
            }
            Ok(old_value)
        }

        fn promote(
            map: &mut PagedMap,
            pool: &mut PagePool,
            mut path: Vec<(u32, usize)>,
            mut sep: Vec<u8>,
            mut right: u32,
        ) -> Result<(), StorageError> {
            loop {
                let Some((page_id, child_idx)) = path.pop() else {
                    let new_root = pool.allocate()?;
                    let page = pool.page_mut(new_root);
                    init_node(page, NODE_INNER, map.root);
                    splice_insert(page, NODE_HEADER_BYTES, Cell::Inner { sep: &sep, child: right });
                    map.root = new_root;
                    return Ok(());
                };
                let page = pool.page(page_id);
                if node_used(page) + 6 + sep.len() <= pool.page_size() {
                    let off = inner_cell_offset(page, child_idx);
                    splice_insert(
                        pool.page_mut(page_id),
                        off,
                        Cell::Inner { sep: &sep, child: right },
                    );
                    return Ok(());
                }
                let (first_child, mut cells) = inner_cells(page);
                cells.insert(child_idx, (sep, right));
                let split = split_point(cells.iter().map(|(k, _)| 6 + k.len()), cells.len());
                let right_id = pool.allocate()?;
                let promoted = cells[split].0.clone();
                let right_first = cells[split].1;
                write_inner(pool.page_mut(page_id), first_child, &cells[..split]);
                write_inner(pool.page_mut(right_id), right_first, &cells[split + 1..]);
                sep = promoted;
                right = right_id;
            }
        }
    }

    #[test]
    fn byte_level_split_matches_parse_and_rewrite() {
        testkit::check(0x57_0004, 64, |rng| {
            let mut pool = small_pool();
            let mut reference_pool = small_pool();
            let mut map = PagedMap::new();
            let mut reference = PagedMap::new();
            let max = max_entry_bytes(pool.page_size());
            let ops = testkit::usize_in(rng, 100..1200);
            for op in 0..ops {
                // A small key space with lengths fixed per key, so inserts
                // replace and removals hit.
                let n = testkit::u64_in(rng, 0..300);
                let mut k = (n as u16).to_be_bytes().to_vec();
                k.resize(2 + (n as usize * 7) % 30, 0xAB);
                if testkit::u64_in(rng, 0..10) < 7 {
                    let vlen = if rng.chance(0.5) {
                        testkit::usize_in(rng, 0..16)
                    } else {
                        testkit::usize_in(rng, 0..max - 4 - k.len() + 1)
                    };
                    let v = testkit::bytes(rng, vlen..vlen + 1);
                    assert_eq!(
                        map.insert(&mut pool, &k, &v),
                        rewrite::insert(&mut reference, &mut reference_pool, &k, &v)
                    );
                } else {
                    assert_eq!(
                        map.remove(&mut pool, &k),
                        reference.remove(&mut reference_pool, &k)
                    );
                }
                if op % 100 == 99 {
                    assert_same_tree((&map, &pool), (&reference, &reference_pool));
                }
            }
            assert_same_tree((&map, &pool), (&reference, &reference_pool));
        });
    }
}
