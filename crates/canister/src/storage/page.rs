//! Fixed-size pages allocated against an explicit byte budget — the
//! simulation's stand-in for IC stable memory.

use std::fmt;

use super::{StorageConfig, StorageError};

/// Sentinel page id: "no page" (empty tree root, last leaf's next link).
pub(crate) const NO_PAGE: u32 = u32::MAX;

/// In-page offsets are encoded as `u16`, so a page must fit one.
const MIN_PAGE_SIZE: usize = 512;
const MAX_PAGE_SIZE: usize = 32_768;

/// A growable arena of fixed-size zeroed pages with a hard byte cap.
///
/// Pages are identified by dense `u32` ids in allocation order, which
/// makes every layout decision a deterministic function of the operation
/// sequence. Pages are never reclaimed (stable memory does not shrink);
/// emptied cells are reused in place by later inserts.
#[derive(Clone)]
pub struct PagePool {
    config: StorageConfig,
    pages: Vec<Box<[u8]>>,
}

impl PagePool {
    /// Creates an empty pool. `config.page_size` is clamped to
    /// `[512, 32768]`; no pages are allocated until first use, so an
    /// empty pool reserves zero bytes.
    pub fn new(mut config: StorageConfig) -> PagePool {
        config.page_size = config.page_size.clamp(MIN_PAGE_SIZE, MAX_PAGE_SIZE);
        PagePool { config, pages: Vec::new() }
    }

    /// The (clamped) configuration the pool was built with.
    pub fn config(&self) -> &StorageConfig {
        &self.config
    }

    /// Bytes per page.
    pub fn page_size(&self) -> usize {
        self.config.page_size
    }

    /// Pages currently allocated.
    pub fn pages_allocated(&self) -> u64 {
        self.pages.len() as u64
    }

    /// Bytes counted against the budget: `pages_allocated × page_size`.
    pub fn bytes_reserved(&self) -> u64 {
        self.pages.len() as u64 * self.config.page_size as u64
    }

    /// Budget minus reserved bytes.
    pub fn budget_headroom(&self) -> u64 {
        self.config.byte_budget.saturating_sub(self.bytes_reserved())
    }

    /// Whether `extra` more pages fit under the budget. Mutating tree
    /// operations pre-flight their worst-case page need with this so a
    /// budget failure happens *before* any page is touched.
    pub(crate) fn can_allocate(&self, extra: usize) -> bool {
        let wanted = (self.pages.len() + extra) as u64 * self.config.page_size as u64;
        wanted <= self.config.byte_budget
    }

    /// Describes the failed allocation of `extra` pages.
    pub(crate) fn budget_error(&self, extra: usize) -> StorageError {
        StorageError::BudgetExhausted {
            byte_budget: self.config.byte_budget,
            bytes_reserved: self.bytes_reserved(),
            bytes_needed: extra as u64 * self.config.page_size as u64,
        }
    }

    /// Allocates one zeroed page.
    pub(crate) fn allocate(&mut self) -> Result<u32, StorageError> {
        if !self.can_allocate(1) {
            return Err(self.budget_error(1));
        }
        self.pages.push(vec![0u8; self.config.page_size].into_boxed_slice());
        Ok((self.pages.len() - 1) as u32)
    }

    /// Read access to a page. Page ids only come from [`allocate`]
    /// results stored in tree nodes, so the index is always in bounds.
    ///
    /// [`allocate`]: PagePool::allocate
    pub(crate) fn page(&self, id: u32) -> &[u8] {
        &self.pages[id as usize]
    }

    /// Write access to a page. Same invariant as [`PagePool::page`]: ids
    /// only come from [`allocate`](PagePool::allocate) results stored in
    /// tree nodes, so the index is always in bounds.
    pub(crate) fn page_mut(&mut self, id: u32) -> &mut [u8] {
        &mut self.pages[id as usize]
    }

    /// Write access to page `a` and to page `b`, allocated after it: a
    /// node split moves bytes from a node into the page it just
    /// allocated. Same id invariant as [`PagePool::page`].
    pub(crate) fn pages_mut(&mut self, a: u32, b: u32) -> (&mut [u8], &mut [u8]) {
        let (low, high) = self.pages.split_at_mut(b as usize);
        (&mut low[a as usize], &mut high[0])
    }
}

impl fmt::Debug for PagePool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PagePool")
            .field("page_size", &self.config.page_size)
            .field("byte_budget", &self.config.byte_budget)
            .field("pages_allocated", &self.pages.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_pool_reserves_nothing() {
        let pool = PagePool::new(StorageConfig::default());
        assert_eq!(pool.bytes_reserved(), 0);
        assert_eq!(pool.pages_allocated(), 0);
        assert_eq!(pool.budget_headroom(), StorageConfig::default().byte_budget);
    }

    #[test]
    fn allocation_stops_at_the_budget() {
        let mut pool = PagePool::new(StorageConfig { page_size: 1024, byte_budget: 3 * 1024 });
        for expected in 0..3u32 {
            assert_eq!(pool.allocate(), Ok(expected));
        }
        assert!(!pool.can_allocate(1));
        let err = pool.allocate().unwrap_err();
        assert_eq!(
            err,
            StorageError::BudgetExhausted {
                byte_budget: 3 * 1024,
                bytes_reserved: 3 * 1024,
                bytes_needed: 1024,
            }
        );
        assert_eq!(pool.budget_headroom(), 0);
    }

    #[test]
    fn page_size_is_clamped_to_u16_offsets() {
        let pool = PagePool::new(StorageConfig { page_size: 1 << 20, byte_budget: 1 << 30 });
        assert_eq!(pool.page_size(), 32_768);
        let pool = PagePool::new(StorageConfig { page_size: 1, byte_budget: 1 << 30 });
        assert_eq!(pool.page_size(), 512);
    }

    #[test]
    fn pages_start_zeroed_and_are_independent() {
        let mut pool = PagePool::new(StorageConfig { page_size: 512, byte_budget: 1 << 20 });
        let a = pool.allocate().unwrap();
        let b = pool.allocate().unwrap();
        pool.page_mut(a)[0] = 0xAB;
        assert_eq!(pool.page(b)[0], 0);
        assert_eq!(pool.page(a)[0], 0xAB);
        let cloned = pool.clone();
        assert_eq!(cloned.page(a)[0], 0xAB);
    }
}
