//! Disk substrate for the memory-constrained D-MPSM join (paper §3.1).
//!
//! D-MPSM processes sorted runs that are too large for RAM: runs are
//! spooled to disk during run generation, and during the join phase the
//! workers move *synchronously through the key domain*, one key interval
//! per step, so that
//!
//! * pages wholly below a finished interval are **released** from RAM
//!   (Figure 4, green),
//! * the next interval's pages are **prefetched** while the current one
//!   merges (Figure 4, yellow),
//! * only the pages of those two intervals are resident (Figure 4,
//!   white).
//!
//! The ordering information comes from a [`page_index::PageIndex`]: pairs
//! `⟨v_ij, S_i⟩` where `v_ij` is the first (minimal) join key on the
//! `j`-th page of run `S_i`, sorted by key — read-only, hence shared
//! without synchronization, exactly as in the paper. The
//! [`buffer::BufferPool`] holds the resident pages under a page budget;
//! the stepping itself lives in `mpsm-core`'s D-MPSM join.
//!
//! ## Substitution note
//!
//! The paper used physical disks ("a sufficiently large I/O bandwidth,
//! i.e., a very large number of disks, is required"). This crate offers
//! two interchangeable [`backend::DiskBackend`]s: a real file-backed one
//! and an in-memory one with *simulated* latency/bandwidth accounting, so
//! the I/O-bound regime can be studied deterministically inside a
//! container. The windowed page lifecycle — the algorithmic content of
//! §3.1 — is identical for both.

#![warn(missing_docs)]

pub mod backend;
pub mod buffer;
pub mod page_index;
pub mod record;
pub mod run_store;

pub use backend::{DiskBackend, FaultyBackend, FileBackend, MemBackend};
pub use buffer::{BufferPool, BufferStats};
pub use page_index::{IndexEntry, PageIndex};
pub use record::Record;
pub use run_store::{RunId, RunMeta, RunStore, RunWriter};

/// Errors surfaced by the storage layer.
#[derive(Debug)]
pub enum StorageError {
    /// Underlying I/O failure (file backend or injected fault).
    Io(std::io::Error),
    /// A page was requested that the run does not contain.
    PageOutOfBounds {
        /// Offending run.
        run: RunId,
        /// Requested page number.
        page: u32,
        /// Pages the run actually has.
        pages: u32,
    },
    /// A run id was used that the store does not know.
    UnknownRun(RunId),
}

impl std::fmt::Display for StorageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StorageError::Io(e) => write!(f, "storage I/O error: {e}"),
            StorageError::PageOutOfBounds { run, page, pages } => {
                write!(f, "page {page} out of bounds for run {run:?} with {pages} pages")
            }
            StorageError::UnknownRun(run) => write!(f, "unknown run {run:?}"),
        }
    }
}

impl std::error::Error for StorageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StorageError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StorageError {
    fn from(e: std::io::Error) -> Self {
        StorageError::Io(e)
    }
}

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, StorageError>;
