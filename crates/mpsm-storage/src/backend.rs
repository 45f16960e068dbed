//! Pluggable disk backends.
//!
//! A [`DiskBackend`] stores and retrieves opaque page images addressed by
//! `(run, page)`. Three implementations:
//!
//! * [`MemBackend`] — pages live in RAM; read/write costs are *accounted*
//!   against a simulated latency + bandwidth model. This is the default
//!   for reproducible experiments (see the substitution note in the crate
//!   docs).
//! * [`FileBackend`] — one file per run under a directory; real I/O.
//! * [`FaultyBackend`] — decorator that injects failures for tests.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{Read as _, Seek, SeekFrom, Write as _};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

use crate::run_store::RunId;
use crate::Result;

/// Abstract page-granular storage device.
pub trait DiskBackend: Send + Sync {
    /// Persist `bytes` as page `page` of run `run`. Pages of one run are
    /// written in increasing page order by a single writer.
    fn write_page(&self, run: RunId, page: u32, bytes: &[u8]) -> Result<()>;

    /// Read back a page image previously written.
    fn read_page(&self, run: RunId, page: u32) -> Result<Vec<u8>>;

    /// Total bytes written so far (for experiment reporting).
    fn bytes_written(&self) -> u64;

    /// Total bytes read so far.
    fn bytes_read(&self) -> u64;

    /// Simulated I/O time charged so far, in nanoseconds (0 for real
    /// backends, where wall-clock time is the measurement).
    fn simulated_io_ns(&self) -> u64 {
        0
    }
}

/// Simulated-disk parameters for [`MemBackend`].
#[derive(Debug, Clone)]
pub struct SimDiskProfile {
    /// Fixed cost per page operation (seek + command overhead), ns.
    pub latency_ns: u64,
    /// Streaming throughput in bytes per second.
    pub bandwidth_bytes_per_sec: u64,
}

impl SimDiskProfile {
    /// A striped array as the paper requires for multi-core D-MPSM
    /// ("a very large number of disks"): 0.1 ms, 4 GB/s.
    pub fn disk_array() -> Self {
        SimDiskProfile { latency_ns: 100_000, bandwidth_bytes_per_sec: 4_000_000_000 }
    }

    /// Cost of transferring `bytes`, in ns.
    pub fn io_ns(&self, bytes: usize) -> u64 {
        self.latency_ns
            + (bytes as u128 * 1_000_000_000u128 / self.bandwidth_bytes_per_sec as u128) as u64
    }
}

/// In-memory backend with simulated I/O accounting.
pub struct MemBackend {
    pages: Mutex<HashMap<(RunId, u32), Vec<u8>>>,
    profile: SimDiskProfile,
    bytes_written: AtomicU64,
    bytes_read: AtomicU64,
    sim_ns: AtomicU64,
}

impl MemBackend {
    /// Backend with the given simulated-disk profile.
    pub fn new(profile: SimDiskProfile) -> Self {
        MemBackend {
            pages: Mutex::new(HashMap::new()),
            profile,
            bytes_written: AtomicU64::new(0),
            bytes_read: AtomicU64::new(0),
            sim_ns: AtomicU64::new(0),
        }
    }

    /// Backend modeling the paper's striped disk array.
    pub fn disk_array() -> Self {
        Self::new(SimDiskProfile::disk_array())
    }
}

impl Default for MemBackend {
    fn default() -> Self {
        Self::disk_array()
    }
}

impl DiskBackend for MemBackend {
    fn write_page(&self, run: RunId, page: u32, bytes: &[u8]) -> Result<()> {
        self.bytes_written.fetch_add(bytes.len() as u64, Ordering::Relaxed);
        self.sim_ns.fetch_add(self.profile.io_ns(bytes.len()), Ordering::Relaxed);
        self.pages.lock().insert((run, page), bytes.to_vec());
        Ok(())
    }

    fn read_page(&self, run: RunId, page: u32) -> Result<Vec<u8>> {
        let pages = self.pages.lock();
        let bytes = pages.get(&(run, page)).ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::NotFound,
                format!("page {page} of run {run:?} was never written"),
            )
        })?;
        self.bytes_read.fetch_add(bytes.len() as u64, Ordering::Relaxed);
        self.sim_ns.fetch_add(self.profile.io_ns(bytes.len()), Ordering::Relaxed);
        Ok(bytes.clone())
    }

    fn bytes_written(&self) -> u64 {
        self.bytes_written.load(Ordering::Relaxed)
    }

    fn bytes_read(&self) -> u64 {
        self.bytes_read.load(Ordering::Relaxed)
    }

    fn simulated_io_ns(&self) -> u64 {
        self.sim_ns.load(Ordering::Relaxed)
    }
}

/// Per-run file handle plus the page offset table `(offset, len)`.
type RunFile = (File, Vec<(u64, u32)>);

/// File-per-run backend doing real I/O under `dir`.
///
/// Page sizes may vary per page (the last page of a run is short), so an
/// in-memory offset table per run is kept alongside the files.
pub struct FileBackend {
    dir: PathBuf,
    runs: Mutex<HashMap<RunId, RunFile>>,
    bytes_written: AtomicU64,
    bytes_read: AtomicU64,
}

impl FileBackend {
    /// Create a backend writing run files into `dir` (created if absent).
    pub fn new(dir: impl Into<PathBuf>) -> Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(FileBackend {
            dir,
            runs: Mutex::new(HashMap::new()),
            bytes_written: AtomicU64::new(0),
            bytes_read: AtomicU64::new(0),
        })
    }

    fn run_path(&self, run: RunId) -> PathBuf {
        self.dir.join(format!("run-{:04}.bin", run.0))
    }
}

impl DiskBackend for FileBackend {
    fn write_page(&self, run: RunId, page: u32, bytes: &[u8]) -> Result<()> {
        let mut runs = self.runs.lock();
        let entry = match runs.entry(run) {
            std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
            std::collections::hash_map::Entry::Vacant(v) => {
                let file = OpenOptions::new()
                    .create(true)
                    .truncate(true)
                    .read(true)
                    .write(true)
                    .open(self.run_path(run))?;
                v.insert((file, Vec::new()))
            }
        };
        let (file, offsets) = entry;
        assert_eq!(
            page as usize,
            offsets.len(),
            "run pages must be written in order (run {run:?}, page {page})"
        );
        let offset = file.seek(SeekFrom::End(0))?;
        file.write_all(bytes)?;
        offsets.push((offset, bytes.len() as u32));
        self.bytes_written.fetch_add(bytes.len() as u64, Ordering::Relaxed);
        Ok(())
    }

    fn read_page(&self, run: RunId, page: u32) -> Result<Vec<u8>> {
        let mut runs = self.runs.lock();
        let (file, offsets) = runs.get_mut(&run).ok_or(crate::StorageError::UnknownRun(run))?;
        let &(offset, len) =
            offsets.get(page as usize).ok_or(crate::StorageError::PageOutOfBounds {
                run,
                page,
                pages: offsets.len() as u32,
            })?;
        let mut buf = vec![0u8; len as usize];
        file.seek(SeekFrom::Start(offset))?;
        file.read_exact(&mut buf)?;
        self.bytes_read.fetch_add(len as u64, Ordering::Relaxed);
        Ok(buf)
    }

    fn bytes_written(&self) -> u64 {
        self.bytes_written.load(Ordering::Relaxed)
    }

    fn bytes_read(&self) -> u64 {
        self.bytes_read.load(Ordering::Relaxed)
    }
}

impl Drop for FileBackend {
    fn drop(&mut self) {
        // Best-effort cleanup of the run files this backend created.
        for run in self.runs.lock().keys() {
            let _ = std::fs::remove_file(self.run_path(*run));
        }
    }
}

/// Failure-injecting decorator for tests: fails every read whose global
/// ordinal is in `fail_reads`.
pub struct FaultyBackend<B> {
    inner: B,
    read_ordinal: AtomicU64,
    fail_reads: Vec<u64>,
}

impl<B: DiskBackend> FaultyBackend<B> {
    /// Wrap `inner`, failing the reads whose 0-based ordinal appears in
    /// `fail_reads`.
    pub fn new(inner: B, fail_reads: Vec<u64>) -> Self {
        FaultyBackend { inner, read_ordinal: AtomicU64::new(0), fail_reads }
    }
}

impl<B: DiskBackend> DiskBackend for FaultyBackend<B> {
    fn write_page(&self, run: RunId, page: u32, bytes: &[u8]) -> Result<()> {
        self.inner.write_page(run, page, bytes)
    }

    fn read_page(&self, run: RunId, page: u32) -> Result<Vec<u8>> {
        let ordinal = self.read_ordinal.fetch_add(1, Ordering::Relaxed);
        if self.fail_reads.contains(&ordinal) {
            return Err(std::io::Error::other(format!("injected fault on read #{ordinal}")).into());
        }
        self.inner.read_page(run, page)
    }

    fn bytes_written(&self) -> u64 {
        self.inner.bytes_written()
    }

    fn bytes_read(&self) -> u64 {
        self.inner.bytes_read()
    }

    fn simulated_io_ns(&self) -> u64 {
        self.inner.simulated_io_ns()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(backend: &dyn DiskBackend) {
        backend.write_page(RunId(0), 0, b"hello").unwrap();
        backend.write_page(RunId(0), 1, b"world!").unwrap();
        backend.write_page(RunId(1), 0, b"other run").unwrap();
        assert_eq!(backend.read_page(RunId(0), 0).unwrap(), b"hello");
        assert_eq!(backend.read_page(RunId(0), 1).unwrap(), b"world!");
        assert_eq!(backend.read_page(RunId(1), 0).unwrap(), b"other run");
        assert_eq!(backend.bytes_written(), 5 + 6 + 9);
        assert_eq!(backend.bytes_read(), 5 + 6 + 9);
    }

    #[test]
    fn mem_backend_roundtrip() {
        roundtrip(&MemBackend::disk_array());
    }

    #[test]
    fn file_backend_roundtrip() {
        let dir = std::env::temp_dir().join(format!("mpsm-storage-test-{}", std::process::id()));
        roundtrip(&FileBackend::new(&dir).unwrap());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mem_backend_missing_page_errors() {
        let b = MemBackend::disk_array();
        assert!(b.read_page(RunId(9), 0).is_err());
    }

    #[test]
    fn file_backend_out_of_order_write_panics() {
        let dir = std::env::temp_dir().join(format!("mpsm-storage-ooo-{}", std::process::id()));
        let b = FileBackend::new(&dir).unwrap();
        b.write_page(RunId(0), 0, b"x").unwrap();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = b.write_page(RunId(0), 5, b"y");
        }));
        assert!(result.is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sim_disk_charges_latency_and_bandwidth() {
        let p = SimDiskProfile { latency_ns: 100, bandwidth_bytes_per_sec: 1_000_000_000 };
        // 1 GB/s → 1 byte per ns.
        assert_eq!(p.io_ns(1000), 100 + 1000);
        let b = MemBackend::new(p);
        b.write_page(RunId(0), 0, &[0u8; 1000]).unwrap();
        assert_eq!(b.simulated_io_ns(), 1100);
        b.read_page(RunId(0), 0).unwrap();
        assert_eq!(b.simulated_io_ns(), 2200);
    }

    #[test]
    fn faulty_backend_fails_selected_reads() {
        let b = FaultyBackend::new(MemBackend::disk_array(), vec![1]);
        b.write_page(RunId(0), 0, b"data").unwrap();
        assert!(b.read_page(RunId(0), 0).is_ok()); // read #0
        assert!(b.read_page(RunId(0), 0).is_err()); // read #1: injected
        assert!(b.read_page(RunId(0), 0).is_ok()); // read #2
    }
}
