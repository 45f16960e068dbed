//! Shared infrastructure of the paper-figure binaries under `src/bin/`:
//! scale handling, table rendering, and contender registry. Timing
//! lives in the standalone harness under `bench/`, not here.

pub mod audit;
pub mod harness;
pub mod table;

pub use harness::{parse_args, BenchArgs, Contender};
pub use table::TableBuilder;
