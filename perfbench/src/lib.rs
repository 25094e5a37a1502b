//! The repository's benchmark: closed-loop workloads with no client pad,
//! an outcome oracle on every operation, counters cross-checked against
//! the server's own metrics, and an outside-in traced mode that splits
//! request time by layer (`net`, `sql`, `core`, `dbms`, `wal`).
//!
//! Run it with `cargo run --release --manifest-path perfbench/Cargo.toml
//! -- --workload <name> --seed <n> --seconds <s> --trace <0|1>`.
//! `BENCH.md` beside this package describes the workloads and metrics.

pub mod harness;
pub mod oracle;
pub mod report;
pub mod rng;
pub mod stats;
pub mod trace;
pub mod workloads;

pub use harness::{run, Config, RunReport};
pub use workloads::Workload;
