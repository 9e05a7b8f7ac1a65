//! # rc-perfbench — the repository benchmark
//!
//! Drives the repository's public APIs from outside the program and
//! measures what a user of the model checker waits for: the time from a
//! call to `explore` to its Verified verdict, and the throughput of a
//! `swarm` sweep. A separate traced run wraps every program in a
//! forwarding [`trace::Traced`] to split that time across the layers
//! at the `Program` / `MemOps` boundary.
//!
//! Run one workload with
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload explore-s6-b1 --seed 0 --seconds 20 --trace 0
//! ```
//!
//! The last line of standard output is a JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; the lines before it print each
//! metric with its unit and sample count.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod trace;
pub mod workload;
