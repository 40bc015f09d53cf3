//! End-to-end benchmark for `ledgerd`.
//!
//! The binary (`src/main.rs`) spawns the real `ledgerd` and drives it
//! through distrusting `RemoteLedger` clients. This library holds its
//! building blocks: the `ledgerd` subprocess, seeded input generation,
//! raw-sample percentiles, span collection, and the correctness checks.
//! The self-tests cover the generation, the percentiles and the
//! tampered-proof check.

pub mod check;
pub mod daemon;
pub mod gen;
pub mod stats;
pub mod trace;
