//! End-to-end benchmark of the DeepSqueeze reproduction: seeded,
//! paper-shaped tables through compress → decode → served range reads,
//! every output checked. See `README.md` in this directory for the
//! workloads, the metrics and how they interact.

pub mod measure;
pub mod run;
pub mod trace;
pub mod verify;
pub mod workload;

pub use run::{run, Metric, Outcome, Params};
pub use workload::Workload;
