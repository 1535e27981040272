//! # booster-repro
//!
//! Top-level facade for the Booster reproduction workspace. Re-exports the
//! public APIs of the member crates so examples and downstream users can
//! depend on a single crate.
//!
//! - [`gbdt`] — histogram-based gradient boosting decision trees
//!   (training + inference), the workload Booster accelerates.
//! - [`dram`] — cycle-level high-bandwidth DRAM simulator (DRAMSim2
//!   equivalent, Table IV of the paper).
//! - [`sim`] — the Booster accelerator timing/energy/area models and the
//!   Ideal CPU / Ideal GPU / inter-record baselines.
//! - [`datagen`] — deterministic synthetic equivalents of the paper's five
//!   evaluation datasets (Table III).
//! - [`serve`] — online scoring service over the compiled lane kernel:
//!   micro-batching scheduler, versioned model registry with hot-swap,
//!   and a `std::net` TCP front-end.
//! - [`dist`] — distributed data-parallel training: record-sharded
//!   workers exchanging histogram lanes behind a `Comm` trait
//!   (in-process channels or localhost TCP), bit-identical to local
//!   training.
//! - [`obs`] — the unified telemetry subsystem: process-wide metrics
//!   registry (counters, gauges, log-bucketed histograms), span tracing
//!   with a Chrome trace-event exporter, and a plain-text introspection
//!   endpoint. All the other layers report into it.

pub use booster_datagen as datagen;
pub use booster_dist as dist;
pub use booster_dram as dram;
pub use booster_gbdt as gbdt;
pub use booster_obs as obs;
pub use booster_serve as serve;
pub use booster_sim as sim;
