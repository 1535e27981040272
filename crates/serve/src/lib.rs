//! # booster-serve
//!
//! Online model serving for `booster-gbdt`: the layer that turns the
//! compiled batch kernel (a lowered
//! [`booster_gbdt::infer::FlatEnsemble`]'s program) into a scoring
//! *service*.
//! The Booster paper treats batch-inference throughput as a first-class
//! product of the accelerator (Section III-D, Fig 13); this crate
//! supplies the system half production GBDT frameworks layer on top of
//! a fast scorer — batching policy, model versioning, tail-latency
//! observability, and admission control — using only `std` threads,
//! channels, and `std::net`.
//!
//! ```text
//!            ServeHandle::score / submit          TcpFrontend (frame.rs)
//!                      │                                  │
//!                      ▼                                  ▼
//!              ┌──────────────────────────────────────────────┐
//!              │ bounded ingress queue — full ⇒ Overloaded    │
//!              └──────────────────┬───────────────────────────┘
//!                                 ▼
//!                  batcher: coalesce ≤ max_batch, flush at
//!                  max_delay (monotonic Instant deadlines)
//!                                 │ round-robin
//!                   ┌─────────────┼─────────────┐
//!                   ▼             ▼             ▼
//!               worker 0      worker 1      worker N   (per-worker
//!                   │             │             │        scratch)
//!                   └──────┬──────┴─────────────┘
//!                          ▼
//!         ModelRegistry: Arc<ServingModel> per version,
//!         epoch-pointer hot-swap, per-version counters
//! ```
//!
//! The contract throughout is **bit-identity**: a response produced by
//! any batch composition, shard count, or mid-stream hot-swap is
//! bit-for-bit what offline [`FlatEnsemble`] scoring by the tagged
//! version produces (enforced by `tests/concurrency.rs`).
//!
//! ## Quickstart
//!
//! ```
//! use std::sync::Arc;
//! use booster_gbdt::prelude::*;
//! use booster_serve::{ModelRegistry, ServeConfig, Server};
//!
//! // Train a tiny model.
//! let schema = DatasetSchema::new(vec![FieldSchema::numeric("x")]);
//! let mut ds = Dataset::new(schema);
//! for i in 0..100 {
//!     ds.push_record(&[RawValue::Num(i as f32)], f32::from(u8::from(i >= 50)));
//! }
//! let binned = BinnedDataset::from_dataset(&ds);
//! let mirror = ColumnarMirror::from_binned(&binned);
//! let (model, _) = train(&binned, &mirror, &TrainConfig { num_trees: 3, ..Default::default() });
//!
//! // Register v1 and serve.
//! let registry = Arc::new(ModelRegistry::new());
//! registry.register(&model).unwrap();
//! let server = Server::start(Arc::clone(&registry), ServeConfig::default()).unwrap();
//! let handle = server.handle();
//! let resp = handle.score(&[RawValue::Num(80.0)]).unwrap();
//! assert_eq!(resp.version, 1);
//! assert_eq!(resp.prediction().to_bits(), model.predict_raw(&[RawValue::Num(80.0)]).to_bits());
//! server.shutdown();
//! ```
//!
//! [`FlatEnsemble`]: booster_gbdt::infer::FlatEnsemble

#![warn(missing_docs)]

pub mod error;
pub mod frame;
pub mod registry;
pub mod scheduler;
pub mod tcp;

pub use error::{RegistryError, ServeError};
pub use registry::{ActiveCache, ModelRegistry, RegistrySnapshot, ServingModel, VersionSnapshot};
pub use scheduler::{
    BatchPolicy, Pending, ResponseSender, ResponseSlot, ScoreResponse, ServeConfig, ServeHandle,
    ServeStats, Server,
};
pub use tcp::{RemoteScore, TcpFrontend, TcpScoreClient};

/// The snapshot type of [`ServeStats`]' latency and batch-size fields.
pub use booster_obs::hist::HistogramSnapshot;
