//! Versioned model registry with atomic hot-swap.
//!
//! A [`ModelRegistry`] holds every registered model version as an
//! `Arc<ServingModel>` (the [`FlatEnsemble`] plus its binnings) and an
//! **active** pointer that [`ModelRegistry::activate`] swaps atomically:
//! requests resolved before the swap keep scoring on the old `Arc` until
//! their batches drain, requests resolved after see the new version —
//! no request is ever dropped or scored by a half-loaded model, and the
//! old version's memory is freed when its last in-flight batch drops the
//! `Arc`.
//!
//! The scheduler's hot path avoids the registry lock with an
//! arc-swap-style **epoch pointer**: every activation bumps an atomic
//! epoch, and each worker keeps an [`ActiveCache`] that re-reads the
//! lock only when the epoch moved — steady-state version resolution is
//! one relaxed atomic load.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use booster_gbdt::dataset::RawValue;
use booster_gbdt::infer::FlatEnsemble;
use booster_gbdt::predict::Model;
use booster_gbdt::preprocess::FieldBinning;
use booster_gbdt::serialize::model_from_bytes;
use parking_lot::RwLock;

use crate::error::{RegistryError, ServeError};

/// One registered model version, immutable after construction: the flat
/// scoring engine, the binnings that discretize raw records for it, and
/// a lock-free per-version served-record counter.
#[derive(Debug)]
pub struct ServingModel {
    version: u64,
    flat: FlatEnsemble,
    binnings: Vec<FieldBinning>,
    served: AtomicU64,
}

impl ServingModel {
    /// Registry-assigned version tag (1, 2, … in registration order).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The lowered ensemble; its `compiled()` program is what scores.
    pub fn flat(&self) -> &FlatEnsemble {
        &self.flat
    }

    /// Per-field binnings for raw-record discretization.
    pub fn binnings(&self) -> &[FieldBinning] {
        &self.binnings
    }

    /// Records scored by this version so far.
    pub fn served(&self) -> u64 {
        self.served.load(Ordering::Relaxed)
    }

    pub(crate) fn add_served(&self, n: u64) {
        self.served.fetch_add(n, Ordering::Relaxed);
    }

    /// Discretize one raw record, appending one bin per field to `bins`.
    /// Never panics on malformed input — arity or value-kind mismatches
    /// come back as [`ServeError::BadRequest`] (with `bins` left exactly
    /// as passed in).
    pub fn bin_record_into(
        &self,
        record: &[RawValue],
        bins: &mut Vec<u32>,
    ) -> Result<(), ServeError> {
        if record.len() != self.binnings.len() {
            return Err(ServeError::BadRequest("feature arity mismatch"));
        }
        let start = bins.len();
        for (v, b) in record.iter().zip(&self.binnings) {
            match (b, v) {
                (_, RawValue::Missing) => bins.push(b.absent_bin()),
                (FieldBinning::Numeric(bb), RawValue::Num(x)) => bins.push(bb.bin_of(*x)),
                (FieldBinning::Categorical { categories }, RawValue::Cat(c)) if c < categories => {
                    bins.push(*c)
                }
                (FieldBinning::Categorical { .. }, RawValue::Cat(_)) => {
                    bins.truncate(start);
                    return Err(ServeError::BadRequest("category out of range"));
                }
                _ => {
                    bins.truncate(start);
                    return Err(ServeError::BadRequest("value kind does not match field"));
                }
            }
        }
        Ok(())
    }
}

#[derive(Debug, Default)]
struct Inner {
    versions: BTreeMap<u64, Arc<ServingModel>>,
    active: Option<Arc<ServingModel>>,
    next_version: u64,
}

/// The versioned registry. Cheap to share behind an `Arc`; all methods
/// take `&self`.
#[derive(Debug, Default)]
pub struct ModelRegistry {
    inner: RwLock<Inner>,
    epoch: AtomicU64,
}

impl ModelRegistry {
    /// An empty registry (epoch 0, no versions).
    pub fn new() -> Self {
        ModelRegistry {
            inner: RwLock::new(Inner { versions: BTreeMap::new(), active: None, next_version: 1 }),
            epoch: AtomicU64::new(0),
        }
    }

    /// Register a trained model, returning its assigned version. The
    /// first registered version auto-activates; later versions serve
    /// only after [`ModelRegistry::activate`] (register → warm/validate
    /// → swap). Rejects models whose field arity or output arity
    /// differs from the versions already registered — a hot-swap must
    /// be invisible to clients already sending records and parsing
    /// responses.
    pub fn register(&self, model: &Model) -> Result<u64, RegistryError> {
        let flat = FlatEnsemble::from_model(model)?;
        // Pre-warm the compiled bytecode program outside the registry
        // lock: workers score micro-batches on the compiled engine, and
        // the one-time compile must not land on the first request.
        let _ = flat.compiled();
        let mut inner = self.inner.write();
        if let Some(existing) = inner.versions.values().next() {
            if existing.flat.num_fields() != flat.num_fields() {
                return Err(RegistryError::ArityMismatch {
                    expected: existing.flat.num_fields(),
                    got: flat.num_fields(),
                });
            }
            if existing.flat.num_outputs() != flat.num_outputs() {
                return Err(RegistryError::OutputArityMismatch {
                    expected: existing.flat.num_outputs(),
                    got: flat.num_outputs(),
                });
            }
        }
        let version = inner.next_version;
        inner.next_version += 1;
        let sm = Arc::new(ServingModel {
            version,
            flat,
            binnings: model.binnings.clone(),
            served: AtomicU64::new(0),
        });
        inner.versions.insert(version, Arc::clone(&sm));
        register_version_metrics(&sm);
        if inner.active.is_none() {
            inner.active = Some(sm);
            self.epoch.fetch_add(1, Ordering::Release);
        }
        Ok(version)
    }

    /// Register a model from serialized `.bstr` bytes
    /// ([`booster_gbdt::serialize::model_to_bytes`] output).
    pub fn register_bytes(&self, bytes: &[u8]) -> Result<u64, RegistryError> {
        let model = model_from_bytes(bytes)?;
        self.register(&model)
    }

    /// Atomically make `version` the one new unpinned requests score
    /// with. In-flight batches holding the previous `Arc` finish on the
    /// old version (graceful drain); there is no in-between state.
    pub fn activate(&self, version: u64) -> Result<(), RegistryError> {
        let mut inner = self.inner.write();
        let sm =
            inner.versions.get(&version).cloned().ok_or(RegistryError::UnknownVersion(version))?;
        inner.active = Some(sm);
        self.epoch.fetch_add(1, Ordering::Release);
        Ok(())
    }

    /// Remove a non-active version. In-flight batches still holding its
    /// `Arc` finish normally; the memory is freed when the last clone
    /// drops.
    pub fn retire(&self, version: u64) -> Result<(), RegistryError> {
        let mut inner = self.inner.write();
        if inner.active.as_ref().is_some_and(|a| a.version == version) {
            return Err(RegistryError::RetireActive(version));
        }
        match inner.versions.remove(&version) {
            Some(_) => Ok(()),
            None => Err(RegistryError::UnknownVersion(version)),
        }
    }

    /// The currently active model, if any.
    pub fn active(&self) -> Option<Arc<ServingModel>> {
        self.inner.read().active.clone()
    }

    /// Version tag of the active model, if any.
    pub fn active_version(&self) -> Option<u64> {
        self.inner.read().active.as_ref().map(|a| a.version)
    }

    /// Look up a specific version (for pinned requests).
    pub fn get(&self, version: u64) -> Option<Arc<ServingModel>> {
        self.inner.read().versions.get(&version).cloned()
    }

    /// Activation epoch: bumped on every activate (and the implicit
    /// first-register activation). Workers compare it against their
    /// [`ActiveCache`] to skip the registry lock.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// `(version, records served)` for every registered version, in
    /// version order.
    pub fn version_stats(&self) -> Vec<(u64, u64)> {
        self.inner.read().versions.values().map(|m| (m.version, m.served())).collect()
    }

    /// Consistent point-in-time snapshot of the whole registry — active
    /// version, epoch, and every version's serving counters — taken
    /// under one read-lock acquisition so callers never assemble the
    /// picture from torn piecemeal reads.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let inner = self.inner.read();
        RegistrySnapshot {
            active_version: inner.active.as_ref().map(|a| a.version),
            epoch: self.epoch.load(Ordering::Acquire),
            versions: inner
                .versions
                .values()
                .map(|m| VersionSnapshot {
                    version: m.version,
                    served: m.served(),
                    clusters: m.flat().compiled().num_clusters(),
                    program_bytes: m.flat().compiled().byte_size(),
                })
                .collect(),
        }
    }

    /// Resolve the active model through a worker-local cache: one atomic
    /// epoch load on the fast path, registry read lock only after a
    /// swap.
    pub fn active_cached(&self, cache: &mut ActiveCache) -> Option<Arc<ServingModel>> {
        let epoch = self.epoch();
        if cache.epoch != epoch {
            cache.model = self.active();
            cache.epoch = epoch;
        }
        cache.model.clone()
    }
}

/// One registered version inside a [`RegistrySnapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VersionSnapshot {
    /// Version tag.
    pub version: u64,
    /// Records served by this version so far.
    pub served: u64,
    /// Cache-budgeted clusters in the compiled program.
    pub clusters: usize,
    /// Compiled bytecode size in bytes.
    pub program_bytes: usize,
}

/// Point-in-time view of a [`ModelRegistry`], taken under a single lock
/// acquisition by [`ModelRegistry::snapshot`] — the version list, the
/// active version, and the activation epoch are mutually consistent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegistrySnapshot {
    /// Version tag of the active model, if any.
    pub active_version: Option<u64>,
    /// Activation epoch at snapshot time.
    pub epoch: u64,
    /// Every registered version, in version order.
    pub versions: Vec<VersionSnapshot>,
}

impl RegistrySnapshot {
    /// Records served by `version` at snapshot time (0 if unknown).
    pub fn served(&self, version: u64) -> u64 {
        self.versions.iter().find(|v| v.version == version).map_or(0, |v| v.served)
    }
}

/// Export one version's liveness into the process-wide obs registry:
/// records served, compiled program geometry, and cluster residency
/// (cluster×block kernel passes — how often the compiled engine
/// re-enters each cache-resident cluster). Sampled gauges capture only
/// a `Weak`, so retiring a version still frees its memory; a dead weak
/// renders 0. Re-registering the same version number (a fresh registry
/// in the same process) replaces the closure.
fn register_version_metrics(sm: &Arc<ServingModel>) {
    let g = booster_obs::global();
    let v = sm.version().to_string();
    let labels = [("version", v.as_str())];
    g.counter("serve_models_registered_total", &[]).inc();
    let w = Arc::downgrade(sm);
    g.sampled("serve_version_served", &labels, move || {
        w.upgrade().map_or(0.0, |m| m.served() as f64)
    });
    let w = Arc::downgrade(sm);
    g.sampled("serve_version_clusters", &labels, move || {
        w.upgrade().map_or(0.0, |m| m.flat().compiled().num_clusters() as f64)
    });
    let w = Arc::downgrade(sm);
    g.sampled("serve_version_program_bytes", &labels, move || {
        w.upgrade().map_or(0.0, |m| m.flat().compiled().byte_size() as f64)
    });
    let w = Arc::downgrade(sm);
    g.sampled("serve_version_cluster_passes", &labels, move || {
        w.upgrade().map_or(0.0, |m| m.flat().compiled().cluster_passes() as f64)
    });
}

/// Worker-local memo for [`ModelRegistry::active_cached`].
#[derive(Debug, Clone, Default)]
pub struct ActiveCache {
    epoch: u64,
    model: Option<Arc<ServingModel>>,
}

impl ActiveCache {
    /// An empty cache (first resolution always reads the registry:
    /// a fresh registry's epoch is 0 with no active model, so an
    /// empty-at-epoch-0 cache is already coherent).
    pub fn new() -> Self {
        ActiveCache::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use booster_gbdt::columnar::ColumnarMirror;
    use booster_gbdt::dataset::Dataset;
    use booster_gbdt::preprocess::BinnedDataset;
    use booster_gbdt::schema::{DatasetSchema, FieldSchema};
    use booster_gbdt::serialize::model_to_bytes;
    use booster_gbdt::train::{train, TrainConfig};

    fn tiny_model(num_fields: usize, num_trees: usize) -> Model {
        let mut fields = vec![FieldSchema::numeric_with_bins("x", 8)];
        for f in 1..num_fields {
            fields.push(FieldSchema::numeric_with_bins(format!("f{f}"), 8));
        }
        let schema = DatasetSchema::new(fields);
        let mut ds = Dataset::new(schema);
        let mut rec = Vec::new();
        for i in 0..200 {
            rec.clear();
            for f in 0..num_fields {
                rec.push(RawValue::Num((i * (f + 1)) as f32));
            }
            ds.push_record(&rec, f32::from(u8::from(i >= 100)));
        }
        let data = BinnedDataset::from_dataset(&ds);
        let mirror = ColumnarMirror::from_binned(&data);
        let cfg = TrainConfig { num_trees, max_depth: 3, ..Default::default() };
        train(&data, &mirror, &cfg).0
    }

    fn tiny_softmax_model(num_fields: usize, num_class: u32) -> Model {
        let mut fields = vec![FieldSchema::numeric_with_bins("x", 8)];
        for f in 1..num_fields {
            fields.push(FieldSchema::numeric_with_bins(format!("f{f}"), 8));
        }
        let schema = DatasetSchema::new(fields);
        let mut ds = Dataset::new(schema);
        let mut rec = Vec::new();
        for i in 0..200u32 {
            rec.clear();
            for f in 0..num_fields {
                rec.push(RawValue::Num((i as usize * (f + 1)) as f32));
            }
            ds.push_record(&rec, (i % num_class) as f32);
        }
        let data = BinnedDataset::from_dataset(&ds);
        let mirror = ColumnarMirror::from_binned(&data);
        let cfg = TrainConfig {
            num_trees: 2,
            max_depth: 3,
            objective: booster_gbdt::gradients::Objective::Softmax { num_class },
            ..Default::default()
        };
        train(&data, &mirror, &cfg).0
    }

    #[test]
    fn first_register_activates_and_later_ones_wait() {
        let reg = ModelRegistry::new();
        assert_eq!(reg.active_version(), None);
        assert_eq!(reg.epoch(), 0);
        let v1 = reg.register(&tiny_model(2, 2)).unwrap();
        assert_eq!(v1, 1);
        assert_eq!(reg.active_version(), Some(1));
        let e1 = reg.epoch();
        assert!(e1 > 0);
        let v2 = reg.register(&tiny_model(2, 3)).unwrap();
        assert_eq!(v2, 2);
        // Registering does not swap traffic…
        assert_eq!(reg.active_version(), Some(1));
        assert_eq!(reg.epoch(), e1);
        // …activation does, bumping the epoch.
        reg.activate(2).unwrap();
        assert_eq!(reg.active_version(), Some(2));
        assert!(reg.epoch() > e1);
    }

    #[test]
    fn active_cache_tracks_swaps_without_stale_reads() {
        let reg = ModelRegistry::new();
        let mut cache = ActiveCache::new();
        assert!(reg.active_cached(&mut cache).is_none());
        reg.register(&tiny_model(2, 2)).unwrap();
        assert_eq!(reg.active_cached(&mut cache).unwrap().version(), 1);
        reg.register(&tiny_model(2, 2)).unwrap();
        reg.activate(2).unwrap();
        assert_eq!(reg.active_cached(&mut cache).unwrap().version(), 2);
        // Unchanged epoch: cache hit returns the same Arc.
        let a = reg.active_cached(&mut cache).unwrap();
        let b = reg.active_cached(&mut cache).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn arity_mismatch_is_rejected() {
        let reg = ModelRegistry::new();
        reg.register(&tiny_model(2, 2)).unwrap();
        let err = reg.register(&tiny_model(3, 2)).unwrap_err();
        assert_eq!(err, RegistryError::ArityMismatch { expected: 2, got: 3 });
    }

    #[test]
    fn output_arity_mismatch_is_rejected() {
        let reg = ModelRegistry::new();
        reg.register(&tiny_model(2, 2)).unwrap();
        let err = reg.register(&tiny_softmax_model(2, 3)).unwrap_err();
        assert_eq!(err, RegistryError::OutputArityMismatch { expected: 1, got: 3 });
        // And the other direction: a softmax registry rejects a scalar model.
        let reg = ModelRegistry::new();
        reg.register(&tiny_softmax_model(2, 3)).unwrap();
        let err = reg.register(&tiny_model(2, 2)).unwrap_err();
        assert_eq!(err, RegistryError::OutputArityMismatch { expected: 3, got: 1 });
    }

    #[test]
    fn bytes_roundtrip_and_decode_rejection() {
        let reg = ModelRegistry::new();
        let model = tiny_model(2, 3);
        let v = reg.register_bytes(&model_to_bytes(&model)).unwrap();
        assert_eq!(v, 1);
        assert!(matches!(reg.register_bytes(b"not a model"), Err(RegistryError::Decode(_))));
    }

    #[test]
    fn retire_lifecycle() {
        let reg = ModelRegistry::new();
        reg.register(&tiny_model(2, 2)).unwrap();
        reg.register(&tiny_model(2, 2)).unwrap();
        assert_eq!(reg.retire(1), Err(RegistryError::RetireActive(1)));
        reg.activate(2).unwrap();
        // Pinned lookups still resolve until retired.
        let held = reg.get(1).unwrap();
        reg.retire(1).unwrap();
        assert!(reg.get(1).is_none());
        assert_eq!(reg.retire(1), Err(RegistryError::UnknownVersion(1)));
        // The held Arc keeps scoring (graceful drain semantics).
        assert_eq!(held.version(), 1);
        assert_eq!(reg.version_stats(), vec![(2, 0)]);
    }

    #[test]
    fn bin_record_into_validates_without_panicking() {
        let reg = ModelRegistry::new();
        let schema = DatasetSchema::new(vec![
            FieldSchema::numeric_with_bins("x", 8),
            FieldSchema::categorical("c", 3),
        ]);
        let mut ds = Dataset::new(schema);
        for i in 0..100 {
            ds.push_record(&[RawValue::Num(i as f32), RawValue::Cat(i % 3)], (i % 2) as f32);
        }
        let data = BinnedDataset::from_dataset(&ds);
        let mirror = ColumnarMirror::from_binned(&data);
        let (model, _) = train(
            &data,
            &mirror,
            &TrainConfig { num_trees: 2, max_depth: 2, ..Default::default() },
        );
        reg.register(&model).unwrap();
        let sm = reg.active().unwrap();
        let mut bins = vec![7u32]; // pre-existing scratch content survives errors
        sm.bin_record_into(&[RawValue::Num(3.0), RawValue::Cat(1)], &mut bins).unwrap();
        assert_eq!(bins.len(), 3);
        bins.truncate(1);
        for (bad, what) in [
            (vec![RawValue::Num(1.0)], "feature arity mismatch"),
            (vec![RawValue::Num(1.0), RawValue::Cat(9)], "category out of range"),
            (vec![RawValue::Cat(1), RawValue::Cat(1)], "value kind does not match field"),
        ] {
            assert_eq!(
                sm.bin_record_into(&bad, &mut bins),
                Err(ServeError::BadRequest(what)),
                "{what}"
            );
            assert_eq!(bins, vec![7u32], "scratch must be restored on error ({what})");
        }
        // Missing is valid in any field.
        sm.bin_record_into(&[RawValue::Missing, RawValue::Missing], &mut bins).unwrap();
        assert_eq!(bins.len(), 3);
    }
}
