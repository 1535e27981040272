//! Batch-inference timing (Section III-D, Fig 13).
//!
//! Booster loads each tree's table into a BU; with 500 trees, 3000 of the
//! 3200 BUs hold 6 replicas of the ensemble. Records stream through the
//! replicas; each record sequentially traverses every tree, and because
//! the trees run asynchronously, the pipeline's steady-state throughput
//! is one record per `max_depth × tree_level_cycles` cycles per replica.
//! Booster's rate therefore depends on the *maximum* depth across trees,
//! while a CPU's work follows the actual (shorter) paths — which is why
//! shallow-tree IoT narrows Booster's inference speedup (Section V-H).

use booster_gbdt::infer::FlatEnsemble;
use booster_gbdt::predict::Model;
use booster_gbdt::preprocess::BinnedDataset;
use serde::{Deserialize, Serialize};

use crate::machine::{BoosterConfig, IdealMachineConfig, WorkModel};
use crate::report::ArchRun;
use crate::traffic::BandwidthModel;

/// Inference workload statistics extracted from a trained model and a
/// record batch.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct InferenceWorkload {
    /// Records in the batch.
    pub n_records: usize,
    /// Row-major record bytes.
    pub record_bytes: u32,
    /// Trees in the ensemble.
    pub num_trees: usize,
    /// Sum over records and trees of traversal path lengths.
    pub total_path_len: u64,
    /// Maximum tree depth (Booster's per-record pipeline interval).
    pub max_depth: u32,
}

impl InferenceWorkload {
    /// Measure the workload by running batch inference functionally on
    /// the compiled branch-free program — the closest software analogue
    /// of the accelerator walk the model prices (edge counts are
    /// identical to the node walk's; `compiled_paths_match_flat_paths`
    /// in `booster-gbdt` pins this). Trees too large for the 16-byte
    /// table encoding fall back to the node-walk path (they cannot be
    /// SRAM-resident anyway, but their path statistics are still valid).
    pub fn measure(model: &Model, data: &BinnedDataset) -> Self {
        let (_, paths) = match FlatEnsemble::from_model(model) {
            Ok(flat) => flat.compiled().predict_batch_with_paths(data),
            Err(_) => model.predict_batch_with_paths(data),
        };
        InferenceWorkload {
            n_records: data.num_records(),
            record_bytes: data.record_bytes(),
            num_trees: model.num_trees(),
            total_path_len: paths.iter().sum(),
            max_depth: model.max_depth().max(1),
        }
    }

    /// Scale the record count (Fig 12-style sensitivity).
    pub fn scaled(&self, factor: f64) -> Self {
        InferenceWorkload {
            n_records: (self.n_records as f64 * factor).round() as usize,
            total_path_len: (self.total_path_len as f64 * factor).round() as u64,
            ..*self
        }
    }
}

/// Bytes of tree table one BU SRAM can hold.
fn table_capacity(cfg: &BoosterConfig) -> usize {
    cfg.sram_bytes as usize
}

/// BUs needed per tree: trees whose table exceeds one SRAM are
/// partitioned over a logical group of SRAMs (Section III-C case 5 —
/// the paper's future-work case), at one extra cycle per level for the
/// inter-SRAM hop.
fn bus_per_tree(cfg: &BoosterConfig, tree_table_bytes: usize) -> u32 {
    (tree_table_bytes.div_ceil(table_capacity(cfg))).max(1) as u32
}

/// Whole-ensemble replicas per chip (the paper uses 3000 of 3200 BUs for
/// 6 replicas of 500 trees).
fn replicas(cfg: &BoosterConfig, num_trees: usize, bus_per_tree: u32) -> u32 {
    ((cfg.total_bus() as usize) / (num_trees.max(1) * bus_per_tree as usize)).max(1) as u32
}

/// A multi-chip Booster inference deployment: ensembles too large for
/// one chip are distributed round-robin across chips (Section III-D).
#[derive(Debug, Clone, Copy)]
pub struct InferenceDeployment {
    /// Booster chips available.
    pub chips: u32,
    /// Bytes of tree table per tree (0 = assume trees fit one SRAM).
    pub tree_table_bytes: usize,
}

impl Default for InferenceDeployment {
    fn default() -> Self {
        InferenceDeployment { chips: 1, tree_table_bytes: 0 }
    }
}

/// Booster batch-inference time (seconds) for a single chip with
/// default-size trees.
pub fn booster_inference(
    cfg: &BoosterConfig,
    bw: &BandwidthModel,
    w: &InferenceWorkload,
) -> ArchRun {
    booster_inference_deployed(cfg, bw, w, &InferenceDeployment::default())
}

/// Booster batch-inference time for an explicit deployment (multi-chip
/// and/or large trees).
pub fn booster_inference_deployed(
    cfg: &BoosterConfig,
    bw: &BandwidthModel,
    w: &InferenceWorkload,
    dep: &InferenceDeployment,
) -> ArchRun {
    assert!(dep.chips >= 1);
    let bpt = bus_per_tree(cfg, dep.tree_table_bytes);
    // Trees are distributed round-robin across chips; each chip serves
    // its share of trees for every record, and each record's partial
    // sums are combined (negligible: one small value per chip).
    let trees_per_chip = w.num_trees.div_ceil(dep.chips as usize);
    let reps = f64::from(replicas(cfg, trees_per_chip, bpt));
    // Steady-state: one record per (max_depth x level cycles) per
    // replica; grouped-SRAM trees pay one extra hop cycle per level.
    let level_cycles = f64::from(cfg.tree_level_cycles) + if bpt > 1 { 1.0 } else { 0.0 };
    let interval = f64::from(w.max_depth) * level_cycles;
    let compute = (w.n_records as f64 * interval / reps).ceil() as u64;
    // Each chip broadcasts every record once (full row-major record;
    // trees use many fields), outputs one f32 per record per chip.
    let read_blocks = (w.n_records as f64 * f64::from(w.record_bytes) / 64.0).ceil() as u64;
    let write_blocks = (w.n_records as f64 * 4.0 / 64.0).ceil() as u64;
    let mem = bw.cycles(read_blocks + write_blocks, 1.0);
    let cycles = mem.max(compute) + cfg.fill_drain_cycles();
    let steps = crate::report::StepSeconds {
        step5: cycles as f64 / (cfg.clock_ghz * 1e9),
        ..Default::default()
    };
    ArchRun {
        name: "Booster".into(),
        steps,
        // Every chip reads the full record stream.
        dram_blocks: (read_blocks + write_blocks) * u64::from(dep.chips),
        sram_accesses: w.total_path_len,
    }
}

/// Ideal-machine batch-inference time (seconds): actual path-length work
/// across lanes, floored by memory.
pub fn ideal_inference(
    cfg: &IdealMachineConfig,
    work: &WorkModel,
    bw: &BandwidthModel,
    w: &InferenceWorkload,
    name: &'static str,
) -> ArchRun {
    let ops =
        w.total_path_len as f64 * work.step5_per_level + w.n_records as f64 * w.num_trees as f64; // output combining
    let compute = ops / (f64::from(cfg.lanes) * cfg.clock_ghz * 1e9);
    let read_blocks = (w.n_records as f64 * f64::from(w.record_bytes) / 64.0).ceil() as u64;
    let write_blocks = (w.n_records as f64 * 4.0 / 64.0).ceil() as u64;
    let mem_cycles = bw.cycles(read_blocks + write_blocks, 1.0);
    let mem = mem_cycles as f64 / (bw.config().clock_ghz * 1e9);
    let steps = crate::report::StepSeconds { step5: compute.max(mem), ..Default::default() };
    ArchRun {
        name: name.into(),
        steps,
        dram_blocks: read_blocks + write_blocks,
        sram_accesses: w.total_path_len,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use booster_dram::DramConfig;

    fn workload(n: usize, trees: usize, avg_path: f64, max_depth: u32) -> InferenceWorkload {
        InferenceWorkload {
            n_records: n,
            record_bytes: 28,
            num_trees: trees,
            total_path_len: (n as f64 * trees as f64 * avg_path) as u64,
            max_depth,
        }
    }

    #[test]
    fn paper_replica_count() {
        let cfg = BoosterConfig::default();
        assert_eq!(replicas(&cfg, 500, 1), 6, "3200/500 = 6 replicas");
    }

    #[test]
    fn multi_chip_scales_throughput() {
        // An ensemble too large for good single-chip replication speeds
        // up when distributed round-robin (Section III-D).
        let bw = BandwidthModel::new(DramConfig::default());
        let cfg = BoosterConfig::default();
        let w = workload(2_000_000, 3000, 5.8, 6); // 3000 trees: 1 replica/chip
        let one = booster_inference_deployed(
            &cfg,
            &bw,
            &w,
            &InferenceDeployment { chips: 1, tree_table_bytes: 0 },
        );
        let four = booster_inference_deployed(
            &cfg,
            &bw,
            &w,
            &InferenceDeployment { chips: 4, tree_table_bytes: 0 },
        );
        let sp = one.total() / four.total();
        assert!(sp > 2.0, "4 chips should speed up a 3000-tree ensemble: {sp:.2}x");
        // Each chip streams the records: DRAM traffic scales with chips.
        assert_eq!(four.dram_blocks, one.dram_blocks * 4);
    }

    #[test]
    fn large_trees_group_srams_and_slow_the_walk() {
        // A tree table bigger than one 2 KB SRAM occupies a group of BUs
        // (ext. 5): fewer replicas and an extra hop cycle per level.
        let bw = BandwidthModel::new(DramConfig::default());
        let cfg = BoosterConfig::default();
        let w = workload(1_000_000, 500, 5.8, 6);
        let small = booster_inference_deployed(
            &cfg,
            &bw,
            &w,
            &InferenceDeployment { chips: 1, tree_table_bytes: 1_024 },
        );
        let large = booster_inference_deployed(
            &cfg,
            &bw,
            &w,
            &InferenceDeployment { chips: 1, tree_table_bytes: 6_000 }, // 3 SRAMs/tree
        );
        assert!(
            large.total() > small.total() * 2.0,
            "grouped trees must slow inference: {} vs {}",
            large.total(),
            small.total()
        );
        assert_eq!(bus_per_tree(&cfg, 6_000), 3);
        assert_eq!(bus_per_tree(&cfg, 0), 1);
        assert_eq!(bus_per_tree(&cfg, 2_048), 1);
    }

    #[test]
    fn booster_beats_ideal_cpu_by_large_factor() {
        let bw = BandwidthModel::new(DramConfig::default());
        let cfg = BoosterConfig::default();
        let w = workload(1_000_000, 500, 5.8, 6);
        let b = booster_inference(&cfg, &bw, &w);
        let c = ideal_inference(
            &IdealMachineConfig::ideal_cpu(),
            &WorkModel::default(),
            &bw,
            &w,
            "Ideal 32-core",
        );
        let sp = c.total() / b.total();
        assert!(sp > 20.0 && sp < 120.0, "inference speedup {sp}");
    }

    #[test]
    fn shallow_trees_narrow_the_speedup() {
        // IoT effect: Booster is max-depth-bound; the CPU benefits from
        // short actual paths.
        let bw = BandwidthModel::new(DramConfig::default());
        let cfg = BoosterConfig::default();
        let deep = workload(1_000_000, 500, 5.8, 6);
        let shallow = workload(1_000_000, 500, 2.2, 6);
        let cpu = IdealMachineConfig::ideal_cpu();
        let wm = WorkModel::default();
        let sp_deep = ideal_inference(&cpu, &wm, &bw, &deep, "c").total()
            / booster_inference(&cfg, &bw, &deep).total();
        let sp_shallow = ideal_inference(&cpu, &wm, &bw, &shallow, "c").total()
            / booster_inference(&cfg, &bw, &shallow).total();
        assert!(
            sp_shallow < sp_deep * 0.6,
            "shallow {sp_shallow} should be well below deep {sp_deep}"
        );
    }

    #[test]
    fn scaling_workload() {
        let w = workload(1000, 10, 3.0, 6);
        let s = w.scaled(10.0);
        assert_eq!(s.n_records, 10_000);
        assert_eq!(s.total_path_len, w.total_path_len * 10);
        assert_eq!(s.max_depth, 6);
    }
}
