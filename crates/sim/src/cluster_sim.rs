//! Detailed cycle-level simulation of Booster clusters.
//!
//! The paper validates its performance model against FPGA-validated RTL
//! (Section IV: "we do model the delays of our histogram-binning,
//! single-predicate-evaluation, and one-tree traversal based on our RTL
//! implementation"). This module plays that role for the Rust
//! reproduction: it simulates the fetch/broadcast/BU machinery
//! record by record with explicit per-BU port occupancy and
//! memory-arrival pacing, and the test-suite checks the fast analytic
//! occupancy model in [`crate::booster`] against it.
//!
//! The simulated machinery (Section III-B):
//! - records arrive from the double-buffered fetch engine at the
//!   DRAM-sustained rate (one record per `mem_interval` cycles,
//!   fractional intervals accumulated exactly);
//! - the pipelined broadcast bus adds a fill latency of one cycle per
//!   link segment (`bus_per_link` BUs per segment);
//! - each field update occupies its BU's SRAM port for
//!   `field_update_cycles`; co-packed fields serialize on the port;
//! - histogram copies (replicas) accept records round-robin;
//! - for one-tree traversal, each BU walks one record for
//!   `path_len × tree_level_cycles` before accepting the next.

use crate::machine::BoosterConfig;
use crate::mapping::FieldMapping;

/// Result of a detailed simulation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetailedResult {
    /// Total cycles from first fetch to last retire.
    pub cycles: u64,
    /// Cycles the record stream stalled waiting for busy BUs.
    pub compute_stall_cycles: u64,
    /// Cycles the BUs idled waiting for memory.
    pub memory_wait_cycles: u64,
    /// Mean BU-port utilization over the run (0..=1).
    pub bu_utilization: f64,
}

/// Pacing of record arrivals from memory: `num`/`den` cycles per record
/// (kept rational so long runs accumulate no drift).
#[derive(Debug, Clone, Copy)]
pub struct ArrivalRate {
    /// Numerator of cycles-per-record.
    pub num: u64,
    /// Denominator of cycles-per-record.
    pub den: u64,
}

impl ArrivalRate {
    /// From a blocks-per-cycle bandwidth and a per-record block cost.
    pub fn from_bandwidth(blocks_per_cycle: f64, blocks_per_record: f64) -> Self {
        // cycles per record = blocks_per_record / blocks_per_cycle.
        let cpr = blocks_per_record / blocks_per_cycle;
        let den = 1_000_000u64;
        ArrivalRate { num: (cpr * den as f64).round().max(0.0) as u64, den }
    }

    fn arrival_cycle(&self, record_idx: u64) -> u64 {
        // Ceiling of idx * num / den.
        (record_idx * self.num).div_ceil(self.den)
    }
}

/// Detailed Step-1 simulation: `n_records` stream through the mapped
/// SRAMs of every histogram replica.
///
/// `replicas` is the number of concurrent histogram copies accepting
/// records round-robin (cluster-level replication).
pub fn simulate_step1(
    cfg: &BoosterConfig,
    mapping: &FieldMapping,
    replicas: u32,
    n_records: u64,
    arrival: ArrivalRate,
) -> DetailedResult {
    assert!(replicas >= 1);
    let upd = u64::from(cfg.field_update_cycles);
    // Bus fill latency in segments, then per-replica service: the
    // critical port is the SRAM with the most co-packed fields — it
    // receives `max_fields_per_sram` serialized updates per record, so
    // the replica accepts a record every `ser * upd` cycles.
    let fill = u64::from(cfg.bus_per_cluster / cfg.bus_per_link);
    let ser = mapping.max_fields_per_sram as u64;
    let service = ser * upd;

    let mut replica_free = vec![0u64; replicas as usize];
    let mut compute_stall = 0u64;
    let mut memory_wait = 0u64;
    let mut last_retire = 0u64;
    let mut busy_cycles = 0u64;

    for r in 0..n_records {
        let arrive = arrival.arrival_cycle(r) + fill;
        let rep = (r % u64::from(replicas)) as usize;
        let free_at = replica_free[rep];
        let start = arrive.max(free_at);
        if free_at > arrive {
            compute_stall += free_at - arrive;
        } else {
            memory_wait += arrive - free_at;
        }
        replica_free[rep] = start + service;
        busy_cycles += service;
        last_retire = last_retire.max(start + service);
    }
    let cycles = last_retire.max(1);
    // Port-utilization of the critical SRAM across replicas.
    let capacity = cycles * u64::from(replicas);
    DetailedResult {
        cycles,
        compute_stall_cycles: compute_stall,
        memory_wait_cycles: memory_wait,
        bu_utilization: busy_cycles as f64 / capacity as f64,
    }
}

/// Fully coupled Step-1 co-simulation: the record stream's block
/// addresses run through the cycle-level DRAM simulator, and each
/// completed block releases its packed records to the BU clusters —
/// arrivals are actual memory completions, not an average rate. This is
/// the highest-fidelity mode; [`simulate_step1`] approximates it with
/// rational-paced arrivals.
///
/// `block_trace` lists the block addresses of the phase's fetch stream in
/// order; `records_per_block` is how many records each completed block
/// releases (the paper packs two records per block when records are
/// small — extension 2).
pub fn simulate_step1_coupled(
    cfg: &BoosterConfig,
    mapping: &FieldMapping,
    replicas: u32,
    block_trace: &[u64],
    records_per_block: u32,
) -> DetailedResult {
    use booster_dram::{MemorySystem, Request};
    assert!(replicas >= 1 && records_per_block >= 1);
    let upd = u64::from(cfg.field_update_cycles);
    let fill = u64::from(cfg.bus_per_cluster / cfg.bus_per_link);
    let ser = mapping.max_fields_per_sram as u64;
    let service = ser * upd;

    let mut mem = MemorySystem::new(cfg.dram);
    let mut next_req = 0usize;
    let mut ready_records = 0u64; // fetched, waiting for a BU slot
    let mut replica_free = vec![0u64; replicas as usize];
    let mut rr = 0usize; // round-robin replica cursor
    let mut compute_stall = 0u64;
    let mut memory_wait = 0u64;
    let mut busy_cycles = 0u64;
    let mut last_retire = 0u64;
    let mut records_done = 0u64;
    let total_records = block_trace.len() as u64 * u64::from(records_per_block);

    while records_done < total_records {
        let cycle = mem.cycle();
        // Keep the channel queues as full as they accept (double
        // buffering: every pointer is known a priori).
        while next_req < block_trace.len()
            && mem.enqueue(Request::read(block_trace[next_req])).is_some()
        {
            next_req += 1;
        }
        mem.tick();
        for c in mem.drain_completed() {
            let _ = c;
            ready_records += u64::from(records_per_block);
        }
        // Dispatch ready records to replicas that are free this cycle.
        while ready_records > 0 {
            let free_at = replica_free[rr];
            if free_at > cycle + 1 {
                compute_stall += 1;
                break;
            }
            let start = (cycle + 1).max(free_at) + fill;
            if free_at < cycle {
                memory_wait += cycle - free_at;
            }
            replica_free[rr] = start + service - fill;
            busy_cycles += service;
            last_retire = last_retire.max(start + service);
            rr = (rr + 1) % replica_free.len();
            ready_records -= 1;
            records_done += 1;
        }
        assert!(
            mem.cycle() < 1_000_000_000,
            "coupled simulation diverged at record {records_done}/{total_records}"
        );
    }
    let cycles = last_retire.max(mem.cycle()).max(1);
    DetailedResult {
        cycles,
        compute_stall_cycles: compute_stall,
        memory_wait_cycles: memory_wait,
        bu_utilization: busy_cycles as f64 / (cycles * u64::from(replicas)) as f64,
    }
}

/// Detailed Step-5 / batch-inference tree-walk simulation: records are
/// dispatched to the first free BU; each record occupies its BU for
/// `path_len × tree_level_cycles`.
///
/// `path_lens` supplies each record's path length (tree depth walked);
/// `n_bus` is the number of BUs holding tree copies.
pub fn simulate_tree_walk(
    cfg: &BoosterConfig,
    n_bus: u32,
    path_lens: &[u32],
    arrival: ArrivalRate,
) -> DetailedResult {
    assert!(n_bus >= 1);
    let level = u64::from(cfg.tree_level_cycles);
    let fill = u64::from(cfg.total_bus() / cfg.bus_per_link).min(200);
    // Min-heap over (free time, BU index): earliest-free BU wins, ties
    // broken by index for determinism.
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    let mut heap: BinaryHeap<Reverse<(u64, u32)>> =
        (0..n_bus).map(|i| Reverse((0u64, i))).collect();
    let mut compute_stall = 0u64;
    let mut memory_wait = 0u64;
    let mut last_retire = 0u64;
    let mut busy = 0u64;

    for (r, &p) in path_lens.iter().enumerate() {
        let arrive = arrival.arrival_cycle(r as u64) + fill;
        let Reverse((earliest, idx)) = heap.pop().expect("at least one BU");
        let start = arrive.max(earliest);
        if earliest > arrive {
            compute_stall += earliest - arrive;
        } else {
            memory_wait += arrive - earliest;
        }
        let service = u64::from(p).max(1) * level;
        heap.push(Reverse((start + service, idx)));
        busy += service;
        last_retire = last_retire.max(start + service);
    }
    let cycles = last_retire.max(1);
    DetailedResult {
        cycles,
        compute_stall_cycles: compute_stall,
        memory_wait_cycles: memory_wait,
        bu_utilization: busy as f64 / (cycles * u64::from(n_bus)) as f64,
    }
}

// ---------------------------------------------------------------------
// Multi-node histogram traffic
// ---------------------------------------------------------------------

/// The suspended vertex-total accumulator on the wire: four `(g, h)`
/// partial lanes and the position.
const DIST_ACC_BYTES: u64 = 64 + 8;

/// Predicted Step-1 payload traffic of one distributed histogram build
/// under the chained fixed-order reduction (`booster-dist`): every
/// engaged worker receives a `BuildHist` request (row ids plus, after
/// the first link, the running lanes) and answers with `HistDone` (the
/// updated lanes), so link `i`'s lane block crosses the wire twice —
/// as its reply and as link `i + 1`'s carry — except the last one's:
/// `2·W − 1` crossings. `blocks[i]` says how link `i`'s block was
/// encoded: `None` for dense, `Some(occupied)` for sparse (the encoder
/// picks per block from the occupancy it counted).
///
/// Derivation, mirroring the wire layout byte for byte:
/// - lane block: `4` (bin count) `+ 1` (mode) `+` body, dense body
///   `24·total_bins` (G, H, count lanes), sparse body `4` (occupied
///   count) `+ ⌈total_bins/8⌉` (bitmap) `+ 24·occupied`;
/// - accumulator: `64` (four suspended lanes) `+ 8` (position);
/// - request: `1` (op) `+ 4` (seq) `+ 4` (row count) `+ 4·rows`
///   `+ 1` (carry flag) `+` block and accumulator for every link after
///   the first;
/// - reply: `1` (op) `+ 4` (seq) `+` block and accumulator.
///
/// The `tests/sim_invariants.rs` cross-check holds this formula equal
/// to the bytes the in-process transport actually counted, so the
/// cluster discussion's traffic claims stay pinned to the real wire
/// format. Payload bytes only — framing adds 4 bytes per frame, i.e.
/// `8·engaged` per build.
pub fn dist_step1_payload_bytes(total_bins: u64, rows_shipped: u64, blocks: &[Option<u64>]) -> u64 {
    let links = blocks.len() as u64;
    let lanes = |block: &Option<u64>| {
        let body = match block {
            None => 24 * total_bins,
            Some(occupied) => 4 + total_bins.div_ceil(8) + 24 * occupied,
        };
        4 + 1 + body + DIST_ACC_BYTES
    };
    let carried: u64 = blocks.iter().rev().skip(1).map(lanes).sum();
    let replied: u64 = blocks.iter().map(lanes).sum();
    let requests = links * (1 + 4 + 4 + 1) + 4 * rows_shipped + carried;
    let replies = links * (1 + 4) + replied;
    requests + replies
}

/// Predicted payload traffic of one totals-only Step-1 exchange — a
/// vertex at `max_depth`, whose histogram nobody would scan: the same
/// chain with the lanes left out. Request: `1` (op) `+ 4` (seq) `+ 4`
/// (row count) `+ 4·rows +` accumulator; reply: `1 + 4 +` accumulator.
pub fn dist_vertex_total_payload_bytes(engaged: u32, rows_shipped: u64) -> u64 {
    let links = u64::from(engaged);
    links * (1 + 4 + 4 + DIST_ACC_BYTES) + 4 * rows_shipped + links * (1 + 4 + DIST_ACC_BYTES)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::MappingStrategy;
    use crate::mapping::{map_fields, replication_factor};
    use crate::traffic::BandwidthModel;
    use booster_dram::DramConfig;

    fn cfg() -> BoosterConfig {
        BoosterConfig::default()
    }

    #[test]
    fn compute_bound_throughput_matches_service_rate() {
        // Memory far faster than compute: the replica service rate
        // governs. 1 replica, serialization 1 -> 8 cycles/record.
        let mapping = map_fields(&[256u32; 28], &cfg());
        let arrival = ArrivalRate { num: 1, den: 1 }; // 1 cycle/record
        let res = simulate_step1(&cfg(), &mapping, 1, 10_000, arrival);
        let expected = 10_000 * 8;
        assert!(
            res.cycles >= expected && res.cycles < expected + 200,
            "cycles {} vs expected ~{}",
            res.cycles,
            expected
        );
        assert!(res.compute_stall_cycles > 0);
        assert!(res.bu_utilization > 0.99);
    }

    #[test]
    fn memory_bound_throughput_matches_arrival_rate() {
        // Memory slower than compute: arrivals govern. The last record
        // arrives at (n-1) * interval and retires after fill + service.
        let mapping = map_fields(&[256u32; 28], &cfg());
        let arrival = ArrivalRate { num: 20, den: 1 }; // 20 cycles/record
        let res = simulate_step1(&cfg(), &mapping, 4, 5_000, arrival);
        let expected = 4_999 * 20;
        assert!(
            res.cycles >= expected && res.cycles < expected + 300,
            "cycles {} vs expected ~{}",
            res.cycles,
            expected
        );
        assert!(res.memory_wait_cycles > 0);
    }

    #[test]
    fn replicas_multiply_compute_throughput() {
        let mapping = map_fields(&[256u32; 28], &cfg());
        let arrival = ArrivalRate { num: 1, den: 1 };
        let one = simulate_step1(&cfg(), &mapping, 1, 8_000, arrival);
        let four = simulate_step1(&cfg(), &mapping, 4, 8_000, arrival);
        let speedup = one.cycles as f64 / four.cycles as f64;
        assert!((speedup - 4.0).abs() < 0.3, "4 replicas should give ~4x: {speedup}");
    }

    #[test]
    fn naive_packing_serializes_in_detail() {
        // 64 tiny categorical fields: group-by-field sustains 8
        // cycles/record; naive packing serializes all fields on few
        // SRAMs.
        let bins = vec![5u32; 64];
        let grouped = map_fields(&bins, &cfg());
        let packed_cfg = BoosterConfig { mapping: MappingStrategy::NaivePacking, ..cfg() };
        let packed = map_fields(&bins, &packed_cfg);
        let arrival = ArrivalRate { num: 1, den: 1 };
        let g = simulate_step1(&cfg(), &grouped, 1, 2_000, arrival);
        let p = simulate_step1(&packed_cfg, &packed, 1, 2_000, arrival);
        assert!(
            p.cycles as f64 > g.cycles as f64 * 10.0,
            "packing must serialize heavily: grouped {} packed {}",
            g.cycles,
            p.cycles
        );
    }

    /// The headline validation: the analytic Step-1 occupancy formula in
    /// `booster.rs` (max(mem, n*ser*upd/replicas)) agrees with the
    /// detailed simulation within a few percent across regimes.
    #[test]
    fn analytic_step1_matches_detailed_within_tolerance() {
        let c = cfg();
        let bw = BandwidthModel::new(DramConfig::default());
        for (fields, n_records, blocks_per_record) in [
            (28usize, 200_000u64, 0.56f64), // Higgs-like dense root
            (115, 100_000, 1.92),           // IoT-like wide records
            (8, 200_000, 0.25),             // Flight-like narrow records
        ] {
            let field_bins = vec![256u32; fields];
            let mapping = map_fields(&field_bins, &c);
            let repl = replication_factor(&c, mapping.srams_used());
            let bpc = bw.blocks_per_cycle(1.0);
            let arrival = ArrivalRate::from_bandwidth(bpc, blocks_per_record);

            let detailed = simulate_step1(&c, &mapping, repl as u32, n_records, arrival);

            let mem = (n_records as f64 * blocks_per_record / bpc).ceil();
            let compute = n_records as f64
                * mapping.max_fields_per_sram as f64
                * f64::from(c.field_update_cycles)
                / repl;
            let analytic = mem.max(compute) + c.fill_drain_cycles() as f64;

            let ratio = detailed.cycles as f64 / analytic;
            assert!(
                (0.93..=1.07).contains(&ratio),
                "fields={fields}: detailed {} vs analytic {analytic} (ratio {ratio})",
                detailed.cycles
            );
        }
    }

    #[test]
    fn coupled_simulation_memory_bound_matches_dram_time() {
        // Few replicas of cheap compute: the coupled run's duration must
        // track the pure DRAM trace time for the same blocks.
        let c = cfg();
        let mapping = map_fields(&[256u32; 28], &c);
        // Dense stream: 20k blocks, 2 records each.
        let trace: Vec<u64> = (0..20_000).collect();
        let res = simulate_step1_coupled(&c, &mapping, 100, &trace, 2);
        let pure_mem =
            booster_dram::run_trace(c.dram, trace.iter().map(|&b| booster_dram::Request::read(b)));
        let ratio = res.cycles as f64 / pure_mem.cycles as f64;
        assert!(
            (0.95..=1.3).contains(&ratio),
            "coupled {} vs pure DRAM {} (ratio {ratio})",
            res.cycles,
            pure_mem.cycles
        );
    }

    #[test]
    fn coupled_simulation_compute_bound_matches_service_rate() {
        // One replica: compute (8 cycles/record, 2 records/block) is far
        // slower than the ~6 blocks/cycle memory.
        let c = cfg();
        let mapping = map_fields(&[256u32; 28], &c);
        let trace: Vec<u64> = (0..5_000).collect();
        let res = simulate_step1_coupled(&c, &mapping, 1, &trace, 2);
        let expected = 5_000u64 * 2 * 8;
        let ratio = res.cycles as f64 / expected as f64;
        assert!(
            (0.95..=1.1).contains(&ratio),
            "coupled {} vs compute bound {expected} (ratio {ratio})",
            res.cycles
        );
        assert!(res.bu_utilization > 0.9);
    }

    #[test]
    fn coupled_and_paced_models_agree() {
        // The rational-paced approximation must track the fully coupled
        // co-simulation on a homogeneous stream.
        let c = cfg();
        let mapping = map_fields(&[256u32; 28], &c);
        let trace: Vec<u64> = (0..10_000).collect();
        let coupled = simulate_step1_coupled(&c, &mapping, 8, &trace, 2);
        let bw = BandwidthModel::new(c.dram);
        let arrival = ArrivalRate::from_bandwidth(bw.blocks_per_cycle(1.0), 0.5);
        let paced = simulate_step1(&c, &mapping, 8, 20_000, arrival);
        let ratio = coupled.cycles as f64 / paced.cycles as f64;
        assert!(
            (0.85..=1.15).contains(&ratio),
            "coupled {} vs paced {} (ratio {ratio})",
            coupled.cycles,
            paced.cycles
        );
    }

    #[test]
    fn tree_walk_throughput_matches_analytic() {
        let c = cfg();
        // 3200 BUs, uniform depth-6 paths, memory effectively free (the
        // whole batch arrives within ~10 cycles).
        let paths = vec![6u32; 100_000];
        let arrival = ArrivalRate { num: 1, den: 10_000 };
        let res = simulate_tree_walk(&c, c.total_bus(), &paths, arrival);
        let analytic = 100_000.0 * 6.0 * f64::from(c.tree_level_cycles) / f64::from(c.total_bus());
        let ratio = res.cycles as f64 / (analytic + 200.0);
        assert!((0.9..=1.15).contains(&ratio), "detailed {} vs analytic {}", res.cycles, analytic);
    }

    #[test]
    fn tree_walk_load_balances_varied_paths() {
        // Mixed path lengths average out across records (Section II-C's
        // load-balance claim): throughput ~ mean path, not max path.
        let c = cfg();
        let mut paths = Vec::with_capacity(60_000);
        for i in 0..60_000u32 {
            paths.push(if i % 2 == 0 { 2 } else { 6 });
        }
        let arrival = ArrivalRate { num: 1, den: 100 };
        let res = simulate_tree_walk(&c, 64, &paths, arrival);
        let mean_based = 60_000.0 * 4.0 * f64::from(c.tree_level_cycles) / 64.0;
        let max_based = 60_000.0 * 6.0 * f64::from(c.tree_level_cycles) / 64.0;
        let cycles = res.cycles as f64;
        assert!(
            (cycles - mean_based).abs() < (cycles - max_based).abs(),
            "throughput should track the mean path: {cycles} (mean {mean_based}, max {max_based})"
        );
    }

    #[test]
    fn arrival_rate_accumulates_exactly() {
        let a = ArrivalRate { num: 5, den: 2 }; // 2.5 cycles/record
        assert_eq!(a.arrival_cycle(0), 0);
        assert_eq!(a.arrival_cycle(1), 3);
        assert_eq!(a.arrival_cycle(2), 5);
        assert_eq!(a.arrival_cycle(4), 10);
        assert_eq!(a.arrival_cycle(1000), 2500);
    }
}
