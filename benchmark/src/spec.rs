//! The benchmark's fixed tables: workloads, end-to-end metrics with their
//! regression bounds, and per-layer metrics with the end-to-end metric
//! each is expected to move. `BENCHMARK.json` at the repo root is
//! generated from these tables (`--emit-manifest`) and `check.sh` fails
//! when the two drift apart, so a name exists in exactly one place.

use std::fmt::Write as _;

/// Default `--seconds`: how long one run measures (set-up comes on top).
pub const RUN_SECONDS: u64 = 24;

/// Which synthetic dataset family a workload draws from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    Higgs,
    Flight,
    Allstate,
}

/// Share of `--seconds` each measured phase of the untraced pass gets.
/// Every workload runs every phase (so every metric is reported on every
/// workload); the shares put the time where the workload's layer is, and
/// give every training phase room for five repetitions or more.
#[derive(Debug, Clone, Copy)]
pub struct Shares {
    pub bin: f64,
    pub train_seq: f64,
    pub score: f64,
    pub dist: f64,
    pub closed: f64,
    pub open: f64,
    pub inproc: f64,
}

/// One workload: a dataset shape, a model shape, and a time split. Its
/// records are a sample of a fixed population (`pipeline::set_up`): the
/// seed decides which records a run sees, never the shape of the data.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub family: Family,
    pub records: usize,
    /// Trees (depth 6) of the timed training runs. The first run's model is
    /// the one scored and served, unless `served_trees` names another.
    pub trees: usize,
    /// A scored and served model too large to train five times in a run:
    /// set-up trains it, once per set-up repetition, and `setup_s` shows it.
    pub served_trees: Option<usize>,
    /// Trees of the distributed run and its local baseline (the chain is
    /// 2-3x slower than local training, so it gets a shorter run).
    pub dist_trees: usize,
    pub shares: Shares,
}

impl Workload {
    /// The `--smoke` variant: same phases and checks on a sliver of the
    /// data, so all four workloads finish in seconds.
    pub fn smoke(mut self) -> Workload {
        self.records = (self.records / 40).max(2_000);
        self.trees = self.trees.min(12);
        self.served_trees = self.served_trees.map(|t| t.min(24));
        self.dist_trees = self.dist_trees.min(2);
        self
    }
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "higgs_dense",
        why: "200k x 28 numeric fields, packed u8 bins: Step 1 (histogram) is ~60% of training and quantile binning is costly, so histogram/binning work shows here",
        family: Family::Higgs,
        records: 200_000,
        trees: 20,
        served_trees: None,
        dist_trees: 4,
        shares: Shares {
            bin: 0.09,
            train_seq: 0.30,
            score: 0.04,
            dist: 0.13,
            closed: 0.12,
            open: 0.20,
            inproc: 0.12,
        },
    },
    Workload {
        name: "flight_cat",
        why: "800k x 8 fields (7 categorical): Step 5 is ~62% and Step 3 ~14%, Step 1 only ~21%, so tree/partition/traverse work shows here and a histogram-kernel change should move nothing",
        family: Family::Flight,
        records: 800_000,
        trees: 20,
        served_trees: None,
        dist_trees: 4,
        shares: Shares {
            bin: 0.04,
            train_seq: 0.36,
            score: 0.05,
            dist: 0.13,
            closed: 0.11,
            open: 0.20,
            inproc: 0.11,
        },
    },
    Workload {
        name: "allstate_dist",
        why: "100k x 32 fields, 4232 one-hot features so bins are u32-wide (not packed), 40 trees: the comm-dominated workload, most of its time goes to dist N=2 over TCP against the local baseline",
        family: Family::Allstate,
        records: 100_000,
        trees: 40,
        served_trees: None,
        dist_trees: 40,
        shares: Shares {
            bin: 0.04,
            train_seq: 0.20,
            score: 0.03,
            dist: 0.39,
            closed: 0.09,
            open: 0.16,
            inproc: 0.09,
        },
    },
    Workload {
        name: "serve_paper500",
        why: "the paper's model shape (500 trees depth 6, ~1.5 MB program in 7 clusters; set-up trains it) on Higgs 20k: multi-cluster scoring working set, most of the time in TCP and in-process serving",
        family: Family::Higgs,
        records: 20_000,
        trees: 50,
        served_trees: Some(500),
        dist_trees: 20,
        shares: Shares {
            bin: 0.02,
            train_seq: 0.08,
            score: 0.06,
            dist: 0.14,
            closed: 0.18,
            open: 0.34,
            inproc: 0.18,
        },
    },
];

pub fn workload(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: what a user of the stack sees. `bound` is the
/// share of the parent's median by which it may worsen before a change
/// counts as a regression.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

use Better::{Higher, Lower};

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd { name, unit, better, bound }
}

/// `mrt` = million record-trees. Each bound is about three times the
/// widest interquartile spread any workload showed over ten seeds on the
/// 2-core sandbox (README, "Measured spread"), and none is above 10%: a
/// metric that cannot hold that is in `PER_LAYER` instead, unbounded.
pub const END_TO_END: [EndToEnd; 10] = [
    e2e("setup_s", "s", Lower, 0.10),
    e2e("bin_mrec_per_s", "Mrec/s", Higher, 0.05),
    e2e("train_seq_mrt_per_s", "Mrt/s", Higher, 0.10),
    e2e("score_mrt_per_s", "Mrt/s", Higher, 0.05),
    e2e("dist_tcp_mrt_per_s", "Mrt/s", Higher, 0.10),
    e2e("dist_wire_mb", "MB", Lower, 0.08),
    e2e("serve_closed_rps", "req/s", Higher, 0.05),
    e2e("serve_p50_us_r2000", "us", Lower, 0.10),
    e2e("serve_inproc_rps", "req/s", Higher, 0.05),
    e2e("peak_rss_mb", "MB", Lower, 0.10),
];

/// The end-to-end metric that is a count. Runs of one seed must agree on
/// it exactly (`--selfcheck` holds it to a bound of 0); its bound in the
/// table above only absorbs the difference between seeds, whose samples
/// of the workload's population grow slightly different trees.
pub const EXACT: &str = "dist_wire_mb";

/// What a demoted end-to-end metric "should move": it was one itself.
const DEMOTED: &str = "nothing (was end-to-end; its spread is above a third of 10%)";

/// A per-layer metric, taken only in the traced pass by wrappers in this
/// package. `moves` names the end-to-end metric it should move.
#[derive(Debug, Clone, Copy)]
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> Layer {
    Layer { name, unit, better, moves }
}

pub const PER_LAYER: [Layer; 73] = [
    layer("datagen.generate_s", "s", Lower, "setup_s"),
    layer("gbdt.preprocess.from_dataset_ms", "ms", Lower, "bin_mrec_per_s"),
    layer("gbdt.columnar.from_binned_ms", "ms", Lower, "bin_mrec_per_s"),
    layer("gbdt.preprocess.binned_mb", "MB", Lower, "peak_rss_mb"),
    layer("gbdt.histogram.busy_ms", "ms", Lower, "train_seq_mrt_per_s"),
    layer("gbdt.histogram.calls", "count", Lower, "train_seq_mrt_per_s"),
    layer("gbdt.histogram.updates", "count", Lower, "train_seq_mrt_per_s"),
    layer("gbdt.histogram.ns_per_update", "ns", Lower, "train_seq_mrt_per_s"),
    layer("gbdt.histogram.share", "%", Lower, "train_seq_mrt_per_s"),
    layer("gbdt.partition.busy_ms", "ms", Lower, "train_seq_mrt_per_s"),
    layer("gbdt.partition.calls", "count", Lower, "train_seq_mrt_per_s"),
    layer("gbdt.partition.rows", "count", Lower, "train_seq_mrt_per_s"),
    layer("gbdt.partition.ns_per_row", "ns", Lower, "train_seq_mrt_per_s"),
    layer("gbdt.partition.share", "%", Lower, "train_seq_mrt_per_s"),
    layer("gbdt.traverse.busy_ms", "ms", Lower, "train_seq_mrt_per_s"),
    layer("gbdt.traverse.calls", "count", Lower, "train_seq_mrt_per_s"),
    layer("gbdt.traverse.records", "count", Lower, "train_seq_mrt_per_s"),
    layer("gbdt.traverse.lookups", "count", Lower, "train_seq_mrt_per_s"),
    layer("gbdt.traverse.ns_per_record", "ns", Lower, "train_seq_mrt_per_s"),
    layer("gbdt.traverse.share", "%", Lower, "train_seq_mrt_per_s"),
    layer("gbdt.grow.self_ms", "ms", Lower, "train_seq_mrt_per_s"),
    layer("gbdt.grow.self_share", "%", Lower, "train_seq_mrt_per_s"),
    layer("gbdt.split.root_scan_us", "us", Lower, "train_seq_mrt_per_s"),
    layer("gbdt.split.bins_scanned", "count", Lower, "train_seq_mrt_per_s"),
    layer("gbdt.split.ns_per_bin", "ns", Lower, "train_seq_mrt_per_s"),
    layer("gbdt.parallel.step1_speedup_x", "x", Higher, "gbdt.parallel.train_mrt_per_s"),
    layer("gbdt.parallel.step3_speedup_x", "x", Higher, "gbdt.parallel.train_mrt_per_s"),
    layer("gbdt.parallel.step5_speedup_x", "x", Higher, "gbdt.parallel.train_mrt_per_s"),
    layer("gbdt.parallel.par_over_seq_x", "x", Higher, "gbdt.parallel.train_mrt_per_s"),
    layer("gbdt.parallel.train_mrt_per_s", "Mrt/s", Higher, DEMOTED),
    layer("gbdt.infer.lower_ms", "ms", Lower, "serve.registry.register_ms"),
    layer("gbdt.compile.compile_ms", "ms", Lower, "serve.registry.register_ms"),
    layer("gbdt.compile.program_kb", "KB", Lower, "score_mrt_per_s"),
    layer("gbdt.compile.clusters", "count", Lower, "score_mrt_per_s"),
    layer("gbdt.serialize.to_bytes_ms", "ms", Lower, "serve.registry.register_ms"),
    layer("gbdt.serialize.from_bytes_ms", "ms", Lower, "serve.registry.register_ms"),
    layer("gbdt.serialize.model_kb", "KB", Lower, "serve.registry.register_ms"),
    layer("gbdt.compile.score_ns_per_rt", "ns", Lower, "score_mrt_per_s"),
    layer("gbdt.predict.nodewalk_mrt_per_s", "Mrt/s", Higher, "score_mrt_per_s"),
    layer("gbdt.compile.speedup_vs_oracle_x", "x", Higher, "score_mrt_per_s"),
    layer("gbdt.infer.predict_one_us", "us", Lower, "serve_p50_us_r2000"),
    layer("serve.registry.register_ms", "ms", Lower, DEMOTED),
    layer("serve.frame.encode_request_ns", "ns", Lower, "serve_closed_rps"),
    layer("serve.frame.decode_request_ns", "ns", Lower, "serve_closed_rps"),
    layer("serve.frame.encode_response_ns", "ns", Lower, "serve_closed_rps"),
    layer("serve.frame.decode_response_ns", "ns", Lower, "serve_closed_rps"),
    layer("serve.frame.request_bytes", "count", Lower, "serve_closed_rps"),
    layer("serve.scheduler.round_trip_us", "us", Lower, "serve_p50_us_r2000"),
    layer("serve.scheduler.overhead_us", "us", Lower, "serve_closed_rps"),
    layer("serve.scheduler.mean_batch_tcp", "count", Higher, "serve_closed_rps"),
    layer("serve.scheduler.mean_batch_inproc", "count", Higher, "serve_inproc_rps"),
    layer("serve.scheduler.rejected", "count", Lower, "serve_inproc_rps"),
    layer("serve.tcp.overhead_us", "us", Lower, "serve_p50_us_r2000"),
    layer("serve.tcp.connect_us", "us", Lower, "serve_closed_rps"),
    layer("serve.tcp.p50_us_r4000", "us", Lower, "serve_p50_us_r2000"),
    layer("serve.tcp.p99_us_r2000", "us", Lower, DEMOTED),
    layer("serve.tcp.p99_us_r4000", "us", Lower, "serve.tcp.p99_us_r2000"),
    layer("serve.tcp.max_rate_rps", "req/s", Higher, "serve_closed_rps"),
    layer("serve.loadgen.late_p99_us", "us", Lower, "serve.tcp.p99_us_r2000"),
    layer("dist.comm.send_ms", "ms", Lower, "dist_tcp_mrt_per_s"),
    layer("dist.comm.recv_wait_ms", "ms", Lower, "dist_tcp_mrt_per_s"),
    layer("dist.comm.frames", "count", Lower, "dist_tcp_mrt_per_s"),
    layer("dist.comm.bytes_build_hist", "count", Lower, "dist_wire_mb"),
    layer("dist.comm.bytes_other", "count", Lower, "dist_wire_mb"),
    layer("dist.coordinator.self_ms", "ms", Lower, "dist_tcp_mrt_per_s"),
    layer("dist.shard.shard_ms", "ms", Lower, "dist_tcp_mrt_per_s"),
    layer("dist.chan_mrt_per_s", "Mrt/s", Higher, "dist_tcp_mrt_per_s"),
    layer("dist.n1_chan_mrt_per_s", "Mrt/s", Higher, "dist_tcp_mrt_per_s"),
    layer("dist.tcp_over_chan_x", "x", Lower, "dist_tcp_mrt_per_s"),
    layer("dist.slowdown_x", "x", Lower, "dist_tcp_mrt_per_s"),
    layer("dist.proto.encode_mb_per_s", "MB/s", Higher, "dist_tcp_mrt_per_s"),
    layer("dist.proto.decode_mb_per_s", "MB/s", Higher, "dist_tcp_mrt_per_s"),
    layer("trace.overhead_pct", "%", Lower, "train_seq_mrt_per_s"),
];

/// The exact text of the repo-root `BENCHMARK.json`.
pub fn manifest_json() -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(s, "  \"run_seconds\": {RUN_SECONDS},");
    s.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let sep = if i + 1 < WORKLOADS.len() { "," } else { "" };
        let _ = writeln!(s, "    {{\"name\": \"{}\", \"why\": \"{}\"}}{sep}", w.name, w.why);
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 < END_TO_END.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{sep}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound
        );
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let sep = if i + 1 < PER_LAYER.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{sep}",
            m.name,
            m.unit,
            m.better.as_str()
        );
    }
    s.push_str("  ]\n}\n");
    s
}
