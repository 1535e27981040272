//! Golden-training rail: bit-pins what the boosting loop produces for
//! every objective kind, growth order, eval mode and sampling mode.
//!
//! Each matrix cell trains a small model and digests everything the
//! engine hands back that is not wall-clock time, in two columns of
//! `tests/fixtures/golden_training.digests` (`name model work`):
//!
//! - **model** — the serialized model, the `loss_history` and
//!   `eval_history` bit patterns and `best_iteration`: what training
//!   *produced*. Blessed from the engine while scalar, softmax and
//!   LambdaRank each had a loop of their own, so any restructuring of
//!   the boosting loop or of a Step kernel must reproduce all of them —
//!   on both local executors — without re-blessing.
//! - **work** — the `WorkCounters`: how much work the engine *did* to
//!   get there. A change that honestly does less work (skips a
//!   histogram nobody reads) re-blesses this column alone, and the
//!   model column proves the result did not move.
//!
//! Regenerating the work column after an intentional change in the
//! work done (model digests are kept from the fixture and still
//! asserted):
//! `cargo test --test golden_training -- --ignored bless_work`
//!
//! Regenerating both (only after an *intentional* change to training
//! numerics, never to make a refactor pass):
//! `cargo test --test golden_training -- --ignored bless_all`

use std::collections::BTreeMap;
use std::path::PathBuf;

use booster_repro::gbdt::columnar::ColumnarMirror;
use booster_repro::gbdt::dataset::{Dataset, RawValue};
use booster_repro::gbdt::gradients::Objective;
use booster_repro::gbdt::grow::{grow_forest_with_eval, GrowthStrategy};
use booster_repro::gbdt::metrics::EvalMetric;
use booster_repro::gbdt::parallel::ParallelExec;
use booster_repro::gbdt::preprocess::BinnedDataset;
use booster_repro::gbdt::schema::{DatasetSchema, FieldSchema};
use booster_repro::gbdt::serialize::model_to_bytes;
use booster_repro::gbdt::train::{
    EarlyStopping, EvalSet, SequentialExec, StepExecutor, TrainConfig,
};

const DOCS_PER_QUERY: usize = 12;

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/golden_training.digests")
}

/// FNV-1a over a byte stream: dependency-free and stable across
/// platforms, which is all a regression digest needs.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn f64s(&mut self, vs: &[f64]) {
        self.u64(vs.len() as u64);
        for v in vs {
            self.u64(v.to_bits());
        }
    }
}

/// The five objective kinds of the matrix: three scalar losses, the
/// K-output softmax and the query-coupled LambdaRank.
fn objectives() -> [(&'static str, Objective); 5] {
    [
        ("squared", Objective::SquaredError),
        ("logistic", Objective::Logistic),
        ("pinball", Objective::PinballQuantile { alpha: 0.8 }),
        ("softmax3", Objective::Softmax { num_class: 3 }),
        ("lambdarank", Objective::LambdaRank),
    ]
}

fn growths() -> [(&'static str, GrowthStrategy); 3] {
    [
        ("vertex", GrowthStrategy::VertexWise),
        ("level", GrowthStrategy::LevelWise),
        ("leaf", GrowthStrategy::LeafWise { max_leaves: 6 }),
    ]
}

/// `queries * DOCS_PER_QUERY` records over two numeric fields, one
/// categorical field and a sometimes-missing numeric field, labelled for
/// `objective`. Features depend only on `seed`, so every objective sees
/// the same table; labels carry seeded noise so a held-out set drawn
/// from another seed stops improving before training does.
fn dataset(objective: Objective, queries: usize, seed: u64) -> Dataset {
    let schema = DatasetSchema::new(vec![
        FieldSchema::numeric_with_bins("a", 16),
        FieldSchema::numeric_with_bins("b", 16),
        FieldSchema::categorical("c", 4),
        FieldSchema::numeric_with_bins("d", 8),
    ]);
    let mut ds = Dataset::new(schema);
    let mut state = seed;
    let mut rng = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((state >> 33) as f32) / (u32::MAX >> 1) as f32
    };
    for _ in 0..queries * DOCS_PER_QUERY {
        let a = rng();
        let b = rng();
        let c = (rng() * 4.0) as u32 % 4;
        let d = rng();
        let noise = rng();
        let signal = 2.0 * a + if b > 0.5 { 1.0 } else { 0.0 } + if c == 2 { 0.75 } else { 0.0 };
        let label = match objective {
            Objective::SquaredError | Objective::PinballQuantile { .. } => signal + noise - 0.5,
            Objective::Logistic => f32::from(u8::from((signal > 1.6) ^ (noise < 0.15))),
            Objective::Softmax { num_class } => {
                let class = if noise < 0.15 { (noise * 100.0) as u32 } else { signal as u32 };
                (class % num_class) as f32
            }
            Objective::LambdaRank => (signal + noise - 0.5).clamp(0.0, 3.0).floor(),
        };
        let d = if d < 0.2 { RawValue::Missing } else { RawValue::Num(d) };
        ds.push_record(&[RawValue::Num(a), RawValue::Num(b), RawValue::Cat(c), d], label);
    }
    ds
}

/// Training and eval tables for `objective`, the eval set binned with
/// the training binnings; LambdaRank tables carry their query groups.
fn tables(objective: Objective) -> (BinnedDataset, BinnedDataset) {
    let (train_q, eval_q) = (20, 8);
    let mut train = BinnedDataset::from_dataset(&dataset(objective, train_q, 0x5EED));
    let mut eval = BinnedDataset::from_dataset_with_binnings(
        &dataset(objective, eval_q, 0xE7A1),
        train.binnings().to_vec(),
    );
    if objective == Objective::LambdaRank {
        train.set_query_groups(vec![DOCS_PER_QUERY as u32; train_q]);
        eval.set_query_groups(vec![DOCS_PER_QUERY as u32; eval_q]);
    }
    (train, eval)
}

/// One cell's two digests: what training produced, and the work it
/// took.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Cell {
    model: u64,
    work: u64,
}

/// Train every cell of the matrix on `exec` and return `name -> digests`.
fn run_matrix(exec: &dyn StepExecutor) -> BTreeMap<String, Cell> {
    let mut out = BTreeMap::new();
    for (oname, objective) in objectives() {
        let (train, eval) = tables(objective);
        let mirror = ColumnarMirror::from_binned(&train);
        let metric = match objective {
            Objective::Softmax { .. } => EvalMetric::MultiLogloss,
            Objective::LambdaRank => EvalMetric::Ndcg { k: 5 },
            _ => EvalMetric::Loss,
        };
        for (gname, growth) in growths() {
            for with_eval in [false, true] {
                for sample in [1.0, 0.7] {
                    let cfg = TrainConfig {
                        num_trees: 8,
                        max_depth: 3,
                        learning_rate: 0.5,
                        objective,
                        growth,
                        subsample: sample,
                        colsample_bytree: sample,
                        colsample_bynode: sample,
                        seed: 0xB005_7E12,
                        early_stopping: with_eval.then_some(EarlyStopping {
                            metric,
                            patience: 2,
                            min_delta: 0.0,
                        }),
                        ..Default::default()
                    };
                    let eval_set = EvalSet::new(&eval);
                    let (model, report) = grow_forest_with_eval(
                        &train,
                        &mirror,
                        &cfg,
                        exec,
                        with_eval.then_some(&eval_set),
                    );
                    let mut d = Digest::new();
                    let bytes = model_to_bytes(&model);
                    d.u64(bytes.len() as u64);
                    d.bytes(&bytes);
                    d.f64s(&report.loss_history);
                    d.f64s(report.eval_history.as_deref().unwrap_or(&[]));
                    d.u64(report.eval_history.is_some() as u64);
                    d.u64(report.best_iteration.map_or(u64::MAX, |b| b as u64));
                    let mut w = Digest::new();
                    w.bytes(format!("{:?}", report.work).as_bytes());
                    let eval_tag = if with_eval { "es" } else { "noeval" };
                    out.insert(
                        format!("{oname}/{gname}/{eval_tag}/sample{sample}"),
                        Cell { model: d.0, work: w.0 },
                    );
                }
            }
        }
    }
    out
}

fn blessed() -> BTreeMap<String, Cell> {
    let text = std::fs::read_to_string(fixture_path()).unwrap_or_else(|_| {
        panic!(
            "tests/fixtures/golden_training.digests missing — see the module docs for the \
             bless command"
        )
    });
    text.lines()
        .map(|line| {
            let mut cols = line.split(' ');
            let mut next = || cols.next().expect("`name model work` per line");
            let name = next().to_string();
            let mut hex = || u64::from_str_radix(next(), 16).expect("hex digest");
            (name, Cell { model: hex(), work: hex() })
        })
        .collect()
}

/// Compare a matrix run against the fixture, naming every diverging
/// cell so a failure points at the objective/growth/eval/sampling
/// combination that moved.
fn assert_matches_blessed(exec_name: &str, got: &BTreeMap<String, Cell>) {
    let want = blessed();
    assert_eq!(
        got.keys().collect::<Vec<_>>(),
        want.keys().collect::<Vec<_>>(),
        "matrix cells differ from the fixture's"
    );
    for (column, pick) in
        [("model", (|c| c.model) as fn(&Cell) -> u64), ("work", |c: &Cell| c.work)]
    {
        let moved: Vec<&String> =
            got.iter().filter(|(k, v)| pick(&want[*k]) != pick(v)).map(|(k, _)| k).collect();
        assert!(
            moved.is_empty(),
            "{exec_name}: {} of {} `{column}` digests diverged from the blessed fixture: {moved:?}",
            moved.len(),
            got.len()
        );
    }
}

#[test]
fn sequential_exec_reproduces_the_blessed_training_digests() {
    assert_matches_blessed("SequentialExec", &run_matrix(&SequentialExec));
}

#[test]
fn parallel_exec_reproduces_the_blessed_training_digests() {
    assert_matches_blessed(
        "ParallelExec { chunk_size: 8 }",
        &run_matrix(&ParallelExec { chunk_size: 8 }),
    );
}

/// The matrix is only a rail if its cells differ from one another: no
/// two cells may have trained the same run.
#[test]
fn the_matrix_exercises_distinct_behaviours() {
    let want = blessed();
    assert_eq!(want.len(), 5 * 3 * 2 * 2);
    let mut distinct: Vec<u64> = want.values().map(|c| c.model).collect();
    distinct.sort_unstable();
    distinct.dedup();
    assert_eq!(distinct.len(), want.len(), "two matrix cells trained identical runs");
}

fn write_fixture(cells: &BTreeMap<String, Cell>) {
    let text: String =
        cells.iter().map(|(k, c)| format!("{k} {:016x} {:016x}\n", c.model, c.work)).collect();
    std::fs::write(fixture_path(), text).expect("fixture written");
}

/// Re-bless the work column only: the model column is carried over
/// from the fixture, and the run must still reproduce it.
#[test]
#[ignore = "writes the fixture; run only after an intentional change in the work done"]
fn bless_work() {
    let got = run_matrix(&SequentialExec);
    let mut cells = blessed();
    assert_eq!(got.keys().collect::<Vec<_>>(), cells.keys().collect::<Vec<_>>());
    for (name, cell) in &mut cells {
        assert_eq!(
            got[name].model, cell.model,
            "{name}: the model digest moved; not a work change"
        );
        cell.work = got[name].work;
    }
    write_fixture(&cells);
}

#[test]
#[ignore = "writes the fixture; run only after an intentional numerics change"]
fn bless_all() {
    write_fixture(&run_matrix(&SequentialExec));
}
