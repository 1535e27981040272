//! Full production workflow: ingest a CSV table, train, persist the
//! model in the binary format, reload it and serve predictions —
//! everything a downstream user does with a tabular dataset.
//!
//! Run with: `cargo run --release --example csv_workflow`

use booster_repro::gbdt::io::{parse_csv, to_csv, CsvOptions};
use booster_repro::gbdt::prelude::*;
use booster_repro::gbdt::serialize::{model_from_bytes, model_to_bytes};

fn main() {
    // --- 1. A CSV export, as it would come out of a spreadsheet/DB. ----
    let mut csv = String::from("churned,tenure_months,plan,monthly_spend,region\n");
    let mut state = 7u64;
    let mut rng = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((state >> 33) as f32) / (u32::MAX >> 1) as f32
    };
    let plans = ["basic", "plus", "pro"];
    let regions = ["north", "south", "east", "west"];
    for _ in 0..12_000 {
        let tenure = (rng() * 72.0).floor();
        let plan = plans[(rng() * 3.0) as usize % 3];
        let spend = 10.0 + rng() * 90.0;
        let region = regions[(rng() * 4.0) as usize % 4];
        // Ground truth: short-tenure basic-plan customers churn.
        let churn_p = if tenure < 12.0 && plan == "basic" { 0.8 } else { 0.1 };
        let churned = u8::from(rng() < churn_p);
        // 2% of rows are missing the spend column.
        let spend_cell = if rng() < 0.02 { String::new() } else { format!("{spend:.2}") };
        csv.push_str(&format!("{churned},{tenure},{plan},{spend_cell},{region}\n"));
    }

    // --- 2. Ingest: schema inference + category mapping. ----------------
    let (table, category_names) = parse_csv(&csv, &CsvOptions::default()).unwrap();
    println!(
        "ingested {} records x {} fields ({} categorical)",
        table.num_records(),
        table.num_fields(),
        table.schema().num_categorical()
    );
    println!("plan categories: {:?}", category_names[1]);

    // --- 3. Train. -------------------------------------------------------
    let binned = BinnedDataset::from_dataset(&table);
    let mirror = ColumnarMirror::from_binned(&binned);
    let cfg = TrainConfig {
        num_trees: 60,
        max_depth: 4,
        learning_rate: 0.2,
        objective: Objective::Logistic,
        subsample: 0.8, // stochastic GB
        seed: 42,
        ..Default::default()
    };
    let (model, _) = train(&binned, &mirror, &cfg);
    let importance = model.feature_importance();
    println!("feature importance (split counts): {importance:?}");

    // --- 4. Persist + reload. --------------------------------------------
    let bytes = model_to_bytes(&model);
    println!("serialized model: {} KB", bytes.len() / 1024);
    let served = model_from_bytes(&bytes).unwrap();

    // --- 5. Serve predictions on raw records. ----------------------------
    // `Predictor` lowers and compiles the model once, precomputes the
    // absent bins, and reuses its scratch buffers — no per-request heap
    // allocation, unlike `Model::predict_raw`.
    let mut predictor = Predictor::from_model(&served).expect("trees fit the table encoding");
    let plan_idx = |name: &str| category_names[1].iter().position(|p| p == name).unwrap() as u32;
    let risky = predictor.predict_one(&[
        RawValue::Num(3.0), // 3 months tenure
        RawValue::Cat(plan_idx("basic")),
        RawValue::Missing, // spend unknown
        RawValue::Cat(0),
    ]);
    let loyal = predictor.predict_one(&[
        RawValue::Num(60.0),
        RawValue::Cat(plan_idx("pro")),
        RawValue::Num(95.0),
        RawValue::Cat(2),
    ]);
    assert_eq!(
        risky.to_bits(),
        served
            .predict_raw(&[
                RawValue::Num(3.0),
                RawValue::Cat(plan_idx("basic")),
                RawValue::Missing,
                RawValue::Cat(0),
            ])
            .to_bits(),
        "compiled serving path must match the node walk exactly"
    );
    println!("P(churn | 3mo, basic, spend unknown) = {risky:.3}");
    println!("P(churn | 60mo, pro, $95)            = {loyal:.3}");
    assert!(risky > 0.5 && loyal < 0.2);

    // --- 6. Round-trip the dataset itself (for external tools). ----------
    let exported = to_csv(&table, Some(&category_names));
    let (reimported, _) = parse_csv(&exported, &CsvOptions::default()).unwrap();
    assert_eq!(reimported.num_records(), table.num_records());
    println!("dataset CSV round-trip ok ({} bytes)", exported.len());
}
