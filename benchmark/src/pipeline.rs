//! The untraced pass: every end-to-end metric, measured with plain
//! `SequentialExec`, plain `TcpComm` and no wrapper of any kind, along
//! the whole path a record takes — bin, train, compile, batch score,
//! distributed training, and serving through the scheduler and the TCP
//! codec.

use std::time::Duration;

use crate::api::{self, Binned, Config, Trained, Transport};
use crate::loadgen::{self, Traffic};
use crate::measure::{peak_rss_mb, repeat, reset_peak_rss, timed, Draws, Samples, Sheet};
use crate::spec::Workload;

/// Load threads / connections: the sandbox has two cores.
pub const LOAD_CLIENTS: usize = 2;
/// Requests each in-process client keeps in flight.
pub const INPROC_WINDOW: usize = 16;
/// Total request rate of the open-loop phase.
pub const OPEN_RATE: f64 = 2_000.0;
/// Raw records pre-extracted for the serving phases.
pub const SERVE_RECORDS: usize = 4_096;
/// Set-up is repeated until this share of `--seconds` is spent (on top of
/// them) and at least `SETUP_MIN_REPS` times, so `setup_s` can be a median.
const SETUP_SHARE: f64 = 0.05;
const SETUP_MIN_REPS: usize = 3;
/// Fewest repetitions of a training phase, however long one takes.
const TRAIN_MIN_REPS: usize = 5;
/// One record in `POPULATION_SPARE + 1` of a workload's population is left
/// out of a run; which ones is what `--seed` decides.
const POPULATION_SPARE: usize = 8;
/// The seed's stream for that draw; the load threads have streams 0 and 1.
const SAMPLE_STREAM: usize = 8;

/// What set-up leaves behind.
pub struct SetUp {
    pub ds: api::Dataset,
    /// Raw records for the serving phases.
    pub records: Vec<api::Record>,
    /// The scored and served model, for a workload with `served_trees`.
    pub served: Option<Trained>,
    /// Seconds of each whole set-up repetition.
    pub total_s: Samples,
    /// Seconds of `datagen::generate` alone in each.
    pub generate_s: Samples,
}

/// The run's records: the seed keeps `records` of the workload's fixed
/// population of `records + records / POPULATION_SPARE`, each record with
/// the same chance, in the population's order.
fn draw_records(w: &Workload, seed: u64, generate_s: &mut Samples) -> api::Dataset {
    let population = w.records + w.records / POPULATION_SPARE;
    let (g, all) = timed(|| api::generate(w.family, population));
    generate_s.push(g);
    let mut draws = Draws::new(seed, SAMPLE_STREAM);
    let mut wanted = w.records;
    api::sample(&all, w.records, |r| {
        let kept = draws.next(population - r) < wanted;
        wanted -= usize::from(kept);
        kept
    })
}

/// Set-up shared by both passes, repeated and timed: draw the records
/// from the seed, pull out the raw serving records and, for a workload
/// with `served_trees`, bin the data and train that model.
pub fn set_up(w: &Workload, seed: u64, seconds: f64) -> SetUp {
    let mut generate_s = Samples::default();
    let mut last = None;
    let budget = Duration::from_secs_f64(SETUP_SHARE * seconds);
    let total_s = repeat(budget, SETUP_MIN_REPS, |_| {
        drop(last.take());
        let (s, made) = timed(|| {
            let ds = draw_records(w, seed, &mut generate_s);
            let records = api::raw_records(&ds, SERVE_RECORDS);
            let served = w
                .served_trees
                .map(|trees| api::train_seq(&api::bin(&ds), &Config::new(w.family, trees)));
            (ds, records, served)
        });
        last = Some(made);
        s
    });
    let (ds, records, served) = last.expect("SETUP_MIN_REPS is positive");
    SetUp { ds, records, served, total_s, generate_s }
}

/// Checks every training run must pass; `reference` is the run it must equal.
pub fn check_training(sheet: &mut Sheet, what: &str, run: &Trained, reference: Option<&Trained>) {
    let h = &run.loss_history;
    sheet.check(h.len() >= 2 && h[h.len() - 1] < h[0], &format!("{what}: training loss decreases"));
    if let Some(reference) = reference {
        sheet.check(
            api::same_trees(&run.model, &reference.model),
            &format!("{what}: trees equal the sequential run's"),
        );
        sheet.check(
            api::same_bits(h, &reference.loss_history),
            &format!("{what}: loss history bits equal the sequential run's"),
        );
    }
}

/// Every admitted request was answered, and none with an error.
pub fn check_totals(sheet: &mut Sheet, totals: &api::ServeTotals) {
    sheet.check(
        totals.accepted == totals.completed + totals.failed && totals.failed == 0,
        "scheduler: accepted == completed + failed, none failed",
    );
}

pub fn run(w: &Workload, seed: u64, seconds: f64) -> Sheet {
    let mut sheet = Sheet::default();
    let slice = |share: f64| Duration::from_secs_f64(share * seconds);
    let n = w.records as f64;

    let SetUp { ds, records, served, total_s, .. } = set_up(w, seed, seconds);
    reset_peak_rss();
    sheet.metric("setup_s", total_s.stat());
    if let Some(served) = &served {
        check_training(&mut sheet, "set-up model", served, None);
    }

    // Raw table -> binned rows + columnar mirror.
    let mut data: Option<Binned> = None;
    let bin_s = repeat(slice(w.shares.bin), 3, |_| {
        drop(data.take());
        let (s, binned) = timed(|| api::bin(&ds));
        data = Some(binned);
        s
    });
    drop(ds);
    let data = data.expect("at least one binning repetition");
    sheet.ops(bin_s.len() as u64, 0);
    sheet.metric("bin_mrec_per_s", bin_s.map(|s| n / 1e6 / s).stat());

    // Sequential training; every run must give the first run's trees.
    let cfg = Config::new(w.family, w.trees);
    let mut seq: Option<Trained> = None;
    let seq_s = repeat(slice(w.shares.train_seq), TRAIN_MIN_REPS, |_| {
        let (s, run) = timed(|| api::train_seq(&data, &cfg));
        check_training(&mut sheet, "train_seq", &run, seq.as_ref());
        seq.get_or_insert(run);
        s
    });
    let seq = seq.expect("at least one sequential run");
    sheet.metric("train_seq_mrt_per_s", seq_s.map(|s| n * w.trees as f64 / 1e6 / s).stat());
    sheet.count("train.step1_updates", seq.work[0]);
    sheet.count("train.step3_records", seq.work[1]);
    sheet.count("train.step5_lookups", seq.work[2]);
    // The model scored and served: set-up's, or the one just trained.
    let model = &served.as_ref().unwrap_or(&seq).model;
    sheet.count("model.nodes", api::model_nodes(model));

    // Compiled batch scoring against the node-walk oracle.
    let scorer = api::Scorer::new(model);
    let oracle = api::oracle_scores(model, &data);
    let score_mrt = n * model.trees.len() as f64 / 1e6;
    let score_s = repeat(slice(w.shares.score), 3, |i| {
        let (s, scores) = timed(|| scorer.score(&data));
        if i == 0 {
            sheet.check(api::same_bits(&scores, &oracle), "compiled scores equal the oracle's");
        }
        s
    });
    drop(oracle);
    sheet.metric("score_mrt_per_s", score_s.map(|s| score_mrt / s).stat());

    // Distributed training, N=2 over loopback TCP, against its local twin.
    let dist_cfg = Config::new(w.family, w.dist_trees);
    let local = api::train_seq(&data, &dist_cfg);
    let mut wire: Option<u64> = None;
    let dist_s = repeat(slice(w.shares.dist), TRAIN_MIN_REPS, |_| {
        match api::dist_train(&data, &dist_cfg, LOAD_CLIENTS, Transport::Tcp, None) {
            Ok(run) => {
                check_training(&mut sheet, "dist_tcp", &run.trained, Some(&local));
                let first = *wire.get_or_insert(run.wire_bytes);
                sheet.check(first == run.wire_bytes, "dist wire bytes equal across repetitions");
                run.seconds
            }
            Err(e) => {
                sheet.check(false, &format!("dist_tcp run: {e}"));
                f64::NAN
            }
        }
    });
    sheet.metric("dist_tcp_mrt_per_s", dist_s.map(|s| n * w.dist_trees as f64 / 1e6 / s).stat());
    let wire = wire.unwrap_or(0);
    sheet.value("dist_wire_mb", wire as f64 / 1e6);
    sheet.count("dist.wire_bytes", wire);
    drop(local);

    // Serving: default config, TCP closed loop, TCP open loop, in-process.
    let expected: Vec<u64> = records.iter().map(|r| api::oracle_one(model, r)).collect();
    let traffic = Traffic { records: &records, expected: &expected, seed };
    let stack = api::ServeStack::start(model);

    let closed =
        loadgen::tcp_closed(stack.addr(), traffic, LOAD_CLIENTS, slice(w.shares.closed), None);
    sheet.ops(closed.sent, closed.failed);
    sheet.metric("serve_closed_rps", closed.window_rps.stat());

    let open = loadgen::tcp_open(
        stack.addr(),
        traffic,
        LOAD_CLIENTS,
        OPEN_RATE,
        slice(w.shares.open),
        None,
    );
    sheet.ops(open.sent, open.failed);
    sheet.metric("serve_p50_us_r2000", open.window_p50_us.stat());
    let inproc = loadgen::inproc_windowed(
        &stack,
        traffic,
        LOAD_CLIENTS,
        INPROC_WINDOW,
        slice(w.shares.inproc),
        None,
    );
    sheet.ops(inproc.sent, inproc.failed);
    sheet.metric("serve_inproc_rps", inproc.window_rps.stat());
    check_totals(&mut sheet, &stack.shutdown());

    sheet.value("peak_rss_mb", peak_rss_mb());
    sheet
}
