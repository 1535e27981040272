//! The traced pass: per-layer metrics, taken by wrappers around the
//! calls into each layer (`TimedExec`, `TimedComm`, request spans) and
//! by stand-alone timings of single layers. Nothing here feeds an
//! end-to-end metric; the difference between a traced and a plain
//! training run is reported as `trace.overhead_pct`.

use std::time::Duration;

use crate::api::{self, Backend, Binned, CommTimes, Config, StepProfile, StepTotals, Transport};
use crate::loadgen::{self, Traffic};
use crate::measure::{micro, repeat, timed, Samples, Sheet};
use crate::pipeline::{
    check_totals, check_training, set_up, SetUp, INPROC_WINDOW, LOAD_CLIENTS, OPEN_RATE,
};
use crate::spec::Workload;
use crate::trace::Recorder;

/// Shares of `--seconds` in the traced pass (the same on every workload).
const TRAIN_SHARE: f64 = 0.32;
const DIST_SHARE: f64 = 0.18;
/// Each of: scheduler round trip, TCP round trip, TCP closed loop,
/// in-process windowed loop, and every step of the rate sweep.
const SERVE_STEP_SHARE: f64 = 0.045;

/// Open-loop rates swept for `serve.tcp.max_rate_rps`.
const SWEEP_RATES: [f64; 4] = [1_000.0, OPEN_RATE, 4_000.0, 8_000.0];
/// A rate is sustained when its p99 stays within this limit and the
/// generator's lateness is not growing.
const P99_LIMIT_US: f64 = 2_000.0;
const BACKLOG_LIMIT_US: f64 = 1_000.0;

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn median_of(profiles: &[StepProfile], f: impl Fn(&StepProfile) -> f64) -> f64 {
    Samples(profiles.iter().map(f).collect()).median()
}

fn step_metrics(
    sheet: &mut Sheet,
    profiles: &[StepProfile],
    names: [&'static str; 5],
    step: impl Fn(&StepProfile) -> StepTotals,
) {
    let [busy, calls, work, per_unit, share] = names;
    let last = step(profiles.last().expect("at least one traced run"));
    let busy_ms = median_of(profiles, |p| ms(step(p).busy));
    sheet.value(busy, busy_ms);
    sheet.value(calls, last.calls as f64);
    sheet.value(work, last.work as f64);
    sheet.value(per_unit, busy_ms * 1e6 / last.work.max(1) as f64);
    sheet.value(share, median_of(profiles, |p| 100.0 * ms(step(p).busy) / ms(p.wall)));
}

fn training_layers(
    sheet: &mut Sheet,
    rec: &Recorder,
    data: &Binned,
    cfg: &Config,
    budget: Duration,
) -> api::Trained {
    let mut seq_profiles = Vec::new();
    let mut par_profiles = Vec::new();
    let mut reference: Option<api::Trained> = None;
    // Plain, traced sequential and traced parallel runs alternate, so
    // drift in the machine's speed lands on all three alike.
    let plain = repeat(budget, 1, |_| {
        let (s, run) = timed(|| api::train_seq(data, cfg));
        check_training(sheet, "train_seq", &run, reference.as_ref());
        let reference = reference.get_or_insert(run);
        let (run, profile) = api::train_traced(data, cfg, Backend::Sequential, rec);
        check_training(sheet, "traced train_seq", &run, Some(reference));
        seq_profiles.push(profile);
        let (run, profile) = api::train_traced(data, cfg, Backend::Parallel, rec);
        check_training(sheet, "traced train_par", &run, Some(reference));
        par_profiles.push(profile);
        s
    });

    step_metrics(
        sheet,
        &seq_profiles,
        [
            "gbdt.histogram.busy_ms",
            "gbdt.histogram.calls",
            "gbdt.histogram.updates",
            "gbdt.histogram.ns_per_update",
            "gbdt.histogram.share",
        ],
        |p| p.hist,
    );
    step_metrics(
        sheet,
        &seq_profiles,
        [
            "gbdt.partition.busy_ms",
            "gbdt.partition.calls",
            "gbdt.partition.rows",
            "gbdt.partition.ns_per_row",
            "gbdt.partition.share",
        ],
        |p| p.part,
    );
    step_metrics(
        sheet,
        &seq_profiles,
        [
            "gbdt.traverse.busy_ms",
            "gbdt.traverse.calls",
            "gbdt.traverse.records",
            "gbdt.traverse.ns_per_record",
            "gbdt.traverse.share",
        ],
        |p| p.trav,
    );
    let last = seq_profiles.last().expect("at least one traced run");
    sheet.value("gbdt.traverse.lookups", last.trav.lookups as f64);
    sheet.value("gbdt.grow.self_ms", median_of(&seq_profiles, |p| ms(p.self_time())));
    sheet.value(
        "gbdt.grow.self_share",
        median_of(&seq_profiles, |p| 100.0 * ms(p.self_time()) / ms(p.wall)),
    );

    // Ratios of sequential busy time to parallel busy time, base sequential.
    let ratio =
        |f: &dyn Fn(&StepProfile) -> f64| median_of(&seq_profiles, f) / median_of(&par_profiles, f);
    sheet.value("gbdt.parallel.step1_speedup_x", ratio(&|p| ms(p.hist.busy)));
    sheet.value("gbdt.parallel.step3_speedup_x", ratio(&|p| ms(p.part.busy)));
    sheet.value("gbdt.parallel.step5_speedup_x", ratio(&|p| ms(p.trav.busy)));
    sheet.value("gbdt.parallel.par_over_seq_x", ratio(&|p| ms(p.wall)));
    let mrt = (data.num_records() * cfg.trees()) as f64 / 1e6;
    let par_wall = median_of(&par_profiles, |p| p.wall.as_secs_f64());
    sheet.value("gbdt.parallel.train_mrt_per_s", mrt / par_wall);

    let traced_wall = median_of(&seq_profiles, |p| p.wall.as_secs_f64());
    sheet.value("trace.overhead_pct", 100.0 * (traced_wall - plain.median()) / plain.median());

    let (scan_s, bins) = api::root_split_scan(data, cfg);
    sheet.value("gbdt.split.root_scan_us", scan_s * 1e6);
    sheet.value("gbdt.split.bins_scanned", bins as f64);
    sheet.value("gbdt.split.ns_per_bin", scan_s * 1e9 / bins.max(1) as f64);

    reference.expect("at least one training round")
}

fn model_layers(sheet: &mut Sheet, data: &Binned, trained: &api::Trained, records: &[api::Record]) {
    let model = &trained.model;
    let mut lower = Samples::default();
    let mut compile = Samples::default();
    let mut to_bytes = Samples::default();
    let mut from_bytes = Samples::default();
    let mut register = Samples::default();
    let mut model_bytes = 0;
    for _ in 0..5 {
        let (l, c) = api::lower_and_compile(model);
        lower.push(l * 1e3);
        compile.push(c * 1e3);
        let (r, ok) = timed(|| api::register_fresh(model));
        sheet.check(ok, "model registers");
        register.push(r * 1e3);
        let (t, f, bytes, same) = api::serialize_round_trip(model);
        sheet.check(same, "serialized model parses back to the same trees");
        to_bytes.push(t * 1e3);
        from_bytes.push(f * 1e3);
        model_bytes = bytes;
    }
    sheet.metric("gbdt.infer.lower_ms", lower.stat());
    sheet.metric("gbdt.compile.compile_ms", compile.stat());
    sheet.metric("serve.registry.register_ms", register.stat());
    sheet.metric("gbdt.serialize.to_bytes_ms", to_bytes.stat());
    sheet.metric("gbdt.serialize.from_bytes_ms", from_bytes.stat());
    sheet.value("gbdt.serialize.model_kb", model_bytes as f64 / 1024.0);

    let scorer = api::Scorer::new(model);
    sheet.value("gbdt.compile.program_kb", scorer.program_bytes() as f64 / 1024.0);
    sheet.value("gbdt.compile.clusters", scorer.clusters() as f64);

    let rt = (data.num_records() * trained.num_trees()) as f64;
    let mut oracle_s = Samples::default();
    let mut compiled_s = Samples::default();
    for i in 0..3 {
        let (o, want) = timed(|| api::oracle_scores(model, data));
        let (c, got) = timed(|| scorer.score(data));
        if i == 0 {
            sheet.check(api::same_bits(&got, &want), "compiled scores equal the oracle's");
        }
        oracle_s.push(o);
        compiled_s.push(c);
    }
    sheet.value("gbdt.compile.score_ns_per_rt", compiled_s.median() * 1e9 / rt);
    sheet.value("gbdt.predict.nodewalk_mrt_per_s", rt / 1e6 / oracle_s.median());
    sheet.value("gbdt.compile.speedup_vs_oracle_x", oracle_s.median() / compiled_s.median());

    let mut direct = api::Direct::new(model);
    let mut k = 0;
    let predict_s = micro(9, 500, || {
        k = (k + 1) % records.len();
        std::hint::black_box(direct.predict(&records[k]));
    });
    sheet.value("gbdt.infer.predict_one_us", predict_s * 1e6);
    sheet.check(
        direct.predict(&records[0]) == api::oracle_one(model, &records[0]),
        "direct predictor equals the oracle",
    );

    let costs = api::frame_codec(&records[0]);
    sheet.value("serve.frame.encode_request_ns", costs.encode_request * 1e9);
    sheet.value("serve.frame.decode_request_ns", costs.decode_request * 1e9);
    sheet.value("serve.frame.encode_response_ns", costs.encode_response * 1e9);
    sheet.value("serve.frame.decode_response_ns", costs.decode_response * 1e9);
    sheet.value("serve.frame.request_bytes", costs.request_bytes as f64);
}

fn serve_layers(
    sheet: &mut Sheet,
    rec: &Recorder,
    trained: &api::Trained,
    traffic: Traffic<'_>,
    step: Duration,
) {
    let model = &trained.model;

    // One client at a time: what a round trip costs, in process and over TCP.
    let stack = api::ServeStack::start(model);
    let inproc = rec.phase("serve.scheduler.round_trips", |id| {
        loadgen::inproc_windowed(&stack, traffic, 1, 1, step, Some((rec, id)))
    });
    let tcp = rec.phase("serve.tcp.round_trips", |id| {
        loadgen::tcp_closed(stack.addr(), traffic, 1, step, Some((rec, id)))
    });
    sheet.ops(inproc.sent + tcp.sent, inproc.failed + tcp.failed);
    let round_trip = inproc.latency_us.median();
    let predict_one = sheet.get("gbdt.infer.predict_one_us").map_or(0.0, |s| s.value);
    sheet.value("serve.scheduler.round_trip_us", round_trip);
    sheet.value("serve.scheduler.overhead_us", round_trip - predict_one);
    sheet.value("serve.tcp.overhead_us", tcp.latency_us.median() - round_trip);
    sheet.value("serve.tcp.connect_us", loadgen::connect_us(stack.addr(), 21));

    // Open-loop rate sweep: latency from due time at each rate, and the
    // highest rate that holds the p99 limit without a growing backlog.
    let mut max_rate = 0.0;
    let mut late_p99 = 0.0;
    for rate in SWEEP_RATES {
        // The rate whose tail is reported gets enough windows for a median.
        let duration = if rate == OPEN_RATE { step * 3 } else { step };
        let open = rec.phase("serve.tcp.open_loop", |id| {
            loadgen::tcp_open(stack.addr(), traffic, LOAD_CLIENTS, rate, duration, Some((rec, id)))
        });
        sheet.ops(open.sent, open.failed);
        let p99 = open.window_p99_us.median();
        if rate == 4_000.0 {
            sheet.value("serve.tcp.p50_us_r4000", open.window_p50_us.median());
            sheet.value("serve.tcp.p99_us_r4000", p99);
        }
        if rate == OPEN_RATE {
            sheet.metric("serve.tcp.p99_us_r2000", open.window_p99_us.stat());
            late_p99 = open.late_us.quantile(0.99);
        }
        if open.failed == 0 && p99 <= P99_LIMIT_US && open.final_late_us <= BACKLOG_LIMIT_US {
            max_rate = rate;
        }
    }
    sheet.value("serve.tcp.max_rate_rps", max_rate);
    sheet.value("serve.loadgen.late_p99_us", late_p99);
    check_totals(sheet, &stack.shutdown());

    // Batch sizes per traffic shape, each on a scheduler of its own so
    // their batch-size histograms do not mix.
    let stack = api::ServeStack::start(model);
    let closed = rec.phase("serve.tcp.closed_loop", |id| {
        loadgen::tcp_closed(stack.addr(), traffic, LOAD_CLIENTS, step, Some((rec, id)))
    });
    sheet.ops(closed.sent, closed.failed);
    let totals = stack.shutdown();
    check_totals(sheet, &totals);
    sheet.value("serve.scheduler.mean_batch_tcp", totals.mean_batch);

    let stack = api::ServeStack::start(model);
    let windowed = rec.phase("serve.scheduler.windowed", |id| {
        loadgen::inproc_windowed(
            &stack,
            traffic,
            LOAD_CLIENTS,
            INPROC_WINDOW,
            step,
            Some((rec, id)),
        )
    });
    sheet.ops(windowed.sent, windowed.failed);
    let totals = stack.shutdown();
    check_totals(sheet, &totals);
    sheet.value("serve.scheduler.mean_batch_inproc", totals.mean_batch);
    sheet.value("serve.scheduler.rejected", totals.rejected as f64);
}

fn dist_layers(sheet: &mut Sheet, rec: &Recorder, w: &Workload, data: &Binned, budget: Duration) {
    let cfg = Config::new(w.family, w.dist_trees);
    let mrt = (w.records * w.dist_trees) as f64 / 1e6;
    let (local_s, local) = timed(|| api::train_seq(data, &cfg));
    let local = &local;

    let mut chan = Samples::default();
    let mut chan1 = Samples::default();
    let mut tcp = Samples::default();
    let mut shard = Samples::default();
    let mut times: Vec<CommTimes> = Vec::new();
    let mut coordinator_self = Samples::default();
    repeat(budget, 1, |_| {
        let mut go = |workers, transport, traced: bool| {
            let run = api::dist_train(data, &cfg, workers, transport, traced.then_some(rec));
            match run {
                Ok(run) => {
                    check_training(sheet, "dist", &run.trained, Some(local));
                    Some(run)
                }
                Err(e) => {
                    sheet.check(false, &format!("dist run: {e}"));
                    None
                }
            }
        };
        if let Some(run) = go(LOAD_CLIENTS, Transport::Channel, true) {
            chan.push(run.seconds);
            shard.push(run.shard_seconds * 1e3);
            let t = run.comm.expect("traced run carries comm times");
            coordinator_self
                .push((run.seconds - run.shard_seconds) * 1e3 - ms(t.send) - ms(t.recv_wait));
            times.push(t);
        }
        if let Some(run) = go(1, Transport::Channel, false) {
            chan1.push(run.seconds);
        }
        if let Some(run) = go(LOAD_CLIENTS, Transport::Tcp, false) {
            tcp.push(run.seconds);
        }
        0.0
    });

    let t = times.last().cloned().unwrap_or_default();
    let med = |f: &dyn Fn(&CommTimes) -> f64| Samples(times.iter().map(f).collect()).median();
    sheet.value("dist.comm.send_ms", med(&|t| ms(t.send)));
    sheet.value("dist.comm.recv_wait_ms", med(&|t| ms(t.recv_wait)));
    sheet.value("dist.comm.frames", t.frames as f64);
    sheet.value("dist.comm.bytes_build_hist", t.bytes_build_hist as f64);
    sheet.value("dist.comm.bytes_other", t.bytes_other as f64);
    sheet.value("dist.coordinator.self_ms", coordinator_self.median());
    sheet.value("dist.shard.shard_ms", shard.median());
    sheet.value("dist.chan_mrt_per_s", mrt / chan.median());
    sheet.value("dist.n1_chan_mrt_per_s", mrt / chan1.median());
    sheet.value("dist.tcp_over_chan_x", tcp.median() / chan.median());
    sheet.value("dist.slowdown_x", tcp.median() / local_s);

    let frame_mb = t.hist_frame.len() as f64 / 1e6;
    let (encode_s, decode_s) = api::proto_codec(&t.hist_frame).unwrap_or((f64::NAN, f64::NAN));
    sheet.check(encode_s.is_finite(), "captured Step-1 frame decodes");
    sheet.value("dist.proto.encode_mb_per_s", frame_mb / encode_s);
    sheet.value("dist.proto.decode_mb_per_s", frame_mb / decode_s);
}

pub fn run(w: &Workload, seed: u64, seconds: f64) -> (Sheet, Recorder) {
    let mut sheet = Sheet::default();
    let rec = Recorder::new();
    let slice = |share: f64| Duration::from_secs_f64(share * seconds);

    let SetUp { ds, records, served, generate_s, .. } =
        rec.phase("benchmark.set_up", |_| set_up(w, seed, seconds));
    sheet.metric("datagen.generate_s", generate_s.stat());

    let mut rows_ms = Samples::default();
    let mut cols_ms = Samples::default();
    let mut data = None;
    for _ in 0..2 {
        drop(data.take());
        let (r, rows) = rec.phase("gbdt.preprocess.from_dataset", |_| timed(|| api::bin_rows(&ds)));
        let (c, cols) = rec.phase("gbdt.columnar.from_binned", |_| timed(|| api::mirror(&rows)));
        rows_ms.push(r * 1e3);
        cols_ms.push(c * 1e3);
        data = Some(Binned { rows, cols });
    }
    drop(ds);
    let data = data.expect("two binning repetitions");
    sheet.metric("gbdt.preprocess.from_dataset_ms", rows_ms.stat());
    sheet.metric("gbdt.columnar.from_binned_ms", cols_ms.stat());
    sheet.value("gbdt.preprocess.binned_mb", data.bytes() as f64 / 1e6);

    let cfg = Config::new(w.family, w.trees);
    let trained = training_layers(&mut sheet, &rec, &data, &cfg, slice(TRAIN_SHARE));
    // The model scored and served: set-up's, or the one just trained.
    let trained = served.unwrap_or(trained);
    model_layers(&mut sheet, &data, &trained, &records);

    let expected: Vec<u64> = records.iter().map(|r| api::oracle_one(&trained.model, r)).collect();
    let traffic = Traffic { records: &records, expected: &expected, seed };
    serve_layers(&mut sheet, &rec, &trained, traffic, slice(SERVE_STEP_SHARE));

    dist_layers(&mut sheet, &rec, w, &data, slice(DIST_SHARE));
    (sheet, rec)
}
