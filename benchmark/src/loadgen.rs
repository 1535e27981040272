//! Load generation: one process, at most `nproc` load threads. Three
//! shapes of traffic over the same records:
//!
//! * TCP **closed loop** — each connection sends its next request only
//!   after the previous reply (callers that wait; a slow server gets
//!   less load);
//! * TCP **open loop** — requests are due on a fixed schedule regardless
//!   of replies (independent users); latency is timed from the *due*
//!   time, so a stall is charged to every request it delays, and how
//!   late the generator itself ran is reported;
//! * in-process **windowed closed loop** — each thread keeps a window of
//!   requests in flight through `ServeHandle::submit_to`, the only shape
//!   in which batches larger than the thread count can form.
//!
//! Every reply is compared bit-for-bit with `Model::predict_raw`; a
//! refused, failed or wrong reply counts as a failed operation.

use std::collections::VecDeque;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use crate::api::{InprocClient, Record, ServeStack, Submit, TcpClient};
use crate::measure::{Draws, Samples};
use crate::placement;
use crate::trace::{Recorder, REQUEST_SPAN_CAP};

/// Throughput windows of the closed loops.
const RPS_WINDOW: Duration = Duration::from_millis(250);
/// Latency windows of the open loop: at 2 000 req/s a window holds 1 000
/// requests, ten of them beyond its p99.
const LATENCY_WINDOW: Duration = Duration::from_millis(500);

/// The records to send, what each must score to, and the request order seed.
#[derive(Clone, Copy)]
pub struct Traffic<'a> {
    pub records: &'a [Record],
    pub expected: &'a [u64],
    pub seed: u64,
}

/// Where request spans go in the traced pass: the recorder and the id
/// of the phase span that caused them.
pub type Tracing<'a> = Option<(&'a Recorder, u64)>;

#[derive(Default)]
pub struct LoadResult {
    pub sent: u64,
    pub failed: u64,
    /// Completions per second in each full window after the first.
    pub window_rps: Samples,
    /// Per-request latency in microseconds (one request in flight per
    /// client only).
    pub latency_us: Samples,
}

/// A phase shorter than one nominal window (`--smoke`) is one window.
fn window_len(nominal: Duration, duration: Duration) -> Duration {
    nominal.min(duration)
}

/// Per-thread tallies, merged after the threads join.
struct Tally {
    window: Duration,
    sent: u64,
    failed: u64,
    windows: Vec<u32>,
    latency_us: Vec<f64>,
}

impl Tally {
    fn new(duration: Duration) -> Tally {
        Tally {
            window: window_len(RPS_WINDOW, duration),
            sent: 0,
            failed: 0,
            windows: Vec::new(),
            latency_us: Vec::new(),
        }
    }

    fn complete(&mut self, at: Duration) {
        let w = (at.as_secs_f64() / self.window.as_secs_f64()) as usize;
        if self.windows.len() <= w {
            self.windows.resize(w + 1, 0);
        }
        self.windows[w] += 1;
    }
}

fn merge(tallies: Vec<Tally>, duration: Duration) -> LoadResult {
    let window = window_len(RPS_WINDOW, duration).as_secs_f64();
    let full = (duration.as_secs_f64() / window) as usize;
    let mut out = LoadResult::default();
    let mut per_window = vec![0u64; full];
    for t in tallies {
        out.sent += t.sent;
        out.failed += t.failed;
        for (w, &c) in t.windows.iter().enumerate().take(full) {
            per_window[w] += u64::from(c);
        }
        out.latency_us.0.extend(t.latency_us);
    }
    // The first window is warm-up (connections, caches); a run too short
    // to spare it keeps it.
    let skip = usize::from(full > 2);
    for &c in &per_window[skip..] {
        out.window_rps.push(c as f64 / window);
    }
    out
}

fn connect_all(addr: SocketAddr, conns: usize) -> Vec<TcpClient> {
    (0..conns).map(|_| TcpClient::connect(addr).expect("loopback connect")).collect()
}

/// Sleep to within 100 us of `due`, then yield until it: the load
/// threads share a CPU (see `placement`), and a yield lets the other one
/// take a reply that lands during the wait.
fn wait_until(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > Duration::from_micros(150) {
            std::thread::sleep(left - Duration::from_micros(100));
        } else {
            std::thread::yield_now();
        }
    }
}

/// TCP closed loop: `conns` connections, one request in flight on each.
pub fn tcp_closed(
    addr: SocketAddr,
    traffic: Traffic<'_>,
    conns: usize,
    duration: Duration,
    tracing: Tracing<'_>,
) -> LoadResult {
    let clients = connect_all(addr, conns);
    let start = Instant::now() + Duration::from_millis(5);
    let tallies = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(i, mut client)| {
                s.spawn(move || {
                    placement::pin(1);
                    let mut order = Draws::new(traffic.seed, i);
                    let mut tally = Tally::new(duration);
                    wait_until(start);
                    loop {
                        let t0 = Instant::now();
                        if t0 >= start + duration {
                            break;
                        }
                        let k = order.next(traffic.records.len());
                        let got = client.score(&traffic.records[k]);
                        let t1 = Instant::now();
                        tally.sent += 1;
                        tally.failed += u64::from(got != Some(traffic.expected[k]));
                        tally.complete(t1 - start);
                        tally.latency_us.push((t1 - t0).as_secs_f64() * 1e6);
                        if let Some((rec, parent)) = tracing {
                            if tally.sent as usize <= REQUEST_SPAN_CAP {
                                rec.record("serve.tcp.request", rec.alloc_id(), parent, t0, t1, 0);
                            }
                        }
                    }
                    tally
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("load thread")).collect::<Vec<_>>()
    });
    merge(tallies, duration)
}

pub struct OpenResult {
    pub sent: u64,
    pub failed: u64,
    /// Latency from due time, microseconds: one p50 and one p99 per full
    /// window after the first.
    pub window_p50_us: Samples,
    pub window_p99_us: Samples,
    /// How late after its due time each request was sent, microseconds.
    pub late_us: Samples,
    /// Median lateness over the last window: a backlog that grows shows here.
    pub final_late_us: f64,
}

/// What one open-loop thread saw: per request its due time as an offset
/// from the phase start, how late it was sent, and its latency from the
/// due time (all seconds); and how many requests failed.
struct OpenLog {
    requests: Vec<(f64, f64, f64)>,
    failed: u64,
}

/// TCP open loop at `rate` requests per second in total, spread evenly
/// and staggered over `conns` connections.
pub fn tcp_open(
    addr: SocketAddr,
    traffic: Traffic<'_>,
    conns: usize,
    rate: f64,
    duration: Duration,
    tracing: Tracing<'_>,
) -> OpenResult {
    let clients = connect_all(addr, conns);
    let start = Instant::now() + Duration::from_millis(5);
    let interval = Duration::from_secs_f64(conns as f64 / rate);
    let logs: Vec<OpenLog> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(i, mut client)| {
                s.spawn(move || {
                    placement::pin(1);
                    let mut order = Draws::new(traffic.seed, i);
                    let mut log = Vec::with_capacity((rate * duration.as_secs_f64()) as usize);
                    let offset = interval.mul_f64(i as f64 / conns as f64);
                    let mut failed = 0u64;
                    for n in 0u32.. {
                        let due_at = offset + interval * n;
                        if due_at >= duration {
                            break;
                        }
                        let due = start + due_at;
                        wait_until(due);
                        let sent = Instant::now();
                        let k = order.next(traffic.records.len());
                        let got = client.score(&traffic.records[k]);
                        let done = Instant::now();
                        failed += u64::from(got != Some(traffic.expected[k]));
                        log.push((
                            due_at.as_secs_f64(),
                            (sent - due).as_secs_f64(),
                            (done - due).as_secs_f64(),
                        ));
                        if let Some((rec, parent)) = tracing {
                            if log.len() <= REQUEST_SPAN_CAP {
                                rec.record(
                                    "serve.tcp.request",
                                    rec.alloc_id(),
                                    parent,
                                    due,
                                    done,
                                    0,
                                );
                            }
                        }
                    }
                    OpenLog { requests: log, failed }
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("load thread")).collect()
    });

    let window = window_len(LATENCY_WINDOW, duration).as_secs_f64();
    let full = (duration.as_secs_f64() / window) as usize;
    let mut windows: Vec<Samples> = vec![Samples::default(); full];
    let mut out = OpenResult {
        sent: 0,
        failed: 0,
        window_p50_us: Samples::default(),
        window_p99_us: Samples::default(),
        late_us: Samples::default(),
        final_late_us: 0.0,
    };
    let mut last_window_late = Samples::default();
    out.failed = logs.iter().map(|log| log.failed).sum();
    for &(due_at, late, latency) in logs.iter().flat_map(|log| &log.requests) {
        out.sent += 1;
        out.late_us.push(late * 1e6);
        let w = (due_at / window) as usize;
        if w < full {
            windows[w].push(latency * 1e6);
        }
        if w + 1 == full {
            last_window_late.push(late * 1e6);
        }
    }
    let skip = usize::from(full > 2);
    for w in &windows[skip..] {
        if !w.is_empty() {
            out.window_p50_us.push(w.median());
            out.window_p99_us.push(w.quantile(0.99));
        }
    }
    out.final_late_us = last_window_late.median();
    out
}

/// Retire one reply against the requests in flight on its channel.
/// Replies normally arrive in submission order; a reordered one is
/// looked up, and one that matches nothing in flight is a failure.
fn settle(in_flight: &mut VecDeque<(u64, Instant)>, got: Option<u64>) -> (bool, Instant) {
    let pos = got.and_then(|bits| in_flight.iter().position(|(want, _)| *want == bits));
    match pos {
        Some(p) => (true, in_flight.remove(p).expect("position is in range").1),
        None => (false, in_flight.pop_front().expect("a reply implies a request in flight").1),
    }
}

/// In-process windowed closed loop: `threads` clients, each keeping up
/// to `window` requests in flight. With `window == 1` the per-request
/// round trip is logged too.
pub fn inproc_windowed(
    stack: &ServeStack,
    traffic: Traffic<'_>,
    threads: usize,
    window: usize,
    duration: Duration,
    tracing: Tracing<'_>,
) -> LoadResult {
    let clients: Vec<InprocClient> = (0..threads).map(|_| stack.inproc_client()).collect();
    let start = Instant::now() + Duration::from_millis(2);
    let tallies = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(i, client)| {
                s.spawn(move || {
                    placement::pin(1);
                    let mut order = Draws::new(traffic.seed, i);
                    let mut tally = Tally::new(duration);
                    let mut in_flight: VecDeque<(u64, Instant)> = VecDeque::with_capacity(window);
                    let retire = |tally: &mut Tally,
                                  in_flight: &mut VecDeque<(u64, Instant)>,
                                  got: Option<u64>| {
                        let (ok, sent_at) = settle(in_flight, got);
                        let now = Instant::now();
                        tally.failed += u64::from(!ok);
                        tally.complete(now.saturating_duration_since(start));
                        if window == 1 {
                            tally.latency_us.push((now - sent_at).as_secs_f64() * 1e6);
                        }
                        if let Some((rec, parent)) = tracing {
                            if tally.sent as usize <= REQUEST_SPAN_CAP {
                                let id = rec.alloc_id();
                                rec.record("serve.scheduler.request", id, parent, sent_at, now, 0);
                            }
                        }
                    };
                    wait_until(start);
                    while Instant::now() < start + duration {
                        while in_flight.len() < window {
                            let k = order.next(traffic.records.len());
                            let sent_at = Instant::now();
                            match client.submit(Record::clone(&traffic.records[k])) {
                                Submit::Accepted => {
                                    tally.sent += 1;
                                    in_flight.push_back((traffic.expected[k], sent_at));
                                }
                                // A closed-loop client backs off when refused.
                                // (the scheduler counts the refusal itself).
                                Submit::Overloaded => {
                                    std::thread::yield_now();
                                    break;
                                }
                                Submit::Failed => {
                                    tally.sent += 1;
                                    tally.failed += 1;
                                    break;
                                }
                            }
                        }
                        if in_flight.is_empty() {
                            continue;
                        }
                        let got = client.recv();
                        retire(&mut tally, &mut in_flight, got);
                        while !in_flight.is_empty() {
                            let Some(got) = client.try_recv() else { break };
                            retire(&mut tally, &mut in_flight, got);
                        }
                    }
                    while !in_flight.is_empty() {
                        let got = client.recv();
                        retire(&mut tally, &mut in_flight, got);
                    }
                    tally
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("load thread")).collect::<Vec<_>>()
    });
    merge(tallies, duration)
}

/// Microseconds to open one TCP connection to the front-end, median of `n`.
pub fn connect_us(addr: SocketAddr, n: usize) -> f64 {
    let mut s = Samples::default();
    for _ in 0..n {
        let t0 = Instant::now();
        let client = TcpClient::connect(addr);
        s.push(t0.elapsed().as_secs_f64() * 1e6);
        drop(client);
    }
    s.median()
}
