//! `wire`: serving the deployed LeNet-5 over loopback TCP, closed loop.
//!
//! The stack runs in this process: `Frontend` (2 handlers) → a 1-shard
//! `ShardRouter` → `cn-serve` (1 worker, `max_batch` 8, `max_wait`
//! 1 ms). Two client connections each keep 4 single-image requests in
//! flight, with payloads from `cn_net::request_rows(seed, id)`. This is
//! the only workload through `cn-serve` and `cn-net`; its batches are
//! small, so frame, socket and poll costs dominate.
//!
//! The client is the benchmark's own, built on the public frame codec,
//! and records every request's latency: percentiles come from exact
//! samples, never from `LatencyHistogram` buckets or
//! `RouterStats::aggregate`.

use crate::measure::{
    latency, median, ms_since, per_window, percentile, wall_rate, windowed, Op, Outcome,
};
use crate::setup::{
    dataset, deployed_model, state_bits, timed_setup, DEPLOY_COMPILE_SEED, EVAL_BATCH, SIGMA,
};
use crate::trace::Tracer;
use crate::{alternate, Sizes, PHASE_SHARE};
use cn_analog::engine::{AnalogBackend, Session};
use cn_data::TrainTest;
use cn_net::frame::{encode, Frame, FrameReader, Payload, PollFrame};
use cn_net::{request_rows, Frontend, FrontendConfig, RouterConfig, ShardRouter};
use cn_nn::Sequential;
use cn_serve::ServeConfig;
use cn_tensor::Tensor;
use std::collections::VecDeque;
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Client connections.
pub const CONNECTIONS: usize = 2;
/// Requests each connection keeps in flight.
pub const WINDOW: usize = 4;
/// The serving batch bound.
pub const MAX_BATCH: usize = 8;
const HANDLERS: usize = 2;
const SAMPLE_DIMS: [usize; 3] = [1, 28, 28];
const ROW_LEN: usize = 28 * 28;
/// Read timeout of the client sockets: how often a waiting client
/// re-checks its deadline.
const POLL: Duration = Duration::from_millis(2);
/// How long clients wait for outstanding replies after their deadline;
/// later replies count as lost.
const DRAIN: Duration = Duration::from_secs(5);
/// First request ids of the warm-up and the probes; the traced run's
/// client phases start at `k << 32`, so every phase sends distinct rows.
const WARMUP_IDS: u64 = 1 << 40;
const PROBE_IDS: u64 = 1 << 36;

/// Starts the serving stack on an ephemeral loopback port.
pub fn start(model: &Sequential) -> Frontend {
    let serve = ServeConfig::new(MAX_BATCH)
        .max_wait(Duration::from_millis(1))
        .workers(1);
    let router = ShardRouter::new(
        model,
        AnalogBackend::lognormal(SIGMA),
        1,
        DEPLOY_COMPILE_SEED,
        &SAMPLE_DIMS,
        &RouterConfig::new(serve),
    );
    Frontend::bind(
        "127.0.0.1:0",
        Arc::new(router),
        FrontendConfig::default().handlers(HANDLERS),
    )
    .expect("bind an ephemeral loopback port")
}

/// Drains the stack and joins every thread it started.
pub fn stop(frontend: Frontend) {
    frontend.drain();
    let router = frontend.join();
    Arc::try_unwrap(router)
        .ok()
        .expect("every frontend thread has exited, so the router is unshared")
        .shutdown();
}

/// When a client stops sending: at `deadline` or after `budget` requests
/// on its connection, whichever comes first.
#[derive(Debug, Clone, Copy)]
pub struct Stop {
    /// No request is sent after this instant.
    pub deadline: Instant,
    /// Most requests one connection sends.
    pub budget: u64,
}

/// What the clients of one phase observed.
#[derive(Debug, Default)]
pub struct Clients {
    /// Every request answered with a well-formed reply: reply time
    /// (since the phase began), latency from send to reply, one unit of
    /// work.
    pub answered: Vec<Op>,
    /// `(request id, class)` of every well-formed reply.
    pub replies: Vec<(u64, u32)>,
    /// Requests sent.
    pub sent: u64,
    /// Requests answered with an error frame or a malformed reply, or
    /// lost with a failed connection.
    pub errors: u64,
    /// Replies whose id matched no outstanding request.
    pub mispaired: u64,
    /// Requests still unanswered `DRAIN` after the deadline.
    pub lost: u64,
    /// Wall time of the phase, connection setup to the last reply (s).
    pub wall_s: f64,
}

impl Clients {
    fn absorb(&mut self, other: Clients) {
        self.answered.extend(other.answered);
        self.replies.extend(other.replies);
        self.sent += other.sent;
        self.errors += other.errors;
        self.mispaired += other.mispaired;
        self.lost += other.lost;
        self.wall_s += other.wall_s;
    }

    /// Requests that did not come back as a well-formed, paired reply.
    pub fn failed(&self) -> u64 {
        self.errors + self.mispaired + self.lost
    }

    /// Answered requests per second of wall time.
    pub fn throughput(&self) -> f64 {
        self.answered.len() as f64 / self.wall_s
    }

    /// Latency of every answered request (ms).
    pub fn latency_ms(&self) -> Vec<f64> {
        self.answered.iter().map(|op| op.ms).collect()
    }
}

fn request_frame(seed: u64, id: u64) -> Vec<u8> {
    let mut dims = vec![1];
    dims.extend_from_slice(&SAMPLE_DIMS);
    let data = request_rows(seed, id, 1, ROW_LEN);
    encode(&Frame::new(id, Payload::InferRequest { dims, data }))
}

/// One closed-loop connection: ids `first_id + conn`, `+ CONNECTIONS`, …
fn connection(
    addr: SocketAddr,
    conn: usize,
    seed: u64,
    first_id: u64,
    stop: Stop,
    began: Instant,
    t: &mut Tracer,
) -> Clients {
    let mut out = Clients::default();
    let Ok(mut stream) = TcpStream::connect(addr) else {
        out.sent = 1;
        out.errors = 1;
        return out;
    };
    let configured = stream.set_nodelay(true).is_ok()
        && stream.set_read_timeout(Some(POLL)).is_ok()
        && stream.set_write_timeout(Some(DRAIN)).is_ok();
    if !configured {
        out.sent = 1;
        out.errors = 1;
        return out;
    }
    let mut reader = FrameReader::new();
    let mut pending: Vec<(u64, Instant)> = Vec::with_capacity(WINDOW);
    let mut next_id = first_id + conn as u64;
    loop {
        while pending.len() < WINDOW && out.sent < stop.budget && Instant::now() < stop.deadline {
            let id = next_id;
            next_id += CONNECTIONS as u64;
            t.set_request(id);
            let bytes = t.span("net.encode", |_| request_frame(seed, id));
            let sent_at = Instant::now();
            out.sent += 1;
            if t.span("net.write", |_| stream.write_all(&bytes)).is_err() {
                out.errors += pending.len() as u64 + 1;
                return out;
            }
            pending.push((id, sent_at));
        }
        if pending.is_empty() {
            return out;
        }
        t.set_request(0);
        match t.span("net.poll", |_| reader.poll(&mut stream)) {
            Ok(PollFrame::Frame(frame)) => {
                let Some(k) = pending.iter().position(|(id, _)| *id == frame.request_id) else {
                    out.mispaired += 1;
                    continue;
                };
                let (id, sent_at) = pending.swap_remove(k);
                match frame.payload {
                    Payload::InferReply { classes, .. } if classes.len() == 1 => {
                        out.answered.push(answer(began, sent_at));
                        out.replies.push((id, classes[0]));
                    }
                    _ => out.errors += 1,
                }
            }
            Ok(PollFrame::Pending) => {
                if Instant::now() > stop.deadline + DRAIN {
                    out.lost += pending.len() as u64;
                    return out;
                }
            }
            Ok(PollFrame::Eof) | Err(_) => {
                out.errors += pending.len() as u64;
                return out;
            }
        }
    }
}

fn answer(began: Instant, sent_at: Instant) -> Op {
    Op {
        end_s: began.elapsed().as_secs_f64(),
        ms: ms_since(sent_at),
        work: 1.0,
    }
}

/// Runs `client(conn, phase start, tracer)` on `CONNECTIONS` threads,
/// each with its own tracer, and folds their results and spans.
fn per_connection(
    t: &mut Tracer,
    client: impl Fn(usize, Instant, &mut Tracer) -> Clients + Sync,
) -> Clients {
    let start = Instant::now();
    let results: Vec<(Clients, Tracer)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|conn| {
                let mut ct = t.child();
                let client = &client;
                scope.spawn(move || (client(conn, start, &mut ct), ct))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut out = Clients::default();
    for (c, ct) in results {
        out.absorb(c);
        t.merge(ct);
    }
    out.wall_s = start.elapsed().as_secs_f64();
    out
}

/// Runs `CONNECTIONS` closed-loop clients against `addr` until `stop`.
pub fn clients(addr: SocketAddr, seed: u64, first_id: u64, stop: Stop, t: &mut Tracer) -> Clients {
    per_connection(t, |conn, began, ct| {
        connection(addr, conn, seed, first_id, stop, began, ct)
    })
}

/// Replies whose class differs from `Session::infer_batch` on the same
/// row over the served deployment.
pub fn mismatches(router: &ShardRouter, seed: u64, replies: &[(u64, u32)]) -> u64 {
    let mut session = Session::new(router.shard(0).current());
    let mut wrong = 0;
    for chunk in replies.chunks(EVAL_BATCH) {
        let x = rows_tensor(seed, chunk.iter().map(|(id, _)| *id));
        let preds = session.infer_batch(&x);
        wrong += chunk
            .iter()
            .zip(preds)
            .filter(|((_, class), pred)| *class as usize != **pred)
            .count() as u64;
    }
    wrong
}

fn rows_tensor(seed: u64, ids: impl Iterator<Item = u64>) -> Tensor {
    let mut data = Vec::new();
    let mut rows = 0;
    for id in ids {
        data.extend(request_rows(seed, id, 1, ROW_LEN));
        rows += 1;
    }
    let mut dims = vec![rows];
    dims.extend_from_slice(&SAMPLE_DIMS);
    Tensor::from_vec(data, &dims)
}

/// Setup: dataset, the deployed LeNet's fixed-step training, the stack
/// (shard compile and bind) and a warm-up through it.
fn prepare(sizes: &Sizes) -> (TrainTest, Sequential, Frontend) {
    let data = dataset(sizes);
    let model = deployed_model(&data, sizes);
    let frontend = start(&model);
    let warm = Stop {
        deadline: Instant::now() + DRAIN,
        budget: sizes.warmup_requests,
    };
    clients(
        frontend.local_addr(),
        0,
        WARMUP_IDS,
        warm,
        &mut Tracer::off(),
    );
    (data, model, frontend)
}

/// The untraced run: end-to-end metrics.
pub fn run(seed: u64, seconds: f64, sizes: &Sizes) -> Outcome {
    let (setup_s, (data, _model, frontend), same) = timed_setup(
        sizes.setup_reps,
        || prepare(sizes),
        |(_, m, _)| state_bits(m),
        |(_, _, old)| stop(old),
    );
    let stop_at = Stop {
        deadline: Instant::now() + Duration::from_secs_f64(seconds),
        budget: u64::MAX,
    };
    let c = clients(frontend.local_addr(), seed, 0, stop_at, &mut Tracer::off());
    let router = frontend.router();
    let wrong = mismatches(router, seed, &c.replies);
    let accuracy = Session::new(router.shard(0).current()).evaluate(&data.test, EVAL_BATCH);
    let mut o = Outcome {
        attempted: c.sent,
        failed: c.failed() + wrong,
        ..Outcome::default()
    };
    o.check(same, || {
        "wire: setup repetitions trained different models".into()
    });
    let window_median = |stat: &dyn Fn(&[Op], f64) -> f64| {
        if c.answered.is_empty() {
            f64::NAN
        } else {
            windowed(&c.answered, seconds, stat)
        }
    };
    o.check(!c.answered.is_empty(), || {
        "wire: no request was answered".into()
    });
    o.metric("setup_s", setup_s, "s");
    eprintln!(
        "wire: per-window throughput {:.1?}, p50_ms {:.3?}",
        per_window(&c.answered, seconds, wall_rate),
        per_window(&c.answered, seconds, latency(0.5))
    );
    o.metric("throughput", window_median(&wall_rate), "1/s");
    o.metric("p50_ms", window_median(&latency(0.5)), "ms");
    o.metric("accuracy", f64::from(accuracy), "ratio");
    eprintln!(
        "wire: {} sent, {} answered, {} errors, {} mispaired, {} lost, {} wrong classes",
        c.sent,
        c.replies.len(),
        c.errors,
        c.mispaired,
        c.lost,
        wrong
    );
    stop(frontend);
    o
}

/// A percentile, or NaN (which fails the run) for an empty sample.
fn percentile_or_nan(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        f64::NAN
    } else {
        percentile(samples, q)
    }
}

/// The in-process route probe: the same 2 × 4 closed loop as the TCP
/// clients, through `ShardRouter::route` → `RouterTicket::wait` with no
/// sockets.
fn route_probe(router: &ShardRouter, seed: u64, seconds: f64, t: &mut Tracer) -> Clients {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    per_connection(t, |conn, began, ct| {
        let mut out = Clients::default();
        let mut inflight = VecDeque::with_capacity(WINDOW);
        let mut next_id = PROBE_IDS + conn as u64;
        loop {
            while inflight.len() < WINDOW && Instant::now() < deadline {
                let id = next_id;
                next_id += CONNECTIONS as u64;
                ct.set_request(id);
                let x = Tensor::from_vec(request_rows(seed, id, 1, ROW_LEN), &SAMPLE_DIMS);
                let sent_at = Instant::now();
                out.sent += 1;
                match ct.span("router.route", |_| router.route(&x)) {
                    Ok(ticket) => inflight.push_back((id, sent_at, ticket)),
                    Err(_) => out.errors += 1,
                }
            }
            let Some((id, sent_at, ticket)) = inflight.pop_front() else {
                return out;
            };
            ct.set_request(id);
            match ct.span("router.wait", |_| ticket.wait()) {
                Ok(reply) => {
                    out.answered.push(answer(began, sent_at));
                    out.replies.push((id, reply.class as u32));
                }
                Err(_) => out.errors += 1,
            }
        }
    })
}

/// The traced run: [`alternate`]d TCP phases of `seconds * PHASE_SHARE`,
/// then the in-process route probe for as long and the `infer_batch`
/// probe; per-layer metrics from the public counters and the probes.
pub fn profile(seed: u64, seconds: f64, sizes: &Sizes, origin: Instant) -> (Outcome, Tracer) {
    let (_data, _model, frontend) = prepare(sizes);
    let addr = frontend.local_addr();
    let router = frontend.router();
    let before = router.shard(0).stats();
    let mut t = Tracer::new(true, origin);
    let phase_s = seconds * PHASE_SHARE;
    let phases = alternate(&mut t, |k, tracer| {
        let stop_at = Stop {
            deadline: Instant::now() + Duration::from_secs_f64(phase_s),
            budget: u64::MAX,
        };
        clients(addr, seed, (k as u64 + 1) << 32, stop_at, tracer)
    });
    let (mut plain, mut traced) = (Clients::default(), Clients::default());
    for (on, c) in phases {
        if on {
            traced.absorb(c);
        } else {
            plain.absorb(c);
        }
    }
    let after = router.shard(0).stats();
    let probe = route_probe(router, seed, phase_s, &mut t);

    let batches = after.batches.saturating_sub(before.batches).max(1);
    let rows_per_batch = after.requests.saturating_sub(before.requests) as f64 / batches as f64;
    let rows = (rows_per_batch.round() as usize).max(1);
    let x = rows_tensor(seed, (0..rows as u64).map(|i| PROBE_IDS + i));
    let mut session = Session::new(router.shard(0).current());
    session.infer_batch(&x);
    for _ in 0..sizes.infer_calls {
        t.span("engine.infer_batch", |_| {
            session.infer_batch(&x);
        });
    }
    let infer_ms = median(&t.durations_ms("engine.infer_batch"));

    let wrong = mismatches(router, seed, &plain.replies)
        + mismatches(router, seed, &traced.replies)
        + mismatches(router, seed, &probe.replies);
    let shed = router.stats().shed;
    let (conns_shed, handler_panics) = (frontend.connections_shed(), frontend.handler_panics());
    let mut o = Outcome {
        attempted: plain.sent + traced.sent + probe.sent,
        failed: plain.failed() + traced.failed() + probe.failed() + wrong,
        ..Outcome::default()
    };
    o.check(
        !plain.answered.is_empty() && !probe.answered.is_empty(),
        || "wire: a phase answered no request".into(),
    );
    o.check(handler_panics == 0 && after.worker_panics == 0, || {
        format!(
            "wire: {handler_panics} handler and {} worker panics",
            after.worker_panics
        )
    });
    let p50 = percentile_or_nan(&plain.latency_ms(), 0.5);
    let route_p50 = percentile_or_nan(&probe.latency_ms(), 0.5);
    o.metric(
        "wire.request_p99_ms",
        percentile_or_nan(&plain.latency_ms(), 0.99),
        "ms",
    );
    o.metric("wire.serve.rows_per_batch", rows_per_batch, "rows");
    o.metric(
        "wire.serve.batch_fill",
        rows_per_batch / MAX_BATCH as f64,
        "ratio",
    );
    o.metric("wire.serve.queue_p50_ms", after.p50_us / 1e3, "ms");
    o.metric("wire.probe.route_p50_ms", route_p50, "ms");
    o.metric("wire.probe.route_throughput", probe.throughput(), "1/s");
    o.metric("wire.probe.infer_ms", infer_ms, "ms");
    o.metric("wire.net.overhead_ms", p50 - route_p50, "ms");
    o.metric("wire.serve.overhead_ms", route_p50 - infer_ms, "ms");
    o.metric("wire.router.shed", shed as f64, "count");
    o.metric("wire.net.connections_shed", conns_shed as f64, "count");
    o.metric("wire.net.handler_panics", handler_panics as f64, "count");
    o.metric(
        "wire.serve.worker_panics",
        after.worker_panics as f64,
        "count",
    );
    o.metric(
        "wire.trace_overhead",
        1.0 - traced.throughput() / plain.throughput(),
        "ratio",
    );
    drop(session);
    stop(frontend);
    (o, t)
}
