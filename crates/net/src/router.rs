//! The shard router: many independent serving shards behind one
//! admission point.
//!
//! Each shard is a [`cn_serve::Server`] over its own independently-drawn
//! compiled deployment — the same "every programmed chip is a different
//! draw" story as [`cn_serve::Fleet`], but routed for *scale* rather than
//! redundancy: requests go to one shard chosen by
//! **pick-two-least-loaded** (two candidate shards are compared by their
//! live load and the lighter one wins — the classic power-of-two-choices
//! balancer, which avoids both the herding of global-least-loaded and
//! the variance of blind round-robin).
//!
//! The router owns three serving-time behaviors the frontend builds on:
//!
//! - **Load shedding**: a shard whose in-flight count reaches the
//!   configured bound rejects the request with [`RouterError::Overloaded`]
//!   before it ever touches the admission queue, and a full queue maps to
//!   the same signal — both surface as backpressure frames on the wire.
//! - **Graceful drain**: [`drain`](ShardRouter::drain) atomically stops
//!   admission ([`RouterError::Draining`] thereafter), closes every
//!   shard's queue so workers finish what was admitted, and
//!   [`drained`](ShardRouter::drained) flips once the last in-flight
//!   request has been answered. No accepted request is ever dropped.
//! - **Hot swap**: [`reprogram`](ShardRouter::reprogram) /
//!   [`recompile_drifted`](ShardRouter::recompile_drifted) rebuild every
//!   shard's deployment through the engine's `recompile` + `install`
//!   hooks under live traffic, bumping a generation counter the control
//!   plane reports.
//!
//! Shards are addressed only through [`Server`] handles and per-shard
//! atomic counters — nothing in the routing layer assumes shared memory
//! beyond those, so a later PR can put shards behind their own processes
//! by swapping the handle type.

use cn_analog::drift::ConductanceDrift;
use cn_analog::engine::{Backend, CompiledModel, DriftBackend};
use cn_nn::Sequential;
use cn_serve::{HistogramSnapshot, Reply, ServeConfig, ServeError, Server, ServerStats, Ticket};
use cn_tensor::{SeededRng, Tensor};
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;

/// Routing-layer failures (the wire maps these onto error frames).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RouterError {
    /// Both candidate shards are at their in-flight bound, or the chosen
    /// shard's queue is full — back off and retry.
    Overloaded,
    /// The router is draining (or closed) and admits nothing new.
    Draining,
    /// The chosen shard failed the submission (shape mismatch, worker
    /// death).
    Serve(ServeError),
}

impl std::fmt::Display for RouterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RouterError::Overloaded => write!(f, "all candidate shards are at capacity"),
            RouterError::Draining => write!(f, "router is draining"),
            RouterError::Serve(e) => write!(f, "shard error: {e}"),
        }
    }
}

impl std::error::Error for RouterError {}

/// Router configuration beyond the per-shard [`ServeConfig`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouterConfig {
    /// Per-shard serving configuration (batcher, queue, workers).
    pub serve: ServeConfig,
    /// In-flight requests per shard beyond which the router sheds load
    /// *before* touching the shard's queue.
    pub shed_inflight: usize,
}

impl RouterConfig {
    /// Defaults: the given serve config, shedding at `queue_capacity +
    /// max_batch × workers` in-flight per shard (a full queue plus every
    /// worker's largest batch in execution).
    pub fn new(serve: ServeConfig) -> RouterConfig {
        let shed_inflight = serve.queue_capacity + serve.max_batch * serve.workers;
        RouterConfig {
            serve,
            shed_inflight,
        }
    }

    /// Overrides the per-shard in-flight shedding bound.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn shed_inflight(mut self, bound: usize) -> RouterConfig {
        assert!(bound > 0, "shed_inflight must be positive");
        self.shed_inflight = bound;
        self
    }
}

/// Lifecycle state of the router.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouterState {
    /// Admitting and routing requests.
    Accepting,
    /// Admission stopped; in-flight requests are being flushed.
    Draining,
}

impl RouterState {
    /// Lowercase name used by the control plane's JSON.
    pub fn name(self) -> &'static str {
        match self {
            RouterState::Accepting => "accepting",
            RouterState::Draining => "draining",
        }
    }
}

const STATE_ACCEPTING: u8 = 0;
const STATE_DRAINING: u8 = 1;

/// One shard: a server plus its live in-flight counter.
struct Shard {
    server: Server,
    inflight: Arc<AtomicUsize>,
}

impl Shard {
    /// Live load: requests submitted to this shard and not yet answered
    /// (queued + executing).
    fn load(&self) -> usize {
        self.inflight.load(Ordering::Relaxed)
    }
}

/// Decrements a shard's in-flight counter when the reply is consumed (or
/// the ticket is abandoned), keeping the router's load signal honest.
#[derive(Debug)]
struct InflightGuard {
    counter: Arc<AtomicUsize>,
}

impl Drop for InflightGuard {
    fn drop(&mut self) {
        self.counter.fetch_sub(1, Ordering::Relaxed);
    }
}

/// A pending reply routed through the shard router.
///
/// Wraps the shard's [`Ticket`] so the shard's in-flight counter is
/// released exactly when the reply is consumed or the ticket dropped.
#[derive(Debug)]
pub struct RouterTicket {
    ticket: Ticket,
    _guard: InflightGuard,
}

impl RouterTicket {
    /// Blocks until the reply arrives.
    ///
    /// # Errors
    ///
    /// See [`Ticket::wait`].
    pub fn wait(self) -> Result<Reply, ServeError> {
        self.ticket.wait()
    }

    /// Non-blocking poll; see [`Ticket::try_wait`].
    pub fn try_wait(&mut self) -> Option<Result<Reply, ServeError>> {
        self.ticket.try_wait()
    }
}

/// Many independent serving shards behind pick-two-least-loaded routing.
pub struct ShardRouter {
    shards: Vec<Shard>,
    sample_dims: Vec<usize>,
    state: AtomicU8,
    /// Deterministic candidate-pair sequence (see [`candidates`]).
    route_seq: AtomicU64,
    routed: AtomicU64,
    shed: AtomicU64,
    generation: AtomicU64,
    backend: Box<dyn Backend>,
    seed: u64,
    shed_inflight: usize,
}

impl ShardRouter {
    /// Compiles `shards` independent deployments of `model` on `backend`
    /// (shard `i` draws from stream `fork(i)` of `seed`) and starts a
    /// server per shard.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero or `sample_dims` is empty.
    pub fn new(
        model: &Sequential,
        backend: impl Backend + 'static,
        shards: usize,
        seed: u64,
        sample_dims: &[usize],
        config: &RouterConfig,
    ) -> ShardRouter {
        assert!(shards > 0, "a router needs at least one shard");
        let nominal = Arc::new(model.clone());
        let shards = (0..shards)
            .map(|i| {
                let mut rng = SeededRng::new(seed).fork(i as u64);
                let compiled = CompiledModel::compile_shared(&nominal, &backend, &mut rng);
                Shard {
                    server: Server::new(compiled.shared(), sample_dims, &config.serve),
                    inflight: Arc::new(AtomicUsize::new(0)),
                }
            })
            .collect();
        ShardRouter {
            shards,
            sample_dims: sample_dims.to_vec(),
            state: AtomicU8::new(STATE_ACCEPTING),
            route_seq: AtomicU64::new(0),
            routed: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            generation: AtomicU64::new(0),
            backend: Box::new(backend),
            seed,
            shed_inflight: config.shed_inflight,
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// The sample shape every shard accepts.
    pub fn sample_dims(&self) -> &[usize] {
        &self.sample_dims
    }

    /// Current lifecycle state.
    pub fn state(&self) -> RouterState {
        if self.state.load(Ordering::Acquire) == STATE_ACCEPTING {
            RouterState::Accepting
        } else {
            RouterState::Draining
        }
    }

    /// Routes one sample to the less loaded of two candidate shards.
    ///
    /// # Errors
    ///
    /// [`RouterError::Draining`] after [`drain`](ShardRouter::drain),
    /// [`RouterError::Overloaded`] when the chosen shard is at the shed
    /// bound or its queue is full, [`RouterError::Serve`] otherwise.
    pub fn route(&self, input: &Tensor) -> Result<RouterTicket, RouterError> {
        if self.state.load(Ordering::Acquire) != STATE_ACCEPTING {
            return Err(RouterError::Draining);
        }
        let (a, b) = self.candidates();
        let i = if self.shards[a].load() <= self.shards[b].load() {
            a
        } else {
            b
        };
        let shard = &self.shards[i];
        if shard.load() >= self.shed_inflight {
            self.shed.fetch_add(1, Ordering::Relaxed);
            return Err(RouterError::Overloaded);
        }
        // Count the request before submitting so a concurrent router sees
        // the load it is about to add; undo on rejection.
        shard.inflight.fetch_add(1, Ordering::Relaxed);
        match shard.server.submit(input) {
            Ok(ticket) => {
                self.routed.fetch_add(1, Ordering::Relaxed);
                Ok(RouterTicket {
                    ticket,
                    _guard: InflightGuard {
                        counter: Arc::clone(&shard.inflight),
                    },
                })
            }
            Err(e) => {
                shard.inflight.fetch_sub(1, Ordering::Relaxed);
                match e {
                    ServeError::QueueFull => {
                        self.shed.fetch_add(1, Ordering::Relaxed);
                        Err(RouterError::Overloaded)
                    }
                    ServeError::ShuttingDown => Err(RouterError::Draining),
                    other => Err(RouterError::Serve(other)),
                }
            }
        }
    }

    /// Two distinct candidate shard indices from a deterministic
    /// low-discrepancy sequence (round-robin first pick, rotating second
    /// pick), so pick-two needs no RNG and stays reproducible in tests.
    /// With one shard both candidates coincide.
    fn candidates(&self) -> (usize, usize) {
        let k = self.shards.len();
        let c = self.route_seq.fetch_add(1, Ordering::Relaxed) as usize;
        if k == 1 {
            return (0, 0);
        }
        let a = c % k;
        // Stride rotates through every non-zero offset as c advances a
        // full cycle, pairing each shard with every other over time.
        let stride = 1 + (c / k) % (k - 1);
        let b = (a + stride) % k;
        (a, b)
    }

    /// Stops admission and closes every shard's queue. Already-admitted
    /// requests keep flowing to completion; poll
    /// [`drained`](ShardRouter::drained) to learn when the flush is done.
    pub fn drain(&self) {
        self.state.store(STATE_DRAINING, Ordering::Release);
        for shard in &self.shards {
            shard.server.close();
        }
    }

    /// Whether a drain has finished: admission is stopped and no request
    /// is queued or executing anywhere.
    pub fn drained(&self) -> bool {
        self.state.load(Ordering::Acquire) == STATE_DRAINING
            && self
                .shards
                .iter()
                .all(|s| s.load() == 0 && s.server.queue_depth() == 0)
    }

    /// Re-programs every shard on the base backend with fresh variation
    /// draws (drift reset), hot-swapped under live traffic.
    pub fn reprogram(&self) {
        let backend: &dyn Backend = self.backend.as_ref();
        self.recompile_on(backend);
    }

    /// Recompiles every shard against its base backend aged by `drift` at
    /// time `t`, modeling a sharded fleet that has been in the field.
    ///
    /// # Panics
    ///
    /// Panics if `t` precedes the drift model's reference time.
    pub fn recompile_drifted(&self, drift: &ConductanceDrift, t: f32) {
        let aged = DriftBackend::new(self.backend.as_ref(), *drift, t);
        self.recompile_on(&aged);
    }

    fn recompile_on(&self, backend: &dyn Backend) {
        let generation = self.generation.fetch_add(1, Ordering::Relaxed) + 1;
        let shards = self.shards.len() as u64;
        for (i, shard) in self.shards.iter().enumerate() {
            // Fresh deterministic streams per (generation, shard).
            let mut rng = SeededRng::new(self.seed).fork(generation * shards + i as u64);
            let compiled = shard.server.current().recompile(backend, &mut rng);
            shard.server.install(compiled.shared());
        }
    }

    /// How many deployment generations have been installed (0 = the
    /// initial programming).
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Relaxed)
    }

    /// Point-in-time routing and per-shard health snapshot.
    pub fn stats(&self) -> RouterStats {
        RouterStats {
            state: self.state(),
            generation: self.generation(),
            routed: self.routed.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            inflight: self.shards.iter().map(Shard::load).collect(),
            shards: self.shards.iter().map(|s| s.server.stats()).collect(),
        }
    }

    /// Direct access to one shard's server (tests, maintenance).
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn shard(&self, shard: usize) -> &Server {
        &self.shards[shard].server
    }

    /// Stops every shard, joining the workers. Combine with
    /// [`drain`](ShardRouter::drain) +
    /// [`drained`](ShardRouter::drained) for a graceful exit; calling
    /// this directly still drains admitted requests (workers reply before
    /// exiting) but does not wait for clients to consume the replies.
    pub fn shutdown(self) {
        for shard in self.shards {
            shard.server.shutdown();
        }
    }
}

/// A point-in-time snapshot of the router and its shards.
#[derive(Debug, Clone)]
pub struct RouterStats {
    /// Lifecycle state.
    pub state: RouterState,
    /// Deployment generation (0 = initial programming).
    pub generation: u64,
    /// Requests successfully routed to a shard.
    pub routed: u64,
    /// Requests shed for overload (before or at the shard queue).
    pub shed: u64,
    /// Live in-flight count per shard.
    pub inflight: Vec<usize>,
    /// Per-shard serving stats.
    pub shards: Vec<ServerStats>,
}

impl RouterStats {
    /// Fleet totals over the shards:
    /// `(total requests, total throughput rps, p50 µs, p95 µs, p99 µs)`.
    ///
    /// The percentiles are read from the shards' latency histograms
    /// merged into one, i.e. over every request the fleet answered.
    /// (Averaging per-shard percentiles is not a percentile: one shard's
    /// slow tail would be diluted by the fast ones.)
    pub fn aggregate(&self) -> (u64, f64, f64, f64, f64) {
        let total: u64 = self.shards.iter().map(|s| s.requests).sum();
        let throughput: f64 = self.shards.iter().map(|s| s.throughput_rps).sum();
        let mut fleet = HistogramSnapshot::default();
        for shard in &self.shards {
            fleet.merge(&shard.latency);
        }
        (
            total,
            throughput,
            fleet.quantile(0.50),
            fleet.quantile(0.95),
            fleet.quantile(0.99),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cn_analog::engine::DigitalBackend;
    use cn_nn::zoo::mlp;
    use std::time::Duration;

    fn router(shards: usize, config: RouterConfig) -> ShardRouter {
        let model = mlp(&[4, 8, 3], 1);
        ShardRouter::new(&model, DigitalBackend, shards, 7, &[4], &config)
    }

    fn quick_config() -> RouterConfig {
        RouterConfig::new(ServeConfig::new(8).max_wait(Duration::from_millis(1)))
    }

    #[test]
    fn routes_and_replies() {
        let r = router(4, quick_config());
        let x = SeededRng::new(3).normal_tensor(&[4], 0.0, 1.0);
        for _ in 0..32 {
            let reply = r.route(&x).unwrap().wait().unwrap();
            assert_eq!(reply.logits.len(), 3);
        }
        let stats = r.stats();
        assert_eq!(stats.routed, 32);
        assert_eq!(stats.shed, 0);
        // Every reply consumed ⇒ in-flight drained back to zero.
        assert!(stats.inflight.iter().all(|&n| n == 0));
    }

    #[test]
    fn candidate_pairs_are_distinct_and_cover() {
        let r = router(4, quick_config());
        let mut seen = [false; 4];
        for _ in 0..64 {
            let (a, b) = r.candidates();
            assert_ne!(a, b);
            assert!(a < 4 && b < 4);
            seen[a] = true;
            seen[b] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn single_shard_candidates_coincide() {
        let r = router(1, quick_config());
        assert_eq!(r.candidates(), (0, 0));
        let x = Tensor::zeros(&[4]);
        r.route(&x).unwrap().wait().unwrap();
    }

    #[test]
    fn least_loaded_candidate_wins() {
        // Shed bound 1: once a shard holds one un-consumed reply, the
        // pick-two comparison must steer the next request elsewhere.
        let r = router(2, quick_config().shed_inflight(1));
        let x = Tensor::zeros(&[4]);
        // Load shard picked first without consuming the reply.
        let held = r.route(&x).unwrap();
        // Both candidates considered; the empty shard must win every time.
        for _ in 0..8 {
            r.route(&x).unwrap().wait().unwrap();
        }
        drop(held);
    }

    #[test]
    fn shed_bound_rejects_with_overloaded() {
        let r = router(1, quick_config().shed_inflight(2));
        let x = Tensor::zeros(&[4]);
        // Stall by holding tickets un-waited; workers busy or not, the
        // in-flight counter holds at 2.
        let _a = r.route(&x).unwrap();
        let _b = r.route(&x).unwrap();
        assert_eq!(r.route(&x).unwrap_err(), RouterError::Overloaded);
        assert_eq!(r.stats().shed, 1);
    }

    #[test]
    fn drain_stops_admission_and_flushes() {
        let r = router(2, quick_config());
        let x = Tensor::zeros(&[4]);
        let tickets: Vec<RouterTicket> = (0..16).map(|_| r.route(&x).unwrap()).collect();
        r.drain();
        assert_eq!(r.route(&x).unwrap_err(), RouterError::Draining);
        assert_eq!(r.state(), RouterState::Draining);
        for t in tickets {
            t.wait().unwrap();
        }
        assert!(r.drained());
        r.shutdown();
    }

    #[test]
    fn reprogram_bumps_generation_and_swaps() {
        let model = mlp(&[4, 8, 3], 1);
        let r = ShardRouter::new(
            &model,
            cn_analog::engine::AnalogBackend::lognormal(0.6),
            2,
            11,
            &[4],
            &quick_config(),
        );
        let x = SeededRng::new(5).normal_tensor(&[4], 0.0, 1.0);
        let before: Vec<f32> = r.shard(0).classify(&x).unwrap().logits;
        r.reprogram();
        assert_eq!(r.generation(), 1);
        let after: Vec<f32> = r.shard(0).classify(&x).unwrap().logits;
        // Fresh variation draws ⇒ different deployment ⇒ different logits.
        assert_ne!(before, after);
    }

    #[test]
    fn drifted_recompile_changes_deployments() {
        let model = mlp(&[4, 8, 3], 1);
        let r = ShardRouter::new(
            &model,
            cn_analog::engine::AnalogBackend::lognormal(0.3),
            2,
            11,
            &[4],
            &quick_config(),
        );
        let x = SeededRng::new(5).normal_tensor(&[4], 0.0, 1.0);
        let before: Vec<f32> = r.shard(1).classify(&x).unwrap().logits;
        r.recompile_drifted(&ConductanceDrift::new(0.05, 0.02, 1.0), 1.0e4);
        assert_eq!(r.generation(), 1);
        let after: Vec<f32> = r.shard(1).classify(&x).unwrap().logits;
        assert_ne!(before, after);
    }

    /// Regression: fleet percentiles used to be a request-weighted
    /// average of shard percentiles, so one shard's slow tail (here 10 %
    /// of its requests, 2.5 % of the fleet's) read as a quarter of its
    /// height in the fleet p99. Merged histograms put it at full height.
    #[test]
    fn heavy_tailed_shard_shows_in_fleet_p99() {
        use cn_serve::LatencyHistogram;
        let shard = |tail: u64| {
            let h = LatencyHistogram::new();
            for i in 0..1000 {
                h.record(if i < tail { 100_000 } else { 500 });
            }
            let latency = h.snapshot();
            ServerStats {
                requests: 1000,
                batches: 1000,
                batch_fill: 1.0,
                throughput_rps: 100.0,
                p50_us: latency.quantile(0.50),
                p95_us: latency.quantile(0.95),
                p99_us: latency.quantile(0.99),
                worker_panics: 0,
                latency,
            }
        };
        let stats = RouterStats {
            state: RouterState::Accepting,
            generation: 0,
            routed: 4000,
            shed: 0,
            inflight: vec![0; 4],
            shards: vec![shard(0), shard(0), shard(0), shard(100)],
        };
        let tail = stats.shards[3].p99_us;
        assert!(tail > 90_000.0, "the slow shard's own p99 is its tail");
        let (total, throughput, p50, p95, p99) = stats.aggregate();
        assert_eq!((total, throughput), (4000, 400.0));
        assert_eq!(p50, stats.shards[0].p50_us);
        assert_eq!(
            p95, stats.shards[0].p50_us,
            "the tail is 2.5 % of the fleet"
        );
        assert_eq!(p99, tail);
    }

    #[test]
    fn aggregate_weights_by_requests() {
        let r = router(3, quick_config());
        let x = Tensor::zeros(&[4]);
        for _ in 0..24 {
            r.route(&x).unwrap().wait().unwrap();
        }
        let stats = r.stats();
        let (total, throughput, p50, p95, p99) = stats.aggregate();
        assert_eq!(total, 24);
        assert!(throughput > 0.0);
        assert!(p50 > 0.0 && p50 <= p95 && p95 <= p99);
    }
}
