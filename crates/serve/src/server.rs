//! The long-running optimization server.
//!
//! Architecture (DESIGN.md §12):
//!
//! - **Shared cache + worker pool.** Every worker steps, measures and
//!   embeds through one [`EvalCache`]. A request routes to the worker a
//!   SplitMix64 finalizer of its module hash picks, so a module always
//!   lands on the same worker (reported as the response's `shard`) and
//!   the admission partition is a property of the request stream.
//! - **Inline inference.** Each worker rolls its request out with
//!   [`TrainedModel::rollout`], the greedy loop offline evaluation uses,
//!   picking every action on its own thread from the shared model. A
//!   decision depends only on the state, so responses are bit-identical
//!   for any worker count or queue order.
//! - **Admission control.** Each worker has a bounded queue; a full queue
//!   answers `overloaded` immediately instead of building unbounded
//!   backlog. Budgets (module bytes, episode steps) are deterministic
//!   request properties, never wall-clock, so a given request stream
//!   always produces the same accepted/rejected partition.
//! - **Two-level response store.** Results are memoized by
//!   `(module_hash, arch, steps)` in a bounded [`Memo`] (the memo type
//!   behind every content-addressed cache); a repeated module is a pure
//!   store hit that touches neither the worker pool nor the network.
//!   In front of it, a second `Memo` maps the **front-door key**
//!   `(digest_str(raw text), text length, arch, steps)` to that
//!   canonical key, so a byte-identical repeat is answered without
//!   parsing, verifying or hashing the module. A front-door key is only
//!   ever stored for text that parsed and verified, so malformed input
//!   always takes the full path and gets the same error; the canonical
//!   store still decides hit or miss, so a reformatted but equal module
//!   hits through it and every response byte is what it was.

use crate::config::ServeConfig;
use crate::protocol::{parse_request, ErrorKind, OkResponse, Response};
use posetrl::cache::MeasureMemo;
use posetrl::env::{measure, PhaseEnv};
use posetrl::{CacheStats, EvalCache, TrainedModel};
use posetrl_analyze::{ClassStats, Memo, Sanitizer};
use posetrl_ir::hash::{mix64, SPLITMIX_GAMMA};
use posetrl_ir::parser::parse_module;
use posetrl_ir::printer::print_module;
use posetrl_ir::{digest_str, module_hash, Module, ModuleHash};
use posetrl_target::TargetArch;
use std::io::{BufRead, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

type StoreKey = (ModuleHash, TargetArch, u64);

/// `(digest_str(raw module text), text length, arch, steps)`.
type FrontKey = (u128, usize, TargetArch, u64);

struct Job {
    id: String,
    module: Module,
    hash: ModuleHash,
    front: FrontKey,
    arch: TargetArch,
    steps: u64,
    shard: usize,
    reply: SyncSender<Response>,
    start: Instant,
}

struct Inner {
    cfg: ServeConfig,
    model: Arc<TrainedModel>,
    cache: Arc<EvalCache>,
    sanitizer: Option<Arc<Sanitizer>>,
    /// Policy decisions taken by completed rollouts.
    decisions: AtomicU64,
    /// Completed responses; a hit is re-issued under the new request's
    /// id and timing.
    store: Memo<StoreKey, Arc<OkResponse>>,
    /// Front-door keys of text that parsed and verified, mapped to its
    /// canonical store key. It holds twice as many entries as `store`:
    /// more than one text can reach a stored response, and a key is a
    /// few dozen bytes against a response's kilobytes. So a key can
    /// outlive its response, which `admit` handles.
    front: Memo<FrontKey, StoreKey>,
    front_door_hits: AtomicU64,
    requests: AtomicU64,
    ok: AtomicU64,
    errors: AtomicU64,
    overloads: AtomicU64,
}

/// Aggregate server counters, for `servestats` and the load generator.
#[derive(Debug, Clone)]
pub struct ServerStats {
    /// Requests submitted (including rejected ones).
    pub requests: u64,
    /// Success responses produced.
    pub ok: u64,
    /// Error responses produced (any kind).
    pub errors: u64,
    /// Subset of `errors` rejected by admission control.
    pub overloads: u64,
    /// Content-addressed response-store hits, through either level. A
    /// request that reaches the store counts once, here or in
    /// `store_misses`.
    pub store_hits: u64,
    /// Response-store misses (full rollouts).
    pub store_misses: u64,
    /// Subset of `store_hits` answered through the front-door key,
    /// without parsing, verifying or hashing the module.
    pub front_door_hits: u64,
    /// Eval-cache counters.
    pub cache: CacheStats,
    /// Policy-inference counters.
    pub batch: BatchStats,
}

/// Policy-inference counters: each decision is one network sweep over one
/// state, so `batches == states` and their ratio, the mean batch, is 1.
#[derive(Debug, Clone, Copy, Default)]
pub struct BatchStats {
    /// Network sweeps run.
    pub batches: u64,
    /// States inferred in total.
    pub states: u64,
}

impl ServerStats {
    /// Response-store hit rate in `[0, 1]` (0 when idle).
    pub fn store_hit_rate(&self) -> f64 {
        let (hits, misses) = (self.store_hits, self.store_misses);
        ClassStats { hits, misses }.hit_rate()
    }
}

/// A response that may still be in flight.
pub struct Pending {
    rx: Receiver<Response>,
}

impl Pending {
    /// Blocks until the response is ready.
    pub fn wait(self) -> Response {
        self.rx
            .recv()
            .unwrap_or_else(|_| Response::err(None, ErrorKind::Internal, "worker disconnected"))
    }
}

/// The server: worker pool + caches behind a line-oriented API.
pub struct Server {
    inner: Arc<Inner>,
    queues: Vec<SyncSender<Job>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Builds a server over a trained model. `sanitizer`, when given, is
    /// attached to every rollout (its panics become `rollout-failed`
    /// responses rather than crashing the worker).
    pub fn new(
        model: Arc<TrainedModel>,
        cfg: ServeConfig,
        sanitizer: Option<Arc<Sanitizer>>,
    ) -> Server {
        // Attach a shared per-function incremental analysis manager to the
        // eval cache: every worker env that adopts the cache then
        // memoizes embeddings, lints, absint summaries and validate
        // obligations by function content. Results are bit-identical
        // either way.
        Server::with_incremental(
            model,
            cfg,
            sanitizer,
            Some(Arc::new(posetrl_analyze::IncrementalAnalysisManager::new())),
        )
    }

    /// [`Server::new`] with an explicit incremental analysis manager
    /// shared by every rollout. `None` does not turn memoization off:
    /// each rollout's environment then builds a private manager, as
    /// every `PhaseEnv::new` does, and drops it with the rollout. Tests
    /// use this to compare the two; the responses are bit-identical.
    pub fn with_incremental(
        model: Arc<TrainedModel>,
        cfg: ServeConfig,
        sanitizer: Option<Arc<Sanitizer>>,
        incremental: Option<Arc<posetrl_analyze::IncrementalAnalysisManager>>,
    ) -> Server {
        let cfg = cfg.normalized();
        let cache =
            Arc::new(EvalCache::with_capacity(cfg.cache_capacity).with_incremental(incremental));
        let inner = Arc::new(Inner {
            cfg: cfg.clone(),
            model,
            cache,
            sanitizer,
            decisions: AtomicU64::new(0),
            store: Memo::new(cfg.store_capacity),
            front: Memo::new(cfg.store_capacity.saturating_mul(2)),
            front_door_hits: AtomicU64::new(0),
            requests: AtomicU64::new(0),
            ok: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            overloads: AtomicU64::new(0),
        });
        let mut queues = Vec::with_capacity(cfg.workers);
        let mut workers = Vec::with_capacity(cfg.workers);
        for w in 0..cfg.workers {
            let (tx, rx) = sync_channel::<Job>(cfg.queue_depth);
            let inner = Arc::clone(&inner);
            let handle = std::thread::Builder::new()
                .name(format!("posetrl-serve-worker-{w}"))
                .spawn(move || {
                    while let Ok(job) = rx.recv() {
                        let reply = job.reply.clone();
                        let resp = process(&inner, job);
                        // receiver may have given up; dropping the response is fine
                        let _ = reply.try_send(resp);
                    }
                })
                .expect("spawn worker thread");
            queues.push(tx);
            workers.push(handle);
        }
        Server {
            inner,
            queues,
            workers,
        }
    }

    /// Admission-control configuration in effect.
    pub fn config(&self) -> &ServeConfig {
        &self.inner.cfg
    }

    /// Submits one raw request line; never blocks on the worker pool.
    ///
    /// Parse, budget, and admission failures resolve the returned
    /// [`Pending`] immediately with a structured error response.
    pub fn submit(&self, line: &str) -> Pending {
        let (tx, rx) = sync_channel::<Response>(1);
        let resp = self.admit(line, &tx);
        if let Some(resp) = resp {
            self.note(&resp);
            let _ = tx.try_send(resp);
        }
        Pending { rx }
    }

    /// Submits and waits — the one-shot convenience path.
    pub fn handle(&self, line: &str) -> Response {
        self.submit(line).wait()
    }

    /// Runs the request through parse → budgets → front-door key →
    /// module parse and verify → store → admission. Returns
    /// `Some(response)` when it resolved synchronously, `None` when a
    /// worker now owns the reply channel.
    fn admit(&self, line: &str, reply: &SyncSender<Response>) -> Option<Response> {
        let inner = &self.inner;
        inner.requests.fetch_add(1, Ordering::Relaxed);
        let start = Instant::now();
        let req = match parse_request(line) {
            Ok(r) => r,
            Err(e) => {
                return Some(Response::Err(crate::protocol::ErrResponse {
                    id: None,
                    error: e,
                }))
            }
        };
        if req.module.len() > inner.cfg.max_module_bytes {
            return Some(Response::err(
                Some(req.id),
                ErrorKind::ModuleTooLarge,
                format!(
                    "module is {} bytes; budget is {} (POSETRL_SERVE_MAX_MODULE_BYTES)",
                    req.module.len(),
                    inner.cfg.max_module_bytes
                ),
            ));
        }
        let steps = req
            .max_steps
            .unwrap_or(inner.cfg.max_steps)
            .clamp(1, inner.cfg.max_steps);
        let front = (digest_str(&req.module), req.module.len(), req.arch, steps);
        // level one: a front-door key exists only for text that parsed
        // and verified, so a hit skips parse, verify and hash
        let known = inner.front.get(&front);
        if let Some(hit) = known.and_then(|key| inner.store.get(&key)) {
            inner.front_door_hits.fetch_add(1, Ordering::Relaxed);
            return Some(store_hit(req.id, start, &hit));
        }
        let module = match parse_module(&req.module) {
            Ok(m) => m,
            Err(e) => {
                return Some(Response::err(
                    Some(req.id),
                    ErrorKind::BadModule,
                    format!("module does not parse: {e:?}"),
                ))
            }
        };
        if let Err(e) = posetrl_ir::verifier::verify_module(&module) {
            return Some(Response::err(
                Some(req.id),
                ErrorKind::BadModule,
                format!("module does not verify: {e}"),
            ));
        }
        let hash = module_hash(&module);
        let shard = worker_of(hash, self.queues.len());
        // level two, the content-addressed store: an equal module is a
        // pure hit. A known key's response was looked up above and is
        // gone, so the store counts each request once.
        let key = (hash, req.arch, steps);
        if known.is_none() {
            if let Some(hit) = inner.store.get(&key) {
                inner.front.insert(front, key);
                return Some(store_hit(req.id, start, &hit));
            }
        }
        let job = Job {
            id: req.id,
            module,
            hash,
            front,
            arch: req.arch,
            steps,
            shard,
            reply: reply.clone(),
            start,
        };
        match self.queues[shard].try_send(job) {
            Ok(()) => None,
            Err(TrySendError::Full(job)) => {
                self.inner.overloads.fetch_add(1, Ordering::Relaxed);
                Some(Response::err(
                    Some(job.id),
                    ErrorKind::Overloaded,
                    format!(
                        "worker {} queue is full ({} deep; POSETRL_SERVE_QUEUE)",
                        job.shard, self.inner.cfg.queue_depth
                    ),
                ))
            }
            Err(TrySendError::Disconnected(job)) => Some(Response::err(
                Some(job.id),
                ErrorKind::Internal,
                "worker pool is shut down",
            )),
        }
    }

    fn note(&self, resp: &Response) {
        if resp.is_ok() {
            self.inner.ok.fetch_add(1, Ordering::Relaxed);
        } else {
            self.inner.errors.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Counter snapshot across the pool.
    pub fn stats(&self) -> ServerStats {
        let i = &self.inner;
        let store = i.store.stats();
        let decisions = i.decisions.load(Ordering::Relaxed);
        ServerStats {
            requests: i.requests.load(Ordering::Relaxed),
            ok: i.ok.load(Ordering::Relaxed),
            errors: i.errors.load(Ordering::Relaxed),
            overloads: i.overloads.load(Ordering::Relaxed),
            store_hits: store.hits,
            store_misses: store.misses,
            front_door_hits: i.front_door_hits.load(Ordering::Relaxed),
            cache: i.cache.stats(),
            batch: BatchStats {
                batches: decisions,
                states: decisions,
            },
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.queues.clear(); // close the channels so workers drain and exit
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// The worker in `[0, workers)` that owns modules hashed `h`.
///
/// The structural hash is already well-mixed, but its low bits alone feed
/// the modulo, so fold the halves together and run a SplitMix64 finalizer
/// to spread any residual structure.
fn worker_of(h: ModuleHash, workers: usize) -> usize {
    let folded = (h.0 as u64) ^ ((h.0 >> 64) as u64);
    (mix64(folded.wrapping_add(SPLITMIX_GAMMA)) % workers as u64) as usize
}

/// A stored response re-issued under a new request's id and timing.
fn store_hit(id: String, start: Instant, hit: &OkResponse) -> Response {
    Response::Ok(OkResponse {
        id,
        wall_us: start.elapsed().as_micros() as u64,
        cached: true,
        batch: 0,
        ..hit.clone()
    })
}

struct RolloutOut {
    module_text: String,
    actions: Vec<u64>,
    before: MeasureMemo,
    after: MeasureMemo,
}

fn rollout(inner: &Inner, job: &Job) -> RolloutOut {
    let mut env_cfg = inner.model.env.clone();
    env_cfg.arch = job.arch;
    env_cfg.episode_len = job.steps as usize;
    let before = measure(Some((&inner.cache, job.hash)), &job.module, job.arch);
    let mut env = PhaseEnv::with_cache(
        env_cfg,
        inner.model.actions.clone(),
        Arc::clone(&inner.cache),
    );
    if inner.sanitizer.is_some() {
        env.set_sanitizer(inner.sanitizer.clone());
    }
    // admit hashed the module for its store key; the reset reuses it
    let state = env.reset_hashed(job.module.clone(), job.hash);
    inner.model.rollout(&mut env, state);
    let actions: Vec<u64> = env.applied_actions().iter().map(|&a| a as u64).collect();
    inner
        .decisions
        .fetch_add(actions.len() as u64, Ordering::Relaxed);
    let hash = env
        .current_hash()
        .expect("an env with a cache tracks its module's hash");
    let after = measure(Some((&inner.cache, hash)), env.module(), job.arch);
    RolloutOut {
        module_text: print_module(env.module()),
        actions,
        before,
        after,
    }
}

fn process(inner: &Arc<Inner>, job: Job) -> Response {
    let out = catch_unwind(AssertUnwindSafe(|| rollout(inner, &job)));
    match out {
        Ok(out) => {
            let resp = OkResponse {
                id: job.id,
                module: out.module_text,
                actions: out.actions,
                size_before: out.before.size,
                size_after: out.after.size,
                cycles_before: out.before.flat_cycles,
                cycles_after: out.after.flat_cycles,
                wall_us: job.start.elapsed().as_micros() as u64,
                cached: false,
                shard: job.shard as u64,
                batch: 1,
            };
            let key = (job.hash, job.arch, job.steps);
            inner.store.insert(key, Arc::new(resp.clone()));
            // the job's text parsed and verified: its key may skip both
            inner.front.insert(job.front, key);
            inner.ok.fetch_add(1, Ordering::Relaxed);
            Response::Ok(resp)
        }
        Err(panic) => {
            inner.errors.fetch_add(1, Ordering::Relaxed);
            let msg = panic
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| panic.downcast_ref::<&str>().copied())
                .unwrap_or("rollout panicked");
            Response::err(
                Some(job.id),
                ErrorKind::RolloutFailed,
                format!("rollout aborted: {msg}"),
            )
        }
    }
}

/// Outcome of one stdio session.
#[derive(Debug, Clone, Copy, Default)]
pub struct StdioSummary {
    /// Request lines consumed.
    pub requests: u64,
    /// Success responses written.
    pub ok: u64,
    /// Error responses written.
    pub errors: u64,
}

/// Drives the server from a line-oriented transport: one request per
/// input line, one response per output line, **in request order**. Up to
/// `workers × queue_depth` requests are kept in flight, so the workers
/// still run concurrently behind the ordered output.
///
/// A writer thread writes each response as soon as it and every earlier
/// one are complete, so a client that waits for each reply before
/// sending the next request is answered. Returns once input has ended and
/// every response is written.
///
/// # Errors
///
/// Propagates I/O errors from the transport itself; protocol problems are
/// in-band error responses.
pub fn run_stdio(
    server: &Server,
    input: impl BufRead,
    mut output: impl Write + Send,
) -> std::io::Result<StdioSummary> {
    let window = (server.inner.cfg.workers * server.inner.cfg.queue_depth).max(1);
    // one token per free place in the window: taken before a request is
    // submitted, returned once its response is written
    let (free_tx, free_rx) = sync_channel::<()>(window);
    for _ in 0..window {
        free_tx.send(()).expect("the window holds its own tokens");
    }
    let (pending_tx, pending_rx) = channel::<Pending>();
    std::thread::scope(|scope| {
        let writer = scope.spawn(move || -> std::io::Result<(u64, u64)> {
            let (mut ok, mut errors) = (0, 0);
            for pending in pending_rx {
                let resp = pending.wait();
                if resp.is_ok() {
                    ok += 1;
                } else {
                    errors += 1;
                }
                output.write_all(resp.to_json().as_bytes())?;
                output.write_all(b"\n")?;
                output.flush()?;
                let _ = free_tx.send(());
            }
            Ok((ok, errors))
        });
        let mut requests = 0;
        let read = (|| {
            for line in input.lines() {
                let line = line?;
                if line.trim().is_empty() {
                    continue;
                }
                // a closed channel means the writer failed; its error wins
                if free_rx.recv().is_err() {
                    break;
                }
                requests += 1;
                if pending_tx.send(server.submit(&line)).is_err() {
                    break;
                }
            }
            Ok(())
        })();
        drop(pending_tx);
        let (ok, errors) = writer.join().expect("stdio writer panicked")?;
        read.map(|()| StdioSummary {
            requests,
            ok,
            errors,
        })
    })
}

/// Serves JSONL sessions over a Unix domain socket, one thread per
/// connection. `max_conns` bounds how many connections to accept before
/// returning (`None` = forever), which keeps the function testable.
///
/// # Errors
///
/// Propagates bind/accept errors.
#[cfg(unix)]
pub fn run_unix_socket(
    server: &Server,
    path: &std::path::Path,
    max_conns: Option<usize>,
) -> std::io::Result<()> {
    use std::os::unix::net::UnixListener;
    let _ = std::fs::remove_file(path);
    let listener = UnixListener::bind(path)?;
    std::thread::scope(|scope| -> std::io::Result<()> {
        for (accepted, stream) in listener.incoming().enumerate() {
            let stream = stream?;
            scope.spawn(move || {
                let reader = std::io::BufReader::new(&stream);
                let _ = run_stdio(server, reader, &stream);
                let _ = stream.shutdown(std::net::Shutdown::Both);
            });
            if max_conns.is_some_and(|n| accepted + 1 >= n) {
                break;
            }
        }
        Ok(())
    })
}
