//! The job server: accept connections, admit jobs, schedule them fairly
//! onto a shared fleet, and stream results back as they finish.
//!
//! ## Thread anatomy
//!
//! One **accept** thread takes connections. Each connection gets a
//! **reader** (parses frames, runs admission — including the compile on
//! a cache miss — and enqueues) and a **writer** (drains a channel of
//! reply frames; results are pushed to it from whatever thread finished
//! the job). One **dispatcher** thread assembles batches with deficit
//! round robin across connections and runs them on the fleet via the
//! streaming path, so each result is written back the moment its job
//! finishes — not at the batch barrier. One **reaper** thread drops idle
//! parked sessions.
//!
//! ## Fairness, backpressure, cancellation
//!
//! Admission rejects (with a retry hint) once the total queued work
//! passes the high-water mark — the client, not an unbounded queue,
//! holds the overload. Dispatch is deficit round robin: each connection
//! accrues `drr_quantum` Vcycles of credit per round and dispatches jobs
//! while its credit covers their cost, so a flood of cheap jobs from one
//! client cannot starve another's. Every job carries its connection's
//! cancel token: a disconnect trips it, stopping that client's running
//! jobs at their next Vcycle boundary and discarding its queued ones,
//! while everyone else's work is untouched.

use std::cell::Cell;
use std::collections::{HashMap, VecDeque};
use std::io::Write as _;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use manticore::compiler::{
    compile, compile_controlled, CompileControl, CompileError, CompileOptions, CompileOutput,
};
use manticore::fleet::{BatchPolicy, Fleet, JobOutcome, JobOutput, SimJob};
use manticore::isa::MachineConfig;
use manticore::machine::{load_checkpoint, save_checkpoint, CompiledProgram};
use manticore::netlist::Netlist;
use manticore_util::{catch_silent_mut, CancelToken};

use crate::cache::{CacheEntry, CacheStats, ProgramCache};
use crate::catalog;
use crate::durable::{DurableStore, Envelope};
use crate::json::Value;
use crate::proto::{
    read_frame, write_frame, JobResult, RejectLimit, Reply, Request, ResumeReq, SubmitNetlistReq,
    SubmitReq,
};
use crate::session::{ParkedSession, SessionSource, SessionStats, SessionTable};
use crate::wire::{self, WireError, WireLimits};

/// Server tuning knobs. `Default` is sized for a small host (the CI
/// runner): two fleet workers, a 64 MiB cache, one compile slot.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Fleet worker threads executing jobs.
    pub workers: usize,
    /// Gang lanes: compatible same-program jobs from one connection run
    /// in lockstep, up to this many per gang.
    pub lanes: usize,
    /// Compiled-program cache budget in bytes.
    pub cache_bytes: usize,
    /// Concurrent compilations allowed (cache misses beyond this queue).
    pub compile_slots: usize,
    /// Total queued jobs (across all connections) beyond which admission
    /// rejects with a retry hint.
    pub queue_high_water: usize,
    /// Milliseconds clients are told to back off when rejected.
    pub retry_after_ms: u64,
    /// Most jobs dispatched to the fleet in one batch.
    pub batch_max: usize,
    /// Vcycles of credit each connection accrues per scheduling round.
    pub drr_quantum: u64,
    /// Idle time after which a parked session is reaped.
    pub session_ttl: Duration,
    /// How often the reaper scans the session table.
    pub reaper_period: Duration,
    /// Wall-clock budget for compiling an untrusted (`submit_netlist`)
    /// design; exceeding it is a permanent `compile_deadline` reject.
    /// `None` disables the deadline (trusted deployments only).
    pub compile_deadline: Option<Duration>,
    /// Lifetime cap on netlist bytes one connection may submit for
    /// compilation; past it every `submit_netlist` is a permanent
    /// `netlist_quota` reject. Reconnecting resets the quota — the cap
    /// bounds damage per connection, not per client.
    pub conn_netlist_bytes: u64,
    /// Untrusted compilations allowed at once, across all connections.
    /// Beyond this, a `submit_netlist` that misses the program cache
    /// gets a transient `compile_busy` reject instead of queueing
    /// unbounded compile work; a cache hit needs no slot.
    pub untrusted_compile_slots: u64,
    /// Resource limits applied to every submitted netlist before it is
    /// decoded or compiled.
    pub wire_limits: WireLimits,
    /// When set, parked sessions also spill to this directory and a
    /// restarted server recovers them (see [`crate::durable`]).
    pub session_dir: Option<PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            workers: 2,
            lanes: 4,
            cache_bytes: 64 << 20,
            compile_slots: 1,
            queue_high_water: 1024,
            retry_after_ms: 20,
            batch_max: 256,
            drr_quantum: 50_000,
            session_ttl: Duration::from_secs(30),
            reaper_period: Duration::from_millis(500),
            compile_deadline: Some(Duration::from_secs(10)),
            conn_netlist_bytes: 16 << 20,
            untrusted_compile_slots: 1,
            wire_limits: WireLimits::default(),
            session_dir: None,
        }
    }
}

/// One admitted job waiting for dispatch.
struct PendingJob {
    job: SimJob,
    meta: JobMeta,
    /// DRR cost: the job's Vcycle budget (minimum 1).
    cost: u64,
}

/// Everything needed to turn a finished [`JobOutput`] into a reply.
struct JobMeta {
    id: u64,
    reads: Vec<String>,
    output: Arc<CompileOutput>,
    park: bool,
    /// The design's provenance — carried so a park can spill a
    /// recompilable record to the durable store.
    source: SessionSource,
    /// Reply channel of the submitting connection. Held per-job so a
    /// disconnect (which removes the connection's queue) cannot strand
    /// an in-flight job's reply path.
    tx: Sender<Value>,
}

struct ConnQueue {
    queue: VecDeque<PendingJob>,
    deficit: u64,
    cancel: CancelToken,
}

#[derive(Default)]
struct Sched {
    conns: HashMap<u64, ConnQueue>,
    /// Total queued jobs across all connections.
    queued: usize,
    /// Where the next DRR round starts, for rotating first-served.
    cursor: usize,
}

#[derive(Default)]
struct Counters {
    submitted: AtomicU64,
    completed: AtomicU64,
    rejected: AtomicU64,
    conns_opened: AtomicU64,
    conns_closed: AtomicU64,
    /// Durable session files skipped at recovery (failed checksum,
    /// undecodable source, checkpoint/program mismatch).
    durable_corrupt: AtomicU64,
}

struct Shared {
    cfg: ServerConfig,
    fleet: Fleet,
    cache: ProgramCache,
    sessions: SessionTable,
    durable: Option<DurableStore>,
    shutdown: CancelToken,
    sched: Mutex<Sched>,
    work: Condvar,
    counters: Counters,
    /// Gauge of untrusted compiles currently running, bounded by
    /// [`ServerConfig::untrusted_compile_slots`].
    untrusted_compiling: AtomicU64,
}

/// A running server. Dropping it (or calling [`Server::shutdown`]) stops
/// the accept loop, the dispatcher, and the reaper; queued jobs that have
/// not been dispatched are discarded.
pub struct Server {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// starts serving.
    ///
    /// # Errors
    ///
    /// Socket bind failure.
    pub fn bind(addr: &str, cfg: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let durable = match &cfg.session_dir {
            Some(dir) => Some(DurableStore::open(dir)?),
            None => None,
        };
        let shared = Arc::new(Shared {
            fleet: Fleet::new(cfg.workers),
            cache: ProgramCache::new(cfg.cache_bytes, cfg.compile_slots),
            sessions: SessionTable::new(cfg.session_ttl),
            durable,
            shutdown: CancelToken::new(),
            sched: Mutex::new(Sched::default()),
            work: Condvar::new(),
            counters: Counters::default(),
            untrusted_compiling: AtomicU64::new(0),
            cfg,
        });
        // Recover spilled sessions before serving a single request, so a
        // client that reconnects immediately after a restart finds its
        // parked sessions already re-adopted under their original ids.
        recover_sessions(&shared);

        let mut threads = Vec::new();
        {
            let shared = Arc::clone(&shared);
            threads.push(std::thread::spawn(move || accept_loop(listener, shared)));
        }
        {
            let shared = Arc::clone(&shared);
            threads.push(std::thread::spawn(move || dispatch_loop(shared)));
        }
        {
            let shared = Arc::clone(&shared);
            threads.push(std::thread::spawn(move || reaper_loop(shared)));
        }
        Ok(Server {
            shared,
            local_addr,
            threads,
        })
    }

    /// The bound address — connect clients here.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Compiled-program cache counters (for harnesses and tests; clients
    /// get the same numbers via the `stats` op).
    pub fn cache_stats(&self) -> CacheStats {
        self.shared.cache.stats()
    }

    /// Session table counters.
    pub fn session_stats(&self) -> SessionStats {
        self.shared.sessions.stats()
    }

    /// Blocks until something trips the shutdown token — a client's
    /// `shutdown` op, typically — then joins the service threads. The
    /// daemon binary's main loop.
    pub fn shutdown_when_requested(&mut self) {
        while !self.shared.shutdown.is_cancelled() {
            std::thread::sleep(Duration::from_millis(100));
        }
        self.shutdown();
    }

    /// Stops the server: trips the shutdown token, wakes every service
    /// thread, and joins them. Idempotent; also run by `Drop`.
    pub fn shutdown(&mut self) {
        self.shared.shutdown.cancel();
        self.shared.work.notify_all();
        // The accept loop is blocked in `accept`; a throwaway connection
        // makes it observe the tripped token.
        let _ = TcpStream::connect(self.local_addr);
        for handle in self.threads.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    let mut next_conn: u64 = 0;
    for stream in listener.incoming() {
        if shared.shutdown.is_cancelled() {
            break;
        }
        let Ok(stream) = stream else { continue };
        next_conn += 1;
        let conn_id = next_conn;
        shared.counters.conns_opened.fetch_add(1, Ordering::Relaxed);

        let (tx, rx) = std::sync::mpsc::channel::<Value>();
        let cancel = CancelToken::new();
        {
            let mut sched = shared.sched.lock().expect("sched lock poisoned");
            sched.conns.insert(
                conn_id,
                ConnQueue {
                    queue: VecDeque::new(),
                    deficit: 0,
                    cancel: cancel.clone(),
                },
            );
        }

        let write_half = stream.try_clone().ok();
        if let Some(write_half) = write_half {
            // Writer and reader are detached: they exit when the client
            // disconnects (reader EOF drops the queue and the reply
            // senders; the writer drains and sees the channel close).
            std::thread::spawn(move || writer_loop(write_half, rx));
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                reader_loop(stream, conn_id, tx, cancel, &shared);
                disconnect(conn_id, &shared);
            });
        } else {
            let mut sched = shared.sched.lock().expect("sched lock poisoned");
            sched.conns.remove(&conn_id);
        }
    }
}

fn writer_loop(mut stream: TcpStream, rx: Receiver<Value>) {
    for value in rx {
        if write_frame(&mut stream, &value).is_err() {
            break;
        }
    }
    let _ = stream.flush();
}

/// Tears down a connection: trips its cancel token (stopping its running
/// jobs at the next Vcycle boundary) and discards its queued jobs. Other
/// connections' work is untouched.
fn disconnect(conn_id: u64, shared: &Shared) {
    let mut sched = shared.sched.lock().expect("sched lock poisoned");
    if let Some(conn) = sched.conns.remove(&conn_id) {
        conn.cancel.cancel();
        sched.queued -= conn.queue.len();
    }
    drop(sched);
    shared.counters.conns_closed.fetch_add(1, Ordering::Relaxed);
}

fn reader_loop(
    stream: TcpStream,
    conn_id: u64,
    tx: Sender<Value>,
    cancel: CancelToken,
    shared: &Shared,
) {
    let mut reader = std::io::BufReader::new(stream);
    // Lifetime quota of netlist bytes this connection may submit for
    // compilation; lives on the reader so no lock is needed.
    let mut netlist_bytes_used: u64 = 0;
    loop {
        let frame = match read_frame(&mut reader) {
            Ok(Some(frame)) => frame,
            // Clean close, I/O error, or garbage framing: either way the
            // conversation is over.
            Ok(None) | Err(_) => return,
        };
        let request = match Request::from_value(&frame) {
            Ok(request) => request,
            Err(message) => {
                let id = frame.get("id").and_then(Value::as_u64);
                let _ = tx.send(Reply::Error { id, message }.to_value());
                continue;
            }
        };
        match request {
            Request::Submit(req) => {
                let reply = admit_submit(&req, conn_id, &tx, &cancel, shared);
                if let Some(reply) = reply {
                    let _ = tx.send(reply.to_value());
                }
            }
            Request::SubmitNetlist(req) => {
                let reply = admit_submit_netlist(
                    &req,
                    conn_id,
                    &tx,
                    &cancel,
                    &mut netlist_bytes_used,
                    shared,
                );
                if let Some(reply) = reply {
                    let _ = tx.send(reply.to_value());
                }
            }
            Request::Resume(req) => {
                let reply = admit_resume(&req, conn_id, &tx, &cancel, shared);
                if let Some(reply) = reply {
                    let _ = tx.send(reply.to_value());
                }
            }
            Request::DropSession { session } => {
                let existed = shared.sessions.drop_session(&session);
                if let Some(store) = &shared.durable {
                    store.remove(&session);
                }
                let _ = tx.send(Reply::Dropped { session, existed }.to_value());
            }
            Request::Stats => {
                let _ = tx.send(Reply::Stats(stats_value(shared)).to_value());
            }
            Request::Shutdown => {
                // Final counters first — harnesses use them — then stop
                // the service threads.
                let _ = tx.send(Reply::Stats(stats_value(shared)).to_value());
                shared.shutdown.cancel();
                shared.work.notify_all();
                return;
            }
        }
    }
}

/// Admits a submission: resolve the design through the cache, build the
/// input vector, and enqueue — or explain why not. `None` means the job
/// was enqueued (its reply comes later, from the dispatcher's sink).
fn admit_submit(
    req: &SubmitReq,
    conn_id: u64,
    tx: &Sender<Value>,
    cancel: &CancelToken,
    shared: &Shared,
) -> Option<Reply> {
    let err = |message: String| {
        Some(Reply::Error {
            id: Some(req.id),
            message,
        })
    };
    let Some((netlist, config)) = catalog::lookup(&req.design, req.grid) else {
        return err(format!("unknown design `{}`", req.design));
    };
    let key = catalog::netlist_hash(&netlist, &config);
    // Miss path: compile on this reader thread, bounded by the cache's
    // compile slots; concurrent requests for the same key wait and share.
    let entry = shared.cache.get_or_compile(key, || {
        let options = CompileOptions {
            config: config.clone(),
            ..Default::default()
        };
        let output = Arc::new(compile(&netlist, &options).map_err(|e| e.to_string())?);
        let program = CompiledProgram::compile_shared(config.clone(), &output.binary)
            .map_err(|e| e.to_string())?;
        let bytes = program.approx_bytes() + output.binary.total_instructions() * 8;
        Ok(CacheEntry {
            output,
            program,
            bytes,
        })
    });
    let entry = match entry {
        Ok(entry) => entry,
        Err(e) => return err(format!("compile failed for `{}`: {e}", req.design)),
    };

    let mut job = SimJob::new(&entry.program, req.vcycles).cancel_token(cancel.clone());
    for (name, value) in &req.pokes {
        let Some(words) = manticore::rtl_reg_words(&entry.output, name, *value) else {
            return err(format!("no register `{name}` in `{}`", req.design));
        };
        for (core, mreg, word) in words {
            job = job.poke(core, mreg, word);
        }
    }
    for name in &req.reads {
        if !entry
            .output
            .optimized
            .registers()
            .iter()
            .any(|r| &r.name == name)
        {
            return err(format!("no register `{name}` in `{}`", req.design));
        }
    }
    if let Some(ms) = req.deadline_ms {
        job = job.deadline(Instant::now() + Duration::from_millis(ms));
    }

    enqueue(
        PendingJob {
            job,
            meta: JobMeta {
                id: req.id,
                reads: req.reads.clone(),
                output: Arc::clone(&entry.output),
                park: req.park,
                source: SessionSource::Catalog {
                    name: req.design.clone(),
                    grid: config.grid_width,
                },
                tx: tx.clone(),
            },
            cost: req.vcycles.max(1),
        },
        conn_id,
        shared,
    )
}

/// How an untrusted compile failed — deadlines get a structured reject,
/// everything else an error reply.
enum UntrustedCompileError {
    /// A cache miss found every untrusted compile slot taken.
    Busy,
    /// The compile hit the server's deadline (or the connection's cancel
    /// token) at a pass-manager poll point.
    Deadline,
    /// Compiler error or panic, with the message.
    Other(String),
}

/// Compiles an untrusted netlist through the shared cache, under the
/// server's compile deadline and the connection's cancel token. Panics
/// inside the compiler are caught *inside* the build closure — a panic
/// that escaped `get_or_compile` would strand the key in `Building` and
/// hang every waiter, which is exactly the failure mode a hostile
/// netlist would aim for.
fn compile_untrusted(
    netlist: &Netlist,
    config: &MachineConfig,
    cancel: &CancelToken,
    shared: &Shared,
) -> Result<Arc<CacheEntry>, UntrustedCompileError> {
    let key = catalog::netlist_hash(netlist, config);
    let deadline_hit = Cell::new(false);
    let busy = Cell::new(false);
    let entry = shared.cache.get_or_compile(key, || {
        // Bounded compile concurrency for untrusted work, charged only on
        // a miss (a hit compiles nothing): no free slot means a transient
        // reject, not an unbounded queue of compile jobs.
        let slots = shared.cfg.untrusted_compile_slots.max(1);
        if shared
            .untrusted_compiling
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| {
                (n < slots).then_some(n + 1)
            })
            .is_err()
        {
            busy.set(true);
            return Err("every untrusted compile slot is busy".to_string());
        }
        let built = catch_silent_mut(|| {
            let options = CompileOptions {
                config: config.clone(),
                ..Default::default()
            };
            let control = CompileControl {
                cancel: Some(cancel.clone()),
                deadline: shared.cfg.compile_deadline.map(|d| Instant::now() + d),
            };
            let output = compile_controlled(netlist, &options, &control).map_err(|e| {
                if matches!(
                    e,
                    CompileError::DeadlineExceeded { .. } | CompileError::Cancelled { .. }
                ) {
                    deadline_hit.set(true);
                }
                e.to_string()
            })?;
            let output = Arc::new(output);
            let program = CompiledProgram::compile_shared(config.clone(), &output.binary)
                .map_err(|e| e.to_string())?;
            let bytes = program.approx_bytes() + output.binary.total_instructions() * 8;
            Ok(CacheEntry {
                output,
                program,
                bytes,
            })
        })
        .unwrap_or_else(|panic| Err(format!("compiler panicked: {panic}")));
        shared.untrusted_compiling.fetch_sub(1, Ordering::AcqRel);
        built
    });
    entry.map_err(|e| {
        if busy.get() {
            UntrustedCompileError::Busy
        } else if deadline_hit.get() {
            UntrustedCompileError::Deadline
        } else {
            UntrustedCompileError::Other(e)
        }
    })
}

/// Admits a client-supplied netlist. The full gauntlet, cheapest checks
/// first: connection byte quota, grid limit, wire decode under the
/// resource limits (counts checked before elements), structural
/// validation, then a deadline-bounded compile in a bounded slot. Only
/// a design that survives all of it touches the fleet.
fn admit_submit_netlist(
    req: &SubmitNetlistReq,
    conn_id: u64,
    tx: &Sender<Value>,
    cancel: &CancelToken,
    netlist_bytes_used: &mut u64,
    shared: &Shared,
) -> Option<Reply> {
    let err = |message: String| {
        Some(Reply::Error {
            id: Some(req.id),
            message,
        })
    };
    let reject = |reason: &str, retry_after_ms: u64, limit: Option<RejectLimit>| {
        shared.counters.rejected.fetch_add(1, Ordering::Relaxed);
        Some(Reply::Reject {
            id: req.id,
            reason: reason.to_string(),
            retry_after_ms,
            limit,
        })
    };
    let limits = &shared.cfg.wire_limits;

    // The byte quota is charged on the rendered size of what the client
    // actually sent, before any decode work happens on its behalf.
    let bytes = req.netlist.render().len() as u64;
    if bytes > limits.netlist_bytes as u64 {
        return reject(
            "netlist_limit",
            0,
            Some(RejectLimit {
                limit: "netlist_bytes".into(),
                max: limits.netlist_bytes as u64,
                got: bytes,
            }),
        );
    }
    let charged = netlist_bytes_used.saturating_add(bytes);
    if charged > shared.cfg.conn_netlist_bytes {
        return reject(
            "netlist_quota",
            0,
            Some(RejectLimit {
                limit: "conn_netlist_bytes".into(),
                max: shared.cfg.conn_netlist_bytes,
                got: charged,
            }),
        );
    }

    let side = req.grid.unwrap_or(4);
    match wire::check_grid(side, limits) {
        Ok(()) => {}
        Err(WireError::Limit { limit, max, got }) => {
            return reject(
                "netlist_limit",
                0,
                Some(RejectLimit {
                    limit: limit.into(),
                    max,
                    got,
                }),
            );
        }
        Err(e) => return err(format!("netlist rejected: {e}")),
    }
    let netlist = match wire::decode_netlist(&req.netlist, limits) {
        Ok(netlist) => netlist,
        Err(WireError::Limit { limit, max, got }) => {
            return reject(
                "netlist_limit",
                0,
                Some(RejectLimit {
                    limit: limit.into(),
                    max,
                    got,
                }),
            );
        }
        Err(e) => return err(format!("netlist rejected: {e}")),
    };
    *netlist_bytes_used = charged;

    let config = MachineConfig::with_grid(side, side);
    let entry = match compile_untrusted(&netlist, &config, cancel, shared) {
        Ok(entry) => entry,
        Err(UntrustedCompileError::Busy) => {
            return reject("compile_busy", shared.cfg.retry_after_ms.max(1), None)
        }
        Err(UntrustedCompileError::Deadline) => return reject("compile_deadline", 0, None),
        Err(UntrustedCompileError::Other(e)) => return err(format!("compile failed: {e}")),
    };

    let mut job = SimJob::new(&entry.program, req.vcycles).cancel_token(cancel.clone());
    for (name, value) in &req.pokes {
        let Some(words) = manticore::rtl_reg_words(&entry.output, name, *value) else {
            return err(format!("no register `{name}` in submitted netlist"));
        };
        for (core, mreg, word) in words {
            job = job.poke(core, mreg, word);
        }
    }
    for name in &req.reads {
        if !entry
            .output
            .optimized
            .registers()
            .iter()
            .any(|r| &r.name == name)
        {
            return err(format!("no register `{name}` in submitted netlist"));
        }
    }
    if let Some(ms) = req.deadline_ms {
        job = job.deadline(Instant::now() + Duration::from_millis(ms));
    }
    enqueue(
        PendingJob {
            job,
            meta: JobMeta {
                id: req.id,
                reads: req.reads.clone(),
                output: Arc::clone(&entry.output),
                park: req.park,
                source: SessionSource::Wire {
                    netlist: req.netlist.clone(),
                    grid: side,
                },
                tx: tx.clone(),
            },
            cost: req.vcycles.max(1),
        },
        conn_id,
        shared,
    )
}

/// Admits a resume: take the parked machine and enqueue its next slice.
fn admit_resume(
    req: &ResumeReq,
    conn_id: u64,
    tx: &Sender<Value>,
    cancel: &CancelToken,
    shared: &Shared,
) -> Option<Reply> {
    let err = |message: String| {
        Some(Reply::Error {
            id: Some(req.id),
            message,
        })
    };
    let Some(parked) = shared.sessions.resume(&req.session) else {
        return err(format!(
            "no parked session `{}` (never parked, already resumed, or reaped)",
            req.session
        ));
    };
    // The machine is live again; its spilled file no longer describes
    // anything (a re-park writes a fresh one under a fresh id).
    if let Some(store) = &shared.durable {
        store.remove(&req.session);
    }
    let ParkedSession {
        machine,
        output,
        source,
    } = parked;
    let mut job = SimJob::resume(machine, req.vcycles).cancel_token(cancel.clone());
    for (name, value) in &req.pokes {
        let Some(words) = manticore::rtl_reg_words(&output, name, *value) else {
            return err(format!("no register `{name}` in session `{}`", req.session));
        };
        for (core, mreg, word) in words {
            job = job.poke(core, mreg, word);
        }
    }
    enqueue(
        PendingJob {
            job,
            meta: JobMeta {
                id: req.id,
                reads: req.reads.clone(),
                output,
                park: req.park,
                source,
                tx: tx.clone(),
            },
            cost: req.vcycles.max(1),
        },
        conn_id,
        shared,
    )
}

/// Queues an admitted job, or bounces it off the high-water mark.
fn enqueue(pending: PendingJob, conn_id: u64, shared: &Shared) -> Option<Reply> {
    let mut sched = shared.sched.lock().expect("sched lock poisoned");
    if sched.queued >= shared.cfg.queue_high_water {
        shared.counters.rejected.fetch_add(1, Ordering::Relaxed);
        return Some(Reply::Reject {
            id: pending.meta.id,
            reason: "queue_full".to_string(),
            retry_after_ms: shared.cfg.retry_after_ms,
            limit: None,
        });
    }
    let Some(conn) = sched.conns.get_mut(&conn_id) else {
        // The connection vanished between read and enqueue; nobody is
        // left to hear a reply.
        return None;
    };
    conn.queue.push_back(pending);
    sched.queued += 1;
    drop(sched);
    shared.counters.submitted.fetch_add(1, Ordering::Relaxed);
    shared.work.notify_all();
    None
}

/// The dispatcher: DRR batch assembly, then a streaming fleet run whose
/// sink writes each reply the moment its job finishes.
fn dispatch_loop(shared: Arc<Shared>) {
    loop {
        let Some(batch) = next_batch(&shared) else {
            return;
        };
        let (jobs, metas): (Vec<SimJob>, Vec<JobMeta>) =
            batch.into_iter().map(|p| (p.job, p.meta)).unzip();
        let policy = BatchPolicy {
            cancel: Some(shared.shutdown.clone()),
            ..BatchPolicy::default()
        };
        shared
            .fleet
            .run_ganged_stream(jobs, shared.cfg.lanes, &policy, &|out: JobOutput| {
                let meta = &metas[out.index];
                let reply = finish_job(meta, out, &shared);
                // A send failure means the client is gone; its work was
                // already cancelled by the disconnect path.
                let _ = meta.tx.send(reply.to_value());
                shared.counters.completed.fetch_add(1, Ordering::Relaxed);
            });
    }
}

/// Assembles the next batch with deficit round robin, blocking until
/// there is work. `None` on shutdown.
fn next_batch(shared: &Shared) -> Option<Vec<PendingJob>> {
    let mut sched = shared.sched.lock().expect("sched lock poisoned");
    loop {
        if shared.shutdown.is_cancelled() {
            return None;
        }
        if sched.queued == 0 {
            sched = shared.work.wait(sched).expect("sched lock poisoned");
            continue;
        }
        let mut batch = Vec::new();
        // Rounds continue until something dispatches: every round adds a
        // quantum to each backlogged connection, so even a job costing
        // many quanta eventually accrues the credit to run.
        while batch.len() < shared.cfg.batch_max && sched.queued > 0 {
            let mut ids: Vec<u64> = sched.conns.keys().copied().collect();
            ids.sort_unstable();
            if ids.is_empty() {
                break;
            }
            // Rotate who goes first so low conn ids get no edge.
            let start = sched.cursor % ids.len();
            ids.rotate_left(start);
            sched.cursor = sched.cursor.wrapping_add(1);
            for id in ids {
                let Some(conn) = sched.conns.get_mut(&id) else {
                    continue;
                };
                if conn.queue.is_empty() {
                    // An idle connection banks no credit.
                    conn.deficit = 0;
                    continue;
                }
                conn.deficit = conn.deficit.saturating_add(shared.cfg.drr_quantum);
                let mut popped = 0;
                while batch.len() < shared.cfg.batch_max {
                    let Some(front) = conn.queue.front() else {
                        conn.deficit = 0;
                        break;
                    };
                    // Clamp the charge to one quantum (the classic DRR
                    // requirement): a job dearer than the quantum costs
                    // a full round's credit, not an unbounded wait.
                    let cost = front.cost.clamp(1, shared.cfg.drr_quantum);
                    if cost > conn.deficit {
                        break;
                    }
                    conn.deficit -= cost;
                    let pending = conn.queue.pop_front().expect("front just observed");
                    popped += 1;
                    batch.push(pending);
                }
                sched.queued -= popped;
            }
        }
        if !batch.is_empty() {
            return Some(batch);
        }
    }
}

/// Renders one finished job into its reply: read back the requested
/// registers, fingerprint the state, and park it if asked.
fn finish_job(meta: &JobMeta, out: JobOutput, shared: &Shared) -> Reply {
    let outcome = outcome_label(out.outcome).to_string();
    let (vcycles_run, mut displays, error) = match &out.result {
        Ok(run) => (run.vcycles_run, run.displays.clone(), None),
        Err(e) => (0, Vec::new(), Some(e.to_string())),
    };
    let Some(mut machine) = out.machine else {
        // Worker panic: no state survives, only the structured failure.
        return Reply::Result(JobResult {
            id: meta.id,
            outcome,
            vcycles_run,
            regs: Vec::new(),
            fingerprint: "0x0".to_string(),
            displays,
            session: None,
            error,
        });
    };
    if out.result.is_err() {
        displays = machine.drain_pending_displays();
    }
    let regs = meta
        .reads
        .iter()
        .filter_map(|name| {
            manticore::rtl_reg_read(&meta.output, name, |core, mreg| {
                machine.read_reg(core, mreg)
            })
            .map(|bits| (name.clone(), bits.to_u64()))
        })
        .collect();
    let fingerprint = format!("{:#018x}", machine.state_fingerprint());
    let session = if meta.park {
        // Serialize *before* the park moves the machine; the spill is
        // written after the park so the file name carries the final id.
        let spill = shared
            .durable
            .as_ref()
            .map(|_| save_checkpoint(&machine.checkpoint()));
        let id = shared.sessions.park(ParkedSession {
            machine,
            output: Arc::clone(&meta.output),
            source: meta.source.clone(),
        });
        if let (Some(store), Some(checkpoint)) = (&shared.durable, spill) {
            let env = Envelope {
                id: id.clone(),
                source: meta.source.clone(),
                checkpoint,
            };
            if let Err(e) = store.save(&env) {
                // Durability degrades to memory-only; the session itself
                // stays usable.
                eprintln!("manticore-served: session `{id}` not spilled: {e}");
            }
        }
        Some(id)
    } else {
        None
    };
    Reply::Result(JobResult {
        id: meta.id,
        outcome,
        vcycles_run,
        regs,
        fingerprint,
        displays,
        session,
        error,
    })
}

fn outcome_label(outcome: JobOutcome) -> &'static str {
    match outcome {
        JobOutcome::Complete => "complete",
        JobOutcome::BudgetExhausted => "budget",
        JobOutcome::Deadline => "deadline",
        JobOutcome::Cancelled => "cancelled",
        JobOutcome::Faulted => "faulted",
        JobOutcome::WorkerPanic => "panic",
    }
}

/// The stats payload: every counter an operator needs to see queue
/// pressure, cache health, and session churn at a glance.
fn stats_value(shared: &Shared) -> Value {
    let cache = shared.cache.stats();
    let sessions = shared.sessions.stats();
    let queued = shared.sched.lock().expect("sched lock poisoned").queued;
    let c = &shared.counters;
    Value::obj(vec![
        (
            "jobs_submitted",
            Value::Int(c.submitted.load(Ordering::Relaxed)),
        ),
        (
            "jobs_completed",
            Value::Int(c.completed.load(Ordering::Relaxed)),
        ),
        (
            "jobs_rejected",
            Value::Int(c.rejected.load(Ordering::Relaxed)),
        ),
        ("queued", Value::Int(queued as u64)),
        (
            "conns_opened",
            Value::Int(c.conns_opened.load(Ordering::Relaxed)),
        ),
        (
            "conns_closed",
            Value::Int(c.conns_closed.load(Ordering::Relaxed)),
        ),
        (
            "cache",
            Value::obj(vec![
                ("hits", Value::Int(cache.hits)),
                ("misses", Value::Int(cache.misses)),
                ("evictions", Value::Int(cache.evictions)),
                ("entries", Value::Int(cache.entries as u64)),
                ("bytes", Value::Int(cache.bytes as u64)),
            ]),
        ),
        (
            "sessions",
            Value::obj(vec![
                ("live", Value::Int(sessions.live as u64)),
                ("parked", Value::Int(sessions.parked)),
                ("resumed", Value::Int(sessions.resumed)),
                ("reaped", Value::Int(sessions.reaped)),
                ("recovered", Value::Int(sessions.recovered)),
            ]),
        ),
        (
            "durable_corrupt",
            Value::Int(c.durable_corrupt.load(Ordering::Relaxed)),
        ),
    ])
}

/// Re-adopts every session the durable store can produce. Runs once, in
/// `bind`, before the accept loop starts. Unrecoverable files (corrupt,
/// source no longer decodable, checkpoint/program mismatch) are removed
/// and counted — a bad file must not fail recovery of the good ones,
/// and must not fail again on every future restart.
fn recover_sessions(shared: &Shared) {
    let Some(store) = &shared.durable else { return };
    let (envelopes, corrupt) = store.load_all();
    shared
        .counters
        .durable_corrupt
        .fetch_add(corrupt as u64, Ordering::Relaxed);
    for env in envelopes {
        if let Err(e) = recover_one(&env, shared) {
            eprintln!(
                "manticore-served: dropping unrecoverable session `{}`: {e}",
                env.id
            );
            store.remove(&env.id);
            shared
                .counters
                .durable_corrupt
                .fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// One session's recovery: recompile its recorded source (deterministic,
/// so the program is bit-identical to the pre-crash one), rebind the
/// checkpoint — which re-verifies the structural shape — and re-park
/// under the original id.
fn recover_one(env: &Envelope, shared: &Shared) -> Result<(), String> {
    let (netlist, config) = match &env.source {
        SessionSource::Catalog { name, grid } => catalog::lookup(name, Some(*grid))
            .ok_or_else(|| format!("unknown catalog design `{name}`"))?,
        SessionSource::Wire { netlist, grid } => {
            let decoded = wire::decode_netlist(netlist, &shared.cfg.wire_limits)
                .map_err(|e| e.to_string())?;
            (decoded, MachineConfig::with_grid(*grid, *grid))
        }
    };
    let never_cancelled = CancelToken::new();
    let entry =
        compile_untrusted(&netlist, &config, &never_cancelled, shared).map_err(|e| match e {
            UntrustedCompileError::Busy => "compile slots busy at recovery".to_string(),
            UntrustedCompileError::Deadline => "compile deadline at recovery".to_string(),
            UntrustedCompileError::Other(msg) => msg,
        })?;
    let checkpoint = load_checkpoint(&env.checkpoint, &entry.program).map_err(|e| e.to_string())?;
    shared.sessions.adopt(
        &env.id,
        ParkedSession {
            machine: checkpoint.boot(),
            output: Arc::clone(&entry.output),
            source: env.source.clone(),
        },
    );
    Ok(())
}

fn reaper_loop(shared: Arc<Shared>) {
    while !shared.shutdown.is_cancelled() {
        for id in shared.sessions.reap() {
            if let Some(store) = &shared.durable {
                store.remove(&id);
            }
        }
        // Sleep in short slices so shutdown is prompt even with a long
        // reaper period.
        let mut remaining = shared.cfg.reaper_period;
        while !remaining.is_zero() && !shared.shutdown.is_cancelled() {
            let slice = remaining.min(Duration::from_millis(50));
            std::thread::sleep(slice);
            remaining = remaining.saturating_sub(slice);
        }
    }
}

#[cfg(test)]
mod tests {
    use manticore::netlist::NetlistBuilder;

    use super::*;
    use crate::client::Client;

    fn counter(name: &str) -> Value {
        let mut b = NetlistBuilder::new(name);
        let count = b.reg("count", 16, 0);
        let one = b.lit(1, 16);
        let next = b.add(count.q(), one);
        b.set_next(count, next);
        b.output("count", count.q());
        wire::encode_netlist(&b.finish_build().expect("well-formed"))
    }

    fn submit(id: u64, netlist: Value) -> Request {
        Request::SubmitNetlist(SubmitNetlistReq {
            id,
            netlist,
            grid: Some(2),
            vcycles: 7,
            pokes: vec![],
            reads: vec!["count".into()],
            deadline_ms: None,
            park: false,
        })
    }

    #[test]
    fn cached_wire_netlists_are_admitted_while_every_compile_slot_is_held() {
        let server = Server::bind("127.0.0.1:0", ServerConfig::default()).expect("bind");
        let mut client = Client::connect(server.local_addr()).expect("connect");
        let cached = counter("cached");
        match client.call(&submit(1, cached.clone())).expect("call") {
            Reply::Result(r) => assert_eq!(r.regs, vec![("count".to_string(), 7)]),
            other => panic!("first submission: {other:?}"),
        }

        // Every untrusted compile slot is taken (by other connections'
        // compiles). A cache hit compiles nothing, so it needs no slot...
        let slots = server.shared.cfg.untrusted_compile_slots;
        server
            .shared
            .untrusted_compiling
            .store(slots, Ordering::Release);
        match client.call(&submit(2, cached)).expect("call") {
            Reply::Result(r) => assert_eq!(r.regs, vec![("count".to_string(), 7)]),
            other => panic!("cache hit refused while the slots are held: {other:?}"),
        }
        // ...while a miss is still bounded by them.
        match client.call(&submit(3, counter("uncached"))).expect("call") {
            Reply::Reject { reason, .. } => assert_eq!(reason, "compile_busy"),
            other => panic!("a miss must wait for a slot: {other:?}"),
        }
        server
            .shared
            .untrusted_compiling
            .store(0, Ordering::Release);
    }
}
