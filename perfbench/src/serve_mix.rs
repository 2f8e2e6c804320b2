//! `serve-mix`: a closed loop through a real socket against the daemon,
//! run as a child process with the default `ServerConfig`.
//!
//! Two connections each keep a fixed window of requests in flight. The
//! seeded request mix is mostly micro-design `submit`s, with workload
//! designs (mm and noc at 8×8), `park` → `resume` pairs, and
//! `submit_netlist` calls drawn from a few seeded wire netlists. Every
//! reply is checked against a direct in-process `FleetSim` run.
//!
//! The traced run also replays the same request stream in-process
//! through the serving layer's public functions, in the daemon's order,
//! to time each layer: frame decode, catalog lookup and hash, cache hit,
//! wire decode, session park/resume, the ganged fleet batch and reply
//! encode.

use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use manticore::fleet::{BatchPolicy, Fleet, FleetSim, SimJob};
use manticore::isa::MachineConfig;
use manticore::netlist::{Netlist, NetlistBuilder};
use manticore::util::SmallRng;
use manticore_serve::cache::{CacheEntry, ProgramCache};
use manticore_serve::catalog;
use manticore_serve::json::Value;
use manticore_serve::proto::{
    read_frame, write_frame, JobResult, Reply, Request, ResumeReq, SubmitNetlistReq, SubmitReq,
};
use manticore_serve::server::{Server, ServerConfig};
use manticore_serve::session::{ParkedSession, SessionSource, SessionTable};
use manticore_serve::wire::{self, WireLimits};

use crate::bringup::{self, Record};
use crate::report::{self, geomean, median, percentile, Report};
use crate::trace::Tracer;
use crate::Ctx;

/// Client connections, each driving its own share of the load.
const CONNS: usize = 2;
/// Requests each connection keeps in flight.
const WINDOW: usize = 8;
/// Requests in each connection's seeded list (cycled for as long as the
/// window lasts).
const OPS_PER_CONN: usize = 400;
const MICRO_VCYCLES: std::ops::Range<usize> = 150..251;
const WORKLOAD_VCYCLES: u64 = 200;
/// A parked job's two slices.
const PARK_VCYCLES: (u64, u64) = (100, 100);
const WORKLOAD_DESIGNS: [&str; 2] = ["mm", "noc"];
const WIRE_NETLISTS: usize = 3;
/// Grid the daemon runs untrusted netlists on when the request names
/// none.
const WIRE_GRID: usize = 4;
/// Resume requests carry the parked op's index plus this, so ids never
/// collide within a connection.
const RESUME_ID: u64 = 1 << 32;

/// The daemon child's entry point: serve on an ephemeral loopback port
/// with the default configuration, print the port, and run until a
/// client asks for shutdown.
pub fn daemon_main() -> ! {
    let mut server =
        Server::bind("127.0.0.1:0", ServerConfig::default()).expect("bind a loopback port");
    println!("PORT {}", server.local_addr().port());
    std::io::stdout().flush().ok();
    server.shutdown_when_requested();
    std::process::exit(0);
}

/// A running daemon child; dropping it kills the process and waits for
/// it.
struct Daemon {
    child: Child,
    addr: SocketAddr,
    /// Held open so the child never writes into a closed pipe.
    _stdout: BufReader<ChildStdout>,
}

impl Daemon {
    fn spawn() -> Daemon {
        let exe = std::env::current_exe().expect("own executable path");
        let mut child = Command::new(exe)
            .arg("--daemon")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn the daemon");
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        stdout.read_line(&mut line).expect("daemon prints its port");
        let port: u16 = line
            .strip_prefix("PORT ")
            .and_then(|p| p.trim().parse().ok())
            .expect("daemon prints `PORT <n>`");
        Daemon {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], port)),
            _stdout: stdout,
        }
    }

    fn peak_rss_mb(&self) -> f64 {
        report::peak_rss_mb(&self.child.id().to_string())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One client connection.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    fn open(addr: SocketAddr) -> Conn {
        let stream = TcpStream::connect(addr).expect("connect to the daemon");
        stream.set_nodelay(true).ok();
        Conn {
            writer: stream.try_clone().expect("clone the socket"),
            reader: BufReader::new(stream),
        }
    }

    fn send_bytes(&mut self, frame: &[u8]) {
        self.writer.write_all(frame).expect("daemon accepts frames");
    }

    fn recv(&mut self) -> Reply {
        let frame = read_frame(&mut self.reader)
            .expect("readable reply")
            .expect("daemon replies before closing");
        Reply::from_value(&frame).expect("well-formed reply")
    }

    fn call(&mut self, request: &Request) -> Reply {
        self.send_bytes(&frame_bytes(request));
        self.recv()
    }
}

fn frame_bytes(request: &Request) -> Vec<u8> {
    let mut bytes = Vec::new();
    write_frame(&mut bytes, &request.to_value()).expect("writing to memory");
    bytes
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Micro,
    Workload,
    Park,
    Wire,
}

/// A design the mix uses: a catalog name (with its grid) or one of the
/// seeded wire netlists.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum DesignKey {
    Catalog(&'static str),
    Wire(usize),
}

/// One request of a connection's list.
struct Op {
    kind: Kind,
    design: DesignKey,
    request: Request,
    /// The encoded frame, made once.
    frame: Vec<u8>,
}

impl Op {
    fn vcycles(&self) -> u64 {
        match &self.request {
            Request::Submit(r) => r.vcycles,
            Request::SubmitNetlist(r) => r.vcycles,
            _ => 0,
        }
    }

    fn pokes(&self) -> &[(String, u64)] {
        match &self.request {
            Request::Submit(r) => &r.pokes,
            Request::SubmitNetlist(r) => &r.pokes,
            _ => &[],
        }
    }

    fn reads(&self) -> &[String] {
        match &self.request {
            Request::Submit(r) => &r.reads,
            Request::SubmitNetlist(r) => &r.reads,
            _ => &[],
        }
    }
}

/// A reply's checkable content.
#[derive(Debug, Clone, PartialEq)]
struct Expected {
    vcycles_run: u64,
    regs: Vec<(String, u64)>,
    fingerprint: String,
    displays: Vec<String>,
}

/// Per op: the reply to the op itself, and for a park the reply to its
/// resume.
type Truth = Vec<(Expected, Option<Expected>)>;

/// A seeded wire netlist: two registers mixing an add, a shift and an
/// xor, at a seeded width with seeded constants.
fn wire_netlist(index: usize, rng: &mut SmallRng) -> Netlist {
    let width = [8, 12, 16][rng.gen_range(0..3)];
    let mask = (1u64 << width) - 1;
    let mut b = NetlistBuilder::new(format!("wire{index}"));
    let x = b.reg("x", width, rng.next_u64() & mask);
    let y = b.reg("y", width, rng.next_u64() & mask);
    let k = b.lit((rng.next_u64() & mask) | 1, width);
    let next_x = b.add(x.q(), k);
    b.set_next(x, next_x);
    let shifted = b.shl_const(x.q(), 1 + rng.gen_range(0..3));
    let mixed = b.xor(y.q(), shifted);
    let next_y = b.add(mixed, x.q());
    b.set_next(y, next_y);
    b.output("x", x.q());
    b.output("y", y.q());
    b.finish_build()
        .expect("seeded wire netlist is well-formed")
}

/// A micro design's input registers and a seeded input vector.
fn micro_pokes(design: &str, rng: &mut SmallRng) -> (Vec<(String, u64)>, Vec<String>) {
    let mut v = || rng.next_u64() & 0xffff;
    let (pokes, reads): (Vec<(&str, u64)>, Vec<&str>) = match design {
        "counter" => (vec![("count", v())], vec!["count"]),
        "accum" => (vec![("acc", v()), ("step", v())], vec!["acc", "step"]),
        "lfsr" => (vec![("lfsr", v() | 1)], vec!["lfsr"]),
        _ => (vec![("t", v() & 1)], vec!["t", "edges"]),
    };
    (
        pokes.into_iter().map(|(n, x)| (n.to_string(), x)).collect(),
        reads.into_iter().map(str::to_string).collect(),
    )
}

/// The seeded request lists, one per connection, and the wire netlists
/// they draw from (as encoded on the wire).
fn generate(seed: u64) -> (Vec<Vec<Op>>, Vec<Value>) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let wires: Vec<Value> = (0..WIRE_NETLISTS)
        .map(|i| wire::encode_netlist(&wire_netlist(i, &mut rng)))
        .collect();
    let lists = (0..CONNS)
        .map(|_| {
            (0..OPS_PER_CONN)
                .map(|i| {
                    let id = i as u64;
                    let roll = rng.gen_range(0..100);
                    let kind = match roll {
                        0..=79 => Kind::Micro,
                        80..=89 => Kind::Workload,
                        90..=94 => Kind::Park,
                        _ => Kind::Wire,
                    };
                    let submit = |design: &'static str, vcycles, pokes, reads, park| {
                        Request::Submit(SubmitReq {
                            id,
                            design: design.into(),
                            grid: None,
                            vcycles,
                            pokes,
                            reads,
                            deadline_ms: None,
                            park,
                        })
                    };
                    let (design, request) = match kind {
                        Kind::Micro | Kind::Park => {
                            let name = catalog::MICRO_DESIGNS[rng.gen_range(0..4)];
                            let (pokes, reads) = micro_pokes(name, &mut rng);
                            let park = kind == Kind::Park;
                            let vcycles = if park {
                                PARK_VCYCLES.0
                            } else {
                                rng.gen_range(MICRO_VCYCLES) as u64
                            };
                            (
                                DesignKey::Catalog(name),
                                submit(name, vcycles, pokes, reads, park),
                            )
                        }
                        Kind::Workload => {
                            let name = WORKLOAD_DESIGNS[rng.gen_range(0..2)];
                            (
                                DesignKey::Catalog(name),
                                submit(name, WORKLOAD_VCYCLES, Vec::new(), Vec::new(), false),
                            )
                        }
                        Kind::Wire => {
                            let w = rng.gen_range(0..WIRE_NETLISTS);
                            let request = Request::SubmitNetlist(SubmitNetlistReq {
                                id,
                                netlist: wires[w].clone(),
                                grid: None,
                                vcycles: rng.gen_range(MICRO_VCYCLES) as u64,
                                pokes: vec![("x".into(), rng.next_u64() & 0xff)],
                                reads: vec!["x".into(), "y".into()],
                                deadline_ms: None,
                                park: false,
                            });
                            (DesignKey::Wire(w), request)
                        }
                    };
                    let frame = frame_bytes(&request);
                    Op {
                        kind,
                        design,
                        request,
                        frame,
                    }
                })
                .collect()
        })
        .collect();
    (lists, wires)
}

/// Every distinct design of the mix, with the netlist and grid the
/// daemon will compile it for.
fn distinct_designs(wires: &[Value]) -> Vec<(DesignKey, Netlist, MachineConfig)> {
    let mut out = Vec::new();
    for name in catalog::MICRO_DESIGNS.iter().chain(&WORKLOAD_DESIGNS) {
        let (netlist, config) = catalog::lookup(name, None).expect("catalog design");
        out.push((DesignKey::Catalog(name), netlist, config));
    }
    for (i, w) in wires.iter().enumerate() {
        let netlist = wire::decode_netlist(w, &WireLimits::default()).expect("valid wire netlist");
        out.push((
            DesignKey::Wire(i),
            netlist,
            MachineConfig::with_grid(WIRE_GRID, WIRE_GRID),
        ));
    }
    out
}

/// A booted daemon with its connections open and every design compiled
/// (one warm-up request per design).
struct Live {
    daemon: Daemon,
    conns: Vec<Conn>,
}

impl Live {
    fn shutdown(mut self) {
        if let Reply::Stats(_) = self.conns[0].call(&Request::Shutdown) {
            let _ = self.daemon.child.wait();
        }
    }
}

/// Boots the daemon and warms its cache; returns the warm-up round trip
/// of each distinct design (each a cache miss: the design's cold start
/// through the service).
fn setup(wires: &[Value]) -> (Live, Vec<f64>) {
    let daemon = Daemon::spawn();
    let mut conns: Vec<Conn> = (0..CONNS).map(|_| Conn::open(daemon.addr)).collect();
    let mut cold = Vec::new();
    for (i, (key, _, _)) in distinct_designs(wires).into_iter().enumerate() {
        let id = i as u64;
        let request = match key {
            DesignKey::Catalog(name) => Request::Submit(SubmitReq {
                id,
                design: name.into(),
                grid: None,
                vcycles: 1,
                pokes: Vec::new(),
                reads: Vec::new(),
                deadline_ms: None,
                park: false,
            }),
            DesignKey::Wire(w) => Request::SubmitNetlist(SubmitNetlistReq {
                id,
                netlist: wires[w].clone(),
                grid: None,
                vcycles: 1,
                pokes: Vec::new(),
                reads: Vec::new(),
                deadline_ms: None,
                park: false,
            }),
        };
        let t = Instant::now();
        let reply = conns[0].call(&request);
        cold.push(report::ms(t.elapsed()));
        assert!(
            matches!(&reply, Reply::Result(r) if r.outcome == "budget"),
            "warm-up of {key:?} failed: {reply:?}"
        );
    }
    (Live { daemon, conns }, cold)
}

fn expected_of(sim: &manticore::ManticoreSim, reads: &[String], displays: Vec<String>) -> Expected {
    Expected {
        vcycles_run: 0,
        regs: reads
            .iter()
            .filter_map(|n| sim.read_rtl_reg_by_name(n).map(|b| (n.clone(), b.to_u64())))
            .collect(),
        fingerprint: format!("{:#018x}", sim.machine().state_fingerprint()),
        displays,
    }
}

/// Ground truth for every op, from direct in-process `FleetSim` runs; also
/// returns the bring-up record of each catalog design (the same compile
/// the daemon runs on a miss) and every design's compiled artifacts,
/// which the traced replay's cache is primed with.
#[allow(clippy::type_complexity)]
fn ground_truth(
    lists: &[Vec<Op>],
    wires: &[Value],
) -> (
    Vec<Truth>,
    Vec<(&'static str, Record)>,
    HashMap<DesignKey, Arc<CacheEntry>>,
) {
    let mut fleets = HashMap::new();
    let mut records = Vec::new();
    for (key, netlist, config) in distinct_designs(wires) {
        let booted = bringup::bring_up(&netlist, &config, &Tracer::off(), None, 0);
        // The seeded wire netlists change shape with the seed; compile
        // metrics cover the catalog designs, which do not.
        if let DesignKey::Catalog(name) = key {
            records.push((name, booted.record));
        }
        let fleet = FleetSim::from_output(booted.output, config, 2).expect("mix designs load");
        fleets.insert(key, fleet);
    }
    let run = |op: &Op, vcycles: u64| {
        let fleet = &fleets[&op.design];
        let job = op.pokes().iter().fold(fleet.job(vcycles), |job, (n, v)| {
            job.with_reg(n, *v).expect("mix registers exist")
        });
        let run = fleet.run(vec![job]).pop().expect("one run");
        let outcome = run.result.as_ref().expect("ground-truth runs succeed");
        let mut e = expected_of(run.sim(), op.reads(), outcome.displays.clone());
        e.vcycles_run = outcome.vcycles_run;
        e
    };
    let truth = lists
        .iter()
        .map(|ops| {
            ops.iter()
                .map(|op| {
                    let first = run(op, op.vcycles());
                    let resume = (op.kind == Kind::Park).then(|| {
                        let mut whole = run(op, PARK_VCYCLES.0 + PARK_VCYCLES.1);
                        whole.displays = whole.displays[first.displays.len()..].to_vec();
                        whole.vcycles_run = PARK_VCYCLES.1;
                        whole
                    });
                    (first, resume)
                })
                .collect()
        })
        .collect();
    let entries = fleets
        .into_iter()
        .map(|(key, fleet)| {
            let entry = CacheEntry {
                output: fleet.output().clone(),
                program: fleet.program().clone(),
                bytes: 0,
            };
            (key, Arc::new(entry))
        })
        .collect();
    (truth, records, entries)
}

fn resume_request(op_index: usize, op: &Op, session: String) -> Request {
    Request::Resume(ResumeReq {
        id: RESUME_ID + op_index as u64,
        session,
        vcycles: PARK_VCYCLES.1,
        pokes: Vec::new(),
        reads: op.reads().to_vec(),
        park: false,
    })
}

/// Whether `reply` is exactly what the ground truth says, session id
/// aside (present exactly when the op parks).
fn matches(reply: &JobResult, want: &Expected, parks: bool) -> bool {
    reply.outcome == "budget"
        && reply.vcycles_run == want.vcycles_run
        && reply.regs == want.regs
        && reply.fingerprint == want.fingerprint
        && reply.displays == want.displays
        && reply.session.is_some() == parks
        && reply.error.is_none()
}

/// What one connection saw.
#[derive(Default)]
struct ConnResult {
    /// Round trips of the replies that arrived inside the window, ms.
    latencies: Vec<f64>,
    /// When each of them arrived, and the Vcycles its job ran.
    completions: Vec<(Instant, u64)>,
    attempted: u64,
    failures: Vec<String>,
}

/// Drives one connection's closed loop until `deadline`, then drains:
/// requests still in flight (and resumes of sessions parked before the
/// deadline) complete and are checked, but are not counted as served
/// inside the window.
fn drive(
    conn: &mut Conn,
    ops: &[Op],
    truth: &Truth,
    deadline: Instant,
    tracer: &Tracer,
) -> ConnResult {
    let mut out = ConnResult::default();
    let mut inflight: HashMap<u64, (usize, bool, Instant)> = HashMap::new();
    let mut resumes: VecDeque<(usize, String)> = VecDeque::new();
    let mut next = 0usize;
    loop {
        let open = Instant::now() < deadline;
        while inflight.len() < WINDOW {
            if let Some((i, session)) = resumes.pop_front() {
                let request = resume_request(i, &ops[i], session);
                inflight.insert(RESUME_ID + i as u64, (i, true, Instant::now()));
                conn.send_bytes(&frame_bytes(&request));
            } else if open {
                let i = next % ops.len();
                next += 1;
                inflight.insert(i as u64, (i, false, Instant::now()));
                conn.send_bytes(&ops[i].frame);
            } else {
                break;
            }
        }
        if inflight.is_empty() {
            return out;
        }
        let reply = conn.recv();
        let done = Instant::now();
        let id = match &reply {
            Reply::Result(r) => Some(r.id),
            Reply::Reject { id, .. } => Some(*id),
            Reply::Error { id, .. } => *id,
            _ => None,
        };
        let Some((i, is_resume, sent)) = id.and_then(|id| inflight.remove(&id)) else {
            out.failures
                .push(format!("reply to no request in flight: {reply:?}"));
            return out;
        };
        // Transient backpressure (`retry_after_ms > 0`) is part of the
        // protocol: wait as told and send the same request again. The
        // daemon counts the reject (`serve.rejects`), and the wait stays
        // in the request's round trip. (A rejected resume has already
        // given up its session, so it cannot be retried.)
        if let (
            Reply::Reject {
                id, retry_after_ms, ..
            },
            false,
        ) = (&reply, is_resume)
        {
            if *retry_after_ms > 0 {
                std::thread::sleep(Duration::from_millis(*retry_after_ms));
                inflight.insert(*id, (i, is_resume, sent));
                conn.send_bytes(&ops[i].frame);
                continue;
            }
        }
        tracer.record("client.request", None, id.unwrap_or(0), sent, done);
        out.attempted += 1;
        let (first, resume) = &truth[i];
        let parks = ops[i].kind == Kind::Park && !is_resume;
        let want = if is_resume {
            resume.as_ref().expect("parked ops have a resume truth")
        } else {
            first
        };
        match &reply {
            Reply::Result(r) if matches(r, want, parks) => {
                if parks {
                    resumes.push_back((i, r.session.clone().expect("checked above")));
                }
                if done <= deadline {
                    out.latencies.push(report::ms(done - sent));
                    out.completions.push((done, r.vcycles_run));
                }
            }
            other => out.failures.push(format!(
                "op {i} ({:?}{}): reply differs from the direct fleet run: {other:?}",
                ops[i].kind,
                if is_resume { ", resume" } else { "" }
            )),
        }
    }
}

/// Replies counted per throughput sample.
const GROUP: usize = 128;

struct Window {
    latencies: Vec<f64>,
    /// Per group of [`GROUP`] consecutive replies: replies and Vcycles
    /// per second.
    rates: Vec<(f64, f64)>,
}

fn window(
    live: &mut Live,
    lists: &[Vec<Op>],
    truth: &[Truth],
    secs: f64,
    tracer: &Tracer,
    report: &mut Report,
) -> Window {
    let deadline = Instant::now() + Duration::from_secs_f64(secs);
    let results: Vec<ConnResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = live
            .conns
            .iter_mut()
            .zip(lists)
            .zip(truth)
            .map(|((conn, ops), truth)| {
                scope.spawn(move || drive(conn, ops, truth, deadline, tracer))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let mut w = Window {
        latencies: Vec::new(),
        rates: Vec::new(),
    };
    let mut completions = Vec::new();
    for r in results {
        report.attempted += r.attempted;
        report.failed += r.failures.len() as u64;
        for f in r.failures {
            report.fail(f);
        }
        w.latencies.extend(r.latencies);
        completions.extend(r.completions);
    }
    completions.sort_by_key(|c| c.0);
    for group in completions.windows(GROUP + 1).step_by(GROUP) {
        let secs = (group[GROUP].0 - group[0].0).as_secs_f64();
        let vcycles: u64 = group[1..].iter().map(|c| c.1).sum();
        w.rates.push((GROUP as f64 / secs, vcycles as f64 / secs));
    }
    w
}

/// The median group's replies per second: a median keeps a burst of
/// host speed shorter than half the window out of the rate.
fn jobs_per_s(w: &Window) -> f64 {
    median(&w.rates.iter().map(|r| r.0).collect::<Vec<_>>())
}

/// Replays one cycle of both connections' request lists through the
/// serving layer's public functions, in the daemon's order — decode,
/// admit (catalog lookup and hash, or wire decode, or session resume;
/// then the cache), the ganged batch, then per job the park and the
/// reply encode — with a span around each call. Returns the replayed
/// request count and the replay's time window.
fn replay(
    lists: &[Vec<Op>],
    wires: &[Value],
    truth: &[Truth],
    entries: &HashMap<DesignKey, Arc<CacheEntry>>,
    tracer: &Tracer,
    report: &mut Report,
) -> (u64, u64, u64) {
    let cache = ProgramCache::new(ServerConfig::default().cache_bytes, 1);
    for (key, netlist, config) in distinct_designs(wires) {
        let entry = &entries[&key];
        cache
            .get_or_compile(catalog::netlist_hash(&netlist, &config), || {
                Ok(CacheEntry {
                    output: entry.output.clone(),
                    program: entry.program.clone(),
                    bytes: entry.bytes,
                })
            })
            .expect("priming the cache");
    }
    let sessions = SessionTable::new(Duration::from_secs(30));
    let fleet = Fleet::new(ServerConfig::default().workers);
    let lanes = ServerConfig::default().lanes;
    let limits = WireLimits::default();

    // Both connections' lists, interleaved the way the daemon sees them.
    let mut stream: VecDeque<(usize, usize, Option<String>)> = (0..OPS_PER_CONN)
        .flat_map(|i| (0..CONNS).map(move |c| (c, i, None)))
        .collect();
    let lo = tracer.now_ns();
    let mut replayed = 0u64;
    let failures = Mutex::new(Vec::new());
    let parked: Mutex<Vec<(usize, usize, String)>> = Mutex::new(Vec::new());
    while !stream.is_empty() {
        let batch: Vec<_> = stream.drain(..stream.len().min(CONNS * WINDOW)).collect();
        let (mut jobs, mut metas) = (Vec::new(), Vec::new());
        for (conn, i, session) in batch {
            replayed += 1;
            let op = &lists[conn][i];
            let frame = match &session {
                Some(s) => frame_bytes(&resume_request(i, op, s.clone())),
                None => op.frame.clone(),
            };
            let req_id = (conn * OPS_PER_CONN + i) as u64;
            let request = tracer.span("serve.proto.decode", None, req_id, |_| {
                let value = read_frame(&mut frame.as_slice())
                    .expect("in-memory frame")
                    .expect("one frame");
                Request::from_value(&value).expect("valid request")
            });
            let job = match request {
                Request::Submit(r) => {
                    let micro = catalog::MICRO_DESIGNS.contains(&r.design.as_str());
                    let (lookup, hash) = if micro {
                        ("serve.catalog.lookup.micro", "serve.catalog.hash.micro")
                    } else {
                        (
                            "serve.catalog.lookup.workload",
                            "serve.catalog.hash.workload",
                        )
                    };
                    let (netlist, config) = tracer.span(lookup, None, req_id, |_| {
                        catalog::lookup(&r.design, r.grid).expect("catalog design")
                    });
                    let key = tracer.span(hash, None, req_id, |_| {
                        catalog::netlist_hash(&netlist, &config)
                    });
                    let entry = tracer.span("serve.cache.hit", None, req_id, |_| {
                        cache.get_or_compile(key, || Err("primed cache missed".into()))
                    });
                    new_job(&entry.expect("primed"), r.vcycles, &r.pokes)
                }
                Request::SubmitNetlist(r) => {
                    let netlist = tracer.span("serve.wire.decode", None, req_id, |_| {
                        wire::decode_netlist(&r.netlist, &limits).expect("valid wire netlist")
                    });
                    let config = MachineConfig::with_grid(WIRE_GRID, WIRE_GRID);
                    let key = tracer.span("serve.catalog.hash.wire", None, req_id, |_| {
                        catalog::netlist_hash(&netlist, &config)
                    });
                    let entry = tracer.span("serve.cache.hit", None, req_id, |_| {
                        cache.get_or_compile(key, || Err("primed cache missed".into()))
                    });
                    new_job(&entry.expect("primed"), r.vcycles, &r.pokes)
                }
                Request::Resume(r) => {
                    let parked = tracer.span("serve.session.resume", None, req_id, |_| {
                        sessions.resume(&r.session)
                    });
                    let parked = parked.expect("session parked by the replay");
                    SimJob::resume(parked.machine, r.vcycles)
                }
                _ => unreachable!("the mix sends only jobs"),
            };
            jobs.push(job);
            metas.push((conn, i, session.is_some()));
        }
        tracer.span("serve.fleet.batch", None, replayed, |batch| {
            fleet.run_ganged_stream(jobs, lanes, &BatchPolicy::default(), &|out| {
                let (conn, i, is_resume) = metas[out.index];
                let op = &lists[conn][i];
                let entry = &entries[&op.design];
                let req_id = (conn * OPS_PER_CONN + i) as u64;
                let parks = op.kind == Kind::Park && !is_resume;
                let (result, machine) = match (out.result, out.machine) {
                    (Ok(run), Some(machine)) => (run, machine),
                    _ => {
                        failures
                            .lock()
                            .expect("replay lock")
                            .push(format!("replayed op {i} failed"));
                        return;
                    }
                };
                let regs = op
                    .reads()
                    .iter()
                    .filter_map(|n| {
                        manticore::rtl_reg_read(&entry.output, n, |c, r| machine.read_reg(c, r))
                            .map(|b| (n.clone(), b.to_u64()))
                    })
                    .collect();
                let fingerprint = format!("{:#018x}", machine.state_fingerprint());
                let session = parks.then(|| {
                    tracer.span("serve.session.park", batch, req_id, |_| {
                        sessions.park(ParkedSession {
                            machine,
                            output: Arc::clone(&entry.output),
                            // Only a durable store reads the source; this
                            // table has none.
                            source: SessionSource::Catalog {
                                name: String::new(),
                                grid: 0,
                            },
                        })
                    })
                });
                let reply = JobResult {
                    id: req_id,
                    outcome: "budget".into(),
                    vcycles_run: result.vcycles_run,
                    regs,
                    fingerprint,
                    displays: result.displays,
                    session: session.clone(),
                    error: None,
                };
                let (first, resume) = &truth[conn][i];
                let want = if is_resume {
                    resume.as_ref()
                } else {
                    Some(first)
                };
                if !want.is_some_and(|w| matches(&reply, w, parks)) {
                    failures
                        .lock()
                        .expect("replay lock")
                        .push(format!("replayed op {i} differs from the direct fleet run"));
                }
                tracer.span("serve.proto.encode", batch, req_id, |_| {
                    let mut bytes = Vec::new();
                    write_frame(&mut bytes, &Reply::Result(reply).to_value())
                        .expect("writing to memory");
                    bytes
                });
                if let Some(s) = session {
                    parked.lock().expect("replay lock").push((conn, i, s));
                }
            });
        });
        for (conn, i, s) in parked.lock().expect("replay lock").drain(..) {
            stream.push_front((conn, i, Some(s)));
        }
    }
    let hi = tracer.now_ns();
    let failures = failures.into_inner().expect("replay lock");
    report.attempted += replayed - failures.len() as u64;
    for f in failures {
        report.op(false, || f);
    }
    (replayed, lo, hi)
}

fn new_job(entry: &CacheEntry, vcycles: u64, pokes: &[(String, u64)]) -> SimJob {
    let mut job = SimJob::new(&entry.program, vcycles);
    for (name, value) in pokes {
        for (core, reg, word) in
            manticore::rtl_reg_words(&entry.output, name, *value).expect("mix registers exist")
        {
            job = job.poke(core, reg, word);
        }
    }
    job
}

/// Per-layer metrics from the replay's spans.
fn layer_metrics(report: &mut Report, lo: u64, hi: u64, replayed: u64, rtt_ms: f64) {
    let spans: Vec<_> = report
        .spans
        .iter()
        .filter(|s| s.start_ns >= lo && s.start_ns < hi)
        .cloned()
        .collect();
    let per = |name: &str| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    };
    let us = |name: &str| median(&per(name)) / 1e3;
    for (metric, span) in [
        ("serve.proto.decode_us", "serve.proto.decode"),
        ("serve.proto.encode_us", "serve.proto.encode"),
        (
            "serve.catalog.lookup_us.micro",
            "serve.catalog.lookup.micro",
        ),
        (
            "serve.catalog.lookup_us.workload",
            "serve.catalog.lookup.workload",
        ),
        ("serve.catalog.hash_us.micro", "serve.catalog.hash.micro"),
        (
            "serve.catalog.hash_us.workload",
            "serve.catalog.hash.workload",
        ),
        ("serve.cache.hit_us", "serve.cache.hit"),
        ("serve.wire.decode_us", "serve.wire.decode"),
        ("serve.session.park_us", "serve.session.park"),
        ("serve.session.resume_us", "serve.session.resume"),
    ] {
        report.layer(metric, us(span));
    }
    report.layer(
        "serve.fleet.batch_ms",
        median(&per("serve.fleet.batch")) / 1e6,
    );
    // Serialized layer time per request: every top-level serve span (the
    // park and encode spans sit inside their batch's span).
    let accounted_ns: f64 = spans
        .iter()
        .filter(|s| s.parent.is_none() && s.layer() == "serve")
        .map(|s| (s.end_ns - s.start_ns) as f64)
        .sum();
    let per_request_ms = accounted_ns / replayed.max(1) as f64 / 1e6;
    report.layer("serve.rtt_unaccounted_ratio", 1.0 - per_request_ms / rtt_ms);
}

pub fn run(ctx: &Ctx, report: &mut Report) {
    let (lists, wires) = generate(ctx.seed);
    let (mut live, colds, setup_s) = report::repeated_setup(|| setup(&wires));
    report.set("setup_s", setup_s);
    let designs = colds[0].len();
    let cold: Vec<f64> = (0..designs)
        .map(|d| median(&colds.iter().map(|c| c[d]).collect::<Vec<_>>()))
        .collect();

    let (truth, records, entries) = ground_truth(&lists, &wires);
    let per_design: Vec<(&str, Vec<Record>)> =
        records.into_iter().map(|(n, r)| (n, vec![r])).collect();
    bringup::fill(report, &per_design);
    // Here a cold start is what a client sees: the warm-up request that
    // makes the daemon compile the design.
    report.set("cold_start_ms", geomean(&cold));

    let w = if ctx.trace {
        let plain = window(
            &mut live,
            &lists,
            &truth,
            ctx.seconds / 2.0,
            &Tracer::off(),
            report,
        );
        let tracer = Tracer::on();
        let traced = window(
            &mut live,
            &lists,
            &truth,
            ctx.seconds / 2.0,
            &tracer,
            report,
        );
        report.layer(
            "trace.overhead_ratio",
            jobs_per_s(&plain) / jobs_per_s(&traced) - 1.0,
        );
        let (replayed, lo, hi) = replay(&lists, &wires, &truth, &entries, &tracer, report);
        let client_ms: f64 = tracer
            .spans()
            .iter()
            .filter(|s| s.layer() == "client")
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .sum();
        report.trace_summary(tracer.spans(), lo, hi);
        report.layer("trace.client.self_ms", client_ms);
        layer_metrics(report, lo, hi, replayed, median(&traced.latencies));
        traced
    } else {
        window(
            &mut live,
            &lists,
            &truth,
            ctx.seconds,
            &Tracer::off(),
            report,
        )
    };
    report.set("peak_rss_mb", live.daemon.peak_rss_mb());

    let stats = match live.conns[0].call(&Request::Stats) {
        Reply::Stats(v) => v,
        other => {
            report.fail(format!("stats request failed: {other:?}"));
            Value::Null
        }
    };
    let cache = |k: &str| {
        stats
            .get("cache")
            .and_then(|c| c.get(k))
            .and_then(Value::as_u64)
            .unwrap_or(0)
    };
    let (hits, misses) = (cache("hits"), cache("misses"));
    let rejects = stats
        .get("jobs_rejected")
        .and_then(Value::as_u64)
        .unwrap_or(0);
    report.layer(
        "serve.cache.hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    report.layer("serve.cache.misses", misses as f64);
    report.layer("serve.rejects", rejects as f64);
    report.exact("serve.cache.misses", misses, false);
    if misses != designs as u64 {
        report.fail(format!(
            "the daemon compiled {misses} times for {designs} distinct designs"
        ));
    }
    live.shutdown();

    let jobs = jobs_per_s(&w);
    report.set("serve_jobs_per_s", jobs);
    report.set("sweep_scenarios_per_s", jobs);
    report.set(
        "sim_khz",
        median(&w.rates.iter().map(|r| r.1 / 1e3).collect::<Vec<_>>()),
    );
    report.set("serve_latency_ms_p50", percentile(&w.latencies, 50.0));
    report.set("serve_latency_ms_p99", percentile(&w.latencies, 99.0));
    report.layer("serve.latency_samples", w.latencies.len() as f64);
    report.note(format!(
        "serve-mix: {} replies over {CONNS} connections x {WINDOW} in flight; \
         latency p50/p99 over {} samples; cache {hits} hits / {misses} misses; {rejects} rejects",
        w.latencies.len(),
        w.latencies.len()
    ));
}
