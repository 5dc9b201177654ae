//! The benchmark's own route-server client.
//!
//! It feeds a churn trace to a [`RouteServer`] one event at a time, the
//! way `replay_trace_opts` does, but from outside the program: every call
//! into the server, the adjacency rebuild closure it is built with, and
//! every [`CheckpointStore`] operation sits in a span.  The batch cap is
//! enforced here (the server's own cap is lifted) so that every flush is
//! an explicit `flush()` call with a span of its own; a flush fires after
//! the same events as the server's own cap would fire it, so answers and
//! digests equal `replay_trace_opts` on the same trace.
//!
//! A closed loop submits the next event as soon as the previous call
//! returns.  An open loop sends event `k` at `k / rate` seconds after the
//! start whether or not the server kept up, and times queries from that
//! due time.

use crate::calib::IdleGauge;
use crate::probe::SpanSink;
use crate::reference::RefNet;
use crate::spans::{self, timed};
use dbf_algebra::prelude::{BoundedHopCount, NatInf, ShortestPaths};
use dbf_matrix::{AdjacencyMatrix, PoolStats};
use dbf_scenario::engine::state_digest;
use dbf_scenario::report::Digest;
use dbf_scenario::{
    BoundRule, ChangeSpec, CheckpointStore, ChurnTrace, PersistRoute, RouteServer, ScenarioAlgebra,
    ServeAlgebra, ServeEvent, WeightOverrides,
};
use dbf_telemetry::{NoopSink, TelemetrySink};
use dbf_topology::Topology;
use std::fmt::Debug;
use std::path::Path;
use std::time::{Duration, Instant};

/// Default σ worker budget: the coordinator plus one pool worker, as
/// `scenarios serve --threads 2` runs.
pub const THREADS: usize = 2;
/// Change events coalesced per flush (the `scenarios serve` default).
pub const BATCH: usize = 64;
/// Snapshot cadence, in events.
pub const CHECKPOINT_EVERY: u64 = 64;
/// A verifying replay compares every this-many-th answer with naive σ.
const CHECK_EVERY: usize = 25;

/// How to run one replay.
#[derive(Debug, Clone)]
pub struct ClientCfg<'a> {
    /// σ worker budget of the server.
    pub threads: usize,
    /// Arm a WAL + snapshot store in this directory (emptied first), and
    /// recover from it after the replay.
    pub store: Option<&'a Path>,
    /// Open-loop offered rate, events per second; `None` runs closed-loop.
    pub rate: Option<f64>,
    /// Check answers and the final table against the naive σ reference.
    /// Slow; for verification runs only.
    pub verify: bool,
    /// Record the σ rounds through the span sink (traced runs).
    pub traced: bool,
    /// Stop after building and converging the server (set-up timing).
    pub setup_only: bool,
    /// Open loop: run small speed probes in the idle gaps, and scale by
    /// their reading raised to this exponent.
    pub probe_idle: Option<f64>,
}

impl Default for ClientCfg<'_> {
    /// A closed-loop, untraced replay on [`THREADS`] threads.
    fn default() -> Self {
        ClientCfg {
            threads: THREADS,
            store: None,
            rate: None,
            verify: false,
            traced: false,
            setup_only: false,
            probe_idle: None,
        }
    }
}

/// What one replay produced.
#[derive(Debug, Clone, Default)]
pub struct ClientOut {
    /// Events submitted.
    pub events: u64,
    /// Operations the server rejected, and answers or digests that
    /// disagreed with a reference.
    pub failed: u64,
    /// Checks made against a reference (answers, final table, recovery).
    pub checks: u64,
    /// Digest over every answer, folded like `replay_trace_opts` folds it.
    pub answers_digest: String,
    /// Digest of the final table.
    pub final_digest: String,
    /// Digest of the naive σ fixed point on the final network (only when
    /// verifying replays).
    pub reference_digest: Option<String>,
    /// Wall time of the event loop plus the final flush, seconds.
    pub wall_s: f64,
    /// Part of `wall_s` the open loop spent waiting for the next due time.
    pub idle_s: f64,
    /// `RouteServer::raw` (adjacency build), seconds.
    pub adjacency_s: f64,
    /// `RouteServer::initial_converge`, seconds.
    pub initial_converge_s: f64,
    /// Query latencies, microseconds: flush + lookup when closed-loop,
    /// answer time minus due time when open-loop.
    pub query_us: Vec<f64>,
    /// Open loop: how late each event was sent, microseconds.
    pub lag_us: Vec<f64>,
    /// Open loop: the scale of the machine's speed over the session, from
    /// probes in its idle gaps (see [`IdleGauge`]); 1 without them.
    pub idle_scale: f64,
    /// Open loop: speed probes run in the idle gaps.
    pub idle_probes: usize,
    /// Recovery from the store, seconds (open, restore, WAL tail, equal
    /// digest), when a store was armed.
    pub recovery_s: Option<f64>,
    /// Worker-pool counters accumulated during the event loop.
    pub pool: Option<PoolStats>,
    /// Counters from the span sink (traced runs).
    pub sink: crate::probe::Counters,
    /// Bytes the WAL held just before each truncation, plus at the end.
    pub wal_bytes: u64,
    /// Size of the last snapshot file.
    pub snapshot_bytes: u64,
    /// Node count.
    pub nodes: usize,
}

/// Replay `trace` through a fresh server.
pub fn replay(trace: &ChurnTrace, cfg: &ClientCfg) -> Result<ClientOut, String> {
    match trace.algebra {
        ServeAlgebra::Hopcount { limit } => replay_with(
            BoundedHopCount::new(limit),
            |w| w,
            BoundRule::Hopcount { limit },
            false,
            trace,
            cfg,
        ),
        ServeAlgebra::Shortest => replay_with(
            ShortestPaths::new(),
            NatInf::fin,
            BoundRule::Shortest,
            // An infinite carrier restarts from the identity on removals,
            // exactly as the serve path configures it.
            true,
            trace,
            cfg,
        ),
    }
}

/// Digest of the naive σ fixed point on the network `trace` ends with.
pub fn reference_digest(trace: &ChurnTrace) -> String {
    let mut net = RefNet::from_spec(&trace.topology);
    for ev in &trace.events {
        if let ServeEvent::Change(c) = ev {
            net.apply(c);
        }
    }
    match trace.algebra {
        ServeAlgebra::Hopcount { limit } => {
            state_digest(&net.fixed_point(&BoundedHopCount::new(limit), |w| w))
        }
        ServeAlgebra::Shortest => {
            state_digest(&net.fixed_point(&ShortestPaths::new(), NatInf::fin))
        }
    }
}

/// The rebuild closure: the weightless shape with weight 1 unless a
/// `set_weight` override says otherwise, in a span of its own.
fn rebuild_fn<A: ScenarioAlgebra>(
    edge: impl Fn(u64) -> A::Edge + Copy,
) -> impl Fn(&Topology<()>, &WeightOverrides) -> AdjacencyMatrix<A>
where
    A::Route: Send + Sync + 'static,
    A::Edge: PartialEq + Send + Sync + 'static,
{
    move |s: &Topology<()>, w: &WeightOverrides| {
        timed("adjacency.rebuild", spans::INHERIT, || {
            AdjacencyMatrix::from_topology(
                &s.with_weights(|i, j| edge(w.get(&(i, j)).copied().unwrap_or(1))),
            )
        })
    }
}

fn pool_delta(after: &PoolStats, before: &PoolStats) -> PoolStats {
    PoolStats {
        workers: after.workers,
        epochs: after.epochs - before.epochs,
        jobs: after.jobs - before.jobs,
        worker_jobs: after
            .worker_jobs
            .iter()
            .zip(before.worker_jobs.iter().chain(std::iter::repeat(&0)))
            .map(|(a, b)| a - b)
            .collect(),
        inline_jobs: after.inline_jobs - before.inline_jobs,
        deaths: after.deaths - before.deaths,
        restarts: after.restarts - before.restarts,
        retries: after.retries - before.retries,
    }
}

fn file_len(p: &Path) -> u64 {
    std::fs::metadata(p).map(|m| m.len()).unwrap_or(0)
}

/// Spin until `due`.  The client never sleeps: on a virtual machine a
/// sleeping thread gives its CPU back to the host, and waking it again
/// can take milliseconds, which would read as server latency.
fn wait_until(due: Instant) {
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

fn replay_with<A, E>(
    alg: A,
    edge: E,
    bound: BoundRule,
    restart: bool,
    trace: &ChurnTrace,
    cfg: &ClientCfg,
) -> Result<ClientOut, String>
where
    A: ScenarioAlgebra,
    A::Route: PersistRoute + Debug + Send + Sync + 'static,
    A::Edge: PartialEq + Send + Sync + 'static,
    E: Fn(u64) -> A::Edge + Copy,
{
    let mut out = ClientOut::default();
    let mut sink = SpanSink::default();
    let mut noop = NoopSink;
    let tel: &mut dyn TelemetrySink = if cfg.traced { &mut sink } else { &mut noop };
    let algebra_tag = trace.algebra.tag();

    let shape = dbf_scenario::run::build_shape(&trace.topology).map_err(|e| e.to_string())?;
    let t = Instant::now();
    let server = timed("setup.adjacency", 0, || {
        RouteServer::raw(
            alg.clone(),
            shape,
            rebuild_fn::<A>(edge),
            cfg.threads,
            usize::MAX,
        )
    });
    out.adjacency_s = t.elapsed().as_secs_f64();
    let mut server = server.restart_on_removal(restart).with_bound(bound);
    let t = Instant::now();
    timed("setup.initial_converge", 0, || server.initial_converge(tel))
        .map_err(|e| format!("initial convergence: {e}"))?;
    out.initial_converge_s = t.elapsed().as_secs_f64();
    out.nodes = server.node_count();
    if cfg.setup_only {
        return Ok(out);
    }

    let mut store = match cfg.store {
        Some(dir) => {
            let _ = std::fs::remove_dir_all(dir);
            Some(
                timed("checkpoint.open", 0, || CheckpointStore::open(dir))
                    .map_err(|e| format!("store {}: {e}", dir.display()))?,
            )
        }
        None => None,
    };
    let mut reference = cfg.verify.then(|| RefNet::from_spec(&trace.topology));
    let mut answers = Digest::default();
    let mut pending = 0usize;
    let mut queries_seen = 0usize;
    let period = cfg.rate.map(|r| Duration::from_secs_f64(1.0 / r));
    let mut gauge = IdleGauge::default();
    let pool_before = server.pool_stats();

    let t0 = Instant::now();
    for (k, ev) in trace.events.iter().enumerate() {
        let off = k as u64;
        // When this event is due; the closed loop sends it right away.
        let due = match period {
            Some(p) => {
                let due = t0 + p.mul_f64(k as f64);
                let waited = timed("openloop.idle", off, || {
                    let t = Instant::now();
                    if cfg.probe_idle.is_some() {
                        gauge.fill(due);
                    }
                    wait_until(due);
                    t.elapsed()
                });
                out.idle_s += waited.as_secs_f64();
                out.lag_us
                    .push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e6);
                due
            }
            None => Instant::now(),
        };
        if let Some(st) = store.as_mut() {
            timed("checkpoint.wal_append", off, || {
                st.append_wal(off, &event_line(ev))
            })
            .map_err(|e| format!("WAL append at {off}: {e}"))?;
        }
        out.events += 1;
        match ev {
            ServeEvent::Change(c) => {
                if let Some(r) = reference.as_mut() {
                    r.apply(c);
                }
                if let Err(p) = timed("serve.submit", off, || server.submit(ev, &mut *tel)) {
                    out.failed += 1;
                    eprintln!("event {off}: {p}");
                    continue;
                }
                pending += 1;
                if pending >= BATCH {
                    pending = 0;
                    if let Err(p) = timed("serve.flush", off, || server.flush(&mut *tel)) {
                        out.failed += 1;
                        eprintln!("flush at {off}: {p}");
                    }
                }
            }
            ServeEvent::Query { from, to } => {
                let q0 = Instant::now();
                pending = 0;
                let answer = timed("serve.flush", off, || server.flush(&mut *tel)).and_then(|()| {
                    timed("serve.query", off, || server.query(*from, *to, &mut *tel))
                });
                let done = Instant::now();
                let a = match answer {
                    Ok(a) => a,
                    Err(p) => {
                        out.failed += 1;
                        eprintln!("query at {off}: {p}");
                        continue;
                    }
                };
                let since = if period.is_some() { due } else { q0 };
                out.query_us.push((done - since).as_secs_f64() * 1e6);
                answers.update(&a.text);
                if a.stale {
                    answers.update("!stale");
                }
                answers.update(";");
                if let Some(r) = &reference {
                    if queries_seen.is_multiple_of(CHECK_EVERY) {
                        out.checks += 1;
                        let x = r.fixed_point(&alg, edge);
                        let want = format!("{:?}", x.get(*from, *to));
                        if a.text != want || a.stale {
                            out.failed += 1;
                            eprintln!(
                                "query at {off}: answer {} but the naive σ says {want}",
                                a.text
                            );
                        }
                    }
                }
                queries_seen += 1;
            }
        }
        if let Some(st) = store.as_mut() {
            if (off + 1).is_multiple_of(CHECKPOINT_EVERY) {
                if spans::on() {
                    out.wal_bytes += file_len(&st.wal_path());
                }
                let snap = timed("checkpoint.snapshot", off, || {
                    let snap = timed("serve.snapshot", off, || {
                        server.snapshot(off + 1, &algebra_tag, &answers)
                    });
                    timed("checkpoint.write_snapshot", off, || {
                        st.write_snapshot(&snap)
                    })
                });
                snap.map_err(|e| format!("snapshot at {off}: {e}"))?;
            }
        }
    }
    if let Err(p) = timed("serve.flush", trace.events.len() as u64, || {
        server.finish(&mut *tel)
    }) {
        out.failed += 1;
        eprintln!("final flush: {p}");
    }
    out.wall_s = t0.elapsed().as_secs_f64();
    out.idle_scale = gauge.scale(cfg.probe_idle.unwrap_or(1.0));
    out.idle_probes = gauge.times.len();
    out.pool = Some(pool_delta(&server.pool_stats(), &pool_before));
    out.answers_digest = answers.finish();
    out.final_digest = server.digest();

    if let Some(r) = &reference {
        out.checks += 1;
        let x = r.fixed_point(&alg, edge);
        let want = state_digest(&x);
        if want != out.final_digest {
            out.failed += 1;
            eprintln!(
                "final table {} differs from the naive σ fixed point {want}",
                out.final_digest
            );
        }
        out.reference_digest = Some(want);
    }

    if let Some(st) = store {
        if spans::on() {
            out.wal_bytes += file_len(&st.wal_path());
            out.snapshot_bytes = file_len(&st.snapshot_path());
        }
        let dir = cfg.store.expect("a store implies a directory");
        drop(st);
        let t = Instant::now();
        let digest = timed("checkpoint.recover", 0, || {
            recover(alg, edge, bound, restart, trace, dir, cfg.threads)
        })?;
        out.recovery_s = Some(t.elapsed().as_secs_f64());
        out.checks += 1;
        if digest != out.final_digest {
            out.failed += 1;
            eprintln!(
                "recovered table {digest} differs from the live table {}",
                out.final_digest
            );
        }
    }
    out.sink = sink.counters.clone();
    Ok(out)
}

/// Recover a server from the store the replay left behind: open it,
/// restore the snapshot, redo the WAL tail, and flush.  Returns the
/// recovered table's digest.
fn recover<A, E>(
    alg: A,
    edge: E,
    bound: BoundRule,
    restart: bool,
    trace: &ChurnTrace,
    dir: &Path,
    threads: usize,
) -> Result<String, String>
where
    A: ScenarioAlgebra,
    A::Route: PersistRoute + Debug + Send + Sync + 'static,
    A::Edge: PartialEq + Send + Sync + 'static,
    E: Fn(u64) -> A::Edge + Copy,
{
    let store = timed("checkpoint.open", 0, || CheckpointStore::open(dir))
        .map_err(|e| format!("reopen {}: {e}", dir.display()))?;
    let snap = timed("checkpoint.load_snapshot", 0, || store.load_snapshot())?
        .ok_or("the replay wrote no snapshot")?;
    let mut server = timed("serve.restore", 0, || {
        RouteServer::restore(alg, rebuild_fn::<A>(edge), &snap, threads, BATCH)
    })?
    .restart_on_removal(restart)
    .with_bound(bound);
    let wal = timed("checkpoint.load_wal", 0, || store.load_wal()).map_err(|e| e.to_string())?;
    timed("recovery.wal_tail_replay", 0, || {
        // The log holds event lines; read them back through the trace
        // codec under the trace's own header.
        let mut text = ChurnTrace {
            topology: trace.topology.clone(),
            algebra: trace.algebra,
            events: Vec::new(),
        }
        .to_text();
        for (k, (off, line)) in wal.iter().enumerate() {
            if *off != snap.offset + k as u64 {
                return Err(format!(
                    "WAL record {off} does not follow snapshot {}",
                    snap.offset
                ));
            }
            text.push_str(line);
            text.push('\n');
        }
        let tail = ChurnTrace::parse(&text).map_err(|e| e.to_string())?;
        for ev in &tail.events {
            server
                .submit(ev, &mut NoopSink)
                .map_err(|p| p.to_string())?;
        }
        server.finish(&mut NoopSink).map_err(|p| p.to_string())
    })?;
    Ok(server.digest())
}

/// Render an event in the trace's line vocabulary (the WAL record body).
pub fn event_line(ev: &ServeEvent) -> String {
    match ev {
        ServeEvent::Change(c) => match *c {
            ChangeSpec::SetLink { a, b } => format!("set_link {a} {b}"),
            ChangeSpec::SetEdge { from, to } => format!("set_edge {from} {to}"),
            ChangeSpec::RemoveEdge { from, to } => format!("remove_edge {from} {to}"),
            ChangeSpec::FailLink { a, b } => format!("fail_link {a} {b}"),
            ChangeSpec::AddNode => "add_node".to_string(),
            ChangeSpec::SetWeight { from, to, weight } => {
                format!("set_weight {from} {to} {weight}")
            }
        },
        ServeEvent::Query { from, to } => format!("query {from} {to}"),
    }
}
