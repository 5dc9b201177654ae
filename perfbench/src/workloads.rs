//! The three workloads, their seeded inputs, and how each run turns into
//! metrics.
//!
//! Every workload builds its inputs from the seed alone; the program only
//! ever sees the generated trace or graph.  An untraced run repeats the
//! workload's unit of work until `--seconds` have passed and reports
//! medians of its times scaled to the machine's speed (see [`crate::calib`]);
//! a traced run repeats (untraced, traced) pairs of the same unit and
//! reports the per-layer numbers of the traced ones, unscaled.

use crate::calib::{Gauge, REFERENCE_S};
use crate::client::{
    reference_digest, replay, ClientCfg, ClientOut, BATCH, CHECKPOINT_EVERY, THREADS,
};
use crate::reference::bfs_blocked_digest;
use crate::spans::{self, timed, Span};
use crate::stats::{median, tail};
use dbf_algebra::prelude::BoundedHopCount;
use dbf_matrix::{blocked_fixed_point, AdjacencyMatrix};
use dbf_scenario::{
    generate_trace, replay_trace_opts, ChurnTrace, ServeAlgebra, ServeOptions, TopologySpec,
    TraceSpec,
};
use dbf_telemetry::NoopSink;
use dbf_topology::{generators, Topology};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Workload names, in the order the one-command run takes them.
pub const NAMES: &[&str] = &["churn-ring64", "scale-asgraph", "durable-open"];

/// `churn-ring64`: ring size, trace length, queries per 1000 events.
pub const CHURN_NODES: usize = 64;
/// Events per churn trace.
pub const CHURN_EVENTS: usize = 10_000;
/// Queries per 1000 churn events.
pub const CHURN_QUERIES: u32 = 100;

/// `durable-open`: ring size.
pub const DURABLE_NODES: usize = 96;
/// Events per open-loop session.
pub const DURABLE_EVENTS: usize = 1_250;
/// Queries per 1000 events.
pub const DURABLE_QUERIES: u32 = 200;
/// `set_weight` policy changes per 1000 change events.
pub const DURABLE_WEIGHTS: u32 = 250;
/// σ worker budget: one thread.  A restart from the identity runs about
/// a hundred σ rounds, and with a pool worker every round wakes a second
/// virtual CPU; on a shared host those wake-ups drew several times the
/// stolen time of single-threaded runs and made the p99 unsteady.
pub const DURABLE_THREADS: usize = 1;
/// Offered rate, events per second: about a quarter of the busy-time
/// capacity of a 2-core machine on this trace.  At half (1000/s) queueing
/// amplifies every stall of a shared machine, and the p99 of one session
/// ranged from 5 to 20 ms.
pub const DURABLE_RATE: f64 = 500.0;

/// `scale-asgraph`: fabric size.
pub const SCALE_NODES: usize = 2_000;
/// Attachment edges per joining node.
pub const SCALE_M: usize = 2;
/// Destination-block width.
pub const SCALE_BLOCK: usize = 256;
/// `scenarios scale-run --nodes 2000 --m 2 --seed 1` prints this digest.
pub const SCALE_DIGEST_SEED1: &str = "20989f43bd3c57c2";

/// How strongly the serve workloads' replays and sessions follow the
/// speed probe's time: on a shared 2-vCPU host they move about as its
/// square root (`NOTES.md`), so their scales are square roots.
pub const SERVE_SPEED_EXPONENT: f64 = 0.5;
/// The same for `churn-ring64`'s set-up, whose 64-node tables move less:
/// as the probe's power 0.25.
pub const CHURN_SETUP_SPEED_EXPONENT: f64 = 0.25;
/// The same for `scale-asgraph`, whose blocks move more closely with the
/// probe: as its power 0.75.
pub const SCALE_SPEED_EXPONENT: f64 = 0.75;

/// Set-up rounds per repetition (set-up time is the median over the run).
const SETUP_REPS: usize = 10;

/// The churn trace of `churn-ring64` for `seed`.
pub fn churn_spec(seed: u64) -> TraceSpec {
    TraceSpec {
        topology: TopologySpec::Ring { n: CHURN_NODES },
        algebra: ServeAlgebra::Hopcount {
            limit: CHURN_NODES as u64,
        },
        events: CHURN_EVENTS,
        seed,
        query_permille: CHURN_QUERIES,
        weight_permille: 0,
    }
}

/// The open-loop trace of `durable-open` for `seed`.
pub fn durable_spec(seed: u64) -> TraceSpec {
    TraceSpec {
        topology: TopologySpec::Ring { n: DURABLE_NODES },
        algebra: ServeAlgebra::Shortest,
        events: DURABLE_EVENTS,
        seed,
        query_permille: DURABLE_QUERIES,
        weight_permille: DURABLE_WEIGHTS,
    }
}

/// The fabric of `scale-asgraph` for `seed`.
pub fn scale_graph(seed: u64) -> Topology<()> {
    generators::as_graph(SCALE_NODES, SCALE_M, seed)
}

/// One run's request.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measuring time.
    pub seconds: f64,
    /// Traced (per-layer) run?
    pub traced: bool,
    /// Where stores and span files go.
    pub out_dir: PathBuf,
}

/// One run's result.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (events, convergences and checks).
    pub attempted: u64,
    /// Operations that failed or disagreed with a reference.
    pub failed: u64,
    /// Metric values by catalogue name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Sample counts, percentiles used and digests, for the record.
    pub notes: Vec<(String, String)>,
    /// Spans of the last traced repetition.
    pub spans: Vec<Span>,
}

impl Outcome {
    fn note(&mut self, k: &str, v: impl ToString) {
        self.notes.push((k.to_string(), v.to_string()));
    }

    fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {what}");
        }
    }

    /// Record a tail figure under `name`, noting the percentile used and
    /// the sample count.
    fn tail(&mut self, name: &'static str, samples: &[f64], want: f64) {
        if samples.is_empty() {
            self.metrics.insert(name, 0.0);
            return;
        }
        let t = tail(samples, want);
        self.metrics.insert(name, t.value);
        self.note(&format!("{name}.percentile"), format!("{:.4}", t.q));
        self.note(&format!("{name}.samples"), samples.len());
    }

    /// `query_p50_us` and `query_p99_us` from latencies already scaled by
    /// their repetition's speed: the median of every query of the run,
    /// and the median over repetitions of each repetition's tail.  A
    /// repetition that met a burst of stolen time moves neither: pooled,
    /// its slowest queries would make up most of the run's top percent.
    fn latency(&mut self, reps: &[Vec<f64>]) {
        let reps: Vec<&Vec<f64>> = reps.iter().filter(|r| !r.is_empty()).collect();
        if reps.is_empty() {
            return;
        }
        let all: Vec<f64> = reps.iter().copied().flatten().copied().collect();
        self.metrics.insert("query_p50_us", median(&all));
        let tails: Vec<_> = reps.iter().map(|r| tail(r, 0.99)).collect();
        let p99: Vec<f64> = tails.iter().map(|t| t.value).collect();
        let q = median(&tails.iter().map(|t| t.q).collect::<Vec<_>>());
        let n = median(&reps.iter().map(|r| r.len() as f64).collect::<Vec<_>>());
        self.metrics.insert("query_p99_us", median(&p99));
        self.note("query_us.samples", all.len());
        self.note("query_p99_us.percentile", format!("{q:.4}"));
        self.note("query_us.samples_per_repetition", n);
        self.note("query_p99_us.per_repetition", list(&p99));
    }
}

/// Per-repetition values for the notes, rounded.
fn list(v: &[f64]) -> String {
    v.iter()
        .map(|x| format!("{x:.0}"))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Run one workload.
pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("cannot create {}: {e}", args.out_dir.display()))?;
    let mut o = match (args.workload.as_str(), args.traced) {
        ("churn-ring64", false) => churn(args)?,
        ("churn-ring64", true) => churn_traced(args)?,
        ("scale-asgraph", false) => scale(args)?,
        ("scale-asgraph", true) => scale_traced(args)?,
        ("durable-open", false) => durable(args)?,
        ("durable-open", true) => durable_traced(args)?,
        (other, _) => return Err(format!("unknown workload {other:?} (one of {NAMES:?})")),
    };
    if !args.traced {
        o.metrics.insert("peak_rss_mb", peak_rss_mb());
    }
    Ok(o)
}

/// Peak resident set of this process, MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

// ---------------------------------------------------------------------
// Serve workloads: shared pieces
// ---------------------------------------------------------------------

/// `durable-open`'s server, closed-loop, with the store armed.
fn durable_cfg(store: &Path) -> ClientCfg<'_> {
    ClientCfg {
        threads: DURABLE_THREADS,
        store: Some(store),
        ..ClientCfg::default()
    }
}

/// `durable-open`'s server driven on the open-loop schedule.
fn open_loop(store: &Path) -> ClientCfg<'_> {
    ClientCfg {
        rate: Some(DURABLE_RATE),
        ..durable_cfg(store)
    }
}

/// Set-up of a serve workload, repeated: trace generation, adjacency
/// build and initial convergence on `threads` threads.  Sets `setup_s`
/// and `converge_s` (the initial convergence alone) and returns the trace.
fn serve_setup(
    o: &mut Outcome,
    s: &mut Setups,
    spec: &TraceSpec,
    threads: usize,
) -> Result<ChurnTrace, String> {
    let mut trace = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let tr = generate_trace(spec).map_err(|e| e.to_string())?;
        let d = replay(
            &tr,
            &ClientCfg {
                threads,
                setup_only: true,
                ..ClientCfg::default()
            },
        )?;
        s.total.push(secs(t.elapsed()));
        s.converge.push(d.initial_converge_s);
        o.attempted += 1;
        trace = Some(tr);
    }
    trace.ok_or_else(|| "no set-up ran".to_string())
}

/// Set-up samples, taken a few at a time at every repetition so that they
/// see the same machine as the measurements, not only its first moments.
#[derive(Debug, Default)]
struct Setups {
    total: Vec<f64>,
    converge: Vec<f64>,
    /// Samples before these indices are already scaled.
    scaled: (usize, usize),
}

impl Setups {
    /// Scale the samples taken since the last call by the machine's speed
    /// over that stretch (a [`Gauge::scale`]).
    fn scale(&mut self, scale: f64) {
        let (t, c) = self.scaled;
        self.total[t..].iter_mut().for_each(|v| *v *= scale);
        self.converge[c..].iter_mut().for_each(|v| *v *= scale);
        self.scaled = (self.total.len(), self.converge.len());
    }

    /// `setup_s`, and `converge_s` when the set-up converges a table.
    fn report(&self, o: &mut Outcome) {
        o.metrics.insert("setup_s", median(&self.total));
        if !self.converge.is_empty() {
            o.metrics.insert("converge_s", median(&self.converge));
        }
        o.note("setup.samples", self.total.len());
    }
}

/// Note the gauge: the reference, the median reading, each repetition's
/// scale, and `name`'s median before scaling, for the record.
fn note_speed(o: &mut Outcome, gauge: &Gauge, scales: &[f64], name: &str, raw: &[f64]) {
    o.note("speed.reference_s", REFERENCE_S);
    o.note(
        "speed.median_reading_s",
        format!("{:.6}", gauge.median_reading()),
    );
    o.note(
        "speed.scale_per_repetition",
        scales
            .iter()
            .map(|s| format!("{s:.3}"))
            .collect::<Vec<_>>()
            .join(" "),
    );
    o.note(&format!("{name}.unscaled"), format!("{:.6}", median(raw)));
}

/// Each sample times `scale`.
fn scaled(samples: &[f64], scale: f64) -> Vec<f64> {
    samples.iter().map(|v| v * scale).collect()
}

/// The serve path's own replay of `trace` on `threads` threads, with the
/// store armed in `store` when given.
fn serve_path(
    trace: &ChurnTrace,
    store: Option<&Path>,
    threads: usize,
) -> Result<dbf_scenario::ReplayReport, String> {
    if let Some(dir) = store {
        let _ = std::fs::remove_dir_all(dir);
    }
    let opts = ServeOptions {
        threads,
        batch_max: BATCH,
        checkpoint_dir: store.map(Path::to_path_buf),
        checkpoint_every: CHECKPOINT_EVERY,
        ..ServeOptions::default()
    };
    let rep = replay_trace_opts(trace, &opts, &mut NoopSink).map_err(|e| e.to_string())?;
    if let Some(f) = &rep.failure {
        return Err(format!(
            "serve path failed: {} at {}: {}",
            f.kind, f.offset, f.message
        ));
    }
    Ok(rep)
}

/// The digests every replay of one trace must reproduce.
#[derive(Debug, Clone)]
struct Expected {
    /// The answers digest, where a verified run has fixed it.
    answers: Option<String>,
    table: String,
}

/// Verify a trace once, outside any timing: the benchmark's client with
/// the naive σ reference checking answers and the final table, and the
/// serve path, must agree.
fn verify_serve(
    o: &mut Outcome,
    trace: &ChurnTrace,
    cfg: &ClientCfg,
    serve_store: Option<&Path>,
) -> Result<Expected, String> {
    let d = replay(trace, cfg)?;
    o.attempted += d.events + d.checks;
    o.failed += d.failed;
    let rep = serve_path(trace, serve_store, cfg.threads)?;
    o.attempted += rep.events;
    o.check(
        rep.answers_digest == d.answers_digest,
        &format!(
            "serve-path answers {} vs client {}",
            rep.answers_digest, d.answers_digest
        ),
    );
    o.check(
        rep.final_digest == d.final_digest,
        &format!(
            "serve-path table {} vs client {}",
            rep.final_digest, d.final_digest
        ),
    );
    o.note("answers_digest", &d.answers_digest);
    o.note("final_digest", &d.final_digest);
    if let Some(r) = &d.reference_digest {
        o.note("reference_digest", r);
    }
    Ok(Expected {
        answers: Some(d.answers_digest),
        table: d.final_digest,
    })
}

/// Fold one measured client replay into the error count.
fn tally(o: &mut Outcome, d: &ClientOut, want: &Expected) {
    o.attempted += d.events + d.checks;
    o.failed += d.failed;
    if let Some(a) = &want.answers {
        o.check(
            d.answers_digest == *a,
            "replay answers differ from the verified run",
        );
    }
    o.check(
        d.final_digest == want.table,
        "replay table differs from the reference",
    );
}

/// The `k`-th input seed of a run: the run's seed itself first, then
/// seeds mixed from it.
pub fn sub_seed(seed: u64, k: u64) -> u64 {
    if k == 0 {
        seed
    } else {
        seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(k)
            .rotate_left(17)
    }
}

/// Another trace for the same run, with the final table its replays must
/// reach (the naive σ fixed point on its final network).
fn fresh_trace(o: &mut Outcome, spec: &TraceSpec) -> Result<(ChurnTrace, Expected), String> {
    let trace = generate_trace(spec).map_err(|e| e.to_string())?;
    let want = Expected {
        answers: None,
        table: reference_digest(&trace),
    };
    o.attempted += 1;
    Ok((trace, want))
}

// ---------------------------------------------------------------------
// churn-ring64
// ---------------------------------------------------------------------

fn churn(args: &RunArgs) -> Result<Outcome, String> {
    let mut o = Outcome::default();
    let spec = churn_spec(args.seed);
    let mut setups = Setups::default();
    // An untimed round first brings up the shared worker pool, which a
    // long-lived server pays for once.
    let trace = serve_setup(&mut o, &mut Setups::default(), &spec, THREADS)?;
    let want = verify_serve(
        &mut o,
        &trace,
        &ClientCfg {
            verify: true,
            ..ClientCfg::default()
        },
        None,
    )?;

    let mut eps = Vec::new();
    let mut raw_eps = Vec::new();
    let mut query_us = Vec::new();
    let mut scales = Vec::new();
    let mut gauge = Gauge::new();
    let t0 = Instant::now();
    while eps.len() < 3 || secs(t0.elapsed()) < args.seconds {
        serve_setup(&mut o, &mut setups, &spec, THREADS)?;
        setups.scale(gauge.scale(CHURN_SETUP_SPEED_EXPONENT));
        // A fresh trace per repetition: a run sees many traces, so its
        // figures do not hinge on one trace's luck.
        let k = eps.len() as u64;
        let (trace, want) = if k == 0 {
            (trace.clone(), want.clone())
        } else {
            fresh_trace(&mut o, &churn_spec(sub_seed(args.seed, k)))?
        };
        // Throughput: the serve path itself.
        let rep = serve_path(&trace, None, THREADS)?;
        o.attempted += rep.events;
        let scale = gauge.scale(SERVE_SPEED_EXPONENT);
        scales.push(scale);
        raw_eps.push(rep.events_per_sec());
        eps.push(rep.events_per_sec() / scale);
        // Query latency (flush + lookup), timed outside the program.
        let d = replay(&trace, &ClientCfg::default())?;
        let qs = gauge.scale(SERVE_SPEED_EXPONENT);
        query_us.push(scaled(&d.query_us, qs));
        tally(&mut o, &d, &want);
        o.check(
            rep.answers_digest == d.answers_digest && rep.final_digest == d.final_digest,
            "serve-path replay differs from the client's",
        );
    }
    o.note("traces", eps.len());
    o.metrics.insert("events_per_s", median(&eps));
    o.note("events_per_s.per_repetition", list(&eps));
    note_speed(&mut o, &gauge, &scales, "events_per_s", &raw_eps);
    o.latency(&query_us);
    setups.report(&mut o);
    Ok(o)
}

fn churn_traced(args: &RunArgs) -> Result<Outcome, String> {
    let mut o = Outcome::default();
    let spec = churn_spec(args.seed);
    let trace = generate_trace(&spec).map_err(|e| e.to_string())?;
    let want = verify_serve(
        &mut o,
        &trace,
        &ClientCfg {
            verify: true,
            ..ClientCfg::default()
        },
        None,
    )?;
    let mut reps = Vec::new();
    let t0 = Instant::now();
    while reps.len() < 2 || secs(t0.elapsed()) < args.seconds {
        let u = replay(&trace, &ClientCfg::default())?;
        tally(&mut o, &u, &want);
        let untraced = u.adjacency_s + u.initial_converge_s + u.wall_s;
        let (d, spans, wall) = traced_serve(
            &spec,
            &ClientCfg {
                traced: true,
                ..ClientCfg::default()
            },
        )?;
        tally(&mut o, &d, &want);
        let traced = d.adjacency_s + d.initial_converge_s + d.wall_s;
        reps.push(serve_layers(&d, &spans, wall, traced / untraced));
        o.spans = spans;
    }
    o.metrics = medians(&reps);
    o.note("traced.reps", reps.len());
    Ok(o)
}

/// One traced serve repetition: generate the trace and drive it with
/// spans on.  Returns the client's output, the spans, and the traced wall.
fn traced_serve(spec: &TraceSpec, cfg: &ClientCfg) -> Result<(ClientOut, Vec<Span>, f64), String> {
    spans::start();
    let t = Instant::now();
    let run = timed("setup.generate", 0, || generate_trace(spec))
        .map_err(|e| e.to_string())
        .and_then(|trace| replay(&trace, cfg));
    let wall = secs(t.elapsed());
    let spans = spans::stop();
    Ok((run?, spans, wall))
}

/// Per-layer metrics of one traced serve repetition.
fn serve_layers(
    d: &ClientOut,
    spans: &[Span],
    wall_s: f64,
    overhead: f64,
) -> BTreeMap<&'static str, f64> {
    let mut m = BTreeMap::new();
    let selfs = spans::self_times(spans);
    let has_child: Vec<bool> = {
        let mut v = vec![false; spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                v[p] = true;
            }
        }
        v
    };
    // A flush that found nothing pending does no work; count the others.
    let flushes: Vec<usize> = (0..spans.len())
        .filter(|&k| spans[k].name == "serve.flush" && has_child[k])
        .collect();
    let flush_us: Vec<f64> = flushes
        .iter()
        .map(|&k| spans[k].dur() as f64 / 1e3)
        .collect();
    let by = spans::durations(spans);
    let durs_us = |name: &str| -> Vec<f64> {
        by.get(name)
            .map(|d| d.iter().map(|&ns| ns as f64 / 1e3).collect())
            .unwrap_or_default()
    };
    let busy_ns = |name: &str| by.get(name).map_or(0, |d| d.iter().sum::<u64>());
    let busy_ms = |name: &str| busy_ns(name) as f64 / 1e6;
    let count = |name: &str| by.get(name).map_or(0.0, |d| d.len() as f64);
    let p50 = |v: &[f64]| if v.is_empty() { 0.0 } else { median(v) };
    let p99 = |v: &[f64]| {
        if v.is_empty() {
            0.0
        } else {
            tail(v, 0.99).value
        }
    };

    m.insert("serve.flush.count", flushes.len() as f64);
    m.insert("serve.flush.busy_ms", flush_us.iter().sum::<f64>() / 1e3);
    m.insert("serve.flush.p99_us", p99(&flush_us));
    m.insert(
        "serve.flush.other_self_ms",
        flushes.iter().map(|&k| selfs[k] as f64).sum::<f64>() / 1e6,
    );
    m.insert("serve.query.lookup_p50_us", p50(&durs_us("serve.query")));
    m.insert("serve.submit.busy_ms", busy_ms("serve.submit"));
    let c = &d.sink;
    m.insert(
        "serve.coalesce_ratio",
        ratio(c.batch_dirty as f64, c.naive_dirty as f64),
    );
    m.insert("adjacency.rebuild.count", count("adjacency.rebuild"));
    m.insert("adjacency.rebuild.busy_ms", busy_ms("adjacency.rebuild"));
    let sigma_ns = busy_ns("sigma.round");
    m.insert("sigma.rounds", c.rounds as f64);
    m.insert("sigma.rows_recomputed", c.rows_recomputed as f64);
    m.insert("sigma.rows_changed", c.rows_changed as f64);
    m.insert(
        "sigma.useful_ratio",
        ratio(c.rows_changed as f64, c.rows_recomputed as f64),
    );
    m.insert("sigma.busy_ms", sigma_ns as f64 / 1e6);
    m.insert("sigma.round_p50_us", p50(&durs_us("sigma.round")));
    m.insert(
        "sigma.ns_per_entry",
        ratio(sigma_ns as f64, c.rows_recomputed as f64 * d.nodes as f64),
    );
    if let Some(p) = &d.pool {
        m.insert("pool.epochs", p.epochs as f64);
        m.insert("pool.jobs", p.jobs as f64);
        let on_workers: u64 = p.worker_jobs.iter().sum();
        m.insert("pool.worker_share", ratio(on_workers as f64, p.jobs as f64));
    }
    let wal = durs_us("checkpoint.wal_append");
    m.insert("checkpoint.wal_append.count", wal.len() as f64);
    m.insert("checkpoint.wal_append_p50_us", p50(&wal));
    m.insert("checkpoint.wal_append_p99_us", p99(&wal));
    m.insert("checkpoint.wal_bytes", d.wal_bytes as f64);
    let snaps = durs_us("checkpoint.snapshot");
    m.insert("checkpoint.snapshot.count", snaps.len() as f64);
    m.insert("checkpoint.snapshot_p50_us", p50(&snaps));
    m.insert("checkpoint.snapshot_bytes", d.snapshot_bytes as f64);
    m.insert(
        "checkpoint.load_snapshot_us",
        busy_ms("checkpoint.load_snapshot") * 1e3,
    );
    m.insert("checkpoint.restore_us", busy_ms("serve.restore") * 1e3);
    m.insert(
        "checkpoint.wal_tail_replay_us",
        busy_ms("recovery.wal_tail_replay") * 1e3,
    );
    m.insert("checkpoint.recovery_ms", busy_ms("checkpoint.recover"));
    m.insert("openloop.sched_lag_p99_us", p99(&d.lag_us));
    m.insert("setup.generate_ms", busy_ms("setup.generate"));
    m.insert("setup.adjacency_ms", busy_ms("setup.adjacency"));
    m.insert(
        "setup.initial_converge_ms",
        busy_ms("setup.initial_converge"),
    );
    coverage(&mut m, spans, wall_s, overhead);
    m
}

/// `num / den`, or 0 when nothing was counted.
fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// `trace.*`: how much of the traced wall the top-level spans cover.
fn coverage(m: &mut BTreeMap<&'static str, f64>, spans: &[Span], wall_s: f64, overhead: f64) {
    let top = spans::top_level_ns(spans) as f64 / 1e9;
    m.insert("trace.overhead_ratio", overhead);
    m.insert("trace.coverage", top / wall_s);
    m.insert("trace.unattributed_ms", (wall_s - top).max(0.0) * 1e3);
}

/// Per-metric medians across repetitions; every catalogued per-layer
/// metric is present (0 where no repetition reported it).
fn medians(reps: &[BTreeMap<&'static str, f64>]) -> BTreeMap<&'static str, f64> {
    crate::metrics::PER_LAYER
        .iter()
        .map(|&(name, _)| {
            let v: Vec<f64> = reps.iter().filter_map(|r| r.get(name).copied()).collect();
            (name, if v.is_empty() { 0.0 } else { median(&v) })
        })
        .collect()
}

// ---------------------------------------------------------------------
// durable-open
// ---------------------------------------------------------------------

fn durable(args: &RunArgs) -> Result<Outcome, String> {
    let mut o = Outcome::default();
    let spec = durable_spec(args.seed);
    let mut setups = Setups::default();
    let trace = serve_setup(&mut o, &mut Setups::default(), &spec, DURABLE_THREADS)?;
    let store = args.out_dir.join("store-durable");
    let serve_store = args.out_dir.join("store-serve-path");
    let want = verify_serve(
        &mut o,
        &trace,
        &ClientCfg {
            verify: true,
            ..durable_cfg(&store)
        },
        Some(&serve_store),
    )?;

    let mut eps = Vec::new();
    let mut raw_eps = Vec::new();
    let mut query_us = Vec::new();
    let mut lag_us = Vec::new();
    let mut recovery = Vec::new();
    let mut scales = Vec::new();
    let mut idle_probes = Vec::new();
    let mut gauge = Gauge::new();
    let t0 = Instant::now();
    while eps.len() < 2 || secs(t0.elapsed()) < args.seconds {
        gauge.mark();
        serve_setup(&mut o, &mut setups, &spec, DURABLE_THREADS)?;
        setups.scale(gauge.scale(SERVE_SPEED_EXPONENT));
        let k = eps.len() as u64;
        let (trace, want) = if k == 0 {
            (trace.clone(), want.clone())
        } else {
            fresh_trace(&mut o, &durable_spec(sub_seed(args.seed, k)))?
        };
        // The session reads the machine's speed in its own idle gaps.
        let d = replay(
            &trace,
            &ClientCfg {
                probe_idle: Some(SERVE_SPEED_EXPONENT),
                ..open_loop(&store)
            },
        )?;
        tally(&mut o, &d, &want);
        let scale = d.idle_scale;
        scales.push(scale);
        idle_probes.push(d.idle_probes as f64);
        // Capacity under the open loop: events per second of busy time.
        let capacity = d.events as f64 / (d.wall_s - d.idle_s);
        raw_eps.push(capacity);
        eps.push(capacity / scale);
        // A query's latency is time spent on work (its own and the work
        // it waited behind), so it scales like any other time.
        query_us.push(scaled(&d.query_us, scale));
        lag_us.extend_from_slice(&d.lag_us);
        recovery.extend(d.recovery_s);
    }
    o.metrics.insert("events_per_s", median(&eps));
    o.note("events_per_s.per_repetition", list(&eps));
    note_speed(&mut o, &gauge, &scales, "events_per_s", &raw_eps);
    o.note("sessions", eps.len());
    o.note("offered_rate_per_s", DURABLE_RATE);
    o.note("speed.idle_probes_per_session", median(&idle_probes));
    o.latency(&query_us);
    o.note("sched_lag_p99_us", tail(&lag_us, 0.99).value);
    o.note("recovery_ms", median(&recovery) * 1e3);
    setups.report(&mut o);
    Ok(o)
}

fn durable_traced(args: &RunArgs) -> Result<Outcome, String> {
    let mut o = Outcome::default();
    let spec = durable_spec(args.seed);
    let trace = generate_trace(&spec).map_err(|e| e.to_string())?;
    let store = args.out_dir.join("store-durable");
    let serve_store = args.out_dir.join("store-serve-path");
    let want = verify_serve(
        &mut o,
        &trace,
        &ClientCfg {
            verify: true,
            ..durable_cfg(&store)
        },
        Some(&serve_store),
    )?;
    let mut reps = Vec::new();
    let t0 = Instant::now();
    while reps.is_empty() || secs(t0.elapsed()) < args.seconds {
        let u = replay(&trace, &open_loop(&store))?;
        tally(&mut o, &u, &want);
        let (d, spans, wall) = traced_serve(
            &spec,
            &ClientCfg {
                traced: true,
                ..open_loop(&store)
            },
        )?;
        tally(&mut o, &d, &want);
        // The open loop's wall is fixed by its schedule; compare busy time.
        let overhead = (d.wall_s - d.idle_s) / (u.wall_s - u.idle_s);
        reps.push(serve_layers(&d, &spans, wall, overhead));
        o.spans = spans;
    }
    o.metrics = medians(&reps);
    o.note("traced.reps", reps.len());
    Ok(o)
}

// ---------------------------------------------------------------------
// scale-asgraph
// ---------------------------------------------------------------------

/// One blocked fixed point on `adj`: the digest, the per-block times
/// (seconds) and their speed scales, the entries computed (rows × block
/// width) and the wall (the sum of the block times when a gauge read
/// between blocks).
struct Converged {
    digest: String,
    blocks_s: Vec<f64>,
    scales: Vec<f64>,
    rows: u64,
    rounds: u64,
    entries: f64,
    wall_s: f64,
}

fn converge_blocked(
    adj: &AdjacencyMatrix<BoundedHopCount>,
    mut gauge: Option<&mut Gauge>,
) -> Converged {
    let n = adj.node_count();
    let alg = BoundedHopCount::new(n as u64);
    let blocks = n.div_ceil(SCALE_BLOCK);
    let mut blocks_s = Vec::with_capacity(blocks);
    let mut scales = Vec::with_capacity(blocks);
    let mut entries = 0f64;
    let t0 = Instant::now();
    let mut last = t0;
    let out = timed("blocked.fixed_point", 0, || {
        // Block spans run from one on_block call to the next.
        let mut open = spans::enter("blocked.block", 0);
        let out = blocked_fixed_point(&alg, adj, SCALE_BLOCK, n, |b, _rounds, rows| {
            blocks_s.push(secs(last.elapsed()));
            if let Some(g) = gauge.as_deref_mut() {
                scales.push(g.scale(SCALE_SPEED_EXPONENT));
            }
            last = Instant::now();
            let w = SCALE_BLOCK.min(n - b * SCALE_BLOCK);
            entries += rows as f64 * w as f64;
            spans::exit(open.take());
            if b + 1 < blocks {
                open = spans::enter("blocked.block", b as u64 + 1);
            }
        });
        spans::exit(open);
        out
    });
    let wall_s = if gauge.is_some() {
        blocks_s.iter().sum()
    } else {
        secs(t0.elapsed())
    };
    Converged {
        digest: out.digest,
        blocks_s,
        scales,
        rows: out.row_recomputations,
        rounds: out.rounds_total,
        entries,
        wall_s,
    }
}

fn scale_adjacency(shape: &Topology<()>) -> AdjacencyMatrix<BoundedHopCount> {
    AdjacencyMatrix::from_topology(&shape.with_weights(|_, _| 1u64))
}

/// The digest a correct fixed point must have: one BFS per destination,
/// and for the default seed the digest `scenarios scale-run` printed.
fn scale_expected(o: &mut Outcome, seed: u64, shape: &Topology<()>) -> String {
    let want = bfs_blocked_digest(shape);
    if seed == 1 {
        o.check(
            want == SCALE_DIGEST_SEED1,
            &format!("BFS digest {want} vs scale-run {SCALE_DIGEST_SEED1}"),
        );
    }
    o.note("bfs_digest", &want);
    want
}

fn scale(args: &RunArgs) -> Result<Outcome, String> {
    let mut o = Outcome::default();
    let mut setups = Setups::default();
    let mut walls = Vec::new();
    let mut raw_walls = Vec::new();
    let mut rates = Vec::new();
    let mut block_p50 = Vec::new();
    let mut blocks_us = Vec::new();
    let mut scales = Vec::new();
    let mut gauge = Gauge::new();
    let t0 = Instant::now();
    while walls.len() < 3 || secs(t0.elapsed()) < args.seconds {
        // A fresh fabric per convergence, as the serve workloads take a
        // fresh trace per replay; the first is the seed's own, and its
        // set-up is timed a few times.
        let k = walls.len() as u64;
        let mut built = None;
        for _ in 0..SETUP_REPS {
            let t = Instant::now();
            let shape = scale_graph(sub_seed(args.seed, k));
            let adj = scale_adjacency(&shape);
            setups.total.push(secs(t.elapsed()));
            built = Some((shape, adj));
        }
        let (shape, adj) = built.expect("set-up ran");
        setups.scale(gauge.scale(SCALE_SPEED_EXPONENT));
        let want = if k == 0 {
            scale_expected(&mut o, args.seed, &shape)
        } else {
            bfs_blocked_digest(&shape)
        };
        // The gauge reads between blocks, outside their times, so each
        // block is scaled by the machine's speed around it.
        let c = converge_blocked(&adj, Some(&mut gauge));
        o.check(
            c.digest == want,
            &format!("blocked digest {} vs BFS {want}", c.digest),
        );
        let wall: f64 = c.blocks_s.iter().zip(&c.scales).map(|(b, s)| b * s).sum();
        scales.push(wall / c.wall_s);
        raw_walls.push(c.wall_s);
        walls.push(wall);
        // A σ row recomputation is this workload's unit of work.
        rates.push(c.rows as f64 / wall);
        let us: Vec<f64> = c
            .blocks_s
            .iter()
            .zip(&c.scales)
            .map(|(b, s)| b * s * 1e6)
            .collect();
        block_p50.push(median(&us));
        blocks_us.extend(us);
    }
    setups.report(&mut o);
    o.metrics.insert("events_per_s", median(&rates));
    o.note("events_per_s.per_repetition", list(&rates));
    o.metrics.insert("converge_s", median(&walls));
    note_speed(&mut o, &gauge, &scales, "converge_s", &raw_walls);
    o.note("fabrics", walls.len());
    // A "query" here is one destination block's routes: the median of
    // each fabric's median block, and the tail of all blocks pooled (a
    // fabric has too few for a tail).
    o.metrics.insert("query_p50_us", median(&block_p50));
    o.tail("query_p99_us", &blocks_us, 0.99);
    Ok(o)
}

fn scale_traced(args: &RunArgs) -> Result<Outcome, String> {
    let mut o = Outcome::default();
    let want = scale_expected(&mut o, args.seed, &scale_graph(args.seed));
    let mut reps = Vec::new();
    let t0 = Instant::now();
    let untraced_rep = || converge_blocked(&scale_adjacency(&scale_graph(args.seed)), None);
    let traced_rep = || {
        spans::start();
        let t = Instant::now();
        let shape = timed("setup.generate", 0, || scale_graph(args.seed));
        let adj = timed("setup.adjacency", 0, || scale_adjacency(&shape));
        let c = converge_blocked(&adj, None);
        let wall = secs(t.elapsed());
        (c, spans::stop(), wall)
    };
    while reps.len() < 2 || secs(t0.elapsed()) < args.seconds {
        // Alternate which side runs first, so that drift of the machine
        // between the two does not read as tracing cost.
        let (untraced, (c, spans, wall)) = if reps.len() % 2 == 0 {
            (untraced_rep(), traced_rep())
        } else {
            let traced = traced_rep();
            (untraced_rep(), traced)
        };
        o.check(
            untraced.digest == want,
            "untraced blocked digest differs from BFS",
        );
        o.check(c.digest == want, "traced blocked digest differs from BFS");

        let by = spans::durations(&spans);
        let ms = |name: &str| -> Vec<f64> {
            by.get(name)
                .map(|d| d.iter().map(|&ns| ns as f64 / 1e6).collect())
                .unwrap_or_default()
        };
        let busy_ms = |name: &str| ms(name).iter().sum::<f64>();
        let block_ms = ms("blocked.block");
        let mut m = BTreeMap::new();
        m.insert("blocked.blocks", block_ms.len() as f64);
        m.insert("blocked.rounds_total", c.rounds as f64);
        m.insert("blocked.rows_recomputed", c.rows as f64);
        m.insert("blocked.block_p50_ms", median(&block_ms));
        m.insert(
            "blocked.ns_per_entry",
            busy_ms("blocked.fixed_point") * 1e6 / c.entries,
        );
        m.insert("setup.generate_ms", busy_ms("setup.generate"));
        m.insert("setup.adjacency_ms", busy_ms("setup.adjacency"));
        coverage(&mut m, &spans, wall, c.wall_s / untraced.wall_s);
        reps.push(m);
        o.spans = spans;
    }
    o.metrics = medians(&reps);
    o.note("traced.reps", reps.len());
    Ok(o)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edges(t: &Topology<()>) -> Vec<(usize, usize)> {
        t.edges().map(|(i, j, _)| (i, j)).collect()
    }

    #[test]
    fn same_seed_gives_the_same_inputs() {
        for spec in [churn_spec, durable_spec] {
            let a = generate_trace(&spec(7)).expect("trace");
            let b = generate_trace(&spec(7)).expect("trace");
            assert_eq!(a.to_text(), b.to_text());
        }
        assert_eq!(edges(&scale_graph(7)), edges(&scale_graph(7)));
    }

    #[test]
    fn different_seeds_give_different_inputs() {
        for spec in [churn_spec, durable_spec] {
            let a = generate_trace(&spec(7)).expect("trace");
            let b = generate_trace(&spec(8)).expect("trace");
            assert_ne!(a.events, b.events);
        }
        assert_ne!(edges(&scale_graph(7)), edges(&scale_graph(8)));
    }

    #[test]
    fn traces_have_the_advertised_mix() {
        let t = generate_trace(&churn_spec(1)).expect("trace");
        assert_eq!(t.events.len(), CHURN_EVENTS);
        let q = t.query_count() as f64 / t.events.len() as f64;
        assert!((q - 0.1).abs() < 0.02, "query share {q}");
        let t = generate_trace(&durable_spec(1)).expect("trace");
        let q = t.query_count() as f64 / t.events.len() as f64;
        assert!((q - 0.2).abs() < 0.03, "query share {q}");
    }
}
