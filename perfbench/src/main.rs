//! The repository's benchmark: one run of one workload.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload rmat --seed 1 --seconds 36 --trace 0
//! ```
//!
//! A run generates its inputs from `--seed` and sets up (generate and
//! write the graph file, one warm-up job; three times). It then
//! measures for `--seconds` in rounds: analyst jobs (load, four
//! algorithms, store) alternating `nproc` threads and one thread, then
//! a fresh serve engine through the phases `lo` (open loop, reads),
//! `hi` (open loop beside a writer thread) and `peak` (closed loop).
//! After the clock stops, every job answer and the serve answers are
//! checked against serial references.
//!
//! With `--trace 1` the jobs alternate traced and untraced at `nproc`
//! threads, every other `lo` query is traced, and the run prints the
//! per-layer metrics instead of the end-to-end ones.
//!
//! The last line of standard output is the result; the line before it
//! is the run's record (host, commit, seed, rationale, layer map, phase
//! health). Both are also written under `perfbench/results/`, with the
//! spans of a traced run.

mod batch;
mod check;
mod inputs;
mod oracle;
mod report;
mod serve;
mod stats;
mod trace;

use std::fs::File;
use std::io::BufWriter;
use std::path::{Path, PathBuf};
use std::time::Instant;

use egraph_core::serve::{ServeConfig, ServeEngine, ServeGraph};
use egraph_core::types::{EdgeList, WEdge};
use egraph_parallel::{telemetry, with_pool, ThreadPool};

use batch::{JobOutput, JobRecord, STEPS};
use check::Tally;
use inputs::{GraphKind, Workload};
use report::{json_str, MetricSet, END_TO_END, PER_LAYER};
use serve::{PhaseRecord, WriteRecord};
use stats::{median, tail};
use trace::Tracer;

/// Where runs keep their scratch files and records, relative to the
/// checkout root the benchmark runs from.
const WORK_DIR: &str = "perfbench/work";
const RESULTS_DIR: &str = "perfbench/results";

/// Set-up repetitions whose median `setup_s` reports.
const SETUP_REPS: usize = 3;

/// Shares of `--seconds` given to the jobs and to each serve phase.
const JOB_SHARE: f64 = 0.3;
const LO_SHARE: f64 = 0.2;
const HI_SHARE: f64 = 0.25;
const PEAK_SHARE: f64 = 0.25;

/// A run is this many rounds of jobs, then `lo`, `hi` and `peak` on a
/// fresh engine. Each phase's samples are pooled over the rounds, so a
/// burst of load from outside the run skews a minority of them.
const ROUNDS: usize = 5;

/// Share of `hi` the writer spends applying and compacting update
/// batches of about 0.1 % of the edges each. Fixing the share, not the
/// rate, keeps `hi` alike across graphs and hosts whose compactions
/// differ fivefold. Writing back to back instead put every `hi` query
/// beside a compaction, where four busy threads share the cores and the
/// median latency moved by a quarter from run to run.
const WRITE_DUTY: f64 = 0.25;
const WRITE_FRACTION: usize = 1024;

/// Answers of `hi` and `peak` the oracle checks (every `lo` answer is
/// checked).
const SAMPLED_ANSWERS: usize = 8;

/// Tries an open-loop phase gets in a round. A try whose generator fell
/// behind its schedule ([`PhaseRecord::valid`]) is thrown away and the
/// phase runs again; a phase still invalid after the last try fails the
/// run.
const PHASE_ATTEMPTS: usize = 3;

#[derive(Debug)]
struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(inputs::workload(&value).ok_or_else(|| {
                    let names: Vec<_> = inputs::WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {value} (expected one of {names:?})")
                })?)
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|s| (1..=600).contains(s))
                        .ok_or("--seconds takes a whole number from 1 to 600")?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Peak resident set since the last [`reset_peak_rss`], in MB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Resets the kernel's peak-RSS mark, so set-up and the oracle do not
/// count toward the measured phases. Returns whether it worked.
fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// The commit of the checkout, when it is a git work tree.
fn commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unavailable".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(&format!(".git/{reference}"))
        .map(|s| s.trim().to_string())
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unavailable".into())
}

fn host(perf_available: bool) -> String {
    let l3 = std::fs::read_to_string("/sys/devices/system/cpu/cpu0/cache/index3/size")
        .map_or("unavailable".into(), |s| s.trim().to_string());
    let ram_mb = std::fs::read_to_string("/proc/meminfo")
        .ok()
        .and_then(|m| {
            let kb: f64 = m.lines().next()?.split_whitespace().nth(1)?.parse().ok()?;
            Some(format!("{:.0}", kb / 1024.0))
        })
        .unwrap_or_else(|| "null".into());
    format!(
        "{{\"nproc\": {}, \"l3\": {}, \"ram_mb\": {ram_mb}, \"perf_counters\": {perf_available}}}",
        nproc(),
        json_str(&l3)
    )
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

struct Setup {
    seconds: Vec<f64>,
    graphgen: Vec<f64>,
    engine_start: Vec<f64>,
}

/// One round: jobs, then a fresh serve engine through `lo`, `hi` and
/// `peak`.
struct Round {
    jobs: Vec<(JobRecord, JobOutput, bool)>,
    lo: PhaseRecord,
    hi: PhaseRecord,
    peak: PhaseRecord,
    writes: Vec<WriteRecord>,
    updates: Vec<Vec<oracle::Update>>,
    /// Open-loop tries thrown away because their generator fell behind;
    /// their answers still count toward `attempted` and `failed`.
    discarded: Vec<(&'static str, PhaseRecord)>,
    /// Peak resident MB while the engine served.
    serve_rss_mb: f64,
}

/// Everything a run measured, before the oracle looks at it.
struct Measured {
    setup: Setup,
    rounds: Vec<Round>,
    job_errors: Vec<String>,
    /// Peak resident MB of the first round's jobs.
    job_rss_mb: f64,
    rss_reset: bool,
    perf_available: bool,
    edges: usize,
}

impl Measured {
    fn jobs(&self) -> impl Iterator<Item = &(JobRecord, JobOutput, bool)> {
        self.rounds.iter().flat_map(|r| r.jobs.iter())
    }

    fn writes(&self) -> impl Iterator<Item = &WriteRecord> {
        self.rounds.iter().flat_map(|r| r.writes.iter())
    }

    /// One phase pooled over the rounds.
    fn phase(&self, pick: impl Fn(&Round) -> &PhaseRecord) -> PhaseRecord {
        let mut out = PhaseRecord::default();
        for r in &self.rounds {
            out.absorb(pick(r).clone());
        }
        out
    }
}

fn write_graph(path: &Path, graph: &EdgeList<WEdge>) -> Result<(), String> {
    let file = File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
    egraph_storage::write_edge_list(BufWriter::new(file), graph).map_err(|e| e.to_string())
}

fn read_graph(path: &Path) -> Result<EdgeList<WEdge>, String> {
    let file = File::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
    egraph_storage::read_edge_list(std::io::BufReader::new(file)).map_err(|e| e.to_string())
}

fn start_engine(graph: EdgeList<WEdge>) -> (ServeEngine, f64) {
    let t = Instant::now();
    let engine = ServeEngine::start(
        ServeGraph::Weighted(graph),
        ServeConfig {
            threads: nproc(),
            ..ServeConfig::default()
        },
    );
    engine.wait_ready();
    (engine, t.elapsed().as_secs_f64())
}

/// Inputs derived from the generated graph.
struct Derived {
    edges: usize,
    sources: Vec<u32>,
    root: u32,
    updates: inputs::Updates,
}

impl Derived {
    fn new(seed: u64, graph: &EdgeList<WEdge>) -> Self {
        let (n, edges) = (graph.num_vertices(), graph.num_edges());
        let arcs = inputs::arcs(graph);
        let sources = inputs::sources(n, &arcs);
        Self {
            edges,
            root: inputs::root(seed, n, &arcs, &sources),
            updates: inputs::Updates::new(seed, n, &arcs, (edges / WRITE_FRACTION).max(1)),
            sources,
        }
    }
}

fn measure(args: &Args, dir: &Path, origin: Instant, tracer: &Tracer) -> Result<Measured, String> {
    let w = args.workload;
    let pool = ThreadPool::new(nproc());
    let single = ThreadPool::new(1);
    let writer_pool = ThreadPool::new(nproc());
    let graph_file = dir.join("graph.egr");
    let quiet = Tracer::new(false, origin);

    let secs = args.seconds as f64 / ROUNDS as f64;

    // Set-up: generate and write the input, then one warm-up job, several
    // times.
    let mut setup = Setup {
        seconds: Vec::new(),
        graphgen: Vec::new(),
        engine_start: Vec::new(),
    };
    let mut derived: Option<Derived> = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let graph = tracer.span("graphgen", "graphgen.generate", None, |_| {
            with_pool(&pool, || inputs::graph(w.graph, args.seed))
        });
        setup.graphgen.push(t.elapsed().as_secs_f64());
        tracer.span("storage", "storage.write_edge_list", None, |_| {
            write_graph(&graph_file, &graph)
        })?;
        let generate = t.elapsed().as_secs_f64();
        // Deriving the root, sources and updates is the benchmark's own
        // work, done once and left out of the set-up time.
        let d = derived.get_or_insert_with(|| Derived::new(args.seed, &graph));
        drop(graph);
        let t = Instant::now();
        batch::run_job(&graph_file, dir, &pool, d.root, &quiet, false)?;
        setup.seconds.push(generate + t.elapsed().as_secs_f64());
    }
    let Derived {
        edges,
        sources,
        root,
        mut updates,
    } = derived.expect("at least one set-up repetition");
    let rss_reset = reset_peak_rss();
    let mut job_rss_mb = f64::NAN;

    let mut queries = inputs::Queries::new(args.seed, &sources);
    let mut rounds = Vec::new();
    let mut job_errors = Vec::new();
    let mut perf_available = false;
    for round in 0..ROUNDS {
        let mut jobs = Vec::new();
        // Whole pairs of jobs, as many as fit the round's job budget
        // (at least one).
        let budget = secs * JOB_SHARE;
        let t = Instant::now();
        let mut pair = 0.0;
        while jobs.is_empty() || t.elapsed().as_secs_f64() + pair <= budget {
            let pair_start = Instant::now();
            // A traced run alternates traced and untraced jobs at
            // `nproc` threads, so the difference is the tracing
            // overhead; an untraced run alternates `nproc` and one
            // thread.
            let plan: [(&ThreadPool, bool); 2] = if args.trace {
                [(&pool, true), (&pool, false)]
            } else {
                [(&pool, false), (&single, false)]
            };
            for (p, traced) in plan {
                let tr = if traced { tracer } else { &quiet };
                // Pool counters are part of tracing: on for traced jobs
                // only.
                if traced {
                    telemetry::enable();
                } else {
                    telemetry::disable();
                }
                match batch::run_job(&graph_file, dir, p, root, tr, traced) {
                    Ok((record, output)) => jobs.push((record, output, traced)),
                    Err(e) => job_errors.push(e),
                }
            }
            pair = pair_start.elapsed().as_secs_f64();
            if jobs.is_empty() {
                break;
            }
        }
        telemetry::disable();
        // The first round's jobs run before any engine has allocated,
        // so their peak is the job's own.
        if round == 0 {
            job_rss_mb = peak_rss_mb().unwrap_or(f64::NAN);
        }
        reset_peak_rss();

        // Each round serves from a fresh engine: its start is set-up.
        let graph = read_graph(&graph_file)?;
        let (engine, seconds) = tracer.span("serve", "serve.start", None, |_| start_engine(graph));
        setup.engine_start.push(seconds);
        perf_available |= engine.wave_perf().is_some_and(|p| !p.available.is_empty());
        // A traced run traces every other `lo` query: the two halves
        // give the tracing overhead on latency.
        let mut discarded = Vec::new();
        let (lo, _) = until_valid("lo", &mut discarded, || {
            let lo = tracer.span("serve", "phase.lo", None, |_| {
                serve::open_loop(
                    &engine,
                    tracer,
                    w.lo_qps,
                    secs * LO_SHARE,
                    &mut queries,
                    &|i| i % 2 == 0,
                )
            });
            (lo, ())
        })?;
        // Every try of `hi` writes, so the writes and batches of thrown
        // away tries stay in the round for the oracle's epoch replay.
        let (hi, tries) = until_valid("hi", &mut discarded, || {
            tracer.span("serve", "phase.hi", None, |_| {
                std::thread::scope(|s| {
                    let writer = s.spawn(|| {
                        serve::writer(
                            &engine,
                            tracer,
                            &writer_pool,
                            &mut updates,
                            secs * HI_SHARE,
                            WRITE_DUTY,
                        )
                    });
                    let hi = serve::open_loop(
                        &engine,
                        tracer,
                        w.hi_qps,
                        secs * HI_SHARE,
                        &mut queries,
                        &|_| true,
                    );
                    (hi, writer.join().expect("writer thread panicked"))
                })
            })
        })?;
        let (writes, batches): (Vec<_>, Vec<_>) = tries.into_iter().flatten().unzip();
        let peak = tracer.span("serve", "phase.peak", None, |_| {
            serve::closed_loop(&engine, tracer, secs * PEAK_SHARE, &mut queries)
        });
        engine.shutdown();
        rounds.push(Round {
            jobs,
            lo,
            hi,
            peak,
            writes,
            updates: batches,
            discarded,
            serve_rss_mb: peak_rss_mb().unwrap_or(f64::NAN),
        });
    }

    Ok(Measured {
        setup,
        rounds,
        job_errors,
        job_rss_mb,
        rss_reset,
        perf_available,
        edges,
    })
}

/// Runs `attempt` (one try of the open-loop phase `name`) until its
/// generator keeps to schedule, at most [`PHASE_ATTEMPTS`] times. Tries
/// thrown away go to `discarded`; what every try returned beside its
/// phase is kept, in order.
fn until_valid<T>(
    name: &'static str,
    discarded: &mut Vec<(&'static str, PhaseRecord)>,
    mut attempt: impl FnMut() -> (PhaseRecord, T),
) -> Result<(PhaseRecord, Vec<T>), String> {
    let mut side = Vec::new();
    for tried in 1..=PHASE_ATTEMPTS {
        let (phase, t) = attempt();
        side.push(t);
        if phase.valid() {
            return Ok((phase, side));
        }
        let why = format!(
            "phase {name} is invalid: {} of {} sends were more than {} of the {:.2} ms period late (worst {:.2} ms)",
            phase.late_sends,
            phase.queries.len(),
            serve::MAX_LAG_SHARE,
            phase.period * 1e3,
            phase.gen_lag_max * 1e3
        );
        if tried == PHASE_ATTEMPTS {
            return Err(format!("{why}, in each of {PHASE_ATTEMPTS} tries"));
        }
        eprintln!("perfbench: {why}; running it again");
        discarded.push((name, phase));
    }
    unreachable!("the last try returns")
}

/// Checks every job answer and the serve answers against serial
/// references on the regenerated input.
fn verify(args: &Args, m: &Measured, tally: &mut Tally) {
    let graph = with_pool(&ThreadPool::new(nproc()), || {
        inputs::graph(args.workload.graph, args.seed)
    });
    let n = graph.num_vertices();
    let base = inputs::arcs(&graph);
    drop(graph);
    let sources = inputs::sources(n, &base);
    let root = inputs::root(args.seed, n, &base, &sources);

    let refs = check::JobReferences::new(n, &base, root);
    for (_, output, _) in m.jobs() {
        refs.check(output, tally);
    }
    drop(refs);
    // A failed job loses all four of its answers.
    for e in &m.job_errors {
        for step in STEPS {
            tally.check(step.algo, Err(e.clone()));
        }
    }

    let mut rng = inputs::Rng::new(args.seed, inputs::stream::SAMPLE);
    for round in &m.rounds {
        // Every `lo` answer and a seeded sample of `hi` and `peak`.
        let mut checked: Vec<&serve::QueryRecord> = round.lo.queries.iter().collect();
        for phase in [&round.hi, &round.peak] {
            let k = phase.queries.len();
            let picks: std::collections::BTreeSet<usize> =
                (0..SAMPLED_ANSWERS.min(k)).map(|_| rng.below(k)).collect();
            checked.extend(picks.into_iter().map(|i| &phase.queries[i]));
        }
        for q in [&round.lo, &round.hi, &round.peak]
            .into_iter()
            .chain(round.discarded.iter().map(|(_, p)| p))
            .flat_map(|p| p.queries.iter())
        {
            if let Some(e) = &q.error {
                tally.check("query", Err(e.clone()));
            } else if !checked.iter().any(|c| std::ptr::eq(*c, q)) {
                tally.check("query", Ok(()));
            }
        }
        for w in &round.writes {
            tally.check("update", w.error.clone().map_or(Ok(()), Err));
        }
        checked.retain(|q| q.answer.is_some());
        for ok in check::match_epochs(n, &base, &checked, &round.writes, &round.updates) {
            let verdict = if ok {
                Ok(())
            } else {
                Err("checksum matches no epoch in flight".into())
            };
            tally.check("serve answer", verdict);
        }
    }
}

fn ms(v: Option<f64>) -> f64 {
    v.map_or(f64::NAN, |s| s * 1e3)
}

fn latencies(p: &PhaseRecord) -> Vec<f64> {
    p.queries.iter().filter_map(|q| q.latency()).collect()
}

fn tail_json(name: &str, values: &[f64]) -> String {
    match tail(values) {
        Some(t) => format!(
            "{}: {{\"percentile\": {}, \"beyond\": {}, \"samples\": {}}}",
            json_str(name),
            t.percentile,
            t.beyond,
            t.samples
        ),
        None => format!("{}: null", json_str(name)),
    }
}

fn end_to_end(m: &Measured) -> MetricSet {
    let mut out = MetricSet::new(&END_TO_END);
    let setup = median(&m.setup.seconds).unwrap_or(f64::NAN)
        + median(&m.setup.engine_start).unwrap_or(f64::NAN);
    out.set("setup_s", setup);
    let wall = |threads: usize| -> Vec<f64> {
        m.jobs()
            .filter(|(r, _, _)| r.threads == threads)
            .map(|(r, _, _)| r.wall)
            .collect()
    };
    let job = median(&wall(nproc())).unwrap_or(f64::NAN);
    out.set("job_s", job);
    let single = if nproc() == 1 {
        Some(job)
    } else {
        median(&wall(1))
    };
    out.set("speedup_vs_1t", single.map_or(f64::NAN, |s| s / job));
    out.set("peak_rss_mb", m.job_rss_mb);
    let (lo, hi, peak) = (m.phase(|r| &r.lo), m.phase(|r| &r.hi), m.phase(|r| &r.peak));
    let (lo, hi) = (latencies(&lo), latencies(&hi));
    out.set("query_p50_ms_lo", ms(median(&lo)));
    out.set("query_p50_ms_hi", ms(median(&hi)));
    out.set("peak_qps", peak.completed as f64 / peak.window);
    let visible: Vec<f64> = m.writes().map(|w| w.visible).collect();
    out.set("update_visible_ms", ms(median(&visible)));
    out
}

fn per_layer(m: &Measured, tracer: &Tracer, tally: &Tally) -> MetricSet {
    let mut out = MetricSet::new(&PER_LAYER);
    let (lo, hi, peak) = (m.phase(|r| &r.lo), m.phase(|r| &r.hi), m.phase(|r| &r.peak));
    let traced: Vec<&JobRecord> = m.jobs().filter(|j| j.2).map(|j| &j.0).collect();
    let untraced: Vec<f64> = m.jobs().filter(|j| !j.2).map(|j| j.0.wall).collect();
    let per_job = |f: &dyn Fn(&JobRecord) -> f64| -> f64 {
        median(&traced.iter().map(|j| f(j)).collect::<Vec<_>>()).unwrap_or(f64::NAN)
    };
    let step = |algo: &str| {
        STEPS
            .iter()
            .position(|s| s.algo == algo)
            .expect("known step")
    };

    out.set("graphgen.s", median(&m.setup.graphgen).unwrap_or(f64::NAN));
    out.set("storage.load_s", per_job(&|j| j.load));
    out.set(
        "storage.load_mb_per_s",
        per_job(&|j| j.file_bytes as f64 / 1e6 / j.load),
    );
    out.set("storage.store_s", per_job(&|j| j.store));
    let pre = |j: &JobRecord| j.steps.iter().map(|s| s.preprocess()).sum::<f64>();
    out.set("preprocess.s", per_job(&pre));
    out.set("preprocess.share", per_job(&|j| pre(j) / j.wall));
    for (name, csr) in [
        ("preprocess.csr_both_s", "csr_both"),
        ("preprocess.csr_in_s", "csr_in"),
        ("preprocess.csr_out_s", "csr_out"),
        ("preprocess.csr_und_s", "csr_und"),
    ] {
        let i = STEPS.iter().position(|s| s.csr == csr).expect("known csr");
        out.set(name, per_job(&|j| j.steps[i].preprocess()));
    }
    // Every step builds its CSR from the whole edge array (the
    // undirected one from twice as many edges).
    let built = (STEPS.len() + 1) as f64 * m.edges as f64;
    out.set(
        "preprocess.medges_per_s",
        per_job(&|j| built / 1e6 / pre(j)),
    );
    for (secs, iters, algo) in [
        ("algo.bfs_s", "algo.bfs_iters", "bfs"),
        ("algo.pagerank_s", "algo.pagerank_iters", "pagerank"),
        ("algo.sssp_s", "algo.sssp_iters", "sssp"),
        ("algo.wcc_s", "algo.wcc_iters", "wcc"),
    ] {
        let i = step(algo);
        out.set(secs, per_job(&|j| j.steps[i].algorithm));
        out.set(iters, per_job(&|j| j.steps[i].iterations as f64));
    }
    let algo_s = |j: &JobRecord| j.steps.iter().map(|s| s.algorithm).sum::<f64>();
    let iters = |j: &JobRecord| j.steps.iter().map(|s| s.iterations).sum::<usize>() as f64;
    out.set("algo.us_per_iter", per_job(&|j| algo_s(j) / iters(j) * 1e6));
    // Only steps whose iteration log counts edges contribute.
    out.set(
        "algo.medges_per_s",
        per_job(&|j| {
            let counted: Vec<_> = j
                .steps
                .iter()
                .filter_map(|s| s.edges.map(|e| (e, s.algorithm)))
                .collect();
            let edges: u64 = counted.iter().map(|c| c.0).sum();
            let secs: f64 = counted.iter().map(|c| c.1).sum();
            if counted.is_empty() {
                f64::NAN
            } else {
                edges as f64 / 1e6 / secs
            }
        }),
    );
    let pools = |j: &JobRecord| -> (u64, u64, Vec<f64>, f64) {
        let mut busy = vec![0.0; j.threads];
        let (mut regions, mut steals, mut wall) = (0, 0, 0.0);
        for s in &j.steps {
            if let Some(p) = &s.pool {
                regions += p.regions;
                steals += p.steals;
                for (b, x) in busy.iter_mut().zip(&p.busy) {
                    *b += x;
                }
            }
            wall += s.wall;
        }
        (regions, steals, busy, wall)
    };
    out.set("pool.regions", per_job(&|j| pools(j).0 as f64));
    out.set(
        "pool.regions_per_iter",
        per_job(&|j| pools(j).0 as f64 / iters(j)),
    );
    out.set("pool.busy_s", per_job(&|j| pools(j).2.iter().sum()));
    out.set(
        "pool.utilization",
        per_job(&|j| {
            let (_, _, busy, wall) = pools(j);
            busy.iter().sum::<f64>() / (j.threads as f64 * wall)
        }),
    );
    out.set(
        "pool.imbalance",
        per_job(&|j| {
            let busy = pools(j).2;
            let mean = busy.iter().sum::<f64>() / busy.len() as f64;
            busy.iter().cloned().fold(0.0, f64::max) / mean
        }),
    );
    out.set("pool.steals", per_job(&|j| pools(j).1 as f64));

    for (name, phase) in [
        ("serve.query_tail_ms_lo", &lo),
        ("serve.query_tail_ms_hi", &hi),
    ] {
        out.set(name, ms(tail(&latencies(phase)).map(|t| t.value)));
    }
    let answers: Vec<&serve::Answer> = [&lo, &hi, &peak]
        .iter()
        .flat_map(|p| p.queries.iter().filter_map(|q| q.answer.as_ref()))
        .collect();
    let field =
        |f: &dyn Fn(&serve::Answer) -> f64| answers.iter().map(|a| f(a)).collect::<Vec<_>>();
    let (queue, exec) = (field(&|a| a.wait), field(&|a| a.exec));
    out.set("serve.queue_ms_p50", ms(median(&queue)));
    out.set("serve.queue_ms_tail", ms(tail(&queue).map(|t| t.value)));
    out.set("serve.exec_ms_p50", ms(median(&exec)));
    out.set("serve.exec_ms_tail", ms(tail(&exec).map(|t| t.value)));
    out.set("serve.demux_ms_p50", ms(median(&field(&|a| a.demux))));
    // A wave of k answers contributes k shares of 1/k: one wave.
    let waves: f64 = answers
        .iter()
        .map(|a| 1.0 / a.wave_size.max(1) as f64)
        .sum();
    out.set("serve.wave_size_mean", answers.len() as f64 / waves);
    let serve_secs = lo.seconds + hi.seconds + peak.seconds;
    out.set("serve.waves_per_s", waves / serve_secs);
    out.set(
        "serve.queue_depth_max",
        [&lo, &hi, &peak]
            .iter()
            .map(|p| p.queue_depth_max)
            .max()
            .unwrap_or(0) as f64,
    );
    let rss: Vec<f64> = m.rounds.iter().map(|r| r.serve_rss_mb).collect();
    out.set("serve.peak_rss_mb", median(&rss).unwrap_or(f64::NAN));
    let writes = |f: &dyn Fn(&WriteRecord) -> f64| median(&m.writes().map(f).collect::<Vec<_>>());
    out.set("delta.apply_ms", ms(writes(&|w| w.apply)));
    out.set(
        "delta.compact_s",
        writes(&|w| w.compact).unwrap_or(f64::NAN),
    );
    out.set(
        "delta.merged_ops",
        writes(&|w| w.merged_ops as f64).unwrap_or(f64::NAN),
    );
    out.set(
        "delta.resident_mb",
        m.writes()
            .last()
            .map_or(f64::NAN, |w| w.resident_bytes as f64 / 1e6),
    );

    out.set(
        "harness.gen_lag_ms_max",
        lo.gen_lag_max.max(hi.gen_lag_max) * 1e3,
    );
    out.set("harness.error_rate", tally.error_rate());
    let spans = tracer.spans();
    let selfs = trace::self_times(&spans);
    let job_self: Vec<f64> = spans
        .iter()
        .zip(&selfs)
        .filter(|(s, _)| s.name == "job")
        .map(|(_, t)| *t)
        .collect();
    out.set("harness.job_self_s", median(&job_self).unwrap_or(f64::NAN));
    out.set(
        "harness.trace_overhead_job_s",
        per_job(&|j| j.wall) - median(&untraced).unwrap_or(f64::NAN),
    );
    let lo_lat = |traced: bool| -> Vec<f64> {
        lo.queries
            .iter()
            .filter(|q| q.traced == traced)
            .filter_map(|q| q.latency())
            .collect()
    };
    out.set(
        "harness.trace_overhead_query_ms",
        ms(median(&lo_lat(true))) - ms(median(&lo_lat(false))),
    );
    out
}

fn record(args: &Args, m: &Measured, tally: &Tally, tracer: &Tracer) -> String {
    let w = args.workload;
    let (lo, hi, peak) = (m.phase(|r| &r.lo), m.phase(|r| &r.hi), m.phase(|r| &r.peak));
    let discarded = |name: &str| {
        m.rounds
            .iter()
            .flat_map(|r| &r.discarded)
            .filter(|(n, _)| *n == name)
            .count()
    };
    let phase = |name: &str, p: &PhaseRecord| {
        format!(
            "{}: {{\"discarded_tries\": {}, \"queries\": {}, \"late_sends\": {}, \"gen_lag_ms_max\": {}, \"inflight_end\": {}, \"queue_depth_end\": {}, \"queue_depth_max\": {}}}",
            json_str(name),
            discarded(name),
            p.queries.len(),
            p.late_sends,
            p.gen_lag_max * 1e3,
            p.inflight_end,
            p.queue_depth_end,
            p.queue_depth_max
        )
    };
    let layers: Vec<String> = report::LAYER_MAP
        .iter()
        .map(|(layer, moves, stays)| {
            format!(
                "{}: {{\"moves\": {}, \"stays\": {}}}",
                json_str(layer),
                json_str(moves),
                json_str(stays)
            )
        })
        .collect();
    let graph = match w.graph {
        GraphKind::Rmat { scale } => format!("RMAT-{scale}, edge factor 16, weighted"),
        GraphKind::Road { side } => format!("{side}x{side} lattice, weighted"),
    };
    let self_s: Vec<String> = trace::self_time_by_layer(&tracer.spans())
        .iter()
        .map(|(layer, secs)| format!("{}: {secs}", json_str(layer)))
        .collect();
    format!(
        "{{\"record\": {{\"workload\": {}, \"why\": {}, \"graph\": {}, \"edges\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"commit\": {}, \"host\": {}, \"peak_rss_reset\": {}, \"jobs\": {}, \"writes\": {}, \"phases\": {{{}, {}, {}}}, \"tails\": {{{}, {}}}, \"errors\": [{}], \"self_s_by_layer\": {{{}}}, \"layer_map\": {{{}}}}}}}",
        json_str(w.name),
        json_str(w.why),
        json_str(&graph),
        m.edges,
        args.seed,
        args.seconds,
        args.trace,
        json_str(&commit()),
        host(m.perf_available),
        m.rss_reset,
        m.jobs().count(),
        m.writes().count(),
        phase("lo", &lo),
        phase("hi", &hi),
        phase("peak", &peak),
        tail_json("serve.query_tail_ms_lo", &latencies(&lo)),
        tail_json("serve.query_tail_ms_hi", &latencies(&hi)),
        tally.errors.iter().map(|e| json_str(e)).collect::<Vec<_>>().join(", "),
        self_s.join(", "),
        layers.join(", ")
    )
}

fn run(args: &Args) -> Result<String, String> {
    let origin = Instant::now();
    let tracer = Tracer::new(args.trace, origin);
    let dir: PathBuf =
        Path::new(WORK_DIR).join(format!("{}-{}", args.workload.name, std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let measured = measure(args, &dir, origin, &tracer);
    let _ = std::fs::remove_dir_all(&dir);
    let m = measured?;

    let mut tally = Tally::default();
    verify(args, &m, &mut tally);
    let metrics = if args.trace {
        per_layer(&m, &tracer, &tally)
    } else {
        end_to_end(&m)
    }
    .finish()?;

    let record = record(args, &m, &tally, &tracer);
    std::fs::create_dir_all(RESULTS_DIR).map_err(|e| format!("{RESULTS_DIR}: {e}"))?;
    let stem = format!(
        "{RESULTS_DIR}/{}-seed{}-trace{}",
        args.workload.name,
        args.seed,
        u8::from(args.trace)
    );
    let result = report::result_line(tally.attempted, tally.failed, &metrics);
    std::fs::write(format!("{stem}.json"), format!("{record}\n{result}\n"))
        .map_err(|e| format!("{stem}.json: {e}"))?;
    if args.trace {
        std::fs::write(
            format!("{stem}.spans.json"),
            trace::to_json(&tracer.spans()),
        )
        .map_err(|e| format!("{stem}.spans.json: {e}"))?;
    }
    for (name, (value, unit)) in &metrics {
        eprintln!("{name:<34} {value:>14.4} {unit}");
    }
    Ok(format!("{record}\n{result}"))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(out) => println!("{out}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn try_with(late_sends: usize) -> PhaseRecord {
        PhaseRecord {
            late_sends,
            ..PhaseRecord::default()
        }
    }

    #[test]
    fn a_late_try_is_thrown_away_and_run_again() {
        let mut discarded = Vec::new();
        let mut late = [2, 0].into_iter();
        let (phase, side) = until_valid("hi", &mut discarded, || {
            let n = late.next().unwrap();
            (try_with(n), n)
        })
        .unwrap();
        assert_eq!(phase.late_sends, 0);
        // What each try returned beside its phase is kept, in order.
        assert_eq!(side, [2, 0]);
        assert_eq!(discarded.len(), 1);
        assert_eq!((discarded[0].0, discarded[0].1.late_sends), ("hi", 2));
    }

    #[test]
    fn a_phase_late_in_every_try_fails_the_run() {
        let mut discarded = Vec::new();
        let mut tries = 0;
        let out = until_valid("lo", &mut discarded, || {
            tries += 1;
            (try_with(5), ())
        });
        assert!(out.is_err());
        assert_eq!(tries, PHASE_ATTEMPTS);
        assert_eq!(discarded.len(), PHASE_ATTEMPTS - 1);
    }
}
