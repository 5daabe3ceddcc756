//! The analyst job: load the graph file, run four algorithms on one
//! shared `PreparedGraph`, store the four result arrays.

use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::path::Path;
use std::time::Instant;

use egraph_core::exec::ExecCtx;
use egraph_core::types::{EdgeList, WEdge};
use egraph_core::variant::{run_variant, PreparedGraph, RunParams, VariantId, VariantOutput};
use egraph_parallel::telemetry::{self, PoolSnapshot};
use egraph_parallel::{with_pool, ThreadPool};

use crate::trace::Tracer;

/// One algorithm of the job.
#[derive(Debug, Clone, Copy)]
pub struct Step {
    /// Short name used in metric names (`algo.<name>_s`).
    pub algo: &'static str,
    /// The variant the job runs.
    pub variant: &'static str,
    /// The layout the variant builds, named for `preprocess.<csr>_s`.
    pub csr: &'static str,
}

/// The job's algorithms, in run order. Each builds a different CSR, so
/// every step's pre-processing is real work, not a cache hit.
pub const STEPS: [Step; 4] = [
    Step {
        algo: "bfs",
        variant: "bfs/adj/push-pull",
        csr: "csr_both",
    },
    Step {
        algo: "pagerank",
        variant: "pagerank/adj/pull",
        csr: "csr_in",
    },
    Step {
        algo: "sssp",
        variant: "sssp/adj/push",
        csr: "csr_out",
    },
    Step {
        algo: "wcc",
        variant: "wcc/adj/push",
        csr: "csr_und",
    },
];

/// Pool counter deltas over one step.
#[derive(Debug, Clone, Default)]
pub struct PoolDelta {
    /// Parallel regions launched.
    pub regions: u64,
    /// Successful steals.
    pub steals: u64,
    /// Busy seconds per worker.
    pub busy: Vec<f64>,
}

impl PoolDelta {
    fn between(a: &PoolSnapshot, b: &PoolSnapshot) -> Self {
        Self {
            regions: b.regions - a.regions,
            steals: b.steals - a.steals,
            busy: b
                .busy_seconds
                .iter()
                .zip(&a.busy_seconds)
                .map(|(x, y)| x - y)
                .collect(),
        }
    }
}

/// What one step measured.
#[derive(Debug, Clone)]
pub struct StepRecord {
    /// Wall seconds of the `run_variant` call.
    pub wall: f64,
    /// Seconds the algorithm ran, as the variant reports them.
    pub algorithm: f64,
    /// Iterations the algorithm ran.
    pub iterations: usize,
    /// Edges the iteration log counted, when it counts them.
    pub edges: Option<u64>,
    /// Pool counters, when telemetry is on.
    pub pool: Option<PoolDelta>,
}

impl StepRecord {
    /// Pre-processing seconds this call actually spent: the call's wall
    /// time minus the algorithm's. A layout reused from an earlier step
    /// costs nothing here, whatever build time the variant reports.
    pub fn preprocess(&self) -> f64 {
        (self.wall - self.algorithm).max(0.0)
    }
}

/// What one job measured.
#[derive(Debug, Clone)]
pub struct JobRecord {
    /// Wall seconds, load to store.
    pub wall: f64,
    /// Seconds in `read_edge_list`.
    pub load: f64,
    /// Bytes of the graph file.
    pub file_bytes: u64,
    /// Seconds in the four `write_*_result` calls.
    pub store: f64,
    /// One record per [`STEPS`] entry.
    pub steps: Vec<StepRecord>,
    /// Threads of the pool the job ran on.
    pub threads: usize,
}

/// The job's answers, kept for the oracle.
#[derive(Debug, Clone)]
pub struct JobOutput {
    /// BFS parents.
    pub parent: Vec<u32>,
    /// BFS levels.
    pub level: Vec<u32>,
    /// PageRank ranks.
    pub ranks: Vec<f32>,
    /// SSSP distances.
    pub dist: Vec<f32>,
    /// WCC labels.
    pub labels: Vec<u32>,
}

fn snapshot(pool: &ThreadPool, telemetry_on: bool) -> Option<PoolSnapshot> {
    telemetry_on.then(|| with_pool(pool, telemetry::snapshot))
}

fn iterations(output: &VariantOutput) -> (usize, Option<u64>) {
    let log = match output {
        VariantOutput::Bfs(r) => &r.iterations,
        VariantOutput::Sssp(r) => &r.iterations,
        VariantOutput::Wcc(r) => &r.iterations,
        VariantOutput::Pagerank(r) => return (r.iterations, None),
        VariantOutput::Spmv(_) => return (1, None),
    };
    let edges: u64 = log.iter().map(|s| s.edges_scanned as u64).sum();
    (log.len(), (edges > 0).then_some(edges))
}

/// Runs one job on `pool`: load `graph_file`, run [`STEPS`], write the
/// four result arrays into `out_dir`. Pool counters are read around
/// each step when `telemetry_on`.
pub fn run_job(
    graph_file: &Path,
    out_dir: &Path,
    pool: &ThreadPool,
    root: u32,
    tracer: &Tracer,
    telemetry_on: bool,
) -> Result<(JobRecord, JobOutput), String> {
    let start = Instant::now();
    tracer.span("job", "job", None, |job| {
        let t = Instant::now();
        let graph: EdgeList<WEdge> =
            tracer.span("storage", "storage.read_edge_list", job, |_| {
                let file = File::open(graph_file).map_err(|e| e.to_string())?;
                egraph_storage::read_edge_list(BufReader::new(file)).map_err(|e| e.to_string())
            })?;
        let load = t.elapsed().as_secs_f64();
        let file_bytes = std::fs::metadata(graph_file).map_or(0, |m| m.len());

        let ctx = ExecCtx::new(pool);
        let prepared = PreparedGraph::new(&graph);
        let params = RunParams {
            root,
            ..RunParams::default()
        };
        let mut steps = Vec::new();
        let mut outputs = Vec::new();
        for step in STEPS {
            let id: VariantId = step.variant.parse().map_err(|e| format!("{e}"))?;
            let before = snapshot(pool, telemetry_on);
            let t = Instant::now();
            let run = tracer.span("variant", step.variant, job, |_| {
                run_variant(&id, &ctx, &prepared, &params)
            });
            let wall = t.elapsed().as_secs_f64();
            let run = run.map_err(|e| format!("{}: {e}", step.variant))?;
            let after = snapshot(pool, telemetry_on);
            let (iterations, edges) = iterations(&run.output);
            steps.push(StepRecord {
                wall,
                algorithm: run.algorithm_seconds,
                iterations,
                edges,
                pool: before.zip(after).map(|(a, b)| PoolDelta::between(&a, &b)),
            });
            outputs.push(run.output);
        }
        drop(prepared);
        drop(graph);

        let mut outputs = outputs.into_iter();
        let (
            Some(VariantOutput::Bfs(bfs)),
            Some(VariantOutput::Pagerank(pr)),
            Some(VariantOutput::Sssp(sssp)),
            Some(VariantOutput::Wcc(wcc)),
        ) = (
            outputs.next(),
            outputs.next(),
            outputs.next(),
            outputs.next(),
        )
        else {
            return Err("job steps returned unexpected output kinds".into());
        };

        let t = Instant::now();
        let create = |name: &str| {
            File::create(out_dir.join(name))
                .map(BufWriter::new)
                .map_err(|e| e.to_string())
        };
        let store = |name: &'static str, write: &dyn Fn(BufWriter<File>) -> std::io::Result<()>| {
            tracer.span("storage", name, job, |_| {
                write(create(name)?).map_err(|e| e.to_string())
            })
        };
        store("bfs.parent", &|w| {
            egraph_storage::write_u32_result(w, &bfs.parent)
        })?;
        store("pagerank.ranks", &|w| {
            egraph_storage::write_f32_result(w, &pr.ranks)
        })?;
        store("sssp.dist", &|w| {
            egraph_storage::write_f32_result(w, &sssp.dist)
        })?;
        store("wcc.labels", &|w| {
            egraph_storage::write_u32_result(w, &wcc.label)
        })?;
        let store = t.elapsed().as_secs_f64();

        Ok((
            JobRecord {
                wall: start.elapsed().as_secs_f64(),
                load,
                file_bytes,
                store,
                steps,
                threads: pool.num_threads(),
            },
            JobOutput {
                parent: bfs.parent,
                level: bfs.level,
                ranks: pr.ranks,
                dist: sssp.dist,
                labels: wcc.label,
            },
        ))
    })
}
