//! The workloads and every input derived from a workload seed: the
//! graph, its edge weights, the traversal root, the query stream and
//! the update batches. The program under test only ever sees these.

use egraph_core::types::{EdgeList, EdgeRecord, WEdge};

use crate::oracle::{self, Arc, Update};

/// A graph family with its size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GraphKind {
    /// RMAT-`scale` with edge factor 16: skewed degrees, low diameter.
    Rmat {
        /// log2 of the vertex count.
        scale: u32,
    },
    /// A `side × side` lattice: degree <= 4, diameter `2·side - 2`.
    Road {
        /// Vertices per lattice row.
        side: usize,
    },
}

/// One named workload: a graph plus the serve rates that stay below
/// its measured capacity.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// The name passed as `--workload`.
    pub name: &'static str,
    /// Why the workload exists, in one line.
    pub why: &'static str,
    /// The graph every phase of the run uses.
    pub graph: GraphKind,
    /// Open-loop rate of the read-only `lo` phase, queries/s.
    pub lo_qps: f64,
    /// Open-loop rate of the `hi` phase beside the writer, queries/s.
    pub hi_qps: f64,
}

/// Every workload, in report order.
pub const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "rmat",
        why: "RMAT-18, skewed and low-diameter: jobs dominated by load and pre-processing, serve waves by edge work",
        graph: GraphKind::Rmat { scale: 18 },
        lo_qps: 15.0,
        hi_qps: 20.0,
    },
    Workload {
        name: "road",
        why: "512x512 lattice, diameter ~1000: jobs and serve waves dominated by per-iteration costs; the control for sort and pull-kernel changes",
        graph: GraphKind::Road { side: 512 },
        lo_qps: 8.0,
        hi_qps: 16.0,
    },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// SplitMix64: a small deterministic generator for seeded choices.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for the named `stream` of workload seed `seed`, so
    /// each input is independent of how much of the others is drawn.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next();
        r
    }

    /// The next 64 random bits.
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform draw from `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Input streams of one seed.
pub mod stream {
    /// The graph generator's own seed.
    pub const GRAPH: u64 = 1;
    /// Edge weights.
    pub const WEIGHTS: u64 = 2;
    /// The job's traversal root.
    pub const ROOT: u64 = 3;
    /// The query stream.
    pub const QUERIES: u64 = 4;
    /// The update batches.
    pub const UPDATES: u64 = 5;
    /// Which `hi` and `peak` answers the oracle checks.
    pub const SAMPLE: u64 = 6;
}

/// The weight of edge `(src, dst)`: a seeded hash, so duplicate edges
/// agree and the weight does not depend on generation order.
pub fn weight(seed: u64, src: u32, dst: u32) -> f32 {
    let mut r = Rng::new(
        seed,
        stream::WEIGHTS ^ (u64::from(src) << 32 | u64::from(dst)),
    );
    0.25 + (r.next() % 1024) as f32 / 256.0
}

/// Generates the workload's weighted graph from `seed`.
pub fn graph(kind: GraphKind, seed: u64) -> EdgeList<WEdge> {
    let unweighted = match kind {
        GraphKind::Rmat { scale } => {
            egraph_graphgen::rmat(scale, 16, Rng::new(seed, stream::GRAPH).next())
        }
        GraphKind::Road { side } => egraph_graphgen::road_like(side, side),
    };
    unweighted.map_records(|e| WEdge::new(e.src(), e.dst(), weight(seed, e.src(), e.dst())))
}

/// The graph's edges in the oracle's representation.
pub fn arcs(graph: &EdgeList<WEdge>) -> Vec<Arc> {
    graph
        .edges()
        .iter()
        .map(|e| (e.src(), e.dst(), e.weight()))
        .collect()
}

/// Vertices with at least one out-edge, the candidates for roots and
/// query sources.
pub fn sources(n: usize, arcs: &[Arc]) -> Vec<u32> {
    let mut has_out = vec![false; n];
    for a in arcs {
        has_out[a.0 as usize] = true;
    }
    (0..n as u32).filter(|&v| has_out[v as usize]).collect()
}

/// The job's traversal root: a seeded vertex with an out-edge in the
/// largest weak component.
pub fn root(seed: u64, n: usize, arcs: &[Arc], sources: &[u32]) -> u32 {
    let comp = oracle::components(n, arcs);
    let mut size = vec![0usize; n];
    for &c in &comp {
        size[c as usize] += 1;
    }
    let giant = (0..n).max_by_key(|&c| size[c]).expect("non-empty graph") as u32;
    let candidates: Vec<u32> = sources
        .iter()
        .copied()
        .filter(|&v| comp[v as usize] == giant)
        .collect();
    candidates[Rng::new(seed, stream::ROOT).below(candidates.len())]
}

/// The serve query mix: BFS and depth-2 k-hop queries, 3:1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuerySpec {
    /// `None` for a full BFS, `Some(depth)` for a k-hop query.
    pub depth: Option<u32>,
    /// The source vertex.
    pub source: u32,
}

/// Depth bound of the k-hop queries.
pub const KHOP_DEPTH: u32 = 2;

/// A seeded, endless query stream.
#[derive(Debug, Clone)]
pub struct Queries<'a> {
    rng: Rng,
    sources: &'a [u32],
}

impl<'a> Queries<'a> {
    /// The stream of `seed` over `sources`.
    pub fn new(seed: u64, sources: &'a [u32]) -> Self {
        Self {
            rng: Rng::new(seed, stream::QUERIES),
            sources,
        }
    }
}

impl Iterator for Queries<'_> {
    type Item = QuerySpec;

    fn next(&mut self) -> Option<QuerySpec> {
        let khop = self.rng.below(4) == 0;
        Some(QuerySpec {
            depth: khop.then_some(KHOP_DEPTH),
            source: self.sources[self.rng.below(self.sources.len())],
        })
    }
}

/// Base edges the update stream deletes from. A pool, rather than the
/// whole edge list, keeps the stream's memory out of the measured peak
/// resident set; deleting an edge already deleted changes nothing.
pub const DELETE_POOL: usize = 1 << 16;

/// A seeded, endless stream of update batches of `size` ops each: 3/4
/// inserts between random vertices, 1/4 deletes of base edges drawn
/// from a seeded pool.
#[derive(Debug, Clone)]
pub struct Updates {
    rng: Rng,
    seed: u64,
    n: usize,
    pool: Vec<(u32, u32)>,
    size: usize,
}

impl Updates {
    /// The stream of `seed` over the graph with `n` vertices and edges
    /// `arcs`.
    pub fn new(seed: u64, n: usize, arcs: &[Arc], size: usize) -> Self {
        let mut rng = Rng::new(seed, stream::UPDATES);
        let pool = (0..DELETE_POOL.min(arcs.len()))
            .map(|_| {
                let a = arcs[rng.below(arcs.len())];
                (a.0, a.1)
            })
            .collect();
        Self {
            rng,
            seed,
            n,
            pool,
            size,
        }
    }
}

impl Iterator for Updates {
    type Item = Vec<Update>;

    fn next(&mut self) -> Option<Vec<Update>> {
        let rng = &mut self.rng;
        Some(
            (0..self.size)
                .map(|_| {
                    if rng.below(4) == 0 {
                        let (s, d) = self.pool[rng.below(self.pool.len())];
                        Update::Delete(s, d)
                    } else {
                        let (s, d) = (rng.below(self.n) as u32, rng.below(self.n) as u32);
                        Update::Insert((s, d, weight(self.seed, s, d)))
                    }
                })
                .collect(),
        )
    }
}

/// One batch as the NDJSON text `ServeEngine::apply_update` takes.
pub fn ndjson(batch: &[Update]) -> String {
    let mut out = String::with_capacity(batch.len() * 48);
    for u in batch {
        match *u {
            Update::Insert((s, d, w)) => {
                out.push_str(&format!(
                    "{{\"op\":\"insert\",\"src\":{s},\"dst\":{d},\"weight\":{w}}}\n"
                ));
            }
            Update::Delete(s, d) => {
                out.push_str(&format!("{{\"op\":\"delete\",\"src\":{s},\"dst\":{d}}}\n"));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_repeat_for_a_seed_and_differ_across_seeds() {
        let kind = GraphKind::Rmat { scale: 8 };
        let (a, b, c) = (graph(kind, 1), graph(kind, 1), graph(kind, 2));
        assert_eq!(arcs(&a), arcs(&b));
        assert_ne!(arcs(&a), arcs(&c));
        let arcs = arcs(&a);
        let src = sources(a.num_vertices(), &arcs);
        let q1: Vec<_> = Queries::new(5, &src).take(50).collect();
        let q2: Vec<_> = Queries::new(5, &src).take(50).collect();
        assert_eq!(q1, q2);
        assert!(q1.iter().any(|q| q.depth.is_some()) && q1.iter().any(|q| q.depth.is_none()));
        assert_eq!(
            root(3, a.num_vertices(), &arcs, &src),
            root(3, a.num_vertices(), &arcs, &src)
        );
        let u1: Vec<_> = Updates::new(5, a.num_vertices(), &arcs, 16)
            .take(3)
            .collect();
        let u2: Vec<_> = Updates::new(5, a.num_vertices(), &arcs, 16)
            .take(3)
            .collect();
        assert_eq!(u1, u2);
        assert!(u1.iter().all(|b| b.len() == 16));
    }

    #[test]
    fn update_text_round_trips_weights() {
        let batch = [Update::Insert((1, 2, 0.1 + 0.2)), Update::Delete(3, 4)];
        let text = ndjson(&batch);
        let w: f32 = text
            .split("\"weight\":")
            .nth(1)
            .and_then(|s| s.split('}').next())
            .unwrap()
            .parse()
            .unwrap();
        assert_eq!(w, 0.1f32 + 0.2f32);
        assert!(text.ends_with("{\"op\":\"delete\",\"src\":3,\"dst\":4}\n"));
    }
}
