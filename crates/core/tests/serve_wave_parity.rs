//! Full-wave parity: one 64-lane wave through `ServeEngine` on a skewed
//! graph must answer every lane bit for bit like the single-query
//! kernels, on every resident layout, for every query kind, with
//! duplicate sources, at one and at two threads.

use std::time::Duration;

use egraph_core::algo::{bfs, sssp};
use egraph_core::layout::EdgeDirection;
use egraph_core::preprocess::{CsrBuilder, Strategy};
use egraph_core::serve::{
    Query, QueryKind, QueryValues, ServeConfig, ServeEngine, ServeGraph, MAX_WAVE,
};
use egraph_core::types::{Edge, EdgeList, VertexId, WEdge};
use egraph_core::variant::Layout;

const SCALE: u32 = 10;
const EDGE_FACTOR: usize = 8;

/// Xorshift64: deterministic test randomness without a dependency.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// RMAT edges (a = 0.57, b = c = 0.19): a few hubs, a long tail of
/// low-degree vertices and some unreachable ones.
fn rmat_edges(rng: &mut Rng) -> Vec<(VertexId, VertexId)> {
    let nv = 1usize << SCALE;
    (0..nv * EDGE_FACTOR)
        .map(|_| {
            let (mut src, mut dst) = (0u32, 0u32);
            for bit in (0..SCALE).rev() {
                let r = rng.unit();
                let (s, d) = if r < 0.57 {
                    (0, 0)
                } else if r < 0.76 {
                    (0, 1)
                } else if r < 0.95 {
                    (1, 0)
                } else {
                    (1, 1)
                };
                src |= s << bit;
                dst |= d << bit;
            }
            (src, dst)
        })
        .collect()
}

/// 64 sources: hubs, tail vertices and repeats of both.
fn wave_sources(rng: &mut Rng) -> Vec<VertexId> {
    let nv = 1u64 << SCALE;
    let mut sources: Vec<VertexId> = (0..48).map(|_| (rng.next() % nv) as VertexId).collect();
    sources.extend([0, 0, 1, 1, 2]);
    while sources.len() < MAX_WAVE {
        let again = sources[(rng.next() % 48) as usize];
        sources.push(again);
    }
    sources
}

/// Runs one full wave of `kind` queries (k-hop lane `q` bounded at
/// depth `q % 5`) and returns each lane's answer.
fn serve_wave(
    graph: ServeGraph,
    layout: Layout,
    threads: usize,
    kind: QueryKind,
    sources: &[VertexId],
) -> Vec<QueryValues> {
    let engine = ServeEngine::start(
        graph,
        ServeConfig {
            threads,
            layout,
            max_wave: MAX_WAVE,
            // Long enough that the wave launches on being full.
            batch_window: Duration::from_secs(30),
            metrics: false,
            ..ServeConfig::default()
        },
    );
    engine.wait_ready();
    let receivers: Vec<_> = sources
        .iter()
        .enumerate()
        .map(|(q, &source)| {
            engine
                .submit(Query {
                    kind,
                    source,
                    depth: q as u32 % 5,
                })
                .unwrap()
        })
        .collect();
    let answers = receivers
        .into_iter()
        .map(|rx| {
            let outcome = rx.recv().unwrap();
            assert_eq!(
                outcome.wave_size, MAX_WAVE,
                "{layout:?} {kind:?}: wave not full"
            );
            outcome.values
        })
        .collect();
    engine.shutdown();
    answers
}

fn truncate(levels: &[u32], depth: u32) -> Vec<u32> {
    levels
        .iter()
        .map(|&l| if l > depth { u32::MAX } else { l })
        .collect()
}

#[test]
fn full_waves_match_single_query_kernels_on_every_layout() {
    let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
    let nv = 1usize << SCALE;
    let pairs = rmat_edges(&mut rng);
    let unweighted =
        EdgeList::new(nv, pairs.iter().map(|&(s, d)| Edge::new(s, d)).collect()).unwrap();
    let weighted = EdgeList::new(
        nv,
        pairs
            .iter()
            .map(|&(s, d)| WEdge::new(s, d, 0.5 + (rng.next() % 16) as f32 * 0.375))
            .collect(),
    )
    .unwrap();
    let sources = wave_sources(&mut rng);

    let adj = CsrBuilder::new(Strategy::RadixSort, EdgeDirection::Out).build(&unweighted);
    let wadj = CsrBuilder::new(Strategy::RadixSort, EdgeDirection::Out).build(&weighted);
    let levels: Vec<Vec<u32>> = sources.iter().map(|&s| bfs::push(&adj, s).level).collect();
    let dists: Vec<Vec<f32>> = sources.iter().map(|&s| sssp::push(&wadj, s).dist).collect();
    let reached = levels[0].iter().filter(|&&l| l != u32::MAX).count();
    assert!(reached > 1 && reached < nv, "source 0 reaches {reached}");

    for layout in [Layout::Adjacency, Layout::Ccsr, Layout::Grid, Layout::Delta] {
        for threads in [1, 2] {
            let at = |kind| format!("{layout:?} threads={threads} {kind:?}");
            let bfs_lanes = serve_wave(
                ServeGraph::Unweighted(unweighted.clone()),
                layout,
                threads,
                QueryKind::Bfs,
                &sources,
            );
            for (q, got) in bfs_lanes.iter().enumerate() {
                let want = QueryValues::Levels(levels[q].clone());
                assert_eq!(*got, want, "{} lane {q}", at(QueryKind::Bfs));
            }
            let khop_lanes = serve_wave(
                ServeGraph::Unweighted(unweighted.clone()),
                layout,
                threads,
                QueryKind::KHop,
                &sources,
            );
            for (q, got) in khop_lanes.iter().enumerate() {
                let want = QueryValues::Levels(truncate(&levels[q], q as u32 % 5));
                assert_eq!(*got, want, "{} lane {q}", at(QueryKind::KHop));
            }
            let sssp_lanes = serve_wave(
                ServeGraph::Weighted(weighted.clone()),
                layout,
                threads,
                QueryKind::Sssp,
                &sources,
            );
            for (q, got) in sssp_lanes.iter().enumerate() {
                // Bit-for-bit: compare the raw f32 bits, not `==`.
                let QueryValues::Dists(got) = got else {
                    panic!("{}: lane {q} is not distances", at(QueryKind::Sssp));
                };
                let got: Vec<u32> = got.iter().map(|d| d.to_bits()).collect();
                let want: Vec<u32> = dists[q].iter().map(|d| d.to_bits()).collect();
                assert_eq!(got, want, "{} lane {q}", at(QueryKind::Sssp));
            }
        }
    }
}
