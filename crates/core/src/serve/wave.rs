//! Multi-source waves with bit-packed frontiers.
//!
//! One wave answers up to [`MAX_WAVE`] point queries with a *single*
//! traversal: every vertex carries one `u64` lane word, one bit per
//! query, so the per-round edge scan (the dominant cost on large
//! graphs) is shared by the whole wave — the cache-sharing thesis of
//! the fork-processing-patterns line of work applied to the paper's
//! push kernels.
//!
//! A wave is not a traversal engine of its own. [`LaneBfs`] and
//! [`LaneSssp`] are [`PushOp`]s over the lane words, and one round loop
//! drives them with the batch jobs' drivers: [`engine::vertex_push`] on
//! an out-[`NeighborAccess`] (adj, ccsr, delta) and
//! [`engine::grid_push_cells`] on a grid. Waves therefore share the
//! drivers' grains and their in-loop `engine.edges_examined` counter.
//!
//! Determinism: the per-lane results are bit-identical to the
//! single-query kernels. BFS levels are exact hop distances (the round
//! a bit first reaches a vertex), independent of scan order; SSSP
//! distances converge to the unique least fixpoint of the relaxation
//! equations under `f32` `fetch_min`, which is order-independent. The
//! conformance tests in this module assert both properties.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

use egraph_cachesim::NullProbe;
use egraph_parallel::atomicf::AtomicF32;

use super::engine::{QueryKind, QueryValues};
use crate::engine::{self, PushOp};
use crate::exec::ExecCtx;
use crate::frontier::{FrontierKind, VertexSubset};
use crate::layout::{Grid, NeighborAccess};
use crate::telemetry::{ExecContext, Recorder};
use crate::types::{EdgeRecord, VertexId};

/// Lane capacity of one wave: the width of the frontier word.
pub const MAX_WAVE: usize = 64;

/// Telemetry counter: wave rounds executed.
pub const WAVE_ROUNDS: &str = "serve.wave_rounds";

/// A resident layout a wave can traverse, one engine push round at a
/// time.
pub trait WaveGraph<E: EdgeRecord> {
    /// Whether a round reads the lane words of sources outside the
    /// frontier, so a vertex's word must be cleared when it leaves the
    /// frontier.
    const SCANS_ALL_SOURCES: bool;

    /// Number of vertices.
    fn num_vertices(&self) -> usize;

    /// Applies `op` to the out-edges of `frontier` and returns the
    /// vertices it activated.
    fn push_round<O: PushOp<E>, R: Recorder>(
        &self,
        frontier: &VertexSubset,
        op: &O,
        ctx: ExecContext<'_, NullProbe, R>,
    ) -> VertexSubset;
}

/// Vertex-centric waves over an out-[`NeighborAccess`] (uncompressed
/// CSR, ccsr or a delta list).
pub struct OutEdges<'g, A>(pub &'g A);

impl<E: EdgeRecord, A: NeighborAccess<E>> WaveGraph<E> for OutEdges<'_, A> {
    const SCANS_ALL_SOURCES: bool = false;

    fn num_vertices(&self) -> usize {
        self.0.num_vertices()
    }

    fn push_round<O: PushOp<E>, R: Recorder>(
        &self,
        frontier: &VertexSubset,
        op: &O,
        ctx: ExecContext<'_, NullProbe, R>,
    ) -> VertexSubset {
        engine::vertex_push(self.0, frontier, op, ctx, FrontierKind::Sparse)
    }
}

/// Grid waves: the grid has no per-vertex neighbor index, so every
/// round scans all cells and [`PushOp::source_active`] skips edges
/// whose source holds no active lane.
impl<E: EdgeRecord> WaveGraph<E> for Grid<E> {
    const SCANS_ALL_SOURCES: bool = true;

    fn num_vertices(&self) -> usize {
        Grid::num_vertices(self)
    }

    fn push_round<O: PushOp<E>, R: Recorder>(
        &self,
        _frontier: &VertexSubset,
        op: &O,
        ctx: ExecContext<'_, NullProbe, R>,
    ) -> VertexSubset {
        engine::grid_push_cells(self, op, ctx, FrontierKind::Sparse)
    }
}

/// Answers one wave of same-kind queries, one lane per source: levels
/// for BFS and k-hop (truncated at `max_depth` rounds), distances for
/// SSSP.
pub fn answer<E: EdgeRecord, G: WaveGraph<E>>(
    graph: &G,
    kind: QueryKind,
    sources: &[VertexId],
    max_depth: u32,
    ctx: &ExecCtx<'_>,
) -> Vec<QueryValues> {
    match kind {
        QueryKind::Bfs | QueryKind::KHop => bfs(graph, sources, max_depth, ctx)
            .into_iter()
            .map(QueryValues::Levels)
            .collect(),
        QueryKind::Sssp => sssp(graph, sources, ctx)
            .into_iter()
            .map(QueryValues::Dists)
            .collect(),
    }
}

/// Multi-source BFS: one lane per source, levels truncated at
/// `max_depth` rounds (pass `u32::MAX` for a full traversal). Returns
/// one level vector per source, `u32::MAX` marking vertices not reached
/// within the depth bound.
///
/// # Panics
///
/// Panics if `sources` is empty, longer than [`MAX_WAVE`], or contains
/// an out-of-range vertex — the serve engine validates queries before
/// forming waves.
pub fn bfs<E: EdgeRecord, G: WaveGraph<E>>(
    graph: &G,
    sources: &[VertexId],
    max_depth: u32,
    ctx: &ExecCtx<'_>,
) -> Vec<Vec<u32>> {
    let nv = graph.num_vertices();
    let (words, seeds) = LaneWords::seed(nv, sources);
    let lanes = words.lanes;
    let levels: Vec<AtomicU32> = (0..nv * lanes).map(|_| AtomicU32::new(u32::MAX)).collect();
    for (q, &s) in sources.iter().enumerate() {
        levels[s as usize * lanes + q].store(0, Ordering::Relaxed);
    }
    let visited: Vec<AtomicU64> = (0..nv).map(|_| AtomicU64::new(0)).collect();
    // Duplicate sources coexist: each lane tracks its own bit.
    for &s in &seeds {
        visited[s as usize].store(words.frontier[s as usize], Ordering::Relaxed);
    }
    let mut op = LaneBfs {
        words,
        all_lanes: u64::MAX >> (MAX_WAVE - lanes),
        visited,
        levels,
    };
    run_rounds(graph, &mut op, seeds, max_depth, ctx);
    demux(&op.levels, lanes, |l| l.load(Ordering::Relaxed))
}

/// Multi-source SSSP: label-correcting relaxation with per-lane `f32`
/// `fetch_min`, one lane per source. Returns one distance vector per
/// source (`f32::INFINITY` for unreachable vertices), bit-identical to
/// the single-source kernel.
///
/// # Panics
///
/// Panics under the same conditions as [`bfs`].
pub fn sssp<E: EdgeRecord, G: WaveGraph<E>>(
    graph: &G,
    sources: &[VertexId],
    ctx: &ExecCtx<'_>,
) -> Vec<Vec<f32>> {
    let nv = graph.num_vertices();
    let (words, seeds) = LaneWords::seed(nv, sources);
    let lanes = words.lanes;
    let dist: Vec<AtomicF32> = (0..nv * lanes)
        .map(|_| AtomicF32::new(f32::INFINITY))
        .collect();
    for (q, &s) in sources.iter().enumerate() {
        dist[s as usize * lanes + q].store(0.0, Ordering::Relaxed);
    }
    let mut op = LaneSssp { words, dist };
    run_rounds(graph, &mut op, seeds, u32::MAX, ctx);
    demux(&op.dist, lanes, |d| d.load(Ordering::Relaxed))
}

/// The per-vertex lane words every wave rule shares: the lanes active
/// at a vertex this round, and the lanes that reached it this round.
struct LaneWords {
    lanes: usize,
    /// The round being run, from 1 (BFS stamps it as the level).
    round: u32,
    frontier: Vec<u64>,
    next: Vec<AtomicU64>,
}

impl LaneWords {
    /// Lane words with lane `q` active at `sources[q]`, plus the first
    /// frontier (each source vertex once).
    fn seed(nv: usize, sources: &[VertexId]) -> (Self, Vec<VertexId>) {
        let lanes = sources.len();
        assert!(
            (1..=MAX_WAVE).contains(&lanes),
            "wave size {lanes} outside 1..={MAX_WAVE}"
        );
        let mut frontier = vec![0u64; nv];
        let mut seeds = Vec::with_capacity(lanes);
        for (q, &s) in sources.iter().enumerate() {
            let v = s as usize;
            assert!(v < nv, "source {s} out of range ({nv} vertices)");
            if frontier[v] == 0 {
                seeds.push(s);
            }
            frontier[v] |= 1 << q;
        }
        let words = Self {
            lanes,
            round: 0,
            frontier,
            next: (0..nv).map(|_| AtomicU64::new(0)).collect(),
        };
        (words, seeds)
    }

    /// Records that the lanes in `bits` reached `v`; `true` on the
    /// round's first arrival, so the engine adds `v` to the next
    /// frontier once.
    #[inline]
    fn arrive(&self, v: usize, bits: u64) -> bool {
        self.next[v].fetch_or(bits, Ordering::Relaxed) == 0
    }

    /// Ends a round: moves the round's arrivals into the words of the
    /// next frontier. A round that reads only frontier words never sees
    /// the words the pushed frontier leaves behind; `clear` zeroes them
    /// for rounds that read the word of every source.
    fn advance(&mut self, pushed: &VertexSubset, next: &VertexSubset, clear: bool) {
        if clear {
            for &v in sparse(pushed) {
                self.frontier[v as usize] = 0;
            }
        }
        for &v in sparse(next) {
            let v = v as usize;
            self.frontier[v] = std::mem::take(self.next[v].get_mut());
        }
    }
}

fn sparse(subset: &VertexSubset) -> &[VertexId] {
    match subset {
        VertexSubset::Sparse(list) => list,
        VertexSubset::Dense { .. } => unreachable!("wave frontiers are sparse"),
    }
}

/// A push rule over [`LaneWords`], driven by [`run_rounds`].
trait LaneRule<E: EdgeRecord>: PushOp<E> {
    fn words(&mut self) -> &mut LaneWords;
}

/// Lane-word BFS: `visited` holds every lane that has reached a vertex,
/// `levels` the round each `(vertex, lane)` bit was first won.
struct LaneBfs {
    words: LaneWords,
    /// One bit per lane of the wave.
    all_lanes: u64,
    visited: Vec<AtomicU64>,
    levels: Vec<AtomicU32>,
}

impl<E: EdgeRecord> PushOp<E> for LaneBfs {
    #[inline]
    fn push(&self, e: &E) -> bool {
        let v = e.dst() as usize;
        let seen = self.visited[v].load(Ordering::Relaxed);
        // Most edges of a traversal reach a vertex every lane has
        // already seen; they need not read the source's word.
        if seen == self.all_lanes {
            return false;
        }
        let prop = self.words.frontier[e.src() as usize] & !seen;
        if prop == 0 {
            return false;
        }
        let mut won = prop & !self.visited[v].fetch_or(prop, Ordering::Relaxed);
        if won == 0 {
            return false;
        }
        let first = self.words.arrive(v, won);
        // `fetch_or` on `visited[v]` admits exactly one winner per
        // (vertex, lane) bit, so each level is written once.
        while won != 0 {
            let q = won.trailing_zeros() as usize;
            self.levels[v * self.words.lanes + q].store(self.words.round, Ordering::Relaxed);
            won &= won - 1;
        }
        first
    }

    #[inline]
    fn source_active(&self, src: VertexId) -> bool {
        self.words.frontier[src as usize] != 0
    }
}

impl<E: EdgeRecord> LaneRule<E> for LaneBfs {
    fn words(&mut self) -> &mut LaneWords {
        &mut self.words
    }
}

/// Lane-word SSSP: `dist` holds one `f32` distance per `(vertex, lane)`.
struct LaneSssp {
    words: LaneWords,
    dist: Vec<AtomicF32>,
}

impl<E: EdgeRecord> PushOp<E> for LaneSssp {
    #[inline]
    fn push(&self, e: &E) -> bool {
        let (u, v) = (e.src() as usize, e.dst() as usize);
        let lanes = self.words.lanes;
        let mut word = self.words.frontier[u];
        let mut improved = 0u64;
        while word != 0 {
            let q = word.trailing_zeros() as usize;
            let nd = self.dist[u * lanes + q].load(Ordering::Relaxed) + e.weight();
            if self.dist[v * lanes + q].fetch_min(nd, Ordering::Relaxed) {
                improved |= 1 << q;
            }
            word &= word - 1;
        }
        improved != 0 && self.words.arrive(v, improved)
    }

    #[inline]
    fn source_active(&self, src: VertexId) -> bool {
        self.words.frontier[src as usize] != 0
    }
}

impl<E: EdgeRecord> LaneRule<E> for LaneSssp {
    fn words(&mut self) -> &mut LaneWords {
        &mut self.words
    }
}

/// The wave round loop: pushes `op` from `seeds` until no lane moves or
/// `max_depth` rounds have run. Serve attaches no cache probe, so the
/// drivers run with the static [`NullProbe`] and only the recorder of
/// `ctx` is passed on.
fn run_rounds<E: EdgeRecord, G: WaveGraph<E>, O: LaneRule<E>>(
    graph: &G,
    op: &mut O,
    seeds: Vec<VertexId>,
    max_depth: u32,
    ctx: &ExecCtx<'_>,
) {
    let recorder = ctx.context().recorder;
    let engine_ctx = ExecContext::new().with_recorder(recorder);
    let mut frontier = VertexSubset::from_vec(seeds);
    let mut round = 0u32;
    while !frontier.is_empty() && round < max_depth {
        round += 1;
        op.words().round = round;
        let next = graph.push_round(&frontier, &*op, engine_ctx);
        op.words().advance(&frontier, &next, G::SCANS_ALL_SOURCES);
        frontier = next;
    }
    if recorder.enabled() {
        recorder.record_counter(WAVE_ROUNDS, u64::from(round));
    }
}

/// Splits a `(vertex, lane)`-major flat array into per-lane vectors.
fn demux<C, T>(flat: &[C], lanes: usize, read: impl Fn(&C) -> T) -> Vec<Vec<T>> {
    let nv = flat.len() / lanes;
    (0..lanes)
        .map(|q| (0..nv).map(|v| read(&flat[v * lanes + q])).collect())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::{bfs, sssp};
    use crate::layout::EdgeDirection;
    use crate::preprocess::{CsrBuilder, GridBuilder, Strategy};
    use crate::types::{Edge, EdgeList, WEdge};

    fn ring_with_chords(nv: usize) -> EdgeList<Edge> {
        let mut edges = Vec::new();
        for v in 0..nv as u32 {
            edges.push(Edge::new(v, (v + 1) % nv as u32));
            edges.push(Edge::new(v, (v + 7) % nv as u32));
        }
        EdgeList::new(nv, edges).unwrap()
    }

    fn weighted_ring(nv: usize) -> EdgeList<WEdge> {
        let mut edges = Vec::new();
        for v in 0..nv as u32 {
            let w1 = 1.0 + (v % 5) as f32 * 0.25;
            let w2 = 2.0 + (v % 3) as f32 * 0.5;
            edges.push(WEdge::new(v, (v + 1) % nv as u32, w1));
            edges.push(WEdge::new(v, (v + 7) % nv as u32, w2));
        }
        EdgeList::new(nv, edges).unwrap()
    }

    #[test]
    fn multi_bfs_matches_single_query_levels_bit_for_bit() {
        let g = ring_with_chords(300);
        let adj = CsrBuilder::new(Strategy::CountSort, EdgeDirection::Out).build(&g);
        let grid = GridBuilder::new(Strategy::CountSort).side(4).build(&g);
        let sources: Vec<VertexId> = (0..64).map(|q| (q * 5) % 300).collect();
        let ctx = ExecCtx::new(None);
        let waves = super::bfs(&OutEdges(adj.out()), &sources, u32::MAX, &ctx);
        assert_eq!(waves.len(), sources.len());
        for (q, &s) in sources.iter().enumerate() {
            let single = bfs::push(&adj, s);
            assert_eq!(waves[q], single.level, "lane {q} source {s}");
        }
        assert_eq!(super::bfs(&grid, &sources, u32::MAX, &ctx), waves);
    }

    #[test]
    fn multi_bfs_truncates_at_max_depth() {
        let g = ring_with_chords(100);
        let adj = CsrBuilder::new(Strategy::CountSort, EdgeDirection::Out).build(&g);
        let waves = super::bfs(&OutEdges(adj.out()), &[0, 3], 2, &ExecCtx::new(None));
        for lane in &waves {
            assert!(lane.iter().all(|&l| l == u32::MAX || l <= 2));
            assert!(lane.contains(&1));
        }
        // Depth-2 neighborhood of a degree-2 expander is small.
        let within: usize = waves[0].iter().filter(|&&l| l != u32::MAX).count();
        assert!(within > 1 && within < 100, "{within}");
    }

    #[test]
    fn multi_bfs_handles_duplicate_sources() {
        let g = ring_with_chords(50);
        let adj = CsrBuilder::new(Strategy::CountSort, EdgeDirection::Out).build(&g);
        let waves = super::bfs(
            &OutEdges(adj.out()),
            &[7, 7, 7],
            u32::MAX,
            &ExecCtx::new(None),
        );
        assert_eq!(waves[0], waves[1]);
        assert_eq!(waves[1], waves[2]);
    }

    #[test]
    fn multi_sssp_matches_single_query_distances_bit_for_bit() {
        let g = weighted_ring(200);
        let adj = CsrBuilder::new(Strategy::CountSort, EdgeDirection::Out).build(&g);
        let grid = GridBuilder::new(Strategy::CountSort).side(4).build(&g);
        let sources: Vec<VertexId> = (0..32).map(|q| (q * 11) % 200).collect();
        let ctx = ExecCtx::new(None);
        let waves = super::sssp(&OutEdges(adj.out()), &sources, &ctx);
        for (q, &s) in sources.iter().enumerate() {
            let single = sssp::push(&adj, s);
            assert_eq!(waves[q], single.dist, "lane {q} source {s}");
        }
        assert_eq!(super::sssp(&grid, &sources, &ctx), waves);
    }

    #[test]
    fn wave_records_telemetry_when_enabled() {
        let g = ring_with_chords(64);
        let adj = CsrBuilder::new(Strategy::CountSort, EdgeDirection::Out).build(&g);
        let recorder = crate::telemetry::TraceRecorder::new();
        let ctx = ExecCtx::new(None).recorder(&recorder);
        super::bfs(&OutEdges(adj.out()), &[0, 1, 2], u32::MAX, &ctx);
        let counters = recorder.counters();
        assert!(counters.get(WAVE_ROUNDS).copied().unwrap_or(0.0) > 0.0);
        assert!(counters.get(engine::EDGES_EXAMINED).copied().unwrap_or(0.0) > 0.0);
    }
}
