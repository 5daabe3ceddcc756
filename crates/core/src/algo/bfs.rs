//! Breadth-first search in every configuration the paper studies:
//! vertex-centric push (atomics or locks), vertex-centric pull with
//! early termination, direction-optimizing push-pull (Beamer's
//! heuristic, as in Ligra), edge-centric, and grid.

use std::sync::atomic::{AtomicU32, Ordering};

use egraph_cachesim::MemProbe;

use crate::engine::{self, PullOp, PushOp};
use crate::frontier::{FrontierKind, VertexSubset};
use crate::layout::{Adjacency, Grid, NeighborAccess, VertexLayout};
use crate::metrics::{
    direction_cutoff, frontier_density, timed, DirectionDecision, IterStat, StepMode,
};
use crate::telemetry::{ExecContext, IterRecord, Recorder};
use crate::types::{EdgeList, EdgeRecord, VertexId, INVALID_VERTEX};
use crate::util::{AtomicBitmap, StripedLocks, UnsyncSlice};

/// Appends `stat` to the run's iteration log and mirrors it to the
/// context's recorder (free under the default `NullRecorder`).
pub(crate) fn record_iter<P: MemProbe, R: Recorder>(
    ctx: ExecContext<'_, P, R>,
    iterations: &mut Vec<IterStat>,
    stat: IterStat,
) {
    if ctx.recorder.enabled() {
        ctx.recorder
            .record_iteration(IterRecord::from_stat(iterations.len(), &stat));
    }
    iterations.push(stat);
}

/// BFS metadata footprint: one byte of visited state per vertex ("a
/// cache line only contains the metadata associated with very few
/// vertices (64 in the case of BFS)", §5.2).
const BFS_META_BYTES: u64 = 1;

/// The result of a BFS run.
#[derive(Debug, Clone)]
pub struct BfsResult {
    /// BFS tree: `parent[v]` is the predecessor of `v`, or
    /// [`INVALID_VERTEX`] if `v` is unreachable. `parent[root] == root`.
    pub parent: Vec<VertexId>,
    /// Discovery depth per vertex (`u32::MAX` if unreachable).
    pub level: Vec<u32>,
    /// Per-iteration statistics (Fig. 6).
    pub iterations: Vec<IterStat>,
}

impl BfsResult {
    /// Number of vertices reachable from the root (including it).
    pub fn reachable_count(&self) -> usize {
        self.parent.iter().filter(|&&p| p != INVALID_VERTEX).count()
    }

    /// Total algorithm seconds across iterations.
    pub fn algorithm_seconds(&self) -> f64 {
        self.iterations.iter().map(|s| s.seconds).sum()
    }
}

/// Shared BFS state: atomically claimed parents plus discovery levels.
struct BfsState {
    parent: Vec<AtomicU32>,
    level: Vec<AtomicU32>,
    round: AtomicU32,
}

impl BfsState {
    fn new(nv: usize, root: VertexId) -> Self {
        let state = Self {
            parent: (0..nv).map(|_| AtomicU32::new(INVALID_VERTEX)).collect(),
            level: (0..nv).map(|_| AtomicU32::new(u32::MAX)).collect(),
            round: AtomicU32::new(0),
        };
        state.parent[root as usize].store(root, Ordering::Relaxed);
        state.level[root as usize].store(0, Ordering::Relaxed);
        state
    }

    fn into_result(self, iterations: Vec<IterStat>) -> BfsResult {
        BfsResult {
            parent: self.parent.into_iter().map(AtomicU32::into_inner).collect(),
            level: self.level.into_iter().map(AtomicU32::into_inner).collect(),
            iterations,
        }
    }
}

/// Push rule claiming destinations with a compare-and-swap on their
/// level, and picking parents with a write-min (Ligra's `writeMin`).
struct AtomicPushOp<'a> {
    state: &'a BfsState,
}

impl<E: EdgeRecord> PushOp<E> for AtomicPushOp<'_> {
    const META_BYTES: u64 = BFS_META_BYTES;

    #[inline]
    fn push(&self, e: &E) -> bool {
        let dst = e.dst() as usize;
        let round = self.state.round.load(Ordering::Relaxed);
        let level = self.state.level[dst].load(Ordering::Relaxed);
        if level < round {
            return false; // discovered in an earlier round
        }
        // Every frontier vertex with an edge to `dst` gets here in this
        // round, so `dst` ends up with the smallest of them as parent,
        // whichever worker runs first: parents do not depend on
        // scheduling.
        let parent = &self.state.parent[dst];
        if e.src() < parent.load(Ordering::Relaxed) {
            parent.fetch_min(e.src(), Ordering::Relaxed);
        }
        level == u32::MAX
            && self.state.level[dst]
                .compare_exchange(u32::MAX, round, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
    }

    #[inline]
    fn source_active(&self, src: VertexId) -> bool {
        // Edge-centric/grid scans: only sources discovered in the
        // previous round push this round.
        let round = self.state.round.load(Ordering::Relaxed);
        self.state.level[src as usize].load(Ordering::Relaxed) == round - 1
    }
}

/// Vertex-centric push BFS with atomic parent claims (the baseline
/// "adj. push" configuration). Runs on any [`VertexLayout`]
/// (uncompressed CSR or ccsr).
pub fn push<E: EdgeRecord, L: VertexLayout<E>>(adj: &L, root: VertexId) -> BfsResult {
    push_impl(adj, root, &ExecContext::new())
}

pub(crate) fn push_impl<E: EdgeRecord, L: VertexLayout<E>, P: MemProbe, R: Recorder>(
    adj: &L,
    root: VertexId,
    ctx: &ExecContext<'_, P, R>,
) -> BfsResult {
    let ctx = *ctx;
    let out = adj.out();
    let cutoff = direction_cutoff(out.num_edges());
    let state = BfsState::new(out.num_vertices(), root);
    let op = AtomicPushOp { state: &state };
    let mut frontier = VertexSubset::single(root);
    let mut iterations = Vec::new();
    while !frontier.is_empty() {
        state.round.fetch_add(1, Ordering::Relaxed);
        let frontier_size = frontier.len();
        let frontier_edges = frontier.out_edge_count(|v| out.degree(v));
        let observed = frontier_edges + frontier_size;
        let (next, seconds) =
            timed(|| engine::vertex_push(out, &frontier, &op, ctx, FrontierKind::Sparse));
        record_iter(
            ctx,
            &mut iterations,
            IterStat {
                frontier_size,
                edges_scanned: frontier_edges,
                seconds,
                mode: StepMode::Push,
                density: frontier_density(observed, out.num_edges()),
                decision: DirectionDecision::forced(observed, cutoff),
            },
        );
        frontier = next;
    }
    state.into_result(iterations)
}

/// Vertex-centric push BFS with per-vertex (striped) locks — the
/// paper's "push (with locks)" configuration (§6.1.2).
pub fn push_locked<E: EdgeRecord, L: VertexLayout<E>>(adj: &L, root: VertexId) -> BfsResult {
    let out = adj.out();
    let nv = out.num_vertices();
    let mut parent = vec![INVALID_VERTEX; nv];
    let mut level = vec![u32::MAX; nv];
    parent[root as usize] = root;
    level[root as usize] = 0;
    let locks = StripedLocks::default();
    let mut iterations = Vec::new();

    struct LockedPushOp<'a> {
        parent: UnsyncSlice<'a, VertexId>,
        level: UnsyncSlice<'a, u32>,
        locks: &'a StripedLocks,
        round: u32,
    }
    impl<E: EdgeRecord> PushOp<E> for LockedPushOp<'_> {
        const META_BYTES: u64 = BFS_META_BYTES;

        #[inline]
        fn push(&self, e: &E) -> bool {
            let dst = e.dst();
            self.locks.with(dst, || {
                // SAFETY: every access to `parent[dst]`/`level[dst]`
                // during the parallel step happens under the stripe
                // lock of `dst`, so the element is never accessed
                // concurrently.
                unsafe {
                    let level = self.level.read(dst as usize);
                    if level < self.round {
                        return false;
                    }
                    // The smallest frontier neighbor is the parent, as
                    // in the atomic rule.
                    if e.src() < self.parent.read(dst as usize) {
                        self.parent.write(dst as usize, e.src());
                    }
                    self.level.write(dst as usize, self.round);
                    level == u32::MAX
                }
            })
        }
    }

    let cutoff = direction_cutoff(out.num_edges());
    let mut frontier = VertexSubset::single(root);
    let mut round = 0u32;
    while !frontier.is_empty() {
        round += 1;
        let frontier_size = frontier.len();
        let frontier_edges = frontier.out_edge_count(|v| out.degree(v));
        let observed = frontier_edges + frontier_size;
        let op = LockedPushOp {
            parent: UnsyncSlice::new(&mut parent),
            level: UnsyncSlice::new(&mut level),
            locks: &locks,
            round,
        };
        let (next, seconds) = timed(|| {
            engine::vertex_push(
                out,
                &frontier,
                &op,
                ExecContext::new(),
                FrontierKind::Sparse,
            )
        });
        iterations.push(IterStat {
            frontier_size,
            edges_scanned: frontier_edges,
            seconds,
            mode: StepMode::Push,
            density: frontier_density(observed, out.num_edges()),
            decision: DirectionDecision::forced(observed, cutoff),
        });
        frontier = next;
    }
    BfsResult {
        parent,
        level,
        iterations,
    }
}

/// Pull rule: an undiscovered vertex scans its in-neighbors for a
/// member of the previous frontier and stops at the first hit — no
/// synchronization needed, since each vertex only writes itself.
struct PullState<'a> {
    state: &'a BfsState,
    in_frontier: &'a AtomicBitmap,
    activated: &'a AtomicBitmap,
}

impl<E: EdgeRecord> PullOp<E> for PullState<'_> {
    const META_BYTES: u64 = BFS_META_BYTES;

    #[inline]
    fn wants_pull(&self, dst: VertexId) -> bool {
        self.state.parent[dst as usize].load(Ordering::Relaxed) == INVALID_VERTEX
    }

    #[inline]
    fn pull(&self, dst: VertexId, e: &E) -> bool {
        let u = e.src();
        if self.in_frontier.get(u as usize) {
            // Only this thread writes `dst`'s state in pull mode.
            self.state.parent[dst as usize].store(u, Ordering::Relaxed);
            self.state.level[dst as usize]
                .store(self.state.round.load(Ordering::Relaxed), Ordering::Relaxed);
            self.activated.set(dst as usize);
            return true; // Early termination (§6.1.1).
        }
        false
    }

    #[inline]
    fn prefetch_src(&self, e: &E) {
        // The hot random read of a BFS pull is the frontier bit of the
        // providing neighbor.
        self.in_frontier.prefetch(e.src() as usize);
    }

    #[inline]
    fn activated(&self, dst: VertexId) -> bool {
        self.activated.get(dst as usize)
    }
}

/// Vertex-centric pull BFS (lock free). Requires in-edges.
pub fn pull<E: EdgeRecord, L: VertexLayout<E>>(adj: &L, root: VertexId) -> BfsResult {
    pull_impl(adj, root, &ExecContext::new())
}

pub(crate) fn pull_impl<E: EdgeRecord, L: VertexLayout<E>, P: MemProbe, R: Recorder>(
    adj: &L,
    root: VertexId,
    ctx: &ExecContext<'_, P, R>,
) -> BfsResult {
    let ctx = *ctx;
    let incoming = adj.incoming();
    let nv = incoming.num_vertices();
    let state = BfsState::new(nv, root);
    let mut iterations = Vec::new();

    let mut frontier = VertexSubset::single(root).into_dense(nv);
    while !frontier.is_empty() {
        state.round.fetch_add(1, Ordering::Relaxed);
        let frontier_size = frontier.len();
        let in_frontier = match &frontier {
            VertexSubset::Dense { bitmap, .. } => bitmap,
            VertexSubset::Sparse(_) => unreachable!("pull frontier is always dense"),
        };
        let activated = AtomicBitmap::new(nv);
        let op = PullState {
            state: &state,
            in_frontier,
            activated: &activated,
        };
        let (next, seconds) =
            timed(|| engine::vertex_pull(incoming, &op, ctx, FrontierKind::Dense));
        record_iter(
            ctx,
            &mut iterations,
            IterStat {
                frontier_size,
                edges_scanned: 0,
                seconds,
                mode: StepMode::Pull,
                // Pure pull never sums frontier degrees, so the load
                // estimate degrades to the vertex term alone.
                density: frontier_density(frontier_size, incoming.num_edges()),
                decision: DirectionDecision::forced(
                    frontier_size,
                    direction_cutoff(incoming.num_edges()),
                ),
            },
        );
        frontier = next;
    }
    state.into_result(iterations)
}

/// Direction-optimizing BFS: starts pushing, switches to pull while the
/// frontier is a large fraction of the graph, then back (Beamer \[2\],
/// Ligra \[29\]). Requires both edge directions (hence the doubled
/// pre-processing cost of Fig. 1).
pub fn push_pull<E: EdgeRecord, L: VertexLayout<E>>(adj: &L, root: VertexId) -> BfsResult {
    push_pull_impl(adj, root, &ExecContext::new())
}

pub(crate) fn push_pull_impl<E: EdgeRecord, L: VertexLayout<E>, P: MemProbe, R: Recorder>(
    adj: &L,
    root: VertexId,
    ctx: &ExecContext<'_, P, R>,
) -> BfsResult {
    let ctx = *ctx;
    let out = adj.out();
    let incoming = adj.incoming();
    let nv = out.num_vertices();
    // Beamer's switch threshold (|E| / 20) as adopted by Ligra.
    let edge_threshold = direction_cutoff(out.num_edges());
    let state = BfsState::new(nv, root);
    let mut iterations = Vec::new();

    let mut frontier = VertexSubset::single(root);
    while !frontier.is_empty() {
        state.round.fetch_add(1, Ordering::Relaxed);
        let frontier_size = frontier.len();
        let frontier_edges = frontier.out_edge_count(|v| out.degree(v));
        let decision = DirectionDecision::heuristic(frontier_edges + frontier_size, edge_threshold);
        let density = frontier_density(frontier_edges + frontier_size, out.num_edges());
        if decision.says_pull() {
            let dense = frontier.into_dense(nv);
            let in_frontier = match &dense {
                VertexSubset::Dense { bitmap, .. } => bitmap,
                VertexSubset::Sparse(_) => unreachable!(),
            };
            let activated = AtomicBitmap::new(nv);
            let op = PullState {
                state: &state,
                in_frontier,
                activated: &activated,
            };
            let (next, seconds) =
                timed(|| engine::vertex_pull(incoming, &op, ctx, FrontierKind::Dense));
            record_iter(
                ctx,
                &mut iterations,
                IterStat {
                    frontier_size,
                    edges_scanned: frontier_edges,
                    seconds,
                    mode: StepMode::Pull,
                    density,
                    decision,
                },
            );
            frontier = next;
        } else {
            let op = AtomicPushOp { state: &state };
            let (next, seconds) =
                timed(|| engine::vertex_push(out, &frontier, &op, ctx, FrontierKind::Sparse));
            record_iter(
                ctx,
                &mut iterations,
                IterStat {
                    frontier_size,
                    edges_scanned: frontier_edges,
                    seconds,
                    mode: StepMode::Push,
                    density,
                    decision,
                },
            );
            frontier = next;
        }
    }
    state.into_result(iterations)
}

/// Edge-centric BFS: every iteration streams the whole edge array and
/// pushes from last round's discoveries (§4.1's "full scan" drawback).
pub fn edge_centric<E: EdgeRecord>(edges: &EdgeList<E>, root: VertexId) -> BfsResult {
    edge_centric_impl(edges, root, &ExecContext::new())
}

pub(crate) fn edge_centric_impl<E: EdgeRecord, P: MemProbe, R: Recorder>(
    edges: &EdgeList<E>,
    root: VertexId,
    ctx: &ExecContext<'_, P, R>,
) -> BfsResult {
    let ctx = *ctx;
    let nv = edges.num_vertices();
    let state = BfsState::new(nv, root);
    let op = AtomicPushOp { state: &state };
    let mut iterations = Vec::new();
    let mut active = 1usize;
    while active > 0 {
        state.round.fetch_add(1, Ordering::Relaxed);
        let (next, seconds) =
            timed(|| engine::edge_push(edges.edges(), nv, &op, ctx, FrontierKind::Dense));
        record_iter(
            ctx,
            &mut iterations,
            IterStat {
                frontier_size: active,
                edges_scanned: edges.num_edges(),
                seconds,
                mode: StepMode::Push,
                // Edge-centric scans everything every round: the load
                // is the full edge array plus the active vertices.
                density: frontier_density(edges.num_edges() + active, edges.num_edges()),
                decision: DirectionDecision::forced(
                    edges.num_edges() + active,
                    direction_cutoff(edges.num_edges()),
                ),
            },
        );
        active = next.len();
    }
    state.into_result(iterations)
}

/// Grid BFS: push over grid cells with column ownership; sources are
/// filtered to last round's discoveries.
pub fn grid<E: EdgeRecord>(grid: &Grid<E>, root: VertexId) -> BfsResult {
    grid_impl(grid, root, &ExecContext::new())
}

pub(crate) fn grid_impl<E: EdgeRecord, P: MemProbe, R: Recorder>(
    grid: &Grid<E>,
    root: VertexId,
    ctx: &ExecContext<'_, P, R>,
) -> BfsResult {
    let ctx = *ctx;
    let nv = grid.num_vertices();
    let state = BfsState::new(nv, root);
    let op = AtomicPushOp { state: &state };
    let mut iterations = Vec::new();
    let mut active = 1usize;
    while active > 0 {
        state.round.fetch_add(1, Ordering::Relaxed);
        let (next, seconds) =
            timed(|| engine::grid_push_columns(grid, &op, ctx, FrontierKind::Dense));
        record_iter(
            ctx,
            &mut iterations,
            IterStat {
                frontier_size: active,
                edges_scanned: grid.num_edges(),
                seconds,
                mode: StepMode::Push,
                density: frontier_density(grid.num_edges() + active, grid.num_edges()),
                decision: DirectionDecision::forced(
                    grid.num_edges() + active,
                    direction_cutoff(grid.num_edges()),
                ),
            },
        );
        active = next.len();
    }
    state.into_result(iterations)
}

/// A serial reference BFS used by tests and result validation.
pub fn reference<E: EdgeRecord>(out: &Adjacency<E>, root: VertexId) -> Vec<u32> {
    let nv = out.num_vertices();
    let mut level = vec![u32::MAX; nv];
    level[root as usize] = 0;
    let mut queue = std::collections::VecDeque::from([root]);
    while let Some(u) = queue.pop_front() {
        for e in out.neighbors(u) {
            let v = e.dst() as usize;
            if level[v] == u32::MAX {
                level[v] = level[u as usize] + 1;
                queue.push_back(e.dst());
            }
        }
    }
    level
}

/// Incremental BFS over the delta layout (DESIGN.md §16): keeps the
/// level array of a fixed root and repairs only the affected subgraph
/// per applied batch.
///
/// Insertions are decrease-relaxations. Deletions run a two-phase
/// repair: first an *invalidation* fix-point — a vertex whose every
/// in-neighbor at `level-1` has itself been invalidated loses its
/// level, cascading down the tree — then a unit-weight Dijkstra over
/// the invalid region seeded from the still-valid boundary. Batches
/// over [`super::INCREMENTAL_FALLBACK_FRACTION`] recompute from
/// scratch.
#[derive(Debug, Clone)]
pub struct IncrementalBfs {
    root: VertexId,
    level: Vec<u32>,
    batches_applied: usize,
}

impl IncrementalBfs {
    /// Runs the initial full BFS from `root` on `merged` (any layout
    /// exposing both directions — the delta layout in the intended
    /// use).
    pub fn new<E, L>(merged: &L, root: VertexId) -> Self
    where
        E: EdgeRecord,
        L: VertexLayout<E>,
    {
        Self {
            root,
            level: Self::from_scratch(merged, root),
            batches_applied: 0,
        }
    }

    /// The current shortest-hop levels (`u32::MAX` = unreached).
    pub fn level(&self) -> &[u32] {
        &self.level
    }

    fn from_scratch<E, L>(merged: &L, root: VertexId) -> Vec<u32>
    where
        E: EdgeRecord,
        L: VertexLayout<E>,
    {
        let nv = merged.num_vertices();
        let mut level = vec![u32::MAX; nv];
        level[root as usize] = 0;
        let mut queue = std::collections::VecDeque::from([root]);
        while let Some(u) = queue.pop_front() {
            let next = level[u as usize] + 1;
            merged.out().for_each_span(u, |span| {
                for e in span {
                    let v = e.dst();
                    if level[v as usize] == u32::MAX {
                        level[v as usize] = next;
                        queue.push_back(v);
                    }
                }
                span.len()
            });
        }
        level
    }

    /// Repairs the levels after `batch` was applied; `merged` is the
    /// post-batch graph with both directions present.
    pub fn apply<E, L>(
        &mut self,
        merged: &L,
        batch: &crate::layout::DeltaBatch<E>,
    ) -> super::IncrementalOutcome
    where
        E: EdgeRecord,
        L: VertexLayout<E>,
    {
        self.apply_ctx(merged, batch, &ExecContext::new())
    }

    /// [`apply`](Self::apply) with telemetry: each batch repair is
    /// recorded as one iteration — the touched vertices as the
    /// frontier, the batch size as the scanned edges, and the
    /// repair-vs-fallback threshold as the decision log.
    pub fn apply_ctx<E, L, P: MemProbe, R: Recorder>(
        &mut self,
        merged: &L,
        batch: &crate::layout::DeltaBatch<E>,
        ctx: &ExecContext<'_, P, R>,
    ) -> super::IncrementalOutcome
    where
        E: EdgeRecord,
        L: VertexLayout<E>,
    {
        let (outcome, seconds) = timed(|| self.apply_inner(merged, batch));
        let step = self.batches_applied;
        self.batches_applied += 1;
        if ctx.recorder.enabled() {
            let ne = merged.num_edges();
            let cutoff = ((ne as f64 * super::INCREMENTAL_FALLBACK_FRACTION) as usize).max(1);
            ctx.recorder.record_iteration(IterRecord {
                step,
                frontier_size: outcome.touched,
                edges_scanned: batch.len(),
                seconds,
                mode: StepMode::Push,
                density: frontier_density(batch.len(), ne),
                decision: DirectionDecision::heuristic(batch.len(), cutoff),
            });
        }
        outcome
    }

    fn apply_inner<E, L>(
        &mut self,
        merged: &L,
        batch: &crate::layout::DeltaBatch<E>,
    ) -> super::IncrementalOutcome
    where
        E: EdgeRecord,
        L: VertexLayout<E>,
    {
        let fraction = batch.len() as f64 / merged.num_edges().max(1) as f64;
        if fraction > super::INCREMENTAL_FALLBACK_FRACTION {
            self.level = Self::from_scratch(merged, self.root);
            return super::IncrementalOutcome {
                fallback: true,
                touched: merged.num_vertices(),
            };
        }
        let nv = merged.num_vertices();
        let mut invalid = vec![false; nv];
        let mut suspects = std::collections::VecDeque::new();
        for op in &batch.ops {
            if let crate::layout::DeltaOp::Delete { src, dst } = op {
                // Only a deleted tree-edge candidate (dst one level
                // below src) can unsupport dst.
                if self.level[*src as usize] != u32::MAX
                    && self.level[*dst as usize] == self.level[*src as usize].saturating_add(1)
                {
                    suspects.push_back(*dst);
                }
            }
        }
        // Phase 1: invalidation fix-point. A suspect keeps its level
        // while any valid in-neighbor sits exactly one level above it;
        // losing the last supporter cascades to the out-subtree.
        let mut invalidated = 0usize;
        while let Some(v) = suspects.pop_front() {
            if v == self.root || invalid[v as usize] || self.level[v as usize] == u32::MAX {
                continue;
            }
            let want = self.level[v as usize] - 1;
            let mut supported = false;
            merged.incoming().for_each_span(v, |span| {
                for (k, e) in span.iter().enumerate() {
                    let u = e.src();
                    if !invalid[u as usize] && self.level[u as usize] == want {
                        supported = true;
                        return k;
                    }
                }
                span.len()
            });
            if !supported {
                invalid[v as usize] = true;
                invalidated += 1;
                let below = self.level[v as usize] + 1;
                merged.out().for_each_span(v, |span| {
                    for e in span {
                        let w = e.dst();
                        if !invalid[w as usize] && self.level[w as usize] == below {
                            suspects.push_back(w);
                        }
                    }
                    span.len()
                });
            }
        }
        // Phase 2: repair. Invalid vertices drop to unreached, then a
        // unit-weight Dijkstra seeded from their valid in-boundary (and
        // from insert-relaxations) restores shortest levels.
        use std::cmp::Reverse;
        let mut heap = std::collections::BinaryHeap::new();
        for v in 0..nv as VertexId {
            if invalid[v as usize] {
                self.level[v as usize] = u32::MAX;
            }
        }
        for v in 0..nv as VertexId {
            if !invalid[v as usize] {
                continue;
            }
            let mut best = u32::MAX;
            merged.incoming().for_each_span(v, |span| {
                for e in span {
                    let u = e.src() as usize;
                    if !invalid[u] && self.level[u] != u32::MAX {
                        best = best.min(self.level[u].saturating_add(1));
                    }
                }
                span.len()
            });
            if best != u32::MAX {
                heap.push(Reverse((best, v)));
            }
        }
        for op in &batch.ops {
            if let crate::layout::DeltaOp::Insert(e) = op {
                let (src, dst) = (e.src() as usize, e.dst() as usize);
                if self.level[src] != u32::MAX
                    && self.level[src].saturating_add(1) < self.level[dst]
                {
                    heap.push(Reverse((self.level[src] + 1, e.dst())));
                }
            }
        }
        let mut improved = 0usize;
        while let Some(Reverse((cand, v))) = heap.pop() {
            if cand >= self.level[v as usize] {
                continue;
            }
            self.level[v as usize] = cand;
            improved += 1;
            merged.out().for_each_span(v, |span| {
                for e in span {
                    let w = e.dst();
                    if cand + 1 < self.level[w as usize] {
                        heap.push(Reverse((cand + 1, w)));
                    }
                }
                span.len()
            });
        }
        super::IncrementalOutcome {
            fallback: false,
            touched: invalidated + improved,
        }
    }
}

/// Validates that a BFS result is a correct shortest-hop tree for the
/// graph; returns the number of reachable vertices.
///
/// # Panics
///
/// Panics (with a description) if the parent array or levels are
/// inconsistent with `reference` levels.
pub fn validate<E: EdgeRecord>(out: &Adjacency<E>, root: VertexId, result: &BfsResult) -> usize {
    let expected = reference(out, root);
    assert_eq!(expected.len(), result.level.len());
    for v in 0..expected.len() {
        assert_eq!(
            result.level[v], expected[v],
            "vertex {v}: level {} != reference {}",
            result.level[v], expected[v]
        );
        if expected[v] != u32::MAX && v as u32 != root {
            let p = result.parent[v];
            assert_ne!(p, INVALID_VERTEX, "reachable vertex {v} has no parent");
            assert_eq!(
                expected[p as usize] + 1,
                expected[v],
                "vertex {v}: parent {p} is not one level up"
            );
        }
    }
    expected.iter().filter(|&&l| l != u32::MAX).count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::{AdjacencyList, EdgeDirection};
    use crate::preprocess::{CsrBuilder, GridBuilder, Strategy};
    use crate::types::Edge;

    /// A deterministic pseudo-random graph with a giant component.
    fn test_graph(nv: usize, ne: usize, seed: u64) -> EdgeList<Edge> {
        let mut state = seed | 1;
        let mut edges = Vec::with_capacity(ne + nv);
        // A chain guarantees reachability structure worth testing.
        for v in 0..nv as u32 / 2 {
            edges.push(Edge::new(v, v + 1));
        }
        for _ in 0..ne {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let src = ((state >> 33) % nv as u64) as u32;
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let dst = ((state >> 33) % nv as u64) as u32;
            edges.push(Edge::new(src, dst));
        }
        EdgeList::new(nv, edges).unwrap()
    }

    fn layouts(input: &EdgeList<Edge>) -> (AdjacencyList<Edge>, Grid<Edge>) {
        let adj = CsrBuilder::new(Strategy::RadixSort, EdgeDirection::Both).build(input);
        let grid = GridBuilder::new(Strategy::RadixSort).side(8).build(input);
        (adj, grid)
    }

    #[test]
    fn push_matches_reference() {
        let input = test_graph(500, 2000, 42);
        let (adj, _) = layouts(&input);
        let result = push(&adj, 0);
        let reachable = validate(adj.out(), 0, &result);
        assert!(reachable > 200);
        assert_eq!(result.reachable_count(), reachable);
    }

    #[test]
    fn push_locked_matches_reference() {
        let input = test_graph(400, 1500, 7);
        let (adj, _) = layouts(&input);
        let result = push_locked(&adj, 0);
        validate(adj.out(), 0, &result);
    }

    #[test]
    fn pull_matches_reference() {
        let input = test_graph(400, 1500, 11);
        let (adj, _) = layouts(&input);
        let result = pull(&adj, 0);
        validate(adj.out(), 0, &result);
        assert!(result.iterations.iter().all(|s| s.mode == StepMode::Pull));
    }

    #[test]
    fn push_pull_matches_reference_and_switches() {
        let input = test_graph(2000, 30_000, 13);
        let (adj, _) = layouts(&input);
        let result = push_pull(&adj, 0);
        validate(adj.out(), 0, &result);
        // A dense random graph must trigger at least one pull step.
        assert!(result.iterations.iter().any(|s| s.mode == StepMode::Pull));
        assert!(result.iterations.iter().any(|s| s.mode == StepMode::Push));
    }

    #[test]
    fn edge_centric_matches_reference() {
        let input = test_graph(300, 1000, 17);
        let (adj, _) = layouts(&input);
        let result = edge_centric(&input, 0);
        validate(adj.out(), 0, &result);
    }

    #[test]
    fn grid_matches_reference() {
        let input = test_graph(300, 1000, 19);
        let (adj, grid_layout) = layouts(&input);
        let result = grid(&grid_layout, 0);
        validate(adj.out(), 0, &result);
    }

    #[test]
    fn disconnected_root_only() {
        let input = EdgeList::new(5, vec![Edge::new(1, 2)]).unwrap();
        let adj = CsrBuilder::new(Strategy::RadixSort, EdgeDirection::Both).build(&input);
        let result = push(&adj, 0);
        assert_eq!(result.reachable_count(), 1);
        assert_eq!(result.parent[0], 0);
        assert_eq!(result.parent[3], INVALID_VERTEX);
    }

    #[test]
    fn self_loops_and_duplicates_are_harmless() {
        let input = EdgeList::new(
            3,
            vec![
                Edge::new(0, 0),
                Edge::new(0, 1),
                Edge::new(0, 1),
                Edge::new(1, 2),
            ],
        )
        .unwrap();
        let adj = CsrBuilder::new(Strategy::CountSort, EdgeDirection::Both).build(&input);
        for result in [push(&adj, 0), pull(&adj, 0), push_pull(&adj, 0)] {
            assert_eq!(result.reachable_count(), 3);
            assert_eq!(result.level[2], 2);
        }
    }

    #[test]
    fn all_variants_agree_on_levels() {
        let input = test_graph(800, 5000, 23);
        let (adj, grid_layout) = layouts(&input);
        let baseline = reference(adj.out(), 0);
        for (name, result) in [
            ("push", push(&adj, 0)),
            ("push_locked", push_locked(&adj, 0)),
            ("pull", pull(&adj, 0)),
            ("push_pull", push_pull(&adj, 0)),
            ("edge", edge_centric(&input, 0)),
            ("grid", grid(&grid_layout, 0)),
        ] {
            assert_eq!(result.level, baseline, "{name}");
        }
    }

    #[test]
    fn recorder_matches_result_iterations_on_diamond() {
        let input = EdgeList::new(
            4,
            vec![
                Edge::new(0, 1),
                Edge::new(0, 2),
                Edge::new(1, 3),
                Edge::new(2, 3),
            ],
        )
        .unwrap();
        let (adj, _) = layouts(&input);
        let recorder = crate::telemetry::TraceRecorder::new();
        let result = push_impl(&adj, 0, &ExecContext::new().with_recorder(&recorder));
        let recorded = recorder.iterations();
        assert_eq!(recorded.len(), result.iterations.len());
        for (step, (rec, stat)) in recorded.iter().zip(&result.iterations).enumerate() {
            assert_eq!(rec.step, step);
            assert_eq!(*rec, IterRecord::from_stat(step, stat));
        }
        // Diamond levels: 0, 1, 1, 2 — three push steps discover, the
        // fourth finds an empty next frontier.
        assert_eq!(recorded[0].frontier_size, 1);
        assert_eq!(recorded[0].edges_scanned, 2);
    }

    #[test]
    fn push_rules_pick_the_smallest_frontier_neighbor_as_parent() {
        let input = test_graph(2000, 16000, 7);
        let (adj, cells) = layouts(&input);
        let pool = egraph_parallel::ThreadPool::new(2);
        let results = egraph_parallel::with_pool(&pool, || {
            [
                push(&adj, 0),
                push_locked(&adj, 0),
                edge_centric(&input, 0),
                grid(&cells, 0),
            ]
        });
        for (i, result) in results.iter().enumerate() {
            let level = &result.level;
            let mut want = vec![INVALID_VERTEX; level.len()];
            want[0] = 0;
            for e in input.edges() {
                let (u, v) = (e.src() as usize, e.dst() as usize);
                if level[u] != u32::MAX && level[v] == level[u] + 1 {
                    want[v] = want[v].min(e.src());
                }
            }
            assert_eq!(result.parent, want, "rule {i}");
        }
    }

    #[test]
    fn null_recorder_results_identical_to_traced() {
        let input = test_graph(600, 4000, 31);
        let (adj, _) = layouts(&input);
        let plain = push(&adj, 0);
        let recorder = crate::telemetry::TraceRecorder::new();
        let traced = push_impl(&adj, 0, &ExecContext::new().with_recorder(&recorder));
        assert_eq!(plain.parent, traced.parent);
        assert_eq!(plain.level, traced.level);
        assert!(recorder.counters()[crate::engine::EDGES_EXAMINED] > 0.0);
    }

    #[test]
    fn iteration_stats_recorded() {
        let input = test_graph(500, 3000, 29);
        let (adj, _) = layouts(&input);
        let result = push(&adj, 0);
        assert!(!result.iterations.is_empty());
        assert_eq!(result.iterations[0].frontier_size, 1);
        assert!(result.algorithm_seconds() >= 0.0);
    }

    /// The merged delta layout the incremental engine repairs over.
    fn delta_view(
        base: &EdgeList<Edge>,
        log: &crate::layout::DeltaLog<Edge>,
    ) -> crate::layout::DeltaList<Edge> {
        let (out, inc) = CsrBuilder::new(Strategy::RadixSort, EdgeDirection::Both)
            .sort_neighbors(true)
            .build(base)
            .into_parts();
        crate::layout::DeltaList::new(out, inc, log)
    }

    /// Reference levels of the merged graph (fresh CSR, serial BFS).
    fn merged_levels(base: &EdgeList<Edge>, log: &crate::layout::DeltaLog<Edge>) -> Vec<u32> {
        let merged = log.merge_into(base);
        let adj = CsrBuilder::new(Strategy::RadixSort, EdgeDirection::Out)
            .sort_neighbors(true)
            .build(&merged);
        reference(adj.out(), 0)
    }

    #[test]
    fn incremental_bfs_repairs_inserts_and_deletes() {
        use crate::layout::{DeltaBatch, DeltaLog, DeltaOp};
        let base = test_graph(200, 900, 41);
        let mut log = DeltaLog::new();
        let mut engine = IncrementalBfs::new(&delta_view(&base, &log), 0);
        assert_eq!(engine.level(), &merged_levels(&base, &log)[..]);

        // Mixed small batch: shortcut inserts plus deletions that hit
        // tree edges (every (s, d) one level apart is a candidate).
        let mut batch = DeltaBatch::new();
        batch.ops.push(DeltaOp::Insert(Edge::new(0, 150)));
        batch.ops.push(DeltaOp::Insert(Edge::new(150, 151)));
        let lv = engine.level().to_vec();
        let tree_edge = base
            .edges()
            .iter()
            .find(|e| {
                lv[e.src() as usize] != u32::MAX && lv[e.dst() as usize] == lv[e.src() as usize] + 1
            })
            .copied()
            .expect("some tree edge exists");
        batch.ops.push(DeltaOp::Delete {
            src: tree_edge.src(),
            dst: tree_edge.dst(),
        });
        for op in &batch.ops {
            log.push(*op);
        }
        let outcome = engine.apply(&delta_view(&base, &log), &batch);
        assert!(!outcome.fallback, "3 ops on 900 edges stays incremental");
        assert_eq!(engine.level(), &merged_levels(&base, &log)[..]);

        // Severing a chain leaves the tail unreached.
        let chain = EdgeList::new(40, (0..39).map(|v| Edge::new(v, v + 1)).collect()).unwrap();
        let mut clog = DeltaLog::new();
        let mut ce = IncrementalBfs::new(&delta_view(&chain, &clog), 0);
        let mut batch = DeltaBatch::new();
        batch.ops.push(DeltaOp::Delete { src: 20, dst: 21 });
        clog.push(batch.ops[0]);
        let outcome = ce.apply(&delta_view(&chain, &clog), &batch);
        assert!(!outcome.fallback);
        assert_eq!(ce.level(), &merged_levels(&chain, &clog)[..]);
        assert_eq!(ce.level()[21], u32::MAX);

        // Oversized batches fall back to from-scratch.
        let mut big = DeltaBatch::new();
        for v in 0..60u32 {
            big.ops.push(DeltaOp::Insert(Edge::new(v, v + 100)));
        }
        for op in &big.ops {
            log.push(*op);
        }
        let outcome = engine.apply(&delta_view(&base, &log), &big);
        assert!(outcome.fallback, "60 ops on ~900 edges exceeds 5%");
        assert_eq!(engine.level(), &merged_levels(&base, &log)[..]);
    }
}
