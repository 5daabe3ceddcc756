//! Serial reference implementations the benchmark checks every answer
//! against. They share no code with the workspace's kernels and run
//! outside every timed interval.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashSet};

/// "Unreached" in level arrays, as the workspace writes it.
pub const UNREACHED: u32 = u32::MAX;

/// A weighted edge as the oracle sees it.
pub type Arc = (u32, u32, f32);

/// A serial compressed adjacency, built by counting sort.
#[derive(Debug)]
pub struct Csr {
    offsets: Vec<usize>,
    targets: Vec<u32>,
    weights: Vec<f32>,
}

impl Csr {
    /// Out-neighbours (`reverse == false`) or in-neighbours of every
    /// vertex.
    pub fn build(n: usize, arcs: &[Arc], reverse: bool) -> Self {
        let key = |a: &Arc| if reverse { a.1 } else { a.0 } as usize;
        let mut offsets = vec![0usize; n + 1];
        for a in arcs {
            offsets[key(a) + 1] += 1;
        }
        for v in 0..n {
            offsets[v + 1] += offsets[v];
        }
        let mut fill = offsets.clone();
        let mut targets = vec![0u32; arcs.len()];
        let mut weights = vec![0f32; arcs.len()];
        for a in arcs {
            let slot = &mut fill[key(a)];
            targets[*slot] = if reverse { a.0 } else { a.1 };
            weights[*slot] = a.2;
            *slot += 1;
        }
        Self {
            offsets,
            targets,
            weights,
        }
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    fn range(&self, v: u32) -> std::ops::Range<usize> {
        self.offsets[v as usize]..self.offsets[v as usize + 1]
    }

    /// Neighbours of `v`.
    pub fn neighbors(&self, v: u32) -> &[u32] {
        &self.targets[self.range(v)]
    }

    /// Neighbours of `v` with edge weights.
    pub fn weighted(&self, v: u32) -> impl Iterator<Item = (u32, f32)> + '_ {
        let r = self.range(v);
        self.targets[r.clone()]
            .iter()
            .copied()
            .zip(self.weights[r].iter().copied())
    }
}

/// BFS levels from `root`, stopping after `max_depth` levels.
pub fn bfs_levels(out: &Csr, root: u32, max_depth: u32) -> Vec<u32> {
    let mut level = vec![UNREACHED; out.len()];
    level[root as usize] = 0;
    let mut frontier = vec![root];
    let mut depth = 0;
    while !frontier.is_empty() && depth < max_depth {
        depth += 1;
        let mut next = Vec::new();
        for &u in &frontier {
            for &v in out.neighbors(u) {
                if level[v as usize] == UNREACHED {
                    level[v as usize] = depth;
                    next.push(v);
                }
            }
        }
        frontier = next;
    }
    level
}

/// Checks a BFS answer: levels equal the reference and every reached
/// vertex's parent is an in-neighbour one level up. Any valid tree is
/// accepted, since parallel BFS picks parents by schedule.
pub fn check_bfs(
    reference: &[u32],
    incoming: &Csr,
    root: u32,
    parent: &[u32],
    level: &[u32],
) -> Result<(), String> {
    if level != reference {
        let v = level.iter().zip(reference).position(|(a, b)| a != b);
        return Err(format!("bfs level mismatch at vertex {v:?}"));
    }
    if parent.len() != level.len() {
        return Err("bfs parent array has the wrong length".into());
    }
    for (v, (&p, &l)) in parent.iter().zip(level).enumerate() {
        let v = v as u32;
        let ok = if v == root {
            p == root
        } else if l == UNREACHED {
            p == UNREACHED
        } else {
            (p as usize) < level.len()
                && level[p as usize] == l - 1
                && incoming.neighbors(v).contains(&p)
        };
        if !ok {
            return Err(format!("bfs parent {p} of vertex {v} is not valid"));
        }
    }
    Ok(())
}

#[derive(PartialEq)]
struct Entry(f32, u32);

impl Eq for Entry {}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Entry {
    // Reversed, so the max-heap pops the nearest vertex.
    fn cmp(&self, other: &Self) -> Ordering {
        other.0.total_cmp(&self.0).then(other.1.cmp(&self.1))
    }
}

/// Dijkstra distances from `root` (`INFINITY` when unreachable).
pub fn dijkstra(out: &Csr, root: u32) -> Vec<f32> {
    let mut dist = vec![f32::INFINITY; out.len()];
    dist[root as usize] = 0.0;
    let mut heap = BinaryHeap::from([Entry(0.0, root)]);
    while let Some(Entry(d, u)) = heap.pop() {
        if d > dist[u as usize] {
            continue;
        }
        for (v, w) in out.weighted(u) {
            let nd = d + w;
            if nd < dist[v as usize] {
                dist[v as usize] = nd;
                heap.push(Entry(nd, v));
            }
        }
    }
    dist
}

/// Relative tolerance for distances summed in a different order.
pub const SSSP_TOLERANCE: f32 = 1e-4;

/// Checks SSSP distances against the reference within
/// [`SSSP_TOLERANCE`].
pub fn check_sssp(reference: &[f32], got: &[f32]) -> Result<(), String> {
    if reference.len() != got.len() {
        return Err("sssp distance array has the wrong length".into());
    }
    for (v, (&r, &g)) in reference.iter().zip(got).enumerate() {
        let ok = if r.is_finite() {
            (r - g).abs() <= SSSP_TOLERANCE * r.abs().max(1.0)
        } else {
            g == r
        };
        if !ok {
            return Err(format!("sssp distance of vertex {v}: got {g}, want {r}"));
        }
    }
    Ok(())
}

/// Weak-component representative of every vertex (union-find).
pub fn components(n: usize, arcs: &[Arc]) -> Vec<u32> {
    fn find(p: &mut [u32], mut x: u32) -> u32 {
        while p[x as usize] != x {
            p[x as usize] = p[p[x as usize] as usize];
            x = p[x as usize];
        }
        x
    }
    let mut p: Vec<u32> = (0..n as u32).collect();
    for &(a, b, _) in arcs {
        let (ra, rb) = (find(&mut p, a), find(&mut p, b));
        if ra != rb {
            p[ra.max(rb) as usize] = ra.min(rb);
        }
    }
    (0..n as u32).map(|v| find(&mut p, v)).collect()
}

/// Checks that two labelings induce the same partition.
pub fn same_partition(reference: &[u32], got: &[u32]) -> Result<(), String> {
    if reference.len() != got.len() {
        return Err("wcc label array has the wrong length".into());
    }
    let mut forward = std::collections::HashMap::new();
    let mut backward = std::collections::HashMap::new();
    for (v, (&r, &g)) in reference.iter().zip(got).enumerate() {
        if *forward.entry(r).or_insert(g) != g || *backward.entry(g).or_insert(r) != r {
            return Err(format!("wcc partition differs at vertex {v}"));
        }
    }
    Ok(())
}

/// Serial PageRank: `iterations` Jacobi steps of
/// `r' = (1-d)/n + d * sum(r[u] / outdeg(u))` from `1/n`, in `f64`.
pub fn pagerank(n: usize, arcs: &[Arc], iterations: usize, damping: f64) -> Vec<f64> {
    let mut degree = vec![0u32; n];
    for a in arcs {
        degree[a.0 as usize] += 1;
    }
    let mut ranks = vec![1.0 / n as f64; n];
    for _ in 0..iterations {
        let mut acc = vec![0.0f64; n];
        for &(s, d, _) in arcs {
            acc[d as usize] += ranks[s as usize] / f64::from(degree[s as usize]);
        }
        let base = (1.0 - damping) / n as f64;
        for (r, a) in ranks.iter_mut().zip(acc) {
            *r = base + damping * a;
        }
    }
    ranks
}

/// Largest L1 distance accepted between PageRank answers.
pub const PAGERANK_L1_TOLERANCE: f64 = 1e-3;

/// Checks ranks against the reference by L1 distance.
pub fn check_pagerank(reference: &[f64], got: &[f32]) -> Result<(), String> {
    if reference.len() != got.len() {
        return Err("pagerank array has the wrong length".into());
    }
    let l1: f64 = reference
        .iter()
        .zip(got)
        .map(|(&r, &g)| (r - f64::from(g)).abs())
        .sum();
    if l1 <= PAGERANK_L1_TOLERANCE {
        Ok(())
    } else {
        Err(format!(
            "pagerank L1 distance {l1} exceeds {PAGERANK_L1_TOLERANCE}"
        ))
    }
}

/// FNV-1a 64 over the little-endian bytes of each level, the checksum
/// the serve engine reports per answer.
pub fn fnv_levels(levels: &[u32]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &x in levels {
        for byte in x.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// One edge update.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Update {
    /// Adds one copy of an edge.
    Insert(Arc),
    /// Removes every copy of `(src, dst)`.
    Delete(u32, u32),
}

/// Applies one batch with the documented delta semantics: a delete
/// removes every copy of its edge present so far, base copies and
/// earlier inserted copies alike; a later insert adds it again.
pub fn apply_updates(arcs: &mut Vec<Arc>, batch: &[Update]) {
    let mut deleted = HashSet::new();
    let mut inserted: Vec<Arc> = Vec::new();
    for u in batch {
        match *u {
            Update::Insert(a) => inserted.push(a),
            Update::Delete(s, d) => {
                inserted.retain(|a| (a.0, a.1) != (s, d));
                deleted.insert((s, d));
            }
        }
    }
    arcs.retain(|a| !deleted.contains(&(a.0, a.1)));
    arcs.extend(inserted);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path_graph() -> Vec<Arc> {
        // 0 -> 1 -> 2 -> 3, plus 0 -> 2 (weight 5) and an isolated 4.
        vec![(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 2, 5.0)]
    }

    #[test]
    fn references_on_a_small_graph() {
        let arcs = path_graph();
        let out = Csr::build(5, &arcs, false);
        assert_eq!(bfs_levels(&out, 0, u32::MAX), vec![0, 1, 1, 2, UNREACHED]);
        assert_eq!(bfs_levels(&out, 0, 1), vec![0, 1, 1, UNREACHED, UNREACHED]);
        assert_eq!(dijkstra(&out, 0), vec![0.0, 1.0, 2.0, 3.0, f32::INFINITY]);
        let wcc = components(5, &arcs);
        assert_eq!(wcc, vec![0, 0, 0, 0, 4]);
        let pr = pagerank(5, &arcs, 10, 0.85);
        assert!(pr.iter().all(|r| *r > 0.0));
    }

    #[test]
    fn a_wrong_level_or_parent_is_caught() {
        let arcs = path_graph();
        let out = Csr::build(5, &arcs, false);
        let inc = Csr::build(5, &arcs, true);
        let reference = bfs_levels(&out, 0, u32::MAX);
        let parent = vec![0, 0, 0, 2, UNREACHED];
        assert!(check_bfs(&reference, &inc, 0, &parent, &reference).is_ok());

        let mut level = reference.clone();
        level[3] = 3;
        assert!(check_bfs(&reference, &inc, 0, &parent, &level).is_err());

        // Vertex 1 is one level above 3, but 1 -> 3 is not an edge.
        let bad_parent = vec![0, 0, 0, 1, UNREACHED];
        assert!(check_bfs(&reference, &inc, 0, &bad_parent, &reference).is_err());
    }

    #[test]
    fn partitions_compare_up_to_relabeling() {
        assert!(same_partition(&[0, 0, 2, 2], &[7, 7, 1, 1]).is_ok());
        assert!(same_partition(&[0, 0, 2, 2], &[7, 7, 7, 1]).is_err());
        assert!(same_partition(&[0, 0, 2, 2], &[7, 1, 1, 1]).is_err());
    }

    #[test]
    fn distances_and_ranks_use_tolerances() {
        assert!(check_sssp(&[0.0, 1.0, f32::INFINITY], &[0.0, 1.00001, f32::INFINITY]).is_ok());
        assert!(check_sssp(&[0.0, 1.0, f32::INFINITY], &[0.0, 1.1, f32::INFINITY]).is_err());
        assert!(check_sssp(&[0.0, f32::INFINITY], &[0.0, 3.0]).is_err());
        assert!(check_pagerank(&[0.5, 0.5], &[0.5, 0.5]).is_ok());
        assert!(check_pagerank(&[0.5, 0.5], &[0.6, 0.4]).is_err());
    }

    #[test]
    fn checksum_matches_fnv1a() {
        // FNV-1a of the empty input is the offset basis.
        assert_eq!(fnv_levels(&[]), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv_levels(&[0, 1]), fnv_levels(&[1, 0]));
    }

    #[test]
    fn updates_follow_delta_semantics() {
        let mut arcs = vec![(0, 1, 1.0), (0, 1, 1.0), (1, 2, 1.0)];
        apply_updates(
            &mut arcs,
            &[
                Update::Insert((2, 0, 1.0)),
                Update::Delete(0, 1),
                Update::Insert((0, 1, 2.0)),
                Update::Insert((1, 0, 1.0)),
                Update::Delete(1, 0),
            ],
        );
        assert_eq!(arcs, vec![(1, 2, 1.0), (2, 0, 1.0), (0, 1, 2.0)]);
    }
}
