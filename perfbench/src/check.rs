//! Turning oracle verdicts into the run's `attempted` and `failed`
//! counts: job answers against serial references, serve answers
//! against the graph of every epoch they may have seen.

use crate::batch::JobOutput;
use crate::oracle::{self, Arc, Csr, Update};
use crate::serve::{QueryRecord, WriteRecord};

/// Counts of checked operations.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations checked.
    pub attempted: u64,
    /// Operations that failed: a wrong answer, an error, no answer.
    pub failed: u64,
    /// The first few failures, for the run's record.
    pub errors: Vec<String>,
}

impl Tally {
    /// Counts one operation, failed when `result` is an error.
    pub fn check(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            if self.errors.len() < 8 {
                self.errors.push(format!("{what}: {e}"));
            }
        }
    }

    /// Failed over attempted.
    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Serial references for the job's four answers.
#[derive(Debug)]
pub struct JobReferences {
    root: u32,
    incoming: Csr,
    levels: Vec<u32>,
    dist: Vec<f32>,
    components: Vec<u32>,
    ranks: Vec<f64>,
}

impl JobReferences {
    /// References for the graph `arcs` on `n` vertices.
    pub fn new(n: usize, arcs: &[Arc], root: u32) -> Self {
        let out = Csr::build(n, arcs, false);
        Self {
            root,
            incoming: Csr::build(n, arcs, true),
            levels: oracle::bfs_levels(&out, root, u32::MAX),
            dist: oracle::dijkstra(&out, root),
            components: oracle::components(n, arcs),
            ranks: oracle::pagerank(n, arcs, 10, 0.85),
        }
    }

    /// Checks one job's four answers.
    pub fn check(&self, o: &JobOutput, tally: &mut Tally) {
        let bfs = oracle::check_bfs(&self.levels, &self.incoming, self.root, &o.parent, &o.level);
        tally.check("bfs", bfs);
        tally.check("pagerank", oracle::check_pagerank(&self.ranks, &o.ranks));
        tally.check("sssp", oracle::check_sssp(&self.dist, &o.dist));
        tally.check("wcc", oracle::same_partition(&self.components, &o.labels));
    }
}

/// Which of the `answered` queries match the graph of some epoch
/// published between their submit and their receipt. Epoch 1 is
/// `base`; each write without an error published the next epoch with
/// its batch applied.
pub fn match_epochs(
    n: usize,
    base: &[Arc],
    answered: &[&QueryRecord],
    writes: &[WriteRecord],
    updates: &[Vec<Update>],
) -> Vec<bool> {
    let mut matched = vec![false; answered.len()];
    let mut arcs = base.to_vec();
    let mut epoch = 1u64;
    let mut batches = writes.iter().zip(updates);
    loop {
        let wanted: Vec<usize> = (0..answered.len())
            .filter(|&i| {
                let q = answered[i];
                let seen = q.answer.as_ref().map_or(0, |a| a.epoch_after);
                !matched[i] && q.epoch_before <= epoch && epoch <= seen
            })
            .collect();
        if !wanted.is_empty() {
            let out = Csr::build(n, &arcs, false);
            let sums = parallel_map(&wanted, |&i| {
                let spec = answered[i].spec;
                let depth = spec.depth.unwrap_or(u32::MAX);
                oracle::fnv_levels(&oracle::bfs_levels(&out, spec.source, depth))
            });
            for (&i, sum) in wanted.iter().zip(sums) {
                matched[i] |= answered[i]
                    .answer
                    .as_ref()
                    .is_some_and(|a| a.checksum == sum);
            }
        }
        match batches.next() {
            Some((write, batch)) if write.error.is_none() => {
                oracle::apply_updates(&mut arcs, batch);
                epoch = write.epoch;
            }
            Some(_) => {}
            None => return matched,
        }
    }
}

/// Maps `f` over `items` on `nproc` scoped threads, keeping order.
fn parallel_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let chunk = items.len().div_ceil(threads).max(1);
    std::thread::scope(|s| {
        let handles: Vec<_> = items
            .chunks(chunk)
            .map(|c| s.spawn(|| c.iter().map(&f).collect::<Vec<R>>()))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("oracle thread panicked"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::QuerySpec;
    use crate::serve::Answer;

    // 0 -> 1 -> 2, 0 -> 3 (weights 1), 4 isolated.
    fn graph() -> Vec<Arc> {
        vec![(0, 1, 1.0), (1, 2, 1.0), (0, 3, 1.0)]
    }

    fn right_answer() -> JobOutput {
        JobOutput {
            parent: vec![0, 0, 1, 0, u32::MAX],
            level: vec![0, 1, 2, 1, u32::MAX],
            ranks: oracle::pagerank(5, &graph(), 10, 0.85)
                .iter()
                .map(|&r| r as f32)
                .collect(),
            dist: vec![0.0, 1.0, 2.0, 1.0, f32::INFINITY],
            labels: vec![9, 9, 9, 9, 4],
        }
    }

    #[test]
    fn an_injected_wrong_level_counts_as_a_failure() {
        let refs = JobReferences::new(5, &graph(), 0);
        let mut tally = Tally::default();
        refs.check(&right_answer(), &mut tally);
        assert_eq!((tally.attempted, tally.failed), (4, 0));

        let mut wrong = right_answer();
        wrong.level[2] = 1;
        refs.check(&wrong, &mut tally);
        assert_eq!((tally.attempted, tally.failed), (8, 1));
        assert_eq!(tally.error_rate(), 1.0 / 8.0);
        assert!(tally.errors[0].starts_with("bfs"));
    }

    fn answered(source: u32, epochs: (u64, u64), checksum: u64) -> QueryRecord {
        QueryRecord {
            spec: QuerySpec {
                depth: None,
                source,
            },
            due: 0.0,
            epoch_before: epochs.0,
            traced: false,
            answer: Some(Answer {
                done: 0.0,
                epoch_after: epochs.1,
                checksum,
                wave_size: 1,
                wait: 0.0,
                exec: 0.0,
                demux: 0.0,
            }),
            error: None,
        }
    }

    fn write(epoch: u64) -> WriteRecord {
        WriteRecord {
            apply: 0.0,
            compact: 0.0,
            visible: 0.0,
            merged_ops: 1,
            resident_bytes: 0,
            epoch,
            error: None,
        }
    }

    #[test]
    fn checksums_match_any_epoch_in_flight_and_nothing_else() {
        let base = graph();
        let before = oracle::fnv_levels(&[0, 1, 2, 1, u32::MAX]);
        // The write adds 3 -> 4, so vertex 4 is reached at level 2.
        let after = oracle::fnv_levels(&[0, 1, 2, 1, 2]);
        let updates = vec![vec![Update::Insert((3, 4, 1.0))]];
        let queries = [
            answered(0, (1, 1), before),
            answered(0, (2, 2), after),
            // In flight across the write: either answer is right.
            answered(0, (1, 2), after),
            answered(0, (1, 2), before),
            // An injected wrong checksum, and a stale answer.
            answered(0, (1, 2), before ^ 1),
            answered(0, (2, 2), before),
        ];
        let refs: Vec<&QueryRecord> = queries.iter().collect();
        let matched = match_epochs(5, &base, &refs, &[write(2)], &updates);
        assert_eq!(matched, vec![true, true, true, true, false, false]);

        let mut tally = Tally::default();
        for ok in matched {
            tally.check(
                "serve answer",
                if ok { Ok(()) } else { Err("mismatch".into()) },
            );
        }
        assert_eq!((tally.attempted, tally.failed), (6, 2));
    }
}
