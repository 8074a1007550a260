//! "When do we use OpenMP, MPI, and MapReduce (Hadoop), and why?" —
//! Assignment 5's comparison question, as structured, testable data,
//! plus executable evidence: the same sum computed by all three models.

use crate::world::run;

/// The three programming models the assignment compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Model {
    /// Shared-memory threads with compiler directives.
    OpenMp,
    /// Distributed-memory processes exchanging messages.
    Mpi,
    /// Data-parallel map/shuffle/reduce over a cluster runtime.
    MapReduce,
}

/// Memory architecture a model targets (the "types of Parallel Computer
/// Memory Architecture" question from Assignment 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemoryArchitecture {
    /// Uniform/non-uniform shared address space.
    Shared,
    /// Private memories joined by an interconnect.
    Distributed,
    /// Distributed storage with a framework-managed data flow.
    DistributedWithRuntime,
}

impl Model {
    /// The memory architecture the model assumes.
    pub fn memory(&self) -> MemoryArchitecture {
        match self {
            Model::OpenMp => MemoryArchitecture::Shared,
            Model::Mpi => MemoryArchitecture::Distributed,
            Model::MapReduce => MemoryArchitecture::DistributedWithRuntime,
        }
    }

    /// When to choose this model (the worksheet answer).
    pub fn when_to_use(&self) -> &'static str {
        match self {
            Model::OpenMp => {
                "one multicore node: incrementally parallelise loops over shared data with minimal code change"
            }
            Model::Mpi => {
                "a cluster of nodes with separate memories: explicit decomposition and messaging, fine control over communication"
            }
            Model::MapReduce => {
                "huge datasets on commodity clusters: express the job as map and reduce, let the runtime handle distribution and faults"
            }
        }
    }

    /// Who manages data movement.
    pub fn data_movement(&self) -> &'static str {
        match self {
            Model::OpenMp => "implicit: every thread reads and writes the shared address space",
            Model::Mpi => "explicit: the programmer sends and receives every byte",
            Model::MapReduce => "framework: the shuffle moves intermediate pairs automatically",
        }
    }
}

/// Executable evidence for the comparison: the sum of `data` computed
/// under all three models (OpenMP-style reduction over `workers`
/// threads, MPI scatter/reduce over `workers` ranks, and a MapReduce
/// job laid out as `workers` map workers and reduce partitions, whose
/// tasks the engine runs on the calling thread). All three must agree
/// with the sequential fold.
pub fn sum_three_ways(data: &[u64], workers: usize) -> [u64; 3] {
    // OpenMP: work-shared loop with a reduction clause.
    let team = parallel_rt::Team::new(workers);
    let openmp: u64 = team.parallel_for_reduce(
        0..data.len(),
        parallel_rt::Schedule::StaticBlock,
        parallel_rt::reduction::Sum,
        |i| data[i],
    );

    // MPI: scatter chunks, local sums, reduce to root. Pad so the data
    // splits evenly, using zeros (the identity).
    let mut padded = data.to_vec();
    while !padded.len().is_multiple_of(workers) {
        padded.push(0);
    }
    let mpi = run(workers, |rank| {
        let chunk = rank.scatter(0, rank.is_root().then(|| padded.clone()));
        let local: u64 = chunk.iter().sum();
        rank.reduce(0, local, |a, b| a + b)
    })
    .into_iter()
    .next()
    .flatten()
    .expect("root reduced");

    // MapReduce: map each element to ("sum", v), reduce by key.
    struct Summer;
    impl mapreduce_shim::MapReduce for Summer {
        type Input = u64;
        type Key = &'static str;
        type Value = u64;
        type Output = u64;
        fn map(&self, input: &u64, emit: &mut dyn FnMut(&'static str, u64)) {
            emit("sum", *input);
        }
        fn reduce(&self, _key: &&'static str, values: Vec<u64>) -> u64 {
            values.into_iter().sum()
        }
    }
    let out = mapreduce_shim::run_job(
        &Summer,
        data.to_vec(),
        &mapreduce_shim::JobConfig {
            map_workers: workers,
            reduce_workers: workers.max(1),
            ..Default::default()
        },
    );
    let mapreduce = out.results.first().map(|(_, v)| *v).unwrap_or(0);

    [openmp, mpi, mapreduce]
}

// The mapreduce crate is a sibling; alias it locally to keep the
// signature readable without a hard public dependency in this module's
// API.
mod mapreduce_shim {
    pub use mapreduce::{run_job, JobConfig, MapReduce};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn models_map_to_the_right_memory_architectures() {
        assert_eq!(Model::OpenMp.memory(), MemoryArchitecture::Shared);
        assert_eq!(Model::Mpi.memory(), MemoryArchitecture::Distributed);
        assert_eq!(
            Model::MapReduce.memory(),
            MemoryArchitecture::DistributedWithRuntime
        );
    }

    #[test]
    fn worksheet_answers_are_distinct_and_substantive() {
        let answers = [
            Model::OpenMp.when_to_use(),
            Model::Mpi.when_to_use(),
            Model::MapReduce.when_to_use(),
        ];
        assert!(answers.iter().all(|a| a.len() > 40));
        assert_ne!(answers[0], answers[1]);
        assert_ne!(answers[1], answers[2]);
        assert!(Model::Mpi.data_movement().contains("explicit"));
        assert!(Model::OpenMp.data_movement().contains("shared"));
    }

    #[test]
    fn all_three_models_compute_the_same_sum() {
        let data: Vec<u64> = (1..=100).collect();
        let [openmp, mpi, mr] = sum_three_ways(&data, 4);
        assert_eq!(openmp, 5050);
        assert_eq!(mpi, 5050);
        assert_eq!(mr, 5050);
    }

    #[test]
    fn agreement_holds_for_awkward_sizes_and_worker_counts() {
        for (n, workers) in [(1usize, 3usize), (7, 2), (13, 5), (0, 2)] {
            let data: Vec<u64> = (0..n as u64).map(|i| i * i + 1).collect();
            let expect: u64 = data.iter().sum();
            let [a, b, c] = sum_three_ways(&data, workers);
            assert_eq!(a, expect, "openmp n={n} w={workers}");
            assert_eq!(b, expect, "mpi n={n} w={workers}");
            assert_eq!(c, expect, "mapreduce n={n} w={workers}");
        }
    }
}
