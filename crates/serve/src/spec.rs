//! Typed job specifications with a canonical byte encoding.
//!
//! A [`JobSpec`] names one unit of work on one of the execution
//! engines. Its [`canonical_bytes`](JobSpec::canonical_bytes) encoding
//! is **injective by construction** — a variant tag byte followed by
//! fixed-width little-endian fields, with strings length-prefixed — so
//! the FNV-1a [`digest`](JobSpec::digest) of the encoding is the job's
//! content address: two specs differing in any field encode (and hash)
//! differently, and two textually independent submissions of the same
//! work collapse onto one cache entry. One encoder writes the encoding
//! to a sink: `canonical_bytes` collects it, and `digest` streams it
//! through FNV-1a without allocating.

use obs::trace::Fnv1a;
use parallel_rt::sim::{CostModel, ReductionStyle, SimOptions};
use parallel_rt::Schedule;

/// Where the canonical encoding goes: a `Vec` collects it, an
/// [`Fnv1a`] state hashes it.
trait Sink {
    fn put(&mut self, bytes: &[u8]);
}

impl Sink for Vec<u8> {
    fn put(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

impl Sink for Fnv1a {
    fn put(&mut self, bytes: &[u8]) {
        self.write(bytes);
    }
}

/// Per-iteration cost model of a simulated loop, as submitted data.
/// Mirrors [`parallel_rt::sim::CostModel`] with explicit integer
/// fields so the encoding is fixed-width.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CostSpec {
    /// Every iteration costs `cycles`.
    Uniform {
        /// Cycles per iteration.
        cycles: u64,
    },
    /// Iteration `i` costs `base + slope * i`.
    Linear {
        /// Cost of iteration 0.
        base: u64,
        /// Additional cycles per index step.
        slope: u64,
    },
    /// Even iterations cost `even`, odd ones `odd`.
    Alternating {
        /// Cost of even iterations.
        even: u64,
        /// Cost of odd iterations.
        odd: u64,
    },
}

impl CostSpec {
    /// The runtime cost model this spec lowers to.
    pub fn to_model(self) -> CostModel {
        match self {
            CostSpec::Uniform { cycles } => CostModel::Uniform(cycles),
            CostSpec::Linear { base, slope } => CostModel::Linear { base, slope },
            CostSpec::Alternating { even, odd } => CostModel::Alternating { even, odd },
        }
    }

    fn encode_into(self, out: &mut impl Sink) {
        let (tag, a, b) = match self {
            CostSpec::Uniform { cycles } => (0, cycles, 0),
            CostSpec::Linear { base, slope } => (1, base, slope),
            CostSpec::Alternating { even, odd } => (2, even, odd),
        };
        out.put(&[tag]);
        out.put(&a.to_le_bytes());
        out.put(&b.to_le_bytes());
    }
}

/// Loop schedule policy, as submitted data (mirrors
/// [`parallel_rt::Schedule`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScheduleSpec {
    /// One contiguous block per thread.
    StaticBlock,
    /// Round-robin chunks of the given size.
    StaticChunk {
        /// Chunk size.
        chunk: u32,
    },
    /// Free threads grab the next chunk.
    Dynamic {
        /// Chunk size.
        chunk: u32,
    },
    /// Shrinking chunks clamped below by `min_chunk`.
    Guided {
        /// Minimum chunk size.
        min_chunk: u32,
    },
}

impl ScheduleSpec {
    /// The runtime schedule this spec lowers to.
    pub fn to_schedule(self) -> Schedule {
        match self {
            ScheduleSpec::StaticBlock => Schedule::StaticBlock,
            ScheduleSpec::StaticChunk { chunk } => Schedule::StaticChunk(chunk as usize),
            ScheduleSpec::Dynamic { chunk } => Schedule::Dynamic(chunk as usize),
            ScheduleSpec::Guided { min_chunk } => Schedule::Guided(min_chunk as usize),
        }
    }

    fn encode_into(self, out: &mut impl Sink) {
        let tag = match self {
            ScheduleSpec::StaticBlock => 0,
            ScheduleSpec::StaticChunk { .. } => 1,
            ScheduleSpec::Dynamic { .. } => 2,
            ScheduleSpec::Guided { .. } => 3,
        };
        out.put(&[tag]);
        out.put(&self.chunk_param().to_le_bytes());
    }

    fn chunk_param(self) -> u32 {
        match self {
            ScheduleSpec::StaticBlock => 0,
            ScheduleSpec::StaticChunk { chunk } | ScheduleSpec::Dynamic { chunk } => chunk,
            ScheduleSpec::Guided { min_chunk } => min_chunk,
        }
    }
}

/// Reduction combine style, as submitted data (mirrors
/// [`parallel_rt::sim::ReductionStyle`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReductionStyleSpec {
    /// Master combines the partials serially.
    SerialCombine,
    /// Pairwise tree combine with barriers.
    Tree,
    /// Atomic RMW per iteration.
    AtomicPerIteration,
}

impl ReductionStyleSpec {
    /// The runtime style this spec lowers to.
    pub fn to_style(self) -> ReductionStyle {
        match self {
            ReductionStyleSpec::SerialCombine => ReductionStyle::SerialCombine,
            ReductionStyleSpec::Tree => ReductionStyle::Tree,
            ReductionStyleSpec::AtomicPerIteration => ReductionStyle::AtomicPerIteration,
        }
    }

    fn tag(self) -> u8 {
        match self {
            ReductionStyleSpec::SerialCombine => 0,
            ReductionStyleSpec::Tree => 1,
            ReductionStyleSpec::AtomicPerIteration => 2,
        }
    }
}

/// Which MapReduce computation a [`JobSpec::MapReduce`] job runs.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum MrWorkload {
    /// Word count over the generated corpus.
    WordCount,
    /// Inverted index over the generated corpus.
    InvertedIndex,
    /// Distributed grep for the given substring.
    Grep {
        /// Substring to search for.
        pattern: String,
    },
}

impl MrWorkload {
    fn encode_into(&self, out: &mut impl Sink) {
        let (tag, pattern) = match self {
            MrWorkload::WordCount => (0, ""),
            MrWorkload::InvertedIndex => (1, ""),
            MrWorkload::Grep { pattern } => (2, pattern.as_str()),
        };
        out.put(&[tag]);
        encode_str(out, pattern);
    }
}

/// Why a spec was refused at admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpecError {
    /// A thread/worker count was zero or above [`MAX_THREADS`].
    BadThreadCount,
    /// A schedule chunk parameter was zero.
    ZeroChunk,
    /// A replication batch with zero replicates, fewer than four
    /// students, or a zero permutation or bootstrap count.
    EmptyReplication,
    /// The report artefact name is not in the catalog (or is `all`,
    /// which is a composition of artefacts, not one job).
    UnknownArtefact,
    /// A MapReduce job over zero documents.
    EmptyCorpus,
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::BadThreadCount => write!(f, "thread count must be 1..={MAX_THREADS}"),
            SpecError::ZeroChunk => write!(f, "schedule chunk must be >= 1"),
            SpecError::EmptyReplication => write!(
                f,
                "replication needs replicates, students, permutations and bootstrap resamples"
            ),
            SpecError::UnknownArtefact => write!(f, "artefact not in the report catalog"),
            SpecError::EmptyCorpus => write!(f, "mapreduce corpus must be non-empty"),
        }
    }
}

/// Largest simulated thread / worker count a job may request.
pub const MAX_THREADS: u32 = 64;

/// One unit of submittable work, covering all four execution engines
/// plus the report artefact generator.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum JobSpec {
    /// A work-shared loop on the simulated quad-core Pi
    /// (parallel-rt + pi-sim).
    LoopSim {
        /// Loop iteration count.
        iterations: u64,
        /// Per-iteration cost model.
        cost: CostSpec,
        /// Work-sharing schedule.
        schedule: ScheduleSpec,
        /// Simulated software threads.
        threads: u32,
    },
    /// A sum reduction on the simulated machine.
    ReductionSim {
        /// Loop iteration count.
        iterations: u64,
        /// Cycles per iteration.
        iter_cost: u64,
        /// Simulated software threads.
        threads: u32,
        /// Combine style.
        style: ReductionStyleSpec,
    },
    /// A MapReduce job over a deterministically generated corpus.
    MapReduce {
        /// Which computation to run.
        workload: MrWorkload,
        /// Documents in the generated corpus.
        docs: u32,
        /// Corpus generator seed.
        seed: u64,
        /// Map-phase worker threads.
        map_workers: u32,
        /// Reduce-phase workers (and shuffle buckets).
        reduce_workers: u32,
    },
    /// A replication mini-study (classroom cohorts + resampling
    /// battery through the replication engine, single-threaded on the
    /// pool thread that claimed it).
    Replication {
        /// Independent study replicates.
        replicates: u32,
        /// Students per cohort.
        num_students: u32,
        /// Master seed for the seed-split streams.
        master_seed: u64,
        /// Permutations per paired test.
        permutations: u32,
        /// Bootstrap resamples per CI.
        bootstrap_reps: u32,
        /// Permutations for the section-equivalence test.
        section_permutations: u32,
    },
    /// One report artefact (a name from the
    /// [`pbl_core::experiments::ARTEFACTS`] catalog).
    Report {
        /// Artefact name, e.g. `table1`, `fig2`, `metrics`.
        artefact: String,
    },
}

fn encode_str(out: &mut impl Sink, s: &str) {
    out.put(&(s.len() as u32).to_le_bytes());
    out.put(s.as_bytes());
}

impl JobSpec {
    /// The canonical byte encoding: variant tag, then fixed-width
    /// little-endian fields in declaration order, strings
    /// length-prefixed. Injective over the whole spec space. These are
    /// the bytes [`digest`](JobSpec::digest) hashes, collected.
    pub fn canonical_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        self.encode_into(&mut out);
        out
    }

    /// The job's content address: FNV-1a of the canonical encoding,
    /// streamed through the hash as it is encoded, so it allocates
    /// nothing. The cluster computes it once per admitted submission.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv1a::new();
        self.encode_into(&mut h);
        h.finish()
    }

    /// Writes the canonical encoding to `out`.
    fn encode_into(&self, out: &mut impl Sink) {
        out.put(b"pbl-serve/v1");
        match self {
            JobSpec::LoopSim {
                iterations,
                cost,
                schedule,
                threads,
            } => {
                out.put(&[0]);
                out.put(&iterations.to_le_bytes());
                cost.encode_into(out);
                schedule.encode_into(out);
                out.put(&threads.to_le_bytes());
            }
            JobSpec::ReductionSim {
                iterations,
                iter_cost,
                threads,
                style,
            } => {
                out.put(&[1]);
                out.put(&iterations.to_le_bytes());
                out.put(&iter_cost.to_le_bytes());
                out.put(&threads.to_le_bytes());
                out.put(&[style.tag()]);
            }
            JobSpec::MapReduce {
                workload,
                docs,
                seed,
                map_workers,
                reduce_workers,
            } => {
                out.put(&[2]);
                workload.encode_into(out);
                out.put(&docs.to_le_bytes());
                out.put(&seed.to_le_bytes());
                out.put(&map_workers.to_le_bytes());
                out.put(&reduce_workers.to_le_bytes());
            }
            JobSpec::Replication {
                replicates,
                num_students,
                master_seed,
                permutations,
                bootstrap_reps,
                section_permutations,
            } => {
                out.put(&[3]);
                out.put(&replicates.to_le_bytes());
                out.put(&num_students.to_le_bytes());
                out.put(&master_seed.to_le_bytes());
                out.put(&permutations.to_le_bytes());
                out.put(&bootstrap_reps.to_le_bytes());
                out.put(&section_permutations.to_le_bytes());
            }
            JobSpec::Report { artefact } => {
                out.put(&[4]);
                encode_str(out, artefact);
            }
        }
    }

    /// Checks the spec is executable before it enters the queue.
    pub fn validate(&self) -> Result<(), SpecError> {
        let threads_ok = |t: u32| (1..=MAX_THREADS).contains(&t);
        match self {
            JobSpec::LoopSim {
                threads, schedule, ..
            } => {
                if !threads_ok(*threads) {
                    return Err(SpecError::BadThreadCount);
                }
                if !matches!(schedule, ScheduleSpec::StaticBlock) && schedule.chunk_param() == 0 {
                    return Err(SpecError::ZeroChunk);
                }
                Ok(())
            }
            JobSpec::ReductionSim { threads, .. } => {
                if threads_ok(*threads) {
                    Ok(())
                } else {
                    Err(SpecError::BadThreadCount)
                }
            }
            JobSpec::MapReduce {
                docs,
                map_workers,
                reduce_workers,
                ..
            } => {
                if *docs == 0 {
                    return Err(SpecError::EmptyCorpus);
                }
                if !threads_ok(*map_workers) || !threads_ok(*reduce_workers) {
                    return Err(SpecError::BadThreadCount);
                }
                Ok(())
            }
            JobSpec::Replication {
                replicates,
                num_students,
                permutations,
                bootstrap_reps,
                section_permutations,
                ..
            } => {
                let counts = [
                    *replicates,
                    *permutations,
                    *bootstrap_reps,
                    *section_permutations,
                ];
                if counts.contains(&0) || *num_students < 4 {
                    Err(SpecError::EmptyReplication)
                } else {
                    Ok(())
                }
            }
            JobSpec::Report { artefact } => {
                let lower = artefact.to_lowercase();
                if lower != "all" && pbl_core::experiments::is_artefact(&lower) {
                    Ok(())
                } else {
                    Err(SpecError::UnknownArtefact)
                }
            }
        }
    }

    /// Deterministic work estimate in abstract cost units, the input
    /// to the scheduler's virtual-time ticket accounting. A pure
    /// function of the spec (closed forms, no execution).
    pub fn cost_estimate(&self) -> u64 {
        match self {
            JobSpec::LoopSim {
                iterations,
                cost,
                threads,
                ..
            } => {
                let body = cost.to_model().total(*iterations as usize);
                body.saturating_add(SimOptions::default().fork_overhead * *threads as u64)
                    .max(1)
            }
            JobSpec::ReductionSim {
                iterations,
                iter_cost,
                ..
            } => iterations.saturating_mul(*iter_cost).saturating_add(1_000),
            JobSpec::MapReduce { docs, .. } => (*docs as u64).saturating_mul(200).max(1),
            JobSpec::Replication {
                replicates,
                permutations,
                bootstrap_reps,
                section_permutations,
                ..
            } => (*replicates as u64)
                .saturating_mul(
                    *permutations as u64
                        + 2 * *bootstrap_reps as u64
                        + *section_permutations as u64
                        + 500,
                )
                .max(1),
            JobSpec::Report { .. } => 50_000,
        }
    }

    /// Short stable label for traces and logs.
    pub fn kind(&self) -> &'static str {
        match self {
            JobSpec::LoopSim { .. } => "loop",
            JobSpec::ReductionSim { .. } => "reduction",
            JobSpec::MapReduce { .. } => "mapreduce",
            JobSpec::Replication { .. } => "replication",
            JobSpec::Report { .. } => "report",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> JobSpec {
        JobSpec::LoopSim {
            iterations: 1_000,
            cost: CostSpec::Linear { base: 40, slope: 2 },
            schedule: ScheduleSpec::Guided { min_chunk: 8 },
            threads: 4,
        }
    }

    #[test]
    fn digest_is_stable_across_calls_and_clones() {
        let a = sample();
        assert_eq!(a.digest(), a.digest());
        assert_eq!(a.digest(), a.clone().digest());
    }

    #[test]
    fn every_field_mutation_changes_the_digest() {
        let base = sample();
        let mutants = vec![
            JobSpec::LoopSim {
                iterations: 1_001,
                cost: CostSpec::Linear { base: 40, slope: 2 },
                schedule: ScheduleSpec::Guided { min_chunk: 8 },
                threads: 4,
            },
            JobSpec::LoopSim {
                iterations: 1_000,
                cost: CostSpec::Linear { base: 41, slope: 2 },
                schedule: ScheduleSpec::Guided { min_chunk: 8 },
                threads: 4,
            },
            JobSpec::LoopSim {
                iterations: 1_000,
                cost: CostSpec::Linear { base: 40, slope: 3 },
                schedule: ScheduleSpec::Guided { min_chunk: 8 },
                threads: 4,
            },
            JobSpec::LoopSim {
                iterations: 1_000,
                cost: CostSpec::Uniform { cycles: 40 },
                schedule: ScheduleSpec::Guided { min_chunk: 8 },
                threads: 4,
            },
            JobSpec::LoopSim {
                iterations: 1_000,
                cost: CostSpec::Linear { base: 40, slope: 2 },
                schedule: ScheduleSpec::Dynamic { chunk: 8 },
                threads: 4,
            },
            JobSpec::LoopSim {
                iterations: 1_000,
                cost: CostSpec::Linear { base: 40, slope: 2 },
                schedule: ScheduleSpec::Guided { min_chunk: 9 },
                threads: 4,
            },
            JobSpec::LoopSim {
                iterations: 1_000,
                cost: CostSpec::Linear { base: 40, slope: 2 },
                schedule: ScheduleSpec::Guided { min_chunk: 8 },
                threads: 5,
            },
        ];
        for m in &mutants {
            assert_ne!(base.canonical_bytes(), m.canonical_bytes(), "{m:?}");
            assert_ne!(base.digest(), m.digest(), "{m:?}");
        }
    }

    #[test]
    fn variant_tags_disambiguate_identical_payload_bytes() {
        // Same numeric fields through different variants must differ.
        let a = JobSpec::ReductionSim {
            iterations: 7,
            iter_cost: 7,
            threads: 7,
            style: ReductionStyleSpec::SerialCombine,
        };
        let b = JobSpec::Replication {
            replicates: 7,
            num_students: 7,
            master_seed: 7,
            permutations: 7,
            bootstrap_reps: 7,
            section_permutations: 7,
        };
        assert_ne!(a.digest(), b.digest());
        // Cost-spec variants share field widths but not tags.
        let u = CostSpec::Uniform { cycles: 9 };
        let l = CostSpec::Linear { base: 9, slope: 0 };
        let (mut ub, mut lb) = (Vec::new(), Vec::new());
        u.encode_into(&mut ub);
        l.encode_into(&mut lb);
        assert_ne!(ub, lb);
    }

    #[test]
    fn grep_pattern_is_length_prefixed() {
        // "ab" + "c" must not collide with "a" + "bc"-style ambiguity:
        // the pattern is the only string, but the length prefix still
        // distinguishes it from a longer pattern sharing a prefix.
        let a = JobSpec::MapReduce {
            workload: MrWorkload::Grep {
                pattern: "par".into(),
            },
            docs: 8,
            seed: 1,
            map_workers: 2,
            reduce_workers: 2,
        };
        let b = JobSpec::MapReduce {
            workload: MrWorkload::Grep {
                pattern: "para".into(),
            },
            docs: 8,
            seed: 1,
            map_workers: 2,
            reduce_workers: 2,
        };
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn validation_rejects_malformed_specs() {
        assert_eq!(
            JobSpec::LoopSim {
                iterations: 10,
                cost: CostSpec::Uniform { cycles: 1 },
                schedule: ScheduleSpec::Dynamic { chunk: 0 },
                threads: 4,
            }
            .validate(),
            Err(SpecError::ZeroChunk)
        );
        assert_eq!(
            JobSpec::ReductionSim {
                iterations: 10,
                iter_cost: 1,
                threads: 0,
                style: ReductionStyleSpec::Tree,
            }
            .validate(),
            Err(SpecError::BadThreadCount)
        );
        assert_eq!(
            JobSpec::Report {
                artefact: "all".into()
            }
            .validate(),
            Err(SpecError::UnknownArtefact)
        );
        assert_eq!(
            JobSpec::Report {
                artefact: "table9".into()
            }
            .validate(),
            Err(SpecError::UnknownArtefact)
        );
        assert!(JobSpec::Report {
            artefact: "table1".into()
        }
        .validate()
        .is_ok());
        assert!(sample().validate().is_ok());
    }

    #[test]
    fn cost_estimate_is_monotone_in_work() {
        let small = JobSpec::ReductionSim {
            iterations: 100,
            iter_cost: 10,
            threads: 4,
            style: ReductionStyleSpec::Tree,
        };
        let big = JobSpec::ReductionSim {
            iterations: 10_000,
            iter_cost: 10,
            threads: 4,
            style: ReductionStyleSpec::Tree,
        };
        assert!(big.cost_estimate() > small.cost_estimate());
        assert!(sample().cost_estimate() > 0);
    }
}
