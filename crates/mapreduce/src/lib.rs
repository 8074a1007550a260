//! # mapreduce — an in-memory, multi-threaded MapReduce engine
//!
//! Assignment 5 has teams read Google's "Introduction to Parallel
//! Programming and MapReduce" and answer: what are map and reduce, how
//! is the model executed, and what are three example computations? This
//! crate implements the model so those answers are executable:
//!
//! * a user job implements [`MapReduce`] (a `map` that emits key/value
//!   pairs and a `reduce` that folds all values of one key);
//! * the [`engine`] runs map tasks over input splits on worker threads,
//!   hash-[`partition`]s intermediate pairs into R buckets, shuffles
//!   (groups and sorts by key), and runs reduce tasks — with optional
//!   combiners and straggler/failure re-execution, the two systems
//!   ideas the paper's reading highlights;
//! * [`examples`] contains the classic jobs: word count, distributed
//!   grep, inverted index, and URL access counting.
//!
//! ```
//! use mapreduce::examples::WordCount;
//! use mapreduce::{run_job, JobConfig};
//!
//! let out = run_job(
//!     &WordCount,
//!     vec!["to be or not to be".to_string()],
//!     &JobConfig::default(),
//! );
//! let count = |w: &str| out.results.iter().find(|(k, _)| k == w).map(|(_, c)| *c);
//! assert_eq!(count("to"), Some(2));
//! assert_eq!(count("be"), Some(2));
//! assert_eq!(count("not"), Some(1));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod engine;
pub mod examples;
pub mod partition;

use std::hash::Hash;

/// A MapReduce job definition.
///
/// `Input` is one input split (e.g. a document); `map` emits
/// intermediate `(Key, Value)` pairs; `reduce` folds every value emitted
/// under one key into one output value.
pub trait MapReduce: Sync {
    /// One input split.
    type Input: Send;
    /// Intermediate (and output) key.
    type Key: Send + Clone + Eq + Ord + Hash;
    /// Intermediate value.
    type Value: Send + Clone;
    /// Output of reducing one key.
    type Output: Send;

    /// Emits intermediate pairs for one input split.
    fn map(&self, input: &Self::Input, emit: &mut dyn FnMut(Self::Key, Self::Value));

    /// Folds all values of `key` into one output.
    fn reduce(&self, key: &Self::Key, values: Vec<Self::Value>) -> Self::Output;

    /// Optional combiner: locally pre-folds values of one key on the map
    /// side to cut shuffle traffic. Must be algebraically compatible
    /// with `reduce`. The default is a pass-through (no combining).
    fn combine(&self, _key: &Self::Key, values: Vec<Self::Value>) -> Vec<Self::Value> {
        values
    }
}

pub use engine::{run_job, JobConfig, JobOutput, JobStats};
