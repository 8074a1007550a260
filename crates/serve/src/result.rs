//! The serialized outcome of one executed job.

/// What a job computes: a rendered payload plus the deterministic
/// metrics snapshot of the execution, both serialized. Stored whole in
/// the cache so a hit returns bytes identical to the cold computation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobResult {
    /// The engine's rendered output (report text, result table, study
    /// digest line — whatever the job kind documents).
    pub payload: String,
    /// The job's [`obs::MetricsSnapshot::to_json_with_digest`] export,
    /// captured from a registry private to the job so cache hits
    /// replay the exact metrics of the original computation.
    pub metrics_json: String,
}

impl JobResult {
    /// FNV-1a digest over both serialized fields, length-prefixed so
    /// the field boundary is unambiguous, streamed without copying
    /// them. The per-job leaf of the cluster's day digests.
    pub fn digest(&self) -> u64 {
        let mut h = obs::trace::Fnv1a::new();
        for field in [&self.payload, &self.metrics_json] {
            h.write(&(field.len() as u64).to_le_bytes());
            h.write(field.as_bytes());
        }
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_separates_fields_unambiguously() {
        let a = JobResult {
            payload: "ab".into(),
            metrics_json: "c".into(),
        };
        let b = JobResult {
            payload: "a".into(),
            metrics_json: "bc".into(),
        };
        assert_ne!(a.digest(), b.digest());
        assert_eq!(a.digest(), a.clone().digest());
    }
}
