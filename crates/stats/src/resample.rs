//! Resampling methods: bootstrap confidence intervals and permutation
//! tests. The paper reports only parametric tests; these let the
//! reproduction check that its conclusions do not hinge on normality.
//!
//! Each procedure comes in two forms:
//!
//! * the original serial form (`bootstrap_ci`, `permutation_test_paired`,
//!   `permutation_test_two_sample`), kept draw-for-draw stable so existing
//!   seeded results are reproducible; and
//! * a `*_par` form that splits its replicates into shards. The shard
//!   layout is a pure function of the replicate count ([`SHARD_REPS`]
//!   replicates per shard), and every shard draws from its own
//!   [`StreamSeeder`]-derived RNG stream, so a shard's draws depend on
//!   its index alone. The shards run in shard order on the calling
//!   thread; parallelism lives one level up, across the replicates of
//!   a batch (`pbl-replicate`), and [`crate::batch`] advances many of
//!   these shard runs in lockstep, bit-identical per lane. The `*_par`
//!   kernels also use faster draw schemes (sign flips consumed as bit
//!   masks, partial Fisher–Yates selection, two bootstrap indices per
//!   RNG word), which is why their p-values differ from the serial
//!   form's in the random stream consumed — never in distribution.

use crate::error::{ensure_finite, StatsError};
use crate::rng::{StreamSeeder, Xoshiro256};
use crate::Result;

/// Resampling replicates handled by one RNG shard in the `*_par`
/// procedures. Fixed so the shard layout — and therefore every random
/// draw — depends only on the total replicate count.
pub const SHARD_REPS: usize = 256;

pub(crate) fn shard_count(reps: usize) -> usize {
    reps.div_ceil(SHARD_REPS)
}

pub(crate) fn reps_in_shard(reps: usize, shard: usize) -> usize {
    SHARD_REPS.min(reps - shard * SHARD_REPS)
}

/// A reusable scratch buffer for drawing with-replacement resamples,
/// shared by the serial bootstrap and the `*_par` shard kernels so the
/// inner loop never reallocates.
#[derive(Debug, Clone, Default)]
pub struct ResampleScratch {
    buf: Vec<f64>,
}

impl ResampleScratch {
    /// An empty scratch; grows to the data length on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Draws `data.len()` values with replacement, one RNG word per
    /// draw — the draw order the original serial bootstrap used, kept so
    /// seeded serial results stay stable.
    pub fn fill(&mut self, data: &[f64], rng: &mut Xoshiro256) -> &[f64] {
        self.buf.resize(data.len(), 0.0);
        for slot in self.buf.iter_mut() {
            *slot = data[rng.next_below(data.len())];
        }
        &self.buf
    }

    /// Draws `data.len()` values with replacement, two indices per RNG
    /// word (32-bit Lemire halves; bias is negligible for lengths far
    /// below 2^32) — the fast path the `*_par` kernels use.
    pub fn fill_packed(&mut self, data: &[f64], rng: &mut Xoshiro256) -> &[f64] {
        debug_assert!((data.len() as u64) < (1 << 32), "sample too large");
        self.buf.resize(data.len(), 0.0);
        let len = data.len() as u64;
        let mut pairs = self.buf.chunks_exact_mut(2);
        for pair in pairs.by_ref() {
            let word = rng.next_u64();
            pair[0] = data[((word as u32 as u64 * len) >> 32) as usize];
            pair[1] = data[(((word >> 32) * len) >> 32) as usize];
        }
        if let [last] = pairs.into_remainder() {
            *last = data[rng.next_below(data.len())];
        }
        &self.buf
    }
}

/// A bootstrap percentile confidence interval for a statistic.
#[derive(Debug, Clone, PartialEq)]
pub struct BootstrapCi {
    /// Point estimate on the original sample.
    pub estimate: f64,
    /// Lower percentile bound.
    pub lo: f64,
    /// Upper percentile bound.
    pub hi: f64,
    /// Number of bootstrap replicates drawn.
    pub replicates: usize,
}

/// Symmetric percentile indices into `reps` sorted replicates.
///
/// The lower index is `floor(α/2 · reps)` clamped into the lower half;
/// the upper index is its mirror `reps − 1 − lo`. The previous
/// formulation took `ceil((1 − α/2) · reps)`, which makes the upper tail
/// one rank wider than the lower and, for tiny `reps`, could clamp onto
/// the lower index and collapse the interval to a point.
pub(crate) fn percentile_bounds(reps: usize, level: f64) -> (usize, usize) {
    let alpha = 1.0 - level;
    let lo = (((alpha / 2.0) * reps as f64).floor() as usize).min((reps - 1) / 2);
    (lo, reps - 1 - lo)
}

pub(crate) fn validate_bootstrap(data: &[f64], level: f64, reps: usize) -> Result<()> {
    if data.len() < 2 {
        return Err(StatsError::NotEnoughData {
            needed: 2,
            got: data.len(),
        });
    }
    if !(0.0 < level && level < 1.0) {
        return Err(StatsError::InvalidParameter(
            "bootstrap level must be in (0,1)",
        ));
    }
    if reps == 0 {
        return Err(StatsError::InvalidParameter(
            "bootstrap reps must be positive",
        ));
    }
    ensure_finite(data)
}

fn bootstrap_from_stats<F>(
    data: &[f64],
    statistic: F,
    level: f64,
    mut stats: Vec<f64>,
) -> BootstrapCi
where
    F: Fn(&[f64]) -> f64,
{
    let reps = stats.len();
    stats.sort_by(|a, b| a.partial_cmp(b).expect("finite statistic"));
    let (lo_idx, hi_idx) = percentile_bounds(reps, level);
    BootstrapCi {
        estimate: statistic(data),
        lo: stats[lo_idx],
        hi: stats[hi_idx],
        replicates: reps,
    }
}

/// Percentile bootstrap CI for an arbitrary statistic of one sample.
///
/// `level` is the coverage (e.g. 0.95); `reps` the number of resamples.
pub fn bootstrap_ci<F>(
    data: &[f64],
    statistic: F,
    level: f64,
    reps: usize,
    seed: u64,
) -> Result<BootstrapCi>
where
    F: Fn(&[f64]) -> f64,
{
    validate_bootstrap(data, level, reps)?;
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let mut scratch = ResampleScratch::new();
    let mut stats = Vec::with_capacity(reps);
    for _ in 0..reps {
        stats.push(statistic(scratch.fill(data, &mut rng)));
    }
    Ok(bootstrap_from_stats(data, statistic, level, stats))
}

/// [`bootstrap_ci`] with its replicates split into [`SHARD_REPS`]-rep
/// shards, each drawing from its own seed-split RNG stream.
///
/// Shard statistics concatenate in shard order before the percentile
/// step. The result differs from the serial [`bootstrap_ci`] for the
/// same seed because the shard streams consume different random draws.
pub fn bootstrap_ci_par<F>(
    data: &[f64],
    statistic: F,
    level: f64,
    reps: usize,
    seed: u64,
) -> Result<BootstrapCi>
where
    F: Fn(&[f64]) -> f64,
{
    validate_bootstrap(data, level, reps)?;
    let seeder = StreamSeeder::new(seed);
    let mut scratch = ResampleScratch::new();
    let mut stats = Vec::with_capacity(reps);
    for shard in 0..shard_count(reps) {
        let mut rng = seeder.stream(shard as u64);
        for _ in 0..reps_in_shard(reps, shard) {
            stats.push(statistic(scratch.fill_packed(data, &mut rng)));
        }
    }
    Ok(bootstrap_from_stats(data, statistic, level, stats))
}

/// Result of a permutation test.
#[derive(Debug, Clone, PartialEq)]
pub struct PermutationTest {
    /// Observed value of the statistic.
    pub observed: f64,
    /// Two-sided permutation p-value (fraction of permuted statistics at
    /// least as extreme in absolute value, with the +1 correction).
    pub p_two_sided: f64,
    /// Number of permutations drawn.
    pub permutations: usize,
}

pub(crate) fn validate_paired(first: &[f64], second: &[f64], permutations: usize) -> Result<()> {
    if first.len() != second.len() {
        return Err(StatsError::LengthMismatch {
            left: first.len(),
            right: second.len(),
        });
    }
    if first.len() < 2 {
        return Err(StatsError::NotEnoughData {
            needed: 2,
            got: first.len(),
        });
    }
    if permutations == 0 {
        return Err(StatsError::InvalidParameter(
            "permutations must be positive",
        ));
    }
    ensure_finite(first)?;
    ensure_finite(second)
}

/// Paired permutation test on mean(second − first): randomly flips the
/// sign of each pair's difference. The nonparametric analogue of the
/// paper's Table 1 paired t-test.
pub fn permutation_test_paired(
    first: &[f64],
    second: &[f64],
    permutations: usize,
    seed: u64,
) -> Result<PermutationTest> {
    validate_paired(first, second, permutations)?;
    let diffs: Vec<f64> = second.iter().zip(first).map(|(s, f)| s - f).collect();
    let n = diffs.len() as f64;
    let observed = diffs.iter().sum::<f64>() / n;
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let mut extreme = 0usize;
    for _ in 0..permutations {
        let perm_mean: f64 = diffs
            .iter()
            .map(|&d| if rng.next_u64() & 1 == 0 { d } else { -d })
            .sum::<f64>()
            / n;
        if perm_mean.abs() >= observed.abs() - 1e-15 {
            extreme += 1;
        }
    }
    Ok(PermutationTest {
        observed,
        p_two_sided: (extreme + 1) as f64 / (permutations + 1) as f64,
        permutations,
    })
}

/// One shard of sign-flip permutations. Signs are consumed 64 pairs per
/// RNG word: a set bit flips that pair, and the flipped-pair sum is
/// accumulated by iterating only the set bits (expected n/2 adds) on
/// pre-doubled differences, so the permuted sum is `total − Σ 2·dᵢ`.
fn paired_sign_flip_extremes(
    diffs_doubled: &[f64],
    total: f64,
    threshold: f64,
    reps: usize,
    rng: &mut Xoshiro256,
) -> usize {
    let n = diffs_doubled.len();
    let inv_n = 1.0 / n as f64;
    let mut extreme = 0usize;
    for _ in 0..reps {
        let mut flipped = 0.0;
        let mut base = 0usize;
        while base < n {
            let block = (n - base).min(64);
            let mut mask = rng.next_u64();
            if block < 64 {
                mask &= (1u64 << block) - 1;
            }
            while mask != 0 {
                flipped += diffs_doubled[base + mask.trailing_zeros() as usize];
                mask &= mask - 1;
            }
            base += block;
        }
        if ((total - flipped) * inv_n).abs() >= threshold {
            extreme += 1;
        }
    }
    extreme
}

/// [`permutation_test_paired`] with its permutations split into
/// [`SHARD_REPS`]-permutation shards on seed-split streams; the shards'
/// extreme counts are integers, merged by summation.
pub fn permutation_test_paired_par(
    first: &[f64],
    second: &[f64],
    permutations: usize,
    seed: u64,
) -> Result<PermutationTest> {
    validate_paired(first, second, permutations)?;
    let diffs_doubled: Vec<f64> = second
        .iter()
        .zip(first)
        .map(|(s, f)| 2.0 * (s - f))
        .collect();
    let total: f64 = diffs_doubled.iter().sum::<f64>() / 2.0;
    let observed = total / diffs_doubled.len() as f64;
    let threshold = observed.abs() - 1e-15;
    let seeder = StreamSeeder::new(seed);
    let extreme: usize = (0..shard_count(permutations))
        .map(|shard| {
            paired_sign_flip_extremes(
                &diffs_doubled,
                total,
                threshold,
                reps_in_shard(permutations, shard),
                &mut seeder.stream(shard as u64),
            )
        })
        .sum();
    Ok(PermutationTest {
        observed,
        p_two_sided: (extreme + 1) as f64 / (permutations + 1) as f64,
        permutations,
    })
}

pub(crate) fn validate_two_sample(a: &[f64], b: &[f64], permutations: usize) -> Result<()> {
    if a.len() < 2 || b.len() < 2 {
        return Err(StatsError::NotEnoughData {
            needed: 2,
            got: a.len().min(b.len()),
        });
    }
    if permutations == 0 {
        return Err(StatsError::InvalidParameter(
            "permutations must be positive",
        ));
    }
    ensure_finite(a)?;
    ensure_finite(b)
}

/// Two-sample permutation test on the difference of means (label
/// shuffling); nonparametric analogue of the independent t-test.
pub fn permutation_test_two_sample(
    a: &[f64],
    b: &[f64],
    permutations: usize,
    seed: u64,
) -> Result<PermutationTest> {
    validate_two_sample(a, b, permutations)?;
    let observed = a.iter().sum::<f64>() / a.len() as f64 - b.iter().sum::<f64>() / b.len() as f64;
    let mut pooled: Vec<f64> = a.iter().chain(b).copied().collect();
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let mut extreme = 0usize;
    for _ in 0..permutations {
        rng.shuffle(&mut pooled);
        let (pa, pb) = pooled.split_at(a.len());
        let stat =
            pa.iter().sum::<f64>() / pa.len() as f64 - pb.iter().sum::<f64>() / pb.len() as f64;
        if stat.abs() >= observed.abs() - 1e-15 {
            extreme += 1;
        }
    }
    Ok(PermutationTest {
        observed,
        p_two_sided: (extreme + 1) as f64 / (permutations + 1) as f64,
        permutations,
    })
}

/// One shard of label-shuffle permutations. Only the first group is
/// materialised, by a partial Fisher–Yates over the pooled values
/// (n_a draws instead of n), and the second group's sum is recovered
/// from the pooled total — halving both the RNG and summation work of a
/// full shuffle.
fn two_sample_partial_shuffle_extremes(
    pooled: &mut [f64],
    n_a: usize,
    total: f64,
    threshold: f64,
    reps: usize,
    rng: &mut Xoshiro256,
) -> usize {
    let n = pooled.len();
    let inv_a = 1.0 / n_a as f64;
    let inv_b = 1.0 / (n - n_a) as f64;
    let mut extreme = 0usize;
    for _ in 0..reps {
        let mut sum_a = 0.0;
        for i in 0..n_a {
            let j = i + rng.next_below(n - i);
            pooled.swap(i, j);
            sum_a += pooled[i];
        }
        if (sum_a * inv_a - (total - sum_a) * inv_b).abs() >= threshold {
            extreme += 1;
        }
    }
    extreme
}

/// [`permutation_test_two_sample`] with its permutations split into
/// [`SHARD_REPS`]-permutation shards on seed-split streams. Each shard
/// permutes the pooled sample starting from the original ordering.
pub fn permutation_test_two_sample_par(
    a: &[f64],
    b: &[f64],
    permutations: usize,
    seed: u64,
) -> Result<PermutationTest> {
    validate_two_sample(a, b, permutations)?;
    let observed = a.iter().sum::<f64>() / a.len() as f64 - b.iter().sum::<f64>() / b.len() as f64;
    let threshold = observed.abs() - 1e-15;
    let pooled: Vec<f64> = a.iter().chain(b).copied().collect();
    let total: f64 = pooled.iter().sum();
    let seeder = StreamSeeder::new(seed);
    let mut shard_pool = pooled.clone();
    let extreme: usize = (0..shard_count(permutations))
        .map(|shard| {
            shard_pool.copy_from_slice(&pooled);
            two_sample_partial_shuffle_extremes(
                &mut shard_pool,
                a.len(),
                total,
                threshold,
                reps_in_shard(permutations, shard),
                &mut seeder.stream(shard as u64),
            )
        })
        .sum();
    Ok(PermutationTest {
        observed,
        p_two_sided: (extreme + 1) as f64 / (permutations + 1) as f64,
        permutations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::descriptive::mean;
    use crate::ttest::t_test_paired;

    #[test]
    fn bootstrap_ci_covers_the_mean() {
        let data: Vec<f64> = (0..60)
            .map(|i| 4.0 + 0.2 * ((i * 37 % 11) as f64 - 5.0))
            .collect();
        let ci = bootstrap_ci(&data, |d| mean(d).unwrap(), 0.95, 500, 42).unwrap();
        assert!(ci.lo <= ci.estimate && ci.estimate <= ci.hi);
        assert!(ci.hi - ci.lo < 1.0);
    }

    #[test]
    fn bootstrap_is_deterministic_per_seed() {
        let data = [1.0, 2.0, 3.0, 4.0, 5.0];
        let a = bootstrap_ci(&data, |d| mean(d).unwrap(), 0.9, 200, 7).unwrap();
        let b = bootstrap_ci(&data, |d| mean(d).unwrap(), 0.9, 200, 7).unwrap();
        assert_eq!(a, b);
        let c = bootstrap_ci(&data, |d| mean(d).unwrap(), 0.9, 200, 8).unwrap();
        assert!(a.lo != c.lo || a.hi != c.hi);
    }

    #[test]
    fn bootstrap_rejects_bad_params() {
        let d = [1.0, 2.0, 3.0];
        assert!(bootstrap_ci(&d, |x| x[0], 1.5, 10, 0).is_err());
        assert!(bootstrap_ci(&d, |x| x[0], 0.9, 0, 0).is_err());
        assert!(bootstrap_ci(&[1.0], |x| x[0], 0.9, 10, 0).is_err());
        assert!(bootstrap_ci_par(&d, |x| x[0], 1.5, 10, 0).is_err());
        assert!(permutation_test_paired_par(&[1.0], &[1.0], 10, 0).is_err());
        assert!(permutation_test_two_sample_par(&[1.0, 2.0], &[3.0, 4.0], 0, 0).is_err());
    }

    #[test]
    fn percentile_bounds_are_symmetric_and_never_collapse_backwards() {
        // reps=1 is the degenerate floor: both bounds are the only rank.
        assert_eq!(percentile_bounds(1, 0.95), (0, 0));
        // Tiny reps with a wide level used to let ceil+clamp produce
        // hi == lo; the symmetric form keeps lo <= hi and mirrors tails.
        assert_eq!(percentile_bounds(2, 0.95), (0, 1));
        assert_eq!(percentile_bounds(3, 0.5), (0, 2));
        let (lo, hi) = percentile_bounds(2000, 0.95);
        assert_eq!(lo, 50);
        assert_eq!(hi, 1949);
        for reps in 1..64 {
            for level in [0.5, 0.8, 0.9, 0.95, 0.99, 0.999] {
                let (lo, hi) = percentile_bounds(reps, level);
                assert!(lo <= hi, "reps={reps} level={level}");
                assert!(hi < reps);
                assert_eq!(hi, reps - 1 - lo, "bounds must mirror");
            }
        }
    }

    #[test]
    fn scratch_fill_matches_the_original_draw_order() {
        let data = [5.0, 6.0, 7.0, 8.0];
        let mut rng_a = Xoshiro256::seed_from_u64(3);
        let mut rng_b = Xoshiro256::seed_from_u64(3);
        let mut scratch = ResampleScratch::new();
        let drawn = scratch.fill(&data, &mut rng_a).to_vec();
        let manual: Vec<f64> = (0..data.len())
            .map(|_| data[rng_b.next_below(data.len())])
            .collect();
        assert_eq!(drawn, manual);
    }

    #[test]
    fn packed_fill_draws_valid_values() {
        let data: Vec<f64> = (0..7).map(|i| i as f64).collect();
        let mut rng = Xoshiro256::seed_from_u64(11);
        let mut scratch = ResampleScratch::new();
        for _ in 0..100 {
            for &v in scratch.fill_packed(&data, &mut rng) {
                assert!(data.contains(&v));
            }
        }
    }

    #[test]
    fn par_variants_agree_with_serial_conclusions() {
        // Strong paired effect: both serial and sharded forms reject.
        let first: Vec<f64> = (0..40).map(|i| 3.5 + 0.05 * (i % 5) as f64).collect();
        let second: Vec<f64> = first.iter().map(|x| x + 0.3).collect();
        let serial = permutation_test_paired(&first, &second, 2000, 99).unwrap();
        let par = permutation_test_paired_par(&first, &second, 2000, 99).unwrap();
        assert!((serial.observed - par.observed).abs() < 1e-12);
        assert!(serial.p_two_sided < 0.01 && par.p_two_sided < 0.01);

        // Null paired case: both report a large p-value.
        let null_first: Vec<f64> = (0..30).map(|i| i as f64).collect();
        let null_second: Vec<f64> = null_first
            .iter()
            .enumerate()
            .map(|(i, x)| x + if i % 2 == 0 { 0.5 } else { -0.5 })
            .collect();
        let serial = permutation_test_paired(&null_first, &null_second, 1000, 5).unwrap();
        let par = permutation_test_paired_par(&null_first, &null_second, 1000, 5).unwrap();
        assert!(serial.p_two_sided > 0.3 && par.p_two_sided > 0.3);

        // Two-sample shift: both detect it; bootstrap CIs overlap well.
        let a: Vec<f64> = (0..25).map(|i| 5.0 + 0.1 * (i % 5) as f64).collect();
        let b: Vec<f64> = (0..25).map(|i| 4.0 + 0.1 * (i % 5) as f64).collect();
        let serial = permutation_test_two_sample(&a, &b, 1000, 3).unwrap();
        let par = permutation_test_two_sample_par(&a, &b, 1000, 3).unwrap();
        assert!((serial.observed - par.observed).abs() < 1e-12);
        assert!(serial.p_two_sided < 0.01 && par.p_two_sided < 0.01);

        let data: Vec<f64> = (0..60)
            .map(|i| 4.0 + 0.2 * ((i * 37 % 11) as f64 - 5.0))
            .collect();
        let s = bootstrap_ci(&data, |d| mean(d).unwrap(), 0.95, 2000, 42).unwrap();
        let p = bootstrap_ci_par(&data, |d| mean(d).unwrap(), 0.95, 2000, 42).unwrap();
        assert_eq!(s.estimate, p.estimate);
        assert!((s.lo - p.lo).abs() < 0.05 && (s.hi - p.hi).abs() < 0.05);
    }

    #[test]
    fn paired_permutation_agrees_with_t_test_on_strong_effect() {
        let first: Vec<f64> = (0..40).map(|i| 3.5 + 0.05 * (i % 5) as f64).collect();
        let second: Vec<f64> = first
            .iter()
            .map(|x| x + 0.3 + 0.02 * (x * 10.0).sin())
            .collect();
        let p = permutation_test_paired(&first, &second, 2000, 99).unwrap();
        let t = t_test_paired(&first, &second).unwrap();
        assert!(p.p_two_sided < 0.01);
        assert!(t.p_two_sided < 0.01);
        assert!((p.observed - t.mean_difference).abs() < 1e-12);
    }

    #[test]
    fn paired_permutation_null_case() {
        // Differences symmetric around zero → p should be large.
        let first: Vec<f64> = (0..30).map(|i| i as f64).collect();
        let second: Vec<f64> = first
            .iter()
            .enumerate()
            .map(|(i, x)| x + if i % 2 == 0 { 0.5 } else { -0.5 })
            .collect();
        let p = permutation_test_paired(&first, &second, 1000, 5).unwrap();
        assert!(p.p_two_sided > 0.3);
    }

    #[test]
    fn two_sample_permutation_detects_shift() {
        let a: Vec<f64> = (0..25).map(|i| 5.0 + 0.1 * (i % 5) as f64).collect();
        let b: Vec<f64> = (0..25).map(|i| 4.0 + 0.1 * (i % 5) as f64).collect();
        let p = permutation_test_two_sample(&a, &b, 1000, 3).unwrap();
        assert!(p.observed > 0.9);
        assert!(p.p_two_sided < 0.01);
    }

    #[test]
    fn permutation_errors() {
        assert!(permutation_test_paired(&[1.0], &[1.0], 10, 0).is_err());
        assert!(permutation_test_paired(&[1.0, 2.0], &[1.0], 10, 0).is_err());
        assert!(permutation_test_two_sample(&[1.0, 2.0], &[3.0, 4.0], 0, 0).is_err());
    }
}
