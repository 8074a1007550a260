//! Batch-major (structure-of-arrays) resampling kernels.
//!
//! The `*_par` kernels in [`crate::resample`] parallelise *within* one
//! test by sharding its replicates across threads. The replication
//! engine inverts that: thousands of independent replicates each run
//! their battery serially, so the hot loops are chain-latency bound —
//! every sign-flip add and bootstrap-draw add waits on the previous one
//! through a single floating-point accumulator.
//!
//! This module widens those loops *across replicates*. A group of up to
//! [`MAX_LANES`] replicates ("lanes") advances in lockstep: per-lane RNG
//! states are stepped together through an [`RngBank`], and per-lane
//! accumulators form independent dependency chains the CPU can overlap.
//! Inputs live in a [`CohortBatch`] — one contiguous column per field
//! per lane — and all intermediates come from a reusable
//! [`BatchScratch`] arena, so a chunk of replicates performs no
//! per-replicate allocation.
//!
//! # Bit-identity contract
//!
//! Each lane consumes **exactly its own** seed-split stream: lane `k`'s
//! shard `s` generator is `StreamSeeder::new(seeds[k]).stream(s)`,
//! precisely the generator the scalar `*_par` kernel would build for
//! seed `seeds[k]`, and every draw and floating-point accumulation
//! happens in the scalar order. Lockstep execution only interleaves
//! *independent* per-lane chains; it never shares an RNG word or
//! reassociates a sum across lanes. Consequently, for every lane:
//!
//! * [`permutation_test_paired_batch`] ≡ `permutation_test_paired_par(…)`
//! * [`bootstrap_mean_ci_batch`] ≡ `bootstrap_ci_par(…, ordered mean, …)`
//! * [`permutation_test_two_sample_batch`] ≡ `permutation_test_two_sample_par(…)`
//!
//! bit for bit — enforced by the property tests below and by the
//! engine-level scalar-vs-batched digest tests in `pbl-core`.

use crate::resample::{
    percentile_bounds, reps_in_shard, shard_count, validate_bootstrap, validate_paired,
    validate_two_sample, BootstrapCi, PermutationTest,
};
use crate::rng::{StreamSeeder, Xoshiro256};
use crate::Result;

/// Widest lockstep group the kernels form. Remainder lanes run in
/// groups of half this and finally width 1 — the width-1 instantiation
/// executes the scalar kernel's exact loop, so narrow tails cost
/// nothing in correctness, only in lost interleaving.
pub const MAX_LANES: usize = 8;

/// A bank of per-lane generators advanced in lockstep.
///
/// Lane `k` is an ordinary xoshiro256++ on its own stream; the bank
/// stores the four state words structure-of-arrays (`s0[k]…s3[k]`) so
/// one [`RngBank::next_words`] call steps every lane with straight-line
/// element-wise arithmetic — no per-lane call, no state round-trip
/// through a generator object. The per-lane output sequence is
/// byte-identical to driving that lane's [`Xoshiro256`] alone — the
/// stream-discipline property the `rng` module's tests pin down.
#[derive(Debug, Clone)]
pub struct RngBank<const W: usize> {
    s0: [u64; W],
    s1: [u64; W],
    s2: [u64; W],
    s3: [u64; W],
}

impl<const W: usize> RngBank<W> {
    fn from_states(states: [[u64; 4]; W]) -> Self {
        RngBank {
            s0: core::array::from_fn(|k| states[k][0]),
            s1: core::array::from_fn(|k| states[k][1]),
            s2: core::array::from_fn(|k| states[k][2]),
            s3: core::array::from_fn(|k| states[k][3]),
        }
    }

    /// A bank whose lane `k` is seeded directly from `seeds[k]`.
    pub fn from_seeds(seeds: [u64; W]) -> Self {
        Self::from_states(seeds.map(|seed| Xoshiro256::seed_from_u64(seed).state()))
    }

    /// A bank whose lane `k` is the shard-`shard` stream of master seed
    /// `seeds[k]` — exactly the generator the scalar `*_par` kernels
    /// build per shard.
    pub fn for_shard(seeds: [u64; W], shard: u64) -> Self {
        Self::from_states(seeds.map(|seed| StreamSeeder::new(seed).stream(shard).state()))
    }

    /// Number of lanes.
    pub const fn width(&self) -> usize {
        W
    }

    /// One raw word from every lane, in lane order.
    #[inline]
    pub fn next_words(&mut self) -> [u64; W] {
        let mut out = [0u64; W];
        #[allow(clippy::needless_range_loop)] // four state arrays share the lane index
        for k in 0..W {
            out[k] = self.s0[k]
                .wrapping_add(self.s3[k])
                .rotate_left(23)
                .wrapping_add(self.s0[k]);
            let t = self.s1[k] << 17;
            self.s2[k] ^= self.s0[k];
            self.s3[k] ^= self.s1[k];
            self.s1[k] ^= self.s2[k];
            self.s0[k] ^= self.s3[k];
            self.s2[k] ^= t;
            self.s3[k] = self.s3[k].rotate_left(45);
        }
        out
    }

    /// One raw word from lane `k` only (for per-lane remainder draws
    /// whose count differs across lanes).
    #[inline]
    fn next_word_lane(&mut self, k: usize) -> u64 {
        let out = self.s0[k]
            .wrapping_add(self.s3[k])
            .rotate_left(23)
            .wrapping_add(self.s0[k]);
        let t = self.s1[k] << 17;
        self.s2[k] ^= self.s0[k];
        self.s3[k] ^= self.s1[k];
        self.s1[k] ^= self.s2[k];
        self.s0[k] ^= self.s3[k];
        self.s2[k] ^= t;
        self.s3[k] = self.s3[k].rotate_left(45);
        out
    }

    /// Lemire bounded draw from lane `k` — identical to
    /// [`Xoshiro256::next_below`] on that lane's stream.
    #[inline]
    pub fn next_below(&mut self, k: usize, bound: usize) -> usize {
        debug_assert!(bound > 0, "bound must be positive");
        ((self.next_word_lane(k) as u128 * bound as u128) >> 64) as usize
    }
}

/// Structure-of-arrays storage for one chunk of replicates: `fields`
/// named columns, each holding `lanes` contiguous runs of `len` values.
///
/// Column-major layout keeps every lane's data for one field adjacent,
/// so a lockstep kernel walking a group of lanes streams through
/// neighbouring cache lines instead of hopping between per-replicate
/// allocations. `reset` reuses the backing allocation across chunks.
#[derive(Debug, Clone, Default)]
pub struct CohortBatch {
    fields: usize,
    lanes: usize,
    len: usize,
    data: Vec<f64>,
}

impl CohortBatch {
    /// An empty batch; takes its shape from the first `reset`.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reshapes to `fields × lanes × len`, zero-filled, reusing the
    /// existing allocation when it is large enough.
    pub fn reset(&mut self, fields: usize, lanes: usize, len: usize) {
        self.fields = fields;
        self.lanes = lanes;
        self.len = len;
        self.data.clear();
        self.data.resize(fields * lanes * len, 0.0);
    }

    /// Number of lanes (replicates) in the batch.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Values per lane per field.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the batch holds no values.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    fn offset(&self, field: usize, lane: usize) -> usize {
        debug_assert!(field < self.fields && lane < self.lanes);
        (field * self.lanes + lane) * self.len
    }

    /// One lane's column for `field`.
    pub fn lane(&self, field: usize, lane: usize) -> &[f64] {
        let at = self.offset(field, lane);
        &self.data[at..at + self.len]
    }

    /// Mutable access to one lane's column for `field`.
    pub fn lane_mut(&mut self, field: usize, lane: usize) -> &mut [f64] {
        let at = self.offset(field, lane);
        let len = self.len;
        &mut self.data[at..at + len]
    }

    /// Mutable access to one lane's columns for two *distinct* fields
    /// at once — the shape a generator filling paired columns in a
    /// single pass needs.
    pub fn lane_pair_mut(&mut self, a: usize, b: usize, lane: usize) -> (&mut [f64], &mut [f64]) {
        assert_ne!(a, b, "fields must be distinct");
        let (oa, ob) = (self.offset(a, lane), self.offset(b, lane));
        let len = self.len;
        if oa < ob {
            let (lo, hi) = self.data.split_at_mut(ob);
            (&mut lo[oa..oa + len], &mut hi[..len])
        } else {
            let (lo, hi) = self.data.split_at_mut(oa);
            (&mut hi[..len], &mut lo[ob..ob + len])
        }
    }

    /// Borrowed views of every lane's column for `field`, in lane order
    /// — the shape the batched kernels take.
    pub fn lane_refs(&self, field: usize) -> Vec<&[f64]> {
        (0..self.lanes).map(|lane| self.lane(field, lane)).collect()
    }

    /// `dst[i] = hi[i] − lo[i]` for one lane, entirely inside the
    /// batch — the paired-difference column without a temporary.
    pub fn lane_diff(&mut self, dst: usize, hi: usize, lo: usize, lane: usize) {
        let d = self.offset(dst, lane);
        let h = self.offset(hi, lane);
        let l = self.offset(lo, lane);
        for i in 0..self.len {
            self.data[d + i] = self.data[h + i] - self.data[l + i];
        }
    }
}

/// Reusable arena for the batched kernels: doubled differences, pooled
/// samples, and bootstrap statistic buffers all live here, so repeated
/// kernel calls over successive chunks allocate nothing in steady
/// state.
#[derive(Debug, Clone, Default)]
pub struct BatchScratch {
    diffs: Vec<f64>,
    inter: Vec<f64>,
    stats: Vec<Vec<f64>>,
    pool: Vec<f64>,
    pool_master: Vec<f64>,
}

impl BatchScratch {
    /// An empty arena; grows to the working-set size on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Length of the run of consecutive lanes sharing `ns[base]`'s length,
/// capped at [`MAX_LANES`] — the widest lockstep group that may start
/// at `base` for kernels requiring equal lane lengths.
fn equal_run(ns: &[usize], base: usize) -> usize {
    let n0 = ns[base];
    ns[base..]
        .iter()
        .take(MAX_LANES)
        .take_while(|&&n| n == n0)
        .count()
}

/// One lockstep group of sign-flip permutation shards: `W` lanes of
/// equal length advance together, each consuming its own seed-split
/// stream in the scalar draw order, with `W` independent accumulator
/// chains. Counts per-lane extreme permutations into `extreme`.
///
/// `inter` is scratch for the lane-interleaved copy of the doubled
/// differences (`inter[i*W + k] = d2[k][i]`) that turns each round's
/// `W` payload loads into one contiguous run.
#[inline(always)]
fn paired_group_impl<const W: usize>(
    diffs_doubled: &[&[f64]],
    total: &[f64],
    threshold: &[f64],
    permutations: usize,
    seeds: &[u64],
    inter: &mut Vec<f64>,
    extreme: &mut [usize],
) {
    let d2: [&[f64]; W] = core::array::from_fn(|k| diffs_doubled[k]);
    let total: [f64; W] = core::array::from_fn(|k| total[k]);
    let threshold: [f64; W] = core::array::from_fn(|k| threshold[k]);
    let lane_seeds: [u64; W] = core::array::from_fn(|k| seeds[k]);
    let n = d2[0].len();
    let inv_n = 1.0 / n as f64;
    inter.clear();
    inter.reserve(n * W);
    for i in 0..n {
        for col in d2.iter() {
            inter.push(col[i]);
        }
    }
    let mut ex = [0usize; W];
    for shard in 0..shard_count(permutations) {
        let mut bank = RngBank::<W>::for_shard(lane_seeds, shard as u64);
        for _ in 0..reps_in_shard(permutations, shard) {
            let mut flipped = [0.0f64; W];
            let mut base = 0usize;
            while base < n {
                let block = (n - base).min(64);
                let mut mask = bank.next_words();
                // Branchless select per bit: an unset bit contributes
                // +0.0 (the AND zeroes the payload), and `x + 0.0 == x`
                // bit for bit here because the accumulator is never
                // −0.0 — it starts at +0.0 and round-to-nearest
                // addition of anything other than two negative zeros
                // cannot produce −0.0. The set bits therefore fold in
                // ascending index order with intermediate values
                // identical to the scalar kernel's trailing-zeros
                // drain.
                let rows = &inter[base * W..(base + block) * W];
                for row in rows.chunks_exact(W) {
                    for k in 0..W {
                        let keep = (mask[k] & 1).wrapping_neg();
                        flipped[k] += f64::from_bits(row[k].to_bits() & keep);
                        mask[k] >>= 1;
                    }
                }
                base += block;
            }
            for k in 0..W {
                if ((total[k] - flipped[k]) * inv_n).abs() >= threshold[k] {
                    ex[k] += 1;
                }
            }
        }
    }
    extreme[..W].copy_from_slice(&ex);
}

/// Whether a dispatch site may take its AVX-512F arm: the host has
/// AVX-512F and, in tests, the thread's arm cap allows it.
#[cfg(target_arch = "x86_64")]
fn use_avx512f() -> bool {
    #[cfg(test)]
    if tests::ARM_CAP.get() < tests::Arm::Avx512 {
        return false;
    }
    std::arch::is_x86_feature_detected!("avx512f")
}

/// Whether a dispatch site may take its AVX2 arm: the host has AVX2
/// and, in tests, the thread's arm cap allows it.
#[cfg(target_arch = "x86_64")]
fn use_avx2() -> bool {
    #[cfg(test)]
    if tests::ARM_CAP.get() < tests::Arm::Avx2 {
        return false;
    }
    std::arch::is_x86_feature_detected!("avx2")
}

/// Dispatches [`paired_group_impl`] to an AVX2-compiled instantiation
/// when the host supports it. The wide build executes the identical
/// Rust body — same draws, same per-lane addition order, and every
/// vector operation (`vandpd`/`vaddpd`) is the IEEE-exact element-wise
/// counterpart of the scalar op — so results stay bit-identical; only
/// the register width changes.
fn paired_group<const W: usize>(
    diffs_doubled: &[&[f64]],
    total: &[f64],
    threshold: &[f64],
    permutations: usize,
    seeds: &[u64],
    inter: &mut Vec<f64>,
    extreme: &mut [usize],
) {
    #[cfg(target_arch = "x86_64")]
    #[allow(unsafe_code)]
    if use_avx512f() {
        #[target_feature(enable = "avx512f")]
        unsafe fn wide512<const W: usize>(
            diffs_doubled: &[&[f64]],
            total: &[f64],
            threshold: &[f64],
            permutations: usize,
            seeds: &[u64],
            inter: &mut Vec<f64>,
            extreme: &mut [usize],
        ) {
            paired_group_impl::<W>(
                diffs_doubled,
                total,
                threshold,
                permutations,
                seeds,
                inter,
                extreme,
            )
        }
        // SAFETY: reached only when run-time detection confirms AVX-512F.
        unsafe {
            wide512::<W>(
                diffs_doubled,
                total,
                threshold,
                permutations,
                seeds,
                inter,
                extreme,
            )
        };
        return;
    }
    #[cfg(target_arch = "x86_64")]
    #[allow(unsafe_code)]
    if use_avx2() {
        #[target_feature(enable = "avx2")]
        unsafe fn wide<const W: usize>(
            diffs_doubled: &[&[f64]],
            total: &[f64],
            threshold: &[f64],
            permutations: usize,
            seeds: &[u64],
            inter: &mut Vec<f64>,
            extreme: &mut [usize],
        ) {
            paired_group_impl::<W>(
                diffs_doubled,
                total,
                threshold,
                permutations,
                seeds,
                inter,
                extreme,
            )
        }
        // SAFETY: reached only when run-time detection confirms AVX2.
        unsafe {
            wide::<W>(
                diffs_doubled,
                total,
                threshold,
                permutations,
                seeds,
                inter,
                extreme,
            )
        };
        return;
    }
    paired_group_impl::<W>(
        diffs_doubled,
        total,
        threshold,
        permutations,
        seeds,
        inter,
        extreme,
    )
}

/// Batched paired permutation test: lane `k` computes exactly
/// `permutation_test_paired_par(first[k], second[k], permutations,
/// seeds[k])`, bit for bit, with equal-length lanes advanced in
/// lockstep. `first`, `second`, and `seeds` must have the same length.
pub fn permutation_test_paired_batch(
    first: &[&[f64]],
    second: &[&[f64]],
    permutations: usize,
    seeds: &[u64],
    scratch: &mut BatchScratch,
) -> Result<Vec<PermutationTest>> {
    assert_eq!(first.len(), second.len(), "lane count mismatch");
    assert_eq!(first.len(), seeds.len(), "lane count mismatch");
    let lanes = first.len();
    for k in 0..lanes {
        validate_paired(first[k], second[k], permutations)?;
    }

    // Doubled differences for every lane, packed into the arena.
    scratch.diffs.clear();
    let mut offsets = Vec::with_capacity(lanes + 1);
    offsets.push(0usize);
    for k in 0..lanes {
        scratch
            .diffs
            .extend(second[k].iter().zip(first[k]).map(|(s, f)| 2.0 * (s - f)));
        offsets.push(scratch.diffs.len());
    }
    let d2: Vec<&[f64]> = (0..lanes)
        .map(|k| &scratch.diffs[offsets[k]..offsets[k + 1]])
        .collect();
    let ns: Vec<usize> = d2.iter().map(|d| d.len()).collect();
    let total: Vec<f64> = d2.iter().map(|d| d.iter().sum::<f64>() / 2.0).collect();
    let observed: Vec<f64> = (0..lanes).map(|k| total[k] / ns[k] as f64).collect();
    let threshold: Vec<f64> = observed.iter().map(|o| o.abs() - 1e-15).collect();

    let mut extreme = vec![0usize; lanes];
    let mut base = 0usize;
    while base < lanes {
        let run = equal_run(&ns, base);
        if run >= MAX_LANES {
            paired_group::<MAX_LANES>(
                &d2[base..],
                &total[base..],
                &threshold[base..],
                permutations,
                &seeds[base..],
                &mut scratch.inter,
                &mut extreme[base..],
            );
            base += MAX_LANES;
        } else if run >= MAX_LANES / 2 {
            paired_group::<{ MAX_LANES / 2 }>(
                &d2[base..],
                &total[base..],
                &threshold[base..],
                permutations,
                &seeds[base..],
                &mut scratch.inter,
                &mut extreme[base..],
            );
            base += MAX_LANES / 2;
        } else {
            paired_group::<1>(
                &d2[base..],
                &total[base..],
                &threshold[base..],
                permutations,
                &seeds[base..],
                &mut scratch.inter,
                &mut extreme[base..],
            );
            base += 1;
        }
    }

    Ok((0..lanes)
        .map(|k| PermutationTest {
            observed: observed[k],
            p_two_sided: (extreme[k] + 1) as f64 / (permutations + 1) as f64,
            permutations,
        })
        .collect())
}

/// One lockstep group of packed bootstrap-draw shards. The scalar
/// kernel fills a resample buffer (two Lemire draws per word) and then
/// sums it in index order; here the gather and the sum are fused —
/// same draws, same addition order, no buffer traffic — across `W`
/// independent per-lane sum chains.
#[inline(always)]
fn bootstrap_group_impl<const W: usize>(
    data: &[&[f64]],
    reps: usize,
    seeds: &[u64],
    stats: &mut [Vec<f64>],
) {
    let cols: [&[f64]; W] = core::array::from_fn(|k| data[k]);
    let lane_seeds: [u64; W] = core::array::from_fn(|k| seeds[k]);
    let n = cols[0].len();
    debug_assert!((n as u64) < (1 << 32), "sample too large");
    let len = n as u64;
    for shard in 0..shard_count(reps) {
        let mut bank = RngBank::<W>::for_shard(lane_seeds, shard as u64);
        for _ in 0..reps_in_shard(reps, shard) {
            let mut sum = [0.0f64; W];
            for _ in 0..n / 2 {
                let words = bank.next_words();
                for k in 0..W {
                    let word = words[k];
                    sum[k] += cols[k][((word as u32 as u64 * len) >> 32) as usize];
                    sum[k] += cols[k][(((word >> 32) * len) >> 32) as usize];
                }
            }
            if n % 2 == 1 {
                for k in 0..W {
                    sum[k] += cols[k][bank.next_below(k, n)];
                }
            }
            for (k, s) in sum.iter().enumerate() {
                stats[k].push(s / n as f64);
            }
        }
    }
}

/// Hand-vectorized AVX-512 instantiation of the [`MAX_LANES`]-lane
/// bootstrap group for even `n`. The generic impl compiles to scalar
/// gathers with per-word vector-register extracts; this version keeps
/// the whole round in zmm registers: one vectorized xoshiro256++ step
/// (the identical word per lane — same adds, rotates, shifts, xors),
/// packed 32-bit Lemire index maps (`vpmuludq` computes the very same
/// `(u32 · n) >> 32` products), and `vgatherqpd` loads from a
/// lane-interleaved copy of the columns. The two accumulations per word
/// are element-wise vector adds in low-then-high order, so every lane's
/// sum is the same left-fold the scalar kernel computes, bit for bit —
/// the `bootstrap_batch_matches_scalar` tests pin this down on AVX-512
/// hosts.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
#[target_feature(enable = "avx512f")]
unsafe fn bootstrap_group_w8_avx512(
    data: &[&[f64]],
    reps: usize,
    seeds: &[u64],
    inter: &mut Vec<f64>,
    stats: &mut [Vec<f64>],
) {
    use core::arch::x86_64::*;
    const W: usize = MAX_LANES;
    // The interleaved-index shift below is hard-wired to eight lanes.
    const { assert!(MAX_LANES == 8) };
    let n = data[0].len();
    debug_assert!(n.is_multiple_of(2), "odd n takes the generic path");
    debug_assert!((n as u64) < (1 << 32), "sample too large");
    let len = n as u64;
    inter.clear();
    inter.resize(n * W, 0.0);
    for (k, col) in data.iter().take(W).enumerate() {
        for (i, &v) in col.iter().enumerate() {
            inter[i * W + k] = v;
        }
    }
    let base = inter.as_ptr();
    let lane_seeds: [u64; W] = core::array::from_fn(|k| seeds[k]);
    // SAFETY: everything below is register arithmetic plus gathers whose
    // byte offsets are `(idx * W + k) * 8` with `idx < n` (Lemire maps
    // a 32-bit value into [0, n)) and `k < W` — always inside the
    // `n * W`-element interleaved buffer.
    let lane = _mm512_set_epi64(7, 6, 5, 4, 3, 2, 1, 0);
    let vlen = _mm512_set1_epi64(len as i64);
    for shard in 0..shard_count(reps) {
        let bank = RngBank::<W>::for_shard(lane_seeds, shard as u64);
        let mut s0 = _mm512_loadu_si512(bank.s0.as_ptr() as *const _);
        let mut s1 = _mm512_loadu_si512(bank.s1.as_ptr() as *const _);
        let mut s2 = _mm512_loadu_si512(bank.s2.as_ptr() as *const _);
        let mut s3 = _mm512_loadu_si512(bank.s3.as_ptr() as *const _);
        for _ in 0..reps_in_shard(reps, shard) {
            let mut sum = _mm512_setzero_pd();
            for _ in 0..n / 2 {
                let word = _mm512_add_epi64(_mm512_rol_epi64::<23>(_mm512_add_epi64(s0, s3)), s0);
                let t = _mm512_slli_epi64::<17>(s1);
                s2 = _mm512_xor_si512(s2, s0);
                s3 = _mm512_xor_si512(s3, s1);
                s1 = _mm512_xor_si512(s1, s2);
                s0 = _mm512_xor_si512(s0, s3);
                s2 = _mm512_xor_si512(s2, t);
                s3 = _mm512_rol_epi64::<45>(s3);
                let idx_lo = _mm512_srli_epi64::<32>(_mm512_mul_epu32(word, vlen));
                let idx_hi =
                    _mm512_srli_epi64::<32>(_mm512_mul_epu32(_mm512_srli_epi64::<32>(word), vlen));
                let vi_lo = _mm512_add_epi64(_mm512_slli_epi64::<3>(idx_lo), lane);
                let vi_hi = _mm512_add_epi64(_mm512_slli_epi64::<3>(idx_hi), lane);
                sum = _mm512_add_pd(sum, _mm512_i64gather_pd::<8>(vi_lo, base));
                sum = _mm512_add_pd(sum, _mm512_i64gather_pd::<8>(vi_hi, base));
            }
            let mut sums = [0.0f64; W];
            _mm512_storeu_pd(sums.as_mut_ptr(), sum);
            for (k, s) in sums.iter().enumerate() {
                stats[k].push(s / n as f64);
            }
        }
    }
}

/// Run-time AVX2 dispatch for [`bootstrap_group_impl`]; see
/// [`paired_group`] for why the wide instantiation is bit-identical.
fn bootstrap_group<const W: usize>(
    data: &[&[f64]],
    reps: usize,
    seeds: &[u64],
    inter: &mut Vec<f64>,
    stats: &mut [Vec<f64>],
) {
    #[cfg(not(target_arch = "x86_64"))]
    let _ = &inter;
    #[cfg(target_arch = "x86_64")]
    #[allow(unsafe_code)]
    if W == MAX_LANES && data[0].len().is_multiple_of(2) && use_avx512f() {
        // SAFETY: reached only when run-time detection confirms AVX-512F.
        unsafe { bootstrap_group_w8_avx512(data, reps, seeds, inter, stats) };
        return;
    }
    #[cfg(target_arch = "x86_64")]
    #[allow(unsafe_code)]
    if use_avx512f() {
        #[target_feature(enable = "avx512f")]
        unsafe fn wide512<const W: usize>(
            data: &[&[f64]],
            reps: usize,
            seeds: &[u64],
            stats: &mut [Vec<f64>],
        ) {
            bootstrap_group_impl::<W>(data, reps, seeds, stats)
        }
        // SAFETY: reached only when run-time detection confirms AVX-512F.
        unsafe { wide512::<W>(data, reps, seeds, stats) };
        return;
    }
    #[cfg(target_arch = "x86_64")]
    #[allow(unsafe_code)]
    if use_avx2() {
        #[target_feature(enable = "avx2")]
        unsafe fn wide<const W: usize>(
            data: &[&[f64]],
            reps: usize,
            seeds: &[u64],
            stats: &mut [Vec<f64>],
        ) {
            bootstrap_group_impl::<W>(data, reps, seeds, stats)
        }
        // SAFETY: reached only when run-time detection confirms AVX2.
        unsafe { wide::<W>(data, reps, seeds, stats) };
        return;
    }
    bootstrap_group_impl::<W>(data, reps, seeds, stats)
}

/// Batched percentile-bootstrap CI of the ordered mean
/// (`Σ data[i] / len`, left to right — the `mean_diff` statistic the
/// replication battery uses): lane `k` computes exactly
/// `bootstrap_ci_par(data[k], ordered mean, level, reps, seeds[k])`,
/// bit for bit.
pub fn bootstrap_mean_ci_batch(
    data: &[&[f64]],
    level: f64,
    reps: usize,
    seeds: &[u64],
    scratch: &mut BatchScratch,
) -> Result<Vec<BootstrapCi>> {
    assert_eq!(data.len(), seeds.len(), "lane count mismatch");
    let lanes = data.len();
    for lane in data {
        validate_bootstrap(lane, level, reps)?;
    }

    scratch.stats.resize_with(lanes, Vec::new);
    for stats in scratch.stats.iter_mut() {
        stats.clear();
        stats.reserve(reps);
    }
    let ns: Vec<usize> = data.iter().map(|d| d.len()).collect();
    let mut base = 0usize;
    while base < lanes {
        let run = equal_run(&ns, base);
        let width = if run >= MAX_LANES {
            bootstrap_group::<MAX_LANES>(
                &data[base..],
                reps,
                &seeds[base..],
                &mut scratch.inter,
                &mut scratch.stats[base..],
            );
            MAX_LANES
        } else if run >= MAX_LANES / 2 {
            bootstrap_group::<{ MAX_LANES / 2 }>(
                &data[base..],
                reps,
                &seeds[base..],
                &mut scratch.inter,
                &mut scratch.stats[base..],
            );
            MAX_LANES / 2
        } else {
            bootstrap_group::<1>(
                &data[base..],
                reps,
                &seeds[base..],
                &mut scratch.inter,
                &mut scratch.stats[base..],
            );
            1
        };
        base += width;
    }

    let (lo_idx, hi_idx) = percentile_bounds(reps, level);
    Ok((0..lanes)
        .map(|k| {
            let stats = &mut scratch.stats[k];
            // Only two order statistics are consumed, so select instead
            // of sorting: the value at a given rank is the same whether
            // found by a full sort (the scalar path) or by selection,
            // so `lo`/`hi` stay bit-identical.
            let cmp = |a: &f64, b: &f64| a.partial_cmp(b).expect("finite statistic");
            let (_, lo, upper) = stats.select_nth_unstable_by(lo_idx, cmp);
            let lo = *lo;
            let hi = if hi_idx > lo_idx {
                *upper.select_nth_unstable_by(hi_idx - lo_idx - 1, cmp).1
            } else {
                lo
            };
            BootstrapCi {
                estimate: data[k].iter().sum::<f64>() / data[k].len() as f64,
                lo,
                hi,
                replicates: reps,
            }
        })
        .collect())
}

/// One lockstep group of partial-Fisher–Yates label-shuffle shards.
/// Lane lengths may differ: each lane draws only while its own first
/// group is unfilled, and each shard restarts every lane's pool from
/// the original ordering, exactly as the scalar kernel's per-shard
/// clone does — but into an arena slice instead of a fresh allocation.
#[allow(clippy::too_many_arguments)]
fn two_sample_group<const W: usize>(
    pool_master: &[f64],
    pool: &mut [f64],
    offsets: &[usize],
    n_a: &[usize],
    n: &[usize],
    total: &[f64],
    threshold: &[f64],
    permutations: usize,
    seeds: &[u64],
    extreme: &mut [usize],
) {
    let off: [usize; W] = core::array::from_fn(|k| offsets[k]);
    let n_a: [usize; W] = core::array::from_fn(|k| n_a[k]);
    let n: [usize; W] = core::array::from_fn(|k| n[k]);
    let total: [f64; W] = core::array::from_fn(|k| total[k]);
    let threshold: [f64; W] = core::array::from_fn(|k| threshold[k]);
    let lane_seeds: [u64; W] = core::array::from_fn(|k| seeds[k]);
    let inv_a: [f64; W] = core::array::from_fn(|k| 1.0 / n_a[k] as f64);
    let inv_b: [f64; W] = core::array::from_fn(|k| 1.0 / (n[k] - n_a[k]) as f64);
    let max_na = n_a.iter().copied().max().unwrap_or(0);
    let mut ex = [0usize; W];
    for shard in 0..shard_count(permutations) {
        let mut bank = RngBank::<W>::for_shard(lane_seeds, shard as u64);
        for k in 0..W {
            pool[off[k]..off[k] + n[k]].copy_from_slice(&pool_master[off[k]..off[k] + n[k]]);
        }
        for _ in 0..reps_in_shard(permutations, shard) {
            let mut sum_a = [0.0f64; W];
            for i in 0..max_na {
                for k in 0..W {
                    if i < n_a[k] {
                        let j = i + bank.next_below(k, n[k] - i);
                        pool.swap(off[k] + i, off[k] + j);
                        sum_a[k] += pool[off[k] + i];
                    }
                }
            }
            for k in 0..W {
                if (sum_a[k] * inv_a[k] - (total[k] - sum_a[k]) * inv_b[k]).abs() >= threshold[k] {
                    ex[k] += 1;
                }
            }
        }
    }
    extreme[..W].copy_from_slice(&ex);
}

/// Lane-uniform lockstep shuffle: every lane shares the same group
/// sizes (the replication battery's fixed section split), so all lanes
/// draw against the same bound at every step and one element-wise
/// [`RngBank::next_words`] call advances the whole group. That removes
/// the per-lane serial state walk that makes general lockstep slower
/// than width-1 here — the draw each lane consumes is the same word the
/// scalar kernel would draw, so extreme counts stay bit-identical.
#[inline(always)]
#[allow(clippy::too_many_arguments)] // flat SoA views of one scratch arena
fn two_sample_group_uniform_impl<const W: usize>(
    pool_master: &[f64],
    pool: &mut [f64],
    offsets: &[usize],
    n_a: usize,
    n: usize,
    total: &[f64],
    threshold: &[f64],
    permutations: usize,
    seeds: &[u64],
    extreme: &mut [usize],
) {
    let off: [usize; W] = core::array::from_fn(|k| offsets[k]);
    let total: [f64; W] = core::array::from_fn(|k| total[k]);
    let threshold: [f64; W] = core::array::from_fn(|k| threshold[k]);
    let lane_seeds: [u64; W] = core::array::from_fn(|k| seeds[k]);
    let inv_a = 1.0 / n_a as f64;
    let inv_b = 1.0 / (n - n_a) as f64;
    let mut ex = [0usize; W];
    for shard in 0..shard_count(permutations) {
        let mut bank = RngBank::<W>::for_shard(lane_seeds, shard as u64);
        for k in 0..W {
            pool[off[k]..off[k] + n].copy_from_slice(&pool_master[off[k]..off[k] + n]);
        }
        for _ in 0..reps_in_shard(permutations, shard) {
            let mut sum_a = [0.0f64; W];
            for i in 0..n_a {
                let words = bank.next_words();
                let bound = (n - i) as u128;
                for k in 0..W {
                    let j = i + ((words[k] as u128 * bound) >> 64) as usize;
                    pool.swap(off[k] + i, off[k] + j);
                    sum_a[k] += pool[off[k] + i];
                }
            }
            for k in 0..W {
                if (sum_a[k] * inv_a - (total[k] - sum_a[k]) * inv_b).abs() >= threshold[k] {
                    ex[k] += 1;
                }
            }
        }
    }
    extreme[..W].copy_from_slice(&ex);
}

/// Run-time AVX dispatch for [`two_sample_group_uniform_impl`]; see
/// [`paired_group`] for why the wide instantiations are bit-identical.
#[allow(clippy::too_many_arguments)]
fn two_sample_group_uniform<const W: usize>(
    pool_master: &[f64],
    pool: &mut [f64],
    offsets: &[usize],
    n_a: usize,
    n: usize,
    total: &[f64],
    threshold: &[f64],
    permutations: usize,
    seeds: &[u64],
    extreme: &mut [usize],
) {
    #[cfg(target_arch = "x86_64")]
    #[allow(unsafe_code)]
    if use_avx512f() {
        #[target_feature(enable = "avx512f")]
        #[allow(clippy::too_many_arguments)]
        unsafe fn wide512<const W: usize>(
            pool_master: &[f64],
            pool: &mut [f64],
            offsets: &[usize],
            n_a: usize,
            n: usize,
            total: &[f64],
            threshold: &[f64],
            permutations: usize,
            seeds: &[u64],
            extreme: &mut [usize],
        ) {
            two_sample_group_uniform_impl::<W>(
                pool_master,
                pool,
                offsets,
                n_a,
                n,
                total,
                threshold,
                permutations,
                seeds,
                extreme,
            )
        }
        // SAFETY: reached only when run-time detection confirms AVX-512F.
        unsafe {
            wide512::<W>(
                pool_master,
                pool,
                offsets,
                n_a,
                n,
                total,
                threshold,
                permutations,
                seeds,
                extreme,
            )
        };
        return;
    }
    #[cfg(target_arch = "x86_64")]
    #[allow(unsafe_code)]
    if use_avx2() {
        #[target_feature(enable = "avx2")]
        #[allow(clippy::too_many_arguments)]
        unsafe fn wide<const W: usize>(
            pool_master: &[f64],
            pool: &mut [f64],
            offsets: &[usize],
            n_a: usize,
            n: usize,
            total: &[f64],
            threshold: &[f64],
            permutations: usize,
            seeds: &[u64],
            extreme: &mut [usize],
        ) {
            two_sample_group_uniform_impl::<W>(
                pool_master,
                pool,
                offsets,
                n_a,
                n,
                total,
                threshold,
                permutations,
                seeds,
                extreme,
            )
        }
        // SAFETY: reached only when run-time detection confirms AVX2.
        unsafe {
            wide::<W>(
                pool_master,
                pool,
                offsets,
                n_a,
                n,
                total,
                threshold,
                permutations,
                seeds,
                extreme,
            )
        };
        return;
    }
    two_sample_group_uniform_impl::<W>(
        pool_master,
        pool,
        offsets,
        n_a,
        n,
        total,
        threshold,
        permutations,
        seeds,
        extreme,
    )
}

/// Batched two-sample permutation test: lane `k` computes exactly
/// `permutation_test_two_sample_par(a[k], b[k], permutations,
/// seeds[k])`, bit for bit. Lane lengths may differ.
pub fn permutation_test_two_sample_batch(
    a: &[&[f64]],
    b: &[&[f64]],
    permutations: usize,
    seeds: &[u64],
    scratch: &mut BatchScratch,
) -> Result<Vec<PermutationTest>> {
    assert_eq!(a.len(), b.len(), "lane count mismatch");
    assert_eq!(a.len(), seeds.len(), "lane count mismatch");
    let lanes = a.len();
    for k in 0..lanes {
        validate_two_sample(a[k], b[k], permutations)?;
    }

    scratch.pool_master.clear();
    let mut offsets = Vec::with_capacity(lanes + 1);
    offsets.push(0usize);
    for k in 0..lanes {
        scratch.pool_master.extend(a[k].iter().chain(b[k]));
        offsets.push(scratch.pool_master.len());
    }
    scratch.pool.clear();
    scratch.pool.resize(scratch.pool_master.len(), 0.0);

    let n_a: Vec<usize> = a.iter().map(|x| x.len()).collect();
    let n: Vec<usize> = (0..lanes).map(|k| a[k].len() + b[k].len()).collect();
    let observed: Vec<f64> = (0..lanes)
        .map(|k| {
            a[k].iter().sum::<f64>() / a[k].len() as f64
                - b[k].iter().sum::<f64>() / b[k].len() as f64
        })
        .collect();
    let threshold: Vec<f64> = observed.iter().map(|o| o.abs() - 1e-15).collect();
    let total: Vec<f64> = (0..lanes)
        .map(|k| scratch.pool_master[offsets[k]..offsets[k + 1]].iter().sum())
        .collect();

    // When every lane shares the same group sizes — the replication
    // battery's case — the lanes draw against the same bound at every
    // shuffle step and can advance in lockstep off one vectorized
    // `next_words` call. Mixed-size lanes fall back to width-1 groups:
    // general lockstep is *slower* here (per-lane serial draws through
    // the SoA state plus random-access swap stores), so width 1 keeps
    // scalar parity while still using the arena's allocation-free pools.
    let mut extreme = vec![0usize; lanes];
    let uniform = lanes > 1 && n_a.iter().all(|&v| v == n_a[0]) && n.iter().all(|&v| v == n[0]);
    if uniform {
        let mut base = 0usize;
        while base < lanes {
            let run = lanes - base;
            let width = if run >= MAX_LANES {
                two_sample_group_uniform::<MAX_LANES>(
                    &scratch.pool_master,
                    &mut scratch.pool,
                    &offsets[base..],
                    n_a[0],
                    n[0],
                    &total[base..],
                    &threshold[base..],
                    permutations,
                    &seeds[base..],
                    &mut extreme[base..],
                );
                MAX_LANES
            } else if run >= MAX_LANES / 2 {
                two_sample_group_uniform::<{ MAX_LANES / 2 }>(
                    &scratch.pool_master,
                    &mut scratch.pool,
                    &offsets[base..],
                    n_a[0],
                    n[0],
                    &total[base..],
                    &threshold[base..],
                    permutations,
                    &seeds[base..],
                    &mut extreme[base..],
                );
                MAX_LANES / 2
            } else {
                two_sample_group_uniform::<1>(
                    &scratch.pool_master,
                    &mut scratch.pool,
                    &offsets[base..],
                    n_a[0],
                    n[0],
                    &total[base..],
                    &threshold[base..],
                    permutations,
                    &seeds[base..],
                    &mut extreme[base..],
                );
                1
            };
            base += width;
        }
    } else {
        for base in 0..lanes {
            two_sample_group::<1>(
                &scratch.pool_master,
                &mut scratch.pool,
                &offsets[base..],
                &n_a[base..],
                &n[base..],
                &total[base..],
                &threshold[base..],
                permutations,
                &seeds[base..],
                &mut extreme[base..],
            );
        }
    }

    Ok((0..lanes)
        .map(|k| PermutationTest {
            observed: observed[k],
            p_two_sided: (extreme[k] + 1) as f64 / (permutations + 1) as f64,
            permutations,
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resample::{
        bootstrap_ci_par, permutation_test_paired_par, permutation_test_two_sample_par,
    };
    use proptest::prelude::*;
    use std::cell::Cell;

    /// The SIMD arms a dispatch site chooses between, narrowest first.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    pub(super) enum Arm {
        Plain,
        Avx2,
        Avx512,
    }

    thread_local! {
        /// The widest arm this thread's dispatch sites may take.
        pub(super) static ARM_CAP: Cell<Arm> = const { Cell::new(Arm::Avx512) };
    }

    /// Every arm this host can run, narrowest first.
    fn host_arms() -> Vec<Arm> {
        let mut arms = vec![Arm::Plain];
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                arms.push(Arm::Avx2);
            }
            if std::arch::is_x86_feature_detected!("avx512f") {
                arms.push(Arm::Avx512);
            }
        }
        arms
    }

    /// Runs `body` once under each arm the host supports, with the
    /// dispatch sites capped at that arm, and lifts the cap after.
    fn under_every_arm<E>(
        mut body: impl FnMut(Arm) -> std::result::Result<(), E>,
    ) -> std::result::Result<(), E> {
        let outcome = host_arms().into_iter().try_for_each(|arm| {
            ARM_CAP.set(arm);
            body(arm)
        });
        ARM_CAP.set(Arm::Avx512);
        outcome
    }

    fn refs(v: &[Vec<f64>]) -> Vec<&[f64]> {
        v.iter().map(|x| x.as_slice()).collect()
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn the_arm_cap_narrows_every_dispatch() {
        let mut seen = Vec::new();
        under_every_arm(|arm| {
            seen.push((arm, use_avx2(), use_avx512f()));
            Ok::<_, ()>(())
        })
        .unwrap();
        for (arm, avx2, avx512) in seen {
            assert_eq!(avx2, arm >= Arm::Avx2, "{arm:?}");
            assert_eq!(avx512, arm == Arm::Avx512, "{arm:?}");
        }
        assert_eq!(ARM_CAP.get(), Arm::Avx512, "the cap is lifted after");
    }

    #[test]
    fn cohort_batch_layout_is_contiguous_per_lane() {
        let mut batch = CohortBatch::new();
        assert!(batch.is_empty());
        batch.reset(2, 3, 4);
        assert_eq!(batch.lanes(), 3);
        assert_eq!(batch.len(), 4);
        for field in 0..2 {
            for lane in 0..3 {
                batch
                    .lane_mut(field, lane)
                    .iter_mut()
                    .enumerate()
                    .for_each(|(i, v)| *v = (field * 100 + lane * 10 + i) as f64);
            }
        }
        assert_eq!(batch.lane(1, 2), &[120.0, 121.0, 122.0, 123.0]);
        let views = batch.lane_refs(0);
        assert_eq!(views.len(), 3);
        assert_eq!(views[1], &[10.0, 11.0, 12.0, 13.0]);
        // Pair access sees the same columns, in either order.
        let (a, b) = batch.lane_pair_mut(0, 1, 2);
        assert_eq!(a, &[20.0, 21.0, 22.0, 23.0]);
        assert_eq!(b, &[120.0, 121.0, 122.0, 123.0]);
        let (b2, a2) = batch.lane_pair_mut(1, 0, 2);
        assert_eq!(a2, &[20.0, 21.0, 22.0, 23.0]);
        assert_eq!(b2, &[120.0, 121.0, 122.0, 123.0]);
        // reset reuses and re-zeroes
        batch.reset(1, 2, 2);
        assert_eq!(batch.lane(0, 1), &[0.0, 0.0]);
    }

    #[test]
    fn rng_bank_lanes_match_their_scalar_streams() {
        // The stream-discipline statement at kernel granularity: each
        // bank lane's word sequence is byte-identical to driving the
        // corresponding scalar shard stream alone.
        let seeds = [3u64, 17, 99, 4242];
        for shard in [0u64, 1, 7] {
            let mut bank = RngBank::<4>::for_shard(seeds, shard);
            let mut scalars: Vec<Xoshiro256> = seeds
                .iter()
                .map(|&s| StreamSeeder::new(s).stream(shard))
                .collect();
            for _ in 0..1000 {
                let words = bank.next_words();
                for (k, scalar) in scalars.iter_mut().enumerate() {
                    assert_eq!(words[k], scalar.next_u64());
                }
            }
        }
    }

    #[test]
    fn batched_kernels_error_like_the_scalar_ones() {
        let mut scratch = BatchScratch::new();
        let short = vec![vec![1.0]];
        assert!(permutation_test_paired_batch(
            &refs(&short),
            &refs(&short),
            10,
            &[0],
            &mut scratch
        )
        .is_err());
        assert!(bootstrap_mean_ci_batch(&refs(&short), 0.95, 10, &[0], &mut scratch).is_err());
        let ok = vec![vec![1.0, 2.0]];
        assert!(bootstrap_mean_ci_batch(&refs(&ok), 1.5, 10, &[0], &mut scratch).is_err());
        assert!(permutation_test_two_sample_batch(
            &refs(&ok),
            &refs(&short),
            10,
            &[0],
            &mut scratch
        )
        .is_err());
        // Empty batches are fine and do nothing.
        assert_eq!(
            permutation_test_paired_batch(&[], &[], 10, &[], &mut scratch)
                .unwrap()
                .len(),
            0
        );
    }

    #[test]
    fn paired_batch_matches_scalar_across_group_widths_and_shards() {
        // 11 lanes forces an 8-group, a 4-group candidate (run of 3
        // breaks it), and scalar tails; 300 permutations crosses the
        // 256-replicate shard boundary.
        let mut scratch = BatchScratch::new();
        for perms in [1usize, 255, 256, 300, 513] {
            let firsts: Vec<Vec<f64>> = (0..11)
                .map(|k| {
                    let n = if k < 9 { 24 } else { 10 + k };
                    (0..n).map(|i| (i as f64 * 0.37 + k as f64).sin()).collect()
                })
                .collect();
            let seconds: Vec<Vec<f64>> = firsts
                .iter()
                .enumerate()
                .map(|(k, f)| f.iter().map(|x| x + 0.05 * k as f64).collect())
                .collect();
            let seeds: Vec<u64> = (0..11).map(|k| 1000 + k).collect();
            let scalar: Vec<_> = (0..11)
                .map(|k| {
                    permutation_test_paired_par(&firsts[k], &seconds[k], perms, seeds[k]).unwrap()
                })
                .collect();
            under_every_arm(|arm| {
                let batched = permutation_test_paired_batch(
                    &refs(&firsts),
                    &refs(&seconds),
                    perms,
                    &seeds,
                    &mut scratch,
                )
                .unwrap();
                assert_eq!(batched, scalar, "{arm:?}, perms {perms}");
                Ok::<_, ()>(())
            })
            .unwrap();
        }
    }

    #[test]
    fn bootstrap_batch_matches_scalar_including_odd_lengths() {
        let mut scratch = BatchScratch::new();
        for (lanes, n, reps) in [(8usize, 25usize, 300usize), (5, 24, 257), (3, 7, 40)] {
            let data: Vec<Vec<f64>> = (0..lanes)
                .map(|k| (0..n).map(|i| ((i * 13 + k * 7) % 29) as f64).collect())
                .collect();
            let seeds: Vec<u64> = (0..lanes as u64).map(|k| 7 * k + 1).collect();
            let scalar: Vec<_> = (0..lanes)
                .map(|k| {
                    bootstrap_ci_par(
                        &data[k],
                        |d| d.iter().sum::<f64>() / d.len() as f64,
                        0.95,
                        reps,
                        seeds[k],
                    )
                    .unwrap()
                })
                .collect();
            under_every_arm(|arm| {
                let batched =
                    bootstrap_mean_ci_batch(&refs(&data), 0.95, reps, &seeds, &mut scratch)
                        .unwrap();
                assert_eq!(batched, scalar, "{arm:?}, {lanes} lanes of {n}");
                Ok::<_, ()>(())
            })
            .unwrap();
        }
    }

    #[test]
    fn two_sample_batch_matches_scalar_with_unequal_lanes() {
        let mut scratch = BatchScratch::new();
        let a: Vec<Vec<f64>> = (0..9)
            .map(|k| (0..(12 + k)).map(|i| (i % 5) as f64 + k as f64).collect())
            .collect();
        let b: Vec<Vec<f64>> = (0..9)
            .map(|k| (0..(9 + 2 * k)).map(|i| (i % 7) as f64).collect())
            .collect();
        let seeds: Vec<u64> = (0..9).map(|k| 31 * k + 5).collect();
        for perms in [300usize, 257] {
            let scalar: Vec<_> = (0..9)
                .map(|k| permutation_test_two_sample_par(&a[k], &b[k], perms, seeds[k]).unwrap())
                .collect();
            under_every_arm(|arm| {
                let batched = permutation_test_two_sample_batch(
                    &refs(&a),
                    &refs(&b),
                    perms,
                    &seeds,
                    &mut scratch,
                )
                .unwrap();
                assert_eq!(batched, scalar, "{arm:?}, perms {perms}");
                Ok::<_, ()>(())
            })
            .unwrap();
        }
    }

    #[test]
    fn scratch_reuse_across_calls_does_not_leak_state() {
        let mut scratch = BatchScratch::new();
        let first = vec![(0..20).map(|i| i as f64 * 0.1).collect::<Vec<f64>>(); 4];
        let second: Vec<Vec<f64>> = first
            .iter()
            .map(|f| f.iter().map(|x| x + 0.3).collect())
            .collect();
        let seeds = [1u64, 2, 3, 4];
        let once =
            permutation_test_paired_batch(&refs(&first), &refs(&second), 200, &seeds, &mut scratch)
                .unwrap();
        // Interleave a different kernel to dirty the arena, then rerun.
        let _ = bootstrap_mean_ci_batch(&refs(&first), 0.9, 100, &seeds, &mut scratch).unwrap();
        let again =
            permutation_test_paired_batch(&refs(&first), &refs(&second), 200, &seeds, &mut scratch)
                .unwrap();
        assert_eq!(once, again);
    }

    fn bank_matches_streams<const W: usize>(master: u64, draws: usize) {
        let seeds: [u64; W] =
            core::array::from_fn(|k| StreamSeeder::new(master).split_seed(k as u64));
        let mut bank = RngBank::<W>::from_seeds(seeds);
        let mut scalars: Vec<Xoshiro256> = seeds
            .iter()
            .map(|&s| Xoshiro256::seed_from_u64(s))
            .collect();
        for _ in 0..draws {
            let words = bank.next_words();
            for (k, scalar) in scalars.iter_mut().enumerate() {
                assert_eq!(words[k], scalar.next_u64());
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        // Satellite: for any lane width and draw count, every bank
        // lane's sequence is byte-identical to its scalar stream.
        #[test]
        fn rng_bank_is_lockstep_transparent(master in 0u64..1_000_000, draws in 1usize..2_000) {
            bank_matches_streams::<1>(master, draws);
            bank_matches_streams::<2>(master, draws);
            bank_matches_streams::<3>(master, draws);
            bank_matches_streams::<4>(master, draws);
            bank_matches_streams::<8>(master, draws);
        }

        // The batched kernels equal their scalar definitions for
        // arbitrary lane counts, lengths, and shard-crossing replicate
        // counts.
        #[test]
        fn paired_batch_equals_scalar(
            lanes in 1usize..10,
            n in 2usize..30,
            perms in 1usize..600,
            seed0 in 0u64..1_000,
        ) {
            let firsts: Vec<Vec<f64>> = (0..lanes)
                .map(|k| (0..n).map(|i| ((i * 29 + k * 13) % 31) as f64 * 0.3).collect())
                .collect();
            let seconds: Vec<Vec<f64>> = firsts
                .iter()
                .enumerate()
                .map(|(k, f)| f.iter().map(|x| x + 0.1 * (k as f64 - 1.0)).collect())
                .collect();
            let seeds: Vec<u64> = (0..lanes as u64).map(|k| seed0 + 17 * k).collect();
            let scalar: Vec<_> = (0..lanes)
                .map(|k| permutation_test_paired_par(
                    &firsts[k], &seconds[k], perms, seeds[k]).unwrap())
                .collect();
            let mut scratch = BatchScratch::new();
            under_every_arm(|arm| {
                let batched = permutation_test_paired_batch(
                    &refs(&firsts), &refs(&seconds), perms, &seeds, &mut scratch).unwrap();
                prop_assert_eq!(&batched, &scalar, "{:?}", arm);
                Ok(())
            })?;
        }

        #[test]
        fn bootstrap_batch_equals_scalar(
            lanes in 1usize..10,
            n in 2usize..30,
            reps in 1usize..600,
            seed0 in 0u64..1_000,
        ) {
            let data: Vec<Vec<f64>> = (0..lanes)
                .map(|k| (0..n).map(|i| ((i * 7 + k * 3) % 23) as f64 - 11.0).collect())
                .collect();
            let seeds: Vec<u64> = (0..lanes as u64).map(|k| seed0 + 13 * k).collect();
            let scalar: Vec<_> = (0..lanes)
                .map(|k| bootstrap_ci_par(
                    &data[k],
                    |d| d.iter().sum::<f64>() / d.len() as f64,
                    0.9, reps, seeds[k]).unwrap())
                .collect();
            let mut scratch = BatchScratch::new();
            under_every_arm(|arm| {
                let batched =
                    bootstrap_mean_ci_batch(&refs(&data), 0.9, reps, &seeds, &mut scratch).unwrap();
                prop_assert_eq!(&batched, &scalar, "{:?}", arm);
                Ok(())
            })?;
        }

        #[test]
        fn two_sample_batch_equals_scalar(
            lanes in 1usize..10,
            na in 2usize..20,
            nb in 2usize..20,
            perms in 1usize..600,
            seed0 in 0u64..1_000,
        ) {
            let a: Vec<Vec<f64>> = (0..lanes)
                .map(|k| (0..na).map(|i| ((i * 11 + k) % 13) as f64).collect())
                .collect();
            let b: Vec<Vec<f64>> = (0..lanes)
                .map(|k| (0..nb).map(|i| ((i * 5 + 2 * k) % 17) as f64).collect())
                .collect();
            let seeds: Vec<u64> = (0..lanes as u64).map(|k| seed0 + 29 * k).collect();
            let scalar: Vec<_> = (0..lanes)
                .map(|k| permutation_test_two_sample_par(&a[k], &b[k], perms, seeds[k]).unwrap())
                .collect();
            let mut scratch = BatchScratch::new();
            under_every_arm(|arm| {
                let batched = permutation_test_two_sample_batch(
                    &refs(&a), &refs(&b), perms, &seeds, &mut scratch).unwrap();
                prop_assert_eq!(&batched, &scalar, "{:?}", arm);
                Ok(())
            })?;
        }
    }
}
