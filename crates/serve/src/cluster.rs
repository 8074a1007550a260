//! The sharded cluster: N coordinators behind a consistent-hash ring,
//! backed by a shared L2 result cache — the crate's one serving front
//! end.
//!
//! [`Cluster::run_day`] serves both traffic shapes. A semester of
//! open-loop arrivals runs on a fleet; the course week runs as
//! one-shard days whose submissions all arrive at virtual time 0. The
//! [`Cluster`] routes every admitted submission to one of N
//! **coordinator shards** by consistent-hashing its submission digest
//! over a ring of virtual nodes ([`HashRing`]), so adding a shard
//! remaps only ~1/N of the key space. Each shard owns its WFQ queue
//! and a private **L1** result cache; all shards share a **deterministic
//! L2** tier sized per shard (adding shards adds cache, exactly like
//! adding nodes to a cache fleet) with **single-flight dedup across
//! shards** — two shards needing the same digest in one day compute it
//! once.
//!
//! ## The determinism contract
//!
//! Everything observable — dispatch order, per-arrival outcomes, cache
//! contents, counters, traces — is a pure function of the arrivals and
//! of the cache state the day starts from. Admission runs in arrival
//! order and applies the queue cap, then the tenant cap, then spec
//! validation. Every later ordering decision is made by the cluster
//! coordinator in **`(shard, dispatch)` order** — shard 0's dispatch
//! plan first, then shard 1's, and so on. L2 lookups, single-flight
//! claims, cache fills and evictions all happen in that fixed serial
//! order; only the pure compute of claimed specs fans out to the
//! worker pool. Two digests fall out:
//!
//! * the **full digest** commits to everything — sources, shard
//!   assignments, virtual times — and is invariant under **worker
//!   count** for a fixed shard count;
//! * the **semantic digest** commits to what each tenant observed
//!   (per-arrival result digests and reject reasons, in arrival
//!   order) and is additionally invariant under **shard count** and L2
//!   interleaving: the semester digest.

use std::collections::hash_map::{Entry, RandomState};
use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};
use std::sync::Arc;

use crate::cache::ResultCache;
use crate::exec;
use crate::result::JobResult;
use crate::sched::{self, Submission};
use crate::spec::SpecError;
use crate::workload::{self, Arrival, JobUniverse, SemesterConfig};
use obs::trace::{fnv1a, Fnv1a};

// ---------------------------------------------------------------
// Consistent-hash ring
// ---------------------------------------------------------------

/// Virtual nodes per shard on a cluster's hash ring.
const VNODES: u32 = 128;

/// A consistent-hash ring with virtual nodes.
///
/// Each shard contributes `vnodes` points whose positions depend only
/// on `(shard, vnode)` — never on the total shard count — so growing
/// the ring from N to N+1 shards leaves every existing point in place
/// and only keys landing in the new shard's arcs move (classic
/// consistent-hashing monotonicity).
#[derive(Debug, Clone)]
pub struct HashRing {
    /// `(point, shard)` sorted by point.
    points: Vec<(u64, u32)>,
    shards: u32,
}

/// SplitMix64's finalizer: a full-avalanche 64-bit mix. FNV-1a alone
/// disperses short, similar inputs (ring vnode labels) too weakly for
/// balanced arc lengths; this finisher fixes the dispersion without
/// giving up determinism.
fn spread(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A `HashMap` keyed by an integer (a digest, a tenant, an address),
/// hashed by [`KeySeed`] instead of SipHash.
pub(crate) type KeyMap<K, V> = HashMap<K, V, KeySeed>;

/// Builds [`KeyHasher`]s that XOR each integer key into a seed drawn
/// per map from [`RandomState`] (as `HashMap::new()` seeds SipHash),
/// then [`spread`] it. Without the seed, a tenant who chooses specs
/// could aim their digests at one bucket. No output reads these maps'
/// iteration order, so the seed reaches no digest.
#[derive(Clone)]
pub(crate) struct KeySeed(u64);

impl Default for KeySeed {
    fn default() -> Self {
        KeySeed(RandomState::new().build_hasher().finish())
    }
}

impl BuildHasher for KeySeed {
    type Hasher = KeyHasher;

    fn build_hasher(&self) -> KeyHasher {
        KeyHasher(self.0)
    }
}

/// The hasher [`KeySeed`] builds: one `spread` per integer written.
pub(crate) struct KeyHasher(u64);

impl Hasher for KeyHasher {
    /// Integer keys take the `write_*` methods below; this covers any
    /// other key, a byte at a time.
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.write_u64(u64::from(byte));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = spread(self.0 ^ n);
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

impl HashRing {
    /// Builds a ring of `shards` shards with `vnodes` virtual nodes
    /// each.
    pub fn new(shards: u32, vnodes: u32) -> Self {
        assert!(shards > 0, "a ring needs at least one shard");
        assert!(vnodes > 0, "a ring needs at least one vnode per shard");
        let mut points = Vec::with_capacity((shards as usize) * (vnodes as usize));
        for shard in 0..shards {
            for vnode in 0..vnodes {
                let mut bytes = Vec::with_capacity(19);
                bytes.extend(b"pbl-ring/v1");
                bytes.extend(shard.to_le_bytes());
                bytes.extend(vnode.to_le_bytes());
                points.push((spread(fnv1a(&bytes)), shard));
            }
        }
        // Sort by point; a (cosmically unlikely) point collision is
        // broken by shard id so the ring is still a total order.
        points.sort_unstable();
        HashRing { points, shards }
    }

    /// Number of shards on the ring.
    pub fn shards(&self) -> u32 {
        self.shards
    }

    /// Routes a key to its shard: the first ring point clockwise from
    /// the re-mixed key (wrapping past the top).
    pub fn route(&self, key: u64) -> u32 {
        // Re-mix so ring positions are decorrelated from the cache
        // keyspace the digests already live in.
        let point = spread(fnv1a(&key.to_le_bytes()));
        let idx = self.points.partition_point(|&(p, _)| p < point);
        self.points[idx % self.points.len()].1
    }
}

// ---------------------------------------------------------------
// Config, sources, stats
// ---------------------------------------------------------------

/// Cluster shape and policy.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Coordinator shards on the ring.
    pub shards: u32,
    /// Worker threads per shard; the execute pool is the aggregate
    /// `shards × workers_per_shard` (capped at 16).
    pub workers_per_shard: usize,
    /// Per-shard L1 result-cache capacity (entries).
    pub l1_capacity: usize,
    /// Shared L2 capacity **per shard** — the L2 tier scales with the
    /// fleet, so total L2 is `shards × l2_capacity_per_shard`.
    pub l2_capacity_per_shard: usize,
    /// Cluster-wide admission cap per day (the bounded queue).
    pub queue_capacity: usize,
    /// Per-tenant admission cap per day.
    pub tenant_cap: usize,
    /// Whether identical digests in one day share a single computation
    /// (within and across shards).
    pub single_flight: bool,
}

impl ClusterConfig {
    /// A cluster of `shards` shards with `workers_per_shard` workers
    /// each and the default cache/admission policy.
    pub fn with_shards(shards: u32, workers_per_shard: usize) -> Self {
        ClusterConfig {
            shards,
            workers_per_shard,
            l1_capacity: 96,
            l2_capacity_per_shard: 1_024,
            queue_capacity: 32_768,
            tenant_cap: 24,
            single_flight: true,
        }
    }
}

/// Why an arrival was refused at admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The day's bounded queue was full.
    QueueFull,
    /// The tenant hit its per-day admission cap.
    TenantCap,
    /// The spec failed validation.
    InvalidSpec(SpecError),
}

impl RejectReason {
    fn tag(self) -> u8 {
        match self {
            RejectReason::QueueFull => 0,
            RejectReason::TenantCap => 1,
            RejectReason::InvalidSpec(_) => 2,
        }
    }
}

/// Where a served job's result came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClusterSource {
    /// Ready in the owning shard's L1.
    L1Hit,
    /// Ready in the shared L2 (promoted into the shard's L1).
    L2Hit,
    /// Deduplicated onto an earlier job in the same shard's plan.
    LocalJoin,
    /// Deduplicated onto a computation claimed by another shard.
    CrossJoin,
    /// Computed by the execute pool this day.
    Computed,
}

impl ClusterSource {
    /// Stable digest tag.
    pub fn tag(self) -> u8 {
        match self {
            ClusterSource::L1Hit => 0,
            ClusterSource::L2Hit => 1,
            ClusterSource::LocalJoin => 2,
            ClusterSource::CrossJoin => 3,
            ClusterSource::Computed => 4,
        }
    }

    /// Human label (trace instants, tables).
    pub fn label(self) -> &'static str {
        match self {
            ClusterSource::L1Hit => "l1_hit",
            ClusterSource::L2Hit => "l2_hit",
            ClusterSource::LocalJoin => "local_join",
            ClusterSource::CrossJoin => "cross_join",
            ClusterSource::Computed => "computed",
        }
    }
}

/// Cluster-level counters for one day (or a whole semester — the
/// fields add).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClusterStats {
    /// Arrivals offered.
    pub submitted: u64,
    /// Arrivals admitted and served.
    pub accepted: u64,
    /// Rejected: day queue full.
    pub rejected_queue_full: u64,
    /// Rejected: per-tenant day cap.
    pub rejected_tenant_cap: u64,
    /// Rejected: invalid spec.
    pub rejected_invalid: u64,
    /// Served from a shard L1.
    pub l1_hits: u64,
    /// Served from the shared L2.
    pub l2_hits: u64,
    /// Deduplicated within a shard's plan.
    pub local_joins: u64,
    /// Deduplicated across shards.
    pub cross_joins: u64,
    /// Actually computed.
    pub computed: u64,
    /// Evictions out of shard L1s.
    pub l1_evictions: u64,
    /// Evictions out of the shared L2.
    pub l2_evictions: u64,
}

impl ClusterStats {
    /// Total rejections.
    pub fn rejected(&self) -> u64 {
        self.rejected_queue_full + self.rejected_tenant_cap + self.rejected_invalid
    }

    /// Fraction of accepted work served without a fresh computation.
    pub fn hit_rate(&self) -> f64 {
        if self.accepted == 0 {
            return 0.0;
        }
        let saved = self.l1_hits + self.l2_hits + self.local_joins + self.cross_joins;
        saved as f64 / self.accepted as f64
    }

    fn add(&mut self, other: &ClusterStats) {
        self.submitted += other.submitted;
        self.accepted += other.accepted;
        self.rejected_queue_full += other.rejected_queue_full;
        self.rejected_tenant_cap += other.rejected_tenant_cap;
        self.rejected_invalid += other.rejected_invalid;
        self.l1_hits += other.l1_hits;
        self.l2_hits += other.l2_hits;
        self.local_joins += other.local_joins;
        self.cross_joins += other.cross_joins;
        self.computed += other.computed;
        self.l1_evictions += other.l1_evictions;
        self.l2_evictions += other.l2_evictions;
    }

    fn encode_into(&self, h: &mut Fnv1a) {
        for v in [
            self.submitted,
            self.accepted,
            self.rejected_queue_full,
            self.rejected_tenant_cap,
            self.rejected_invalid,
            self.l1_hits,
            self.l2_hits,
            self.local_joins,
            self.cross_joins,
            self.computed,
            self.l1_evictions,
            self.l2_evictions,
        ] {
            h.write(&v.to_le_bytes());
        }
    }
}

/// Per-shard counters for one day.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardDayStats {
    /// Jobs dispatched by this shard.
    pub dispatched: u64,
    /// Of which served from its L1.
    pub l1_hits: u64,
    /// Of which served from the shared L2.
    pub l2_hits: u64,
    /// Of which deduplicated locally.
    pub local_joins: u64,
    /// Of which deduplicated onto another shard's computation.
    pub cross_joins: u64,
    /// Of which computed fresh.
    pub computed: u64,
}

impl ShardDayStats {
    /// Fraction of this shard's dispatches served without computing.
    pub fn hit_rate(&self) -> f64 {
        if self.dispatched == 0 {
            return 0.0;
        }
        (self.l1_hits + self.l2_hits + self.local_joins + self.cross_joins) as f64
            / self.dispatched as f64
    }
}

// ---------------------------------------------------------------
// Outcomes and reports
// ---------------------------------------------------------------

/// A successfully served cluster job.
#[derive(Debug, Clone)]
pub struct ClusterDone {
    /// The (possibly shared) result.
    pub result: Arc<JobResult>,
    /// How the result was obtained.
    pub source: ClusterSource,
    /// The shard that owned the job.
    pub shard: u32,
    /// Arrival virtual time (within the day).
    pub arrival_vt: u64,
    /// WFQ start on the owning shard.
    pub start_vt: u64,
    /// WFQ finish on the owning shard — dispatch order key.
    pub finish_vt: u64,
}

impl ClusterDone {
    /// Virtual sojourn: finish minus arrival.
    pub fn sojourn_vt(&self) -> u64 {
        self.finish_vt.saturating_sub(self.arrival_vt)
    }
}

/// Outcome of one arrival.
#[derive(Debug, Clone)]
pub enum ClusterOutcome {
    /// Served.
    Done(ClusterDone),
    /// Refused at admission.
    Rejected(RejectReason),
}

/// Everything the cluster did with one day of arrivals. `outcomes`
/// is in arrival order; `dispatch` lists `(shard, arrival index)` in
/// the canonical `(shard, dispatch)` merge order.
#[derive(Debug, Clone)]
pub struct DayReport {
    /// Per-arrival outcomes, arrival order.
    pub outcomes: Vec<ClusterOutcome>,
    /// `(shard, arrival index)` in (shard, dispatch) order.
    pub dispatch: Vec<(u32, usize)>,
    /// Cluster-level counters.
    pub stats: ClusterStats,
    /// Per-shard counters, shard order.
    pub per_shard: Vec<ShardDayStats>,
}

/// `JobResult::digest` memoised by allocation within one report
/// digest: cache hits and joins share the leader's `Arc`, so a day's
/// outcomes hold far fewer distinct results than arrivals. The report
/// keeps every result alive, so no address is reused while the memo
/// exists.
#[derive(Default)]
struct ResultDigests(KeyMap<*const JobResult, u64>);

impl ResultDigests {
    fn of(&mut self, result: &Arc<JobResult>) -> u64 {
        *self
            .0
            .entry(Arc::as_ptr(result))
            .or_insert_with(|| result.digest())
    }
}

impl DayReport {
    /// The full digest: dispatch order, sources, shard assignments,
    /// virtual times, stats. Invariant under worker count for a fixed
    /// shard count.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.write(b"pbl-cluster-day/v1");
        for &(shard, index) in &self.dispatch {
            h.write(&shard.to_le_bytes());
            h.write(&(index as u64).to_le_bytes());
        }
        let mut results = ResultDigests::default();
        for outcome in &self.outcomes {
            match outcome {
                ClusterOutcome::Done(done) => {
                    h.write(&[0]);
                    h.write(&results.of(&done.result).to_le_bytes());
                    h.write(&[done.source.tag()]);
                    h.write(&done.shard.to_le_bytes());
                    h.write(&done.arrival_vt.to_le_bytes());
                    h.write(&done.start_vt.to_le_bytes());
                    h.write(&done.finish_vt.to_le_bytes());
                }
                ClusterOutcome::Rejected(reason) => h.write(&[1, reason.tag()]),
            }
        }
        self.stats.encode_into(&mut h);
        h.finish()
    }

    /// The semantic digest: what each submitter observed, in arrival
    /// order — result digests and reject reasons only. Invariant under
    /// shard count, worker count, and L2 interleaving; this is the
    /// semester digest's per-day ingredient.
    pub fn semantic_digest(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.write(b"pbl-cluster-sem/v1");
        let mut results = ResultDigests::default();
        for outcome in &self.outcomes {
            match outcome {
                ClusterOutcome::Done(done) => {
                    h.write(&[0]);
                    h.write(&results.of(&done.result).to_le_bytes());
                }
                ClusterOutcome::Rejected(reason) => h.write(&[1, reason.tag()]),
            }
        }
        h.finish()
    }

    /// Virtual sojourns of all served jobs, sorted ascending.
    pub fn sojourns_vt(&self) -> Vec<u64> {
        let mut s: Vec<u64> = self
            .outcomes
            .iter()
            .filter_map(|o| match o {
                ClusterOutcome::Done(done) => Some(done.sojourn_vt()),
                ClusterOutcome::Rejected(_) => None,
            })
            .collect();
        s.sort_unstable();
        s
    }

    /// The day as a merged multi-shard trace, given the `arrivals`
    /// that [`Cluster::run_day`] served: each shard records its own
    /// lanes (per-tenant job spans, cache instants, queue depth), and
    /// the parts compose via [`obs::trace::Trace::merge`] under
    /// `shard0..shardN` process groups.
    pub fn trace(&self, arrivals: &[Arrival], tcfg: &obs::trace::TraceConfig) -> obs::trace::Trace {
        use obs::trace::category;
        let shards = self.per_shard.len();
        let mut recorders: Vec<obs::trace::TraceRecorder> = (0..shards)
            .map(|_| obs::trace::TraceRecorder::new(tcfg))
            .collect();
        let mut lanes: Vec<HashMap<u32, u32>> = vec![HashMap::new(); shards];
        let mut meta: Vec<(u32, u32)> = Vec::with_capacity(shards); // (cache, queue)
        for (shard, rec) in recorders.iter_mut().enumerate() {
            let mut tenants: Vec<u32> = self
                .dispatch
                .iter()
                .filter(|&&(s, _)| s as usize == shard)
                .map(|&(_, index)| arrivals[index].sub.tenant)
                .collect();
            tenants.sort_unstable();
            tenants.dedup();
            for tenant in tenants {
                lanes[shard].insert(tenant, rec.lane(format!("tenant/{tenant}")));
            }
            meta.push((rec.lane("cache"), rec.lane("queue_depth")));
        }

        let mut remaining: Vec<u64> = self.per_shard.iter().map(|s| s.dispatched).collect();
        for &(shard, index) in &self.dispatch {
            let ClusterOutcome::Done(done) = &self.outcomes[index] else {
                continue;
            };
            let shard_ix = shard as usize;
            let sub = &arrivals[index].sub;
            let rec = &mut recorders[shard_ix];
            let lane = lanes[shard_ix][&sub.tenant];
            rec.buf(lane).begin(
                done.start_vt,
                format!("{}#{index}", sub.spec.kind()),
                category::JOB,
                sub.spec.cost_estimate(),
            );
            rec.buf(lane).end(done.finish_vt);
            let (cache_lane, queue_lane) = meta[shard_ix];
            rec.buf(cache_lane).instant(
                done.finish_vt,
                done.source.label(),
                category::CACHE,
                index as u64,
            );
            remaining[shard_ix] -= 1;
            rec.buf(queue_lane).counter(
                done.finish_vt,
                "queue_depth",
                category::QUEUE,
                remaining[shard_ix],
            );
        }

        let names: Vec<String> = (0..shards).map(|s| format!("shard{s}")).collect();
        let parts: Vec<(&str, obs::trace::Trace)> = names
            .iter()
            .map(String::as_str)
            .zip(recorders.into_iter().map(|r| r.finish()))
            .collect();
        obs::trace::Trace::merge(parts)
    }
}

// ---------------------------------------------------------------
// The cluster
// ---------------------------------------------------------------

/// The routing key of a tenant's spec digest: FNV-1a of the tenant's
/// and the digest's little-endian bytes.
fn tenant_route_key(tenant: u32, digest: u64) -> u64 {
    let mut key = [0u8; 12];
    key[..4].copy_from_slice(&tenant.to_le_bytes());
    key[4..].copy_from_slice(&digest.to_le_bytes());
    fnv1a(&key)
}

/// How a planned job will be satisfied — decided during resolution,
/// consumed during fill.
enum Resolution {
    L1Hit(Arc<JobResult>),
    L2Hit(Arc<JobResult>),
    /// Joins the leader at `(shard, plan position)` — always earlier
    /// in (shard, dispatch) order, so the fill pass has its result.
    LocalJoin(usize),
    CrossJoin(u32, usize),
    /// Claimed computation: index into the execute pool's spec list.
    Compute(usize),
}

/// N coordinator shards behind a [`HashRing`], a shared L2, and the
/// cross-shard determinism contract. Caches persist across days, so a
/// [`Cluster`] carries semester state.
pub struct Cluster {
    config: ClusterConfig,
    ring: HashRing,
    l1: Vec<ResultCache>,
    l2: ResultCache,
}

impl Cluster {
    /// Builds an idle cluster (cold caches).
    pub fn new(config: ClusterConfig) -> Self {
        let ring = HashRing::new(config.shards, VNODES);
        let l1 = (0..config.shards)
            .map(|_| ResultCache::new(config.l1_capacity))
            .collect();
        let l2 = ResultCache::new(config.l2_capacity_per_shard * config.shards as usize);
        Cluster {
            config,
            ring,
            l1,
            l2,
        }
    }

    /// The cluster's configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// The routing ring.
    pub fn ring(&self) -> &HashRing {
        &self.ring
    }

    /// Digest over all cache state (per-shard L1s then L2) — the
    /// persistent half of the day-over-day determinism contract.
    pub fn state_digest(&self) -> u64 {
        let mut bytes = Vec::with_capacity(8 * (self.l1.len() + 2));
        bytes.extend(b"pbl-cluster-state/v1");
        for l1 in &self.l1 {
            bytes.extend(l1.digest().to_le_bytes());
        }
        bytes.extend(self.l2.digest().to_le_bytes());
        fnv1a(&bytes)
    }

    /// The routing key of a submission: its spec digest re-keyed by
    /// tenant, so one tenant's repeated job stays on one shard while
    /// the same exercise from different tenants spreads — the spread
    /// the shared L2 and cross-shard single-flight exist to dedup.
    pub fn route_key(sub: &Submission) -> u64 {
        tenant_route_key(sub.tenant, sub.spec.digest())
    }

    /// Serves one day of open-loop arrivals.
    ///
    /// Phases: cluster-wide admission in arrival order → ring routing →
    /// per-shard WFQ planning and L1 resolution → L2 resolution and
    /// single-flight claims in `(shard, dispatch)` order → one parallel
    /// execute pool → fills and outcome assembly, again in
    /// `(shard, dispatch)` order. Admission and routing never look at
    /// shard state, so the accepted set — and the semantic digest — is
    /// shard-count invariant. Admission digests each admitted spec
    /// once; every later phase reads that digest.
    pub fn run_day(&self, arrivals: &[Arrival]) -> DayReport {
        let shards = self.config.shards as usize;
        let mut stats = ClusterStats {
            submitted: arrivals.len() as u64,
            ..ClusterStats::default()
        };

        // Phase 1: admission, in arrival order (cluster-wide policy —
        // independent of sharding by construction). An admitted spec's
        // digest is kept by arrival index; rejected specs are never
        // digested.
        let mut outcomes: Vec<Option<ClusterOutcome>> = vec![None; arrivals.len()];
        let mut digests: Vec<u64> = vec![0; arrivals.len()];
        let mut admitted: Vec<usize> = Vec::with_capacity(arrivals.len());
        let mut per_tenant: KeyMap<u32, usize> = KeyMap::default();
        for (index, arrival) in arrivals.iter().enumerate() {
            if admitted.len() >= self.config.queue_capacity {
                outcomes[index] = Some(ClusterOutcome::Rejected(RejectReason::QueueFull));
                stats.rejected_queue_full += 1;
                continue;
            }
            let tenant_count = per_tenant.entry(arrival.sub.tenant).or_insert(0);
            if *tenant_count >= self.config.tenant_cap {
                outcomes[index] = Some(ClusterOutcome::Rejected(RejectReason::TenantCap));
                stats.rejected_tenant_cap += 1;
                continue;
            }
            if let Err(err) = arrival.sub.spec.validate() {
                outcomes[index] = Some(ClusterOutcome::Rejected(RejectReason::InvalidSpec(err)));
                stats.rejected_invalid += 1;
                continue;
            }
            *tenant_count += 1;
            digests[index] = arrival.sub.spec.digest();
            admitted.push(index);
        }
        stats.accepted = admitted.len() as u64;

        // Phase 2: route each admitted arrival to its shard.
        let mut inbox: Vec<Vec<(usize, &Submission, u64)>> = vec![Vec::new(); shards];
        for &index in &admitted {
            let arrival = &arrivals[index];
            let key = tenant_route_key(arrival.sub.tenant, digests[index]);
            let shard = self.ring.route(key);
            inbox[shard as usize].push((index, &arrival.sub, arrival.vt));
        }

        // Phase 3: per-shard WFQ planning + L1 resolution. Each shard
        // only touches its own L1, so doing shards in order is
        // equivalent to doing them in parallel — kept serial: planning
        // is cheap next to compute and the order is then self-evident.
        let mut plans: Vec<Vec<sched::Planned>> = Vec::with_capacity(shards);
        let mut resolutions: Vec<Vec<Option<Resolution>>> = Vec::with_capacity(shards);
        for (shard, input) in inbox.iter().enumerate() {
            let plan = sched::plan_arrivals(input);
            let mut local_leader: KeyMap<u64, usize> = KeyMap::default();
            let mut resolved: Vec<Option<Resolution>> = Vec::with_capacity(plan.len());
            for (pos, row) in plan.iter().enumerate() {
                let digest = digests[row.submission];
                if let Some(result) = self.l1[shard].lookup_touch(digest) {
                    resolved.push(Some(Resolution::L1Hit(result)));
                } else if self.config.single_flight {
                    match local_leader.entry(digest) {
                        Entry::Occupied(leader) => {
                            resolved.push(Some(Resolution::LocalJoin(*leader.get())));
                        }
                        Entry::Vacant(slot) => {
                            slot.insert(pos);
                            resolved.push(None); // goes to L2 in phase 4
                        }
                    }
                } else {
                    resolved.push(None);
                }
            }
            plans.push(plan);
            resolutions.push(resolved);
        }

        // Phase 4: L2 resolution and single-flight claims, serialized
        // in (shard, dispatch) order — the one place cross-shard state
        // is touched, so its interleaving is fixed by construction.
        let mut cross_leader: KeyMap<u64, (u32, usize)> = KeyMap::default();
        let mut to_compute: Vec<usize> = Vec::new(); // indices into `arrivals`
        for shard in 0..shards {
            for pos in 0..plans[shard].len() {
                if resolutions[shard][pos].is_some() {
                    continue;
                }
                let row = &plans[shard][pos];
                let digest = digests[row.submission];
                let resolution = if let Some(result) = self.l2.lookup_touch(digest) {
                    Resolution::L2Hit(result)
                } else if self.config.single_flight {
                    match cross_leader.entry(digest) {
                        Entry::Occupied(leader) => {
                            let (ls, lp) = *leader.get();
                            Resolution::CrossJoin(ls, lp)
                        }
                        Entry::Vacant(claim) => {
                            claim.insert((shard as u32, pos));
                            let slot = to_compute.len();
                            to_compute.push(row.submission);
                            Resolution::Compute(slot)
                        }
                    }
                } else {
                    let slot = to_compute.len();
                    to_compute.push(row.submission);
                    Resolution::Compute(slot)
                };
                resolutions[shard][pos] = Some(resolution);
            }
        }

        // Phase 5: one parallel execute pool over every claimed spec.
        // Results land in claim order regardless of worker count.
        let computed = stats::pool::run_indexed(
            to_compute.len(),
            (self.config.workers_per_shard.max(1) * shards).min(16),
            || (),
            |_, slot| Arc::new(exec::execute(&arrivals[to_compute[slot]].sub.spec)),
        );

        // Phase 6: fills and outcome assembly, (shard, dispatch) order
        // again — cache mutations replay the exact order phase 4 fixed.
        let mut dispatch: Vec<(u32, usize)> = Vec::with_capacity(admitted.len());
        let mut per_shard = vec![ShardDayStats::default(); shards];
        let mut filled: Vec<Vec<Option<Arc<JobResult>>>> =
            plans.iter().map(|plan| vec![None; plan.len()]).collect();
        for shard in 0..shards {
            for pos in 0..plans[shard].len() {
                let row = &plans[shard][pos];
                let digest = digests[row.submission];
                let (result, source) = match resolutions[shard][pos]
                    .take()
                    .expect("resolved in phase 3/4")
                {
                    Resolution::L1Hit(result) => (result, ClusterSource::L1Hit),
                    Resolution::L2Hit(result) => {
                        stats.l1_evictions += self.l1[shard].insert(digest, result.clone());
                        (result, ClusterSource::L2Hit)
                    }
                    Resolution::LocalJoin(leader) => {
                        let result = filled[shard][leader].clone().expect("leader filled first");
                        (result, ClusterSource::LocalJoin)
                    }
                    Resolution::CrossJoin(ls, lp) => {
                        let result = filled[ls as usize][lp]
                            .clone()
                            .expect("leader shard fills first");
                        stats.l1_evictions += self.l1[shard].insert(digest, result.clone());
                        (result, ClusterSource::CrossJoin)
                    }
                    Resolution::Compute(slot) => {
                        let result = computed[slot].clone();
                        stats.l2_evictions += self.l2.insert(digest, result.clone());
                        stats.l1_evictions += self.l1[shard].insert(digest, result.clone());
                        (result, ClusterSource::Computed)
                    }
                };
                let shard_stats = &mut per_shard[shard];
                shard_stats.dispatched += 1;
                match source {
                    ClusterSource::L1Hit => {
                        stats.l1_hits += 1;
                        shard_stats.l1_hits += 1;
                    }
                    ClusterSource::L2Hit => {
                        stats.l2_hits += 1;
                        shard_stats.l2_hits += 1;
                    }
                    ClusterSource::LocalJoin => {
                        stats.local_joins += 1;
                        shard_stats.local_joins += 1;
                    }
                    ClusterSource::CrossJoin => {
                        stats.cross_joins += 1;
                        shard_stats.cross_joins += 1;
                    }
                    ClusterSource::Computed => {
                        stats.computed += 1;
                        shard_stats.computed += 1;
                    }
                }
                filled[shard][pos] = Some(result.clone());
                outcomes[row.submission] = Some(ClusterOutcome::Done(ClusterDone {
                    result,
                    source,
                    shard: shard as u32,
                    arrival_vt: row.arrival_vt,
                    start_vt: row.start_vt,
                    finish_vt: row.finish_vt,
                }));
                dispatch.push((shard as u32, row.submission));
            }
        }

        DayReport {
            outcomes: outcomes
                .into_iter()
                .map(|o| o.expect("every arrival decided"))
                .collect(),
            dispatch,
            stats,
            per_shard,
        }
    }
}

// ---------------------------------------------------------------
// The semester driver
// ---------------------------------------------------------------

/// Per-shard totals over a whole semester.
#[derive(Debug, Clone, Copy, Default)]
pub struct ShardTotals {
    /// Jobs dispatched by this shard across all days.
    pub dispatched: u64,
    /// Served without computing.
    pub saved: u64,
    /// Computed fresh.
    pub computed: u64,
}

impl ShardTotals {
    /// The shard's semester hit rate.
    pub fn hit_rate(&self) -> f64 {
        if self.dispatched == 0 {
            return 0.0;
        }
        self.saved as f64 / self.dispatched as f64
    }
}

/// A semester's worth of cluster service, summarized.
#[derive(Debug, Clone)]
pub struct SemesterReport {
    /// Days served.
    pub days: usize,
    /// Aggregate counters over the semester.
    pub stats: ClusterStats,
    /// Per-shard totals, shard order.
    pub per_shard: Vec<ShardTotals>,
    /// All sojourns (vt), sorted ascending.
    pub sojourns_vt: Vec<u64>,
    /// Chain of every day's full digest plus the final cache state —
    /// worker-count invariant for a fixed shard count.
    pub full_digest: u64,
    /// Chain of every day's semantic digest — **the semester digest**,
    /// invariant under shard count, worker count, and L2 interleaving.
    pub semantic_digest: u64,
}

impl SemesterReport {
    /// Sojourn percentile (0.0 ..= 1.0) by nearest-rank.
    pub fn sojourn_percentile_vt(&self, p: f64) -> u64 {
        if self.sojourns_vt.is_empty() {
            return 0;
        }
        let rank = ((self.sojourns_vt.len() - 1) as f64 * p.clamp(0.0, 1.0)).round() as usize;
        self.sojourns_vt[rank]
    }
}

/// Runs a full semester of open-loop traffic through `cluster`,
/// day by day (caches stay warm across days), chaining the digests.
pub fn run_semester(cluster: &Cluster, cfg: &SemesterConfig) -> SemesterReport {
    run_semester_with(cluster, cfg, |_, _, _| {})
}

/// [`run_semester`] with an observer called once per day, after the
/// day is served, with `(day, arrivals, day_report)`. The observer
/// only *reads* finished day reports — it cannot influence routing,
/// scheduling, or caching — so instrumentation hung off this hook is
/// observer-effect-safe by construction: the semester digests are the
/// same closures or no closures.
pub fn run_semester_with(
    cluster: &Cluster,
    cfg: &SemesterConfig,
    mut observer: impl FnMut(usize, &[Arrival], &DayReport),
) -> SemesterReport {
    let universe = JobUniverse::new(cfg.seed, cfg.unique_jobs);
    let shards = cluster.config().shards as usize;
    let mut stats = ClusterStats::default();
    let mut per_shard = vec![ShardTotals::default(); shards];
    let mut sojourns: Vec<u64> = Vec::new();
    let mut full_chain: Vec<u8> = b"pbl-semester/v1".to_vec();
    let mut semantic_chain: Vec<u8> = b"pbl-semester-sem/v1".to_vec();
    for day in 0..cfg.days {
        let arrivals = workload::semester_day(cfg, &universe, day);
        let report = cluster.run_day(&arrivals);
        stats.add(&report.stats);
        for (totals, day_stats) in per_shard.iter_mut().zip(&report.per_shard) {
            totals.dispatched += day_stats.dispatched;
            totals.saved += day_stats.l1_hits
                + day_stats.l2_hits
                + day_stats.local_joins
                + day_stats.cross_joins;
            totals.computed += day_stats.computed;
        }
        sojourns.extend(report.sojourns_vt());
        full_chain.extend(report.digest().to_le_bytes());
        semantic_chain.extend(report.semantic_digest().to_le_bytes());
        observer(day, &arrivals, &report);
    }
    full_chain.extend(cluster.state_digest().to_le_bytes());
    sojourns.sort_unstable();
    SemesterReport {
        days: cfg.days,
        stats,
        per_shard,
        sojourns_vt: sojourns,
        full_digest: fnv1a(&full_chain),
        semantic_digest: fnv1a(&semantic_chain),
    }
}

/// Renders the `semester` report artefact: the smoke semester served
/// by a fixed 4-shard × 2-worker cluster — arrivals, admissions, the
/// source breakdown, per-shard hit rates, sojourn percentiles, and
/// both digests. Pure, so the artefact text is bit-identical on every
/// host; the catalogue entry in [`pbl_core::experiments`] points here.
pub fn semester_artefact() -> String {
    use stats::table::Table;
    let cfg = SemesterConfig::smoke();
    let cluster = Cluster::new(ClusterConfig::with_shards(4, 2));
    let report = run_semester(&cluster, &cfg);
    let s = &report.stats;

    let mut overview = Table::new(vec!["quantity", "value"])
        .with_title("Serving a semester (smoke config, 4 shards x 2 workers)");
    let mut push = |k: &str, v: String| {
        overview.row(vec![k.to_string(), v]);
    };
    push("tenants", cfg.tenants.to_string());
    push("days", cfg.days.to_string());
    push("unique jobs", cfg.unique_jobs.to_string());
    push("arrivals", s.submitted.to_string());
    push("admitted", s.accepted.to_string());
    push("rejected (queue full)", s.rejected_queue_full.to_string());
    push("rejected (tenant cap)", s.rejected_tenant_cap.to_string());
    push("rejected (invalid)", s.rejected_invalid.to_string());
    push("computed", s.computed.to_string());
    push("l1 hits", s.l1_hits.to_string());
    push("l2 hits", s.l2_hits.to_string());
    push(
        "joins (local + cross)",
        format!("{} + {}", s.local_joins, s.cross_joins),
    );
    push("aggregate hit rate", format!("{:.4}", s.hit_rate()));
    push(
        "sojourn p50 (vt)",
        report.sojourn_percentile_vt(0.50).to_string(),
    );
    push(
        "sojourn p90 (vt)",
        report.sojourn_percentile_vt(0.90).to_string(),
    );
    push(
        "sojourn p99 (vt)",
        report.sojourn_percentile_vt(0.99).to_string(),
    );

    let mut shards = Table::new(vec!["shard", "dispatched", "computed", "hit rate"])
        .with_title("Per-shard totals");
    for (shard, totals) in report.per_shard.iter().enumerate() {
        shards.row(vec![
            shard.to_string(),
            totals.dispatched.to_string(),
            totals.computed.to_string(),
            format!("{:.4}", totals.hit_rate()),
        ]);
    }

    format!(
        "{}\n{}\nsemester digest (semantic): {:016x}\nfull digest (4 shards):     {:016x}\n",
        overview.render_ascii(),
        shards.render_ascii(),
        report.semantic_digest,
        report.full_digest,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{CostSpec, JobSpec, ScheduleSpec};

    fn smoke_cluster(shards: u32, workers: usize) -> Cluster {
        let mut config = ClusterConfig::with_shards(shards, workers);
        config.l1_capacity = 48;
        config.l2_capacity_per_shard = 128;
        Cluster::new(config)
    }

    fn tiny_day() -> Vec<Arrival> {
        let cfg = SemesterConfig {
            tenants: 40,
            days: 7,
            ..SemesterConfig::smoke()
        };
        let universe = JobUniverse::new(cfg.seed, 64);
        workload::semester_day(&cfg, &universe, 1)
    }

    #[test]
    fn ring_is_deterministic_and_covers_all_shards() {
        let ring = HashRing::new(8, 128);
        let again = HashRing::new(8, 128);
        let mut seen = std::collections::HashSet::new();
        for key in 0..10_000u64 {
            let shard = ring.route(key);
            assert_eq!(shard, again.route(key));
            assert!(shard < 8);
            seen.insert(shard);
        }
        assert_eq!(seen.len(), 8, "some shard owns no keys");
    }

    #[test]
    fn ring_points_are_independent_of_shard_count() {
        // The consistency property's mechanical core: shard 3's vnode
        // points are identical whether the ring has 4 or 5 shards.
        let small = HashRing::new(4, 64);
        let large = HashRing::new(5, 64);
        let small_points: std::collections::HashSet<(u64, u32)> =
            small.points.iter().copied().collect();
        assert!(small_points.iter().all(|p| large.points.contains(p)));
    }

    #[test]
    fn key_hasher_is_seeded_per_map() {
        let (a, b) = (KeySeed::default(), KeySeed::default());
        let key = 0x0123_4567_89ab_cdefu64;
        assert_eq!(a.hash_one(key), a.hash_one(key));
        assert_ne!(a.hash_one(key), b.hash_one(key));
    }

    #[test]
    fn day_report_accounts_for_every_arrival() {
        let arrivals = tiny_day();
        let cluster = smoke_cluster(4, 2);
        let report = cluster.run_day(&arrivals);
        assert_eq!(report.outcomes.len(), arrivals.len());
        assert_eq!(report.stats.submitted, arrivals.len() as u64);
        let done = report
            .outcomes
            .iter()
            .filter(|o| matches!(o, ClusterOutcome::Done(_)))
            .count() as u64;
        assert_eq!(done, report.stats.accepted);
        assert_eq!(done, report.dispatch.len() as u64);
        assert_eq!(
            report.stats.accepted + report.stats.rejected(),
            report.stats.submitted
        );
        let served = report.stats.l1_hits
            + report.stats.l2_hits
            + report.stats.local_joins
            + report.stats.cross_joins
            + report.stats.computed;
        assert_eq!(served, report.stats.accepted);
    }

    #[test]
    fn full_digest_is_worker_invariant_per_shard_count() {
        let arrivals = tiny_day();
        for shards in [1u32, 3] {
            let a = smoke_cluster(shards, 1).run_day(&arrivals);
            let b = smoke_cluster(shards, 4).run_day(&arrivals);
            assert_eq!(a.digest(), b.digest(), "shards={shards}");
        }
    }

    #[test]
    fn semantic_digest_is_shard_invariant() {
        let arrivals = tiny_day();
        let one = smoke_cluster(1, 2).run_day(&arrivals);
        let four = smoke_cluster(4, 2).run_day(&arrivals);
        assert_eq!(one.semantic_digest(), four.semantic_digest());
        // And the full digests differ — sharding genuinely reorders.
        assert_ne!(one.digest(), four.digest());
    }

    #[test]
    fn warm_caches_shift_sources_from_compute_to_hits() {
        let arrivals = tiny_day();
        let cluster = smoke_cluster(2, 2);
        let cold = cluster.run_day(&arrivals);
        let warm = cluster.run_day(&arrivals);
        assert!(warm.stats.computed < cold.stats.computed);
        assert!(warm.stats.l1_hits > cold.stats.l1_hits);
        assert_eq!(cold.semantic_digest(), warm.semantic_digest());
    }

    #[test]
    fn cross_shard_single_flight_dedups_identical_specs() {
        // Same spec from many tenants spreads across shards via the
        // tenant-keyed route; single-flight must compute it once.
        let spec = JobSpec::LoopSim {
            iterations: 2_000,
            cost: CostSpec::Uniform { cycles: 80 },
            schedule: ScheduleSpec::StaticBlock,
            threads: 4,
        };
        let arrivals: Vec<Arrival> = (0..24)
            .map(|tenant| Arrival {
                vt: 1_000 * tenant as u64,
                sub: Submission::new(tenant, 1, spec.clone()),
            })
            .collect();
        let cluster = smoke_cluster(4, 2);
        let report = cluster.run_day(&arrivals);
        assert_eq!(report.stats.computed, 1, "one compute for the class");
        assert!(report.stats.cross_joins > 0, "spec never crossed shards");
        // Every tenant holds the one computed allocation.
        let results: Vec<&Arc<JobResult>> = report
            .outcomes
            .iter()
            .map(|o| match o {
                ClusterOutcome::Done(done) => &done.result,
                ClusterOutcome::Rejected(reason) => panic!("rejected: {reason:?}"),
            })
            .collect();
        assert!(results.iter().all(|r| Arc::ptr_eq(r, results[0])));
        // And with single-flight off, every shard computes its own.
        let mut config = ClusterConfig::with_shards(4, 2);
        config.single_flight = false;
        let naive = Cluster::new(config).run_day(&arrivals);
        assert!(naive.stats.computed > 1);
        assert_eq!(report.semantic_digest(), naive.semantic_digest());
    }

    /// Arrivals at vt 0, tenant and spec per entry.
    fn at_zero(subs: Vec<(u32, JobSpec)>) -> Vec<Arrival> {
        subs.into_iter()
            .map(|(tenant, spec)| Arrival {
                vt: 0,
                sub: Submission::new(tenant, 1, spec),
            })
            .collect()
    }

    fn loop_spec(iterations: u64, threads: u32) -> JobSpec {
        JobSpec::LoopSim {
            iterations,
            cost: CostSpec::Uniform { cycles: 100 },
            schedule: ScheduleSpec::StaticBlock,
            threads,
        }
    }

    fn rejections(report: &DayReport) -> Vec<Option<RejectReason>> {
        report
            .outcomes
            .iter()
            .map(|o| match o {
                ClusterOutcome::Done(_) => None,
                ClusterOutcome::Rejected(reason) => Some(*reason),
            })
            .collect()
    }

    #[test]
    fn admission_rejects_past_the_tenant_and_queue_caps() {
        // Tenant 0 floods; tenants 1-3 each send one job.
        let mut subs: Vec<(u32, JobSpec)> = (0..4).map(|_| (0, loop_spec(1_000, 4))).collect();
        subs.extend((1..4).map(|t| (t, loop_spec(2_000 + t as u64, 4))));
        let arrivals = at_zero(subs);
        let mut config = ClusterConfig::with_shards(1, 1);
        config.queue_capacity = 5;
        config.tenant_cap = 2;
        let report = Cluster::new(config.clone()).run_day(&arrivals);
        let cap = Some(RejectReason::TenantCap);
        assert_eq!(
            rejections(&report),
            [None, None, cap, cap, None, None, None]
        );
        assert_eq!(report.stats.rejected_tenant_cap, 2, "{:?}", report.stats);
        // A full queue rejects the tail regardless of tenant.
        config.queue_capacity = 2;
        config.tenant_cap = 24;
        let report = Cluster::new(config).run_day(&arrivals);
        let full = Some(RejectReason::QueueFull);
        assert_eq!(
            rejections(&report),
            [None, None, full, full, full, full, full]
        );
        assert_eq!(report.stats.rejected_queue_full, 5, "{:?}", report.stats);
    }

    #[test]
    fn invalid_specs_reject_with_their_spec_error() {
        let replication =
            |permutations, bootstrap_reps, section_permutations| JobSpec::Replication {
                replicates: 2,
                num_students: 24,
                master_seed: 11,
                permutations,
                bootstrap_reps,
                section_permutations,
            };
        let arrivals = at_zero(vec![
            (0, loop_spec(1_000, 0)),
            (0, loop_spec(1_000, 4)),
            (1, replication(0, 150, 100)),
            (1, replication(200, 0, 100)),
            (1, replication(200, 150, 0)),
            // Tenant 2 fills its cap of 2, then sends an invalid spec:
            // the cap is checked first.
            (2, loop_spec(3_000, 4)),
            (2, loop_spec(3_000, 4)),
            (2, loop_spec(1_000, 0)),
        ]);
        // Rejected specs use none of the cap, so tenant 1's third
        // invalid spec still reaches validation.
        let mut config = ClusterConfig::with_shards(1, 1);
        config.tenant_cap = 2;
        let report = Cluster::new(config).run_day(&arrivals);
        let invalid = |e| Some(RejectReason::InvalidSpec(e));
        assert_eq!(
            rejections(&report),
            [
                invalid(SpecError::BadThreadCount),
                None,
                invalid(SpecError::EmptyReplication),
                invalid(SpecError::EmptyReplication),
                invalid(SpecError::EmptyReplication),
                None,
                None,
                Some(RejectReason::TenantCap),
            ]
        );
        assert_eq!(report.stats.rejected_invalid, 4);
        assert_eq!(report.stats.rejected_tenant_cap, 1);
    }

    #[test]
    fn traced_day_merges_shard_processes_and_stays_invariant() {
        let arrivals = tiny_day();
        let tcfg = obs::trace::TraceConfig {
            capacity_per_lane: 4_096,
        };
        let r1 = smoke_cluster(2, 1).run_day(&arrivals);
        let r4 = smoke_cluster(2, 4).run_day(&arrivals);
        assert_eq!(r1.digest(), r4.digest());
        let (t1, t4) = (r1.trace(&arrivals, &tcfg), r4.trace(&arrivals, &tcfg));
        let json = t1.to_chrome_json();
        assert_eq!(json, t4.to_chrome_json());
        assert_eq!(t1.digest(), 0x75c6_ff0b_7b13_b6f9, "traced day bytes moved");
        for needle in ["shard0", "shard1", "cache", "queue_depth"] {
            assert!(json.contains(needle), "missing {needle}");
        }
    }

    #[test]
    fn semester_smoke_served_and_digests_are_stable() {
        let cfg = SemesterConfig {
            tenants: 40,
            days: 7,
            ..SemesterConfig::smoke()
        };
        let a = run_semester(&smoke_cluster(2, 2), &cfg);
        let b = run_semester(&smoke_cluster(2, 2), &cfg);
        assert_eq!(a.full_digest, b.full_digest);
        assert_eq!(a.semantic_digest, b.semantic_digest);
        assert!(a.stats.accepted > 0);
        assert!(a.stats.hit_rate() > 0.2, "universe reuse should hit");
        assert!(a.sojourn_percentile_vt(0.5) <= a.sojourn_percentile_vt(0.99));
    }
}
