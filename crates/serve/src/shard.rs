//! Sharding primitives: the seeded consistent-hash ring that assigns
//! agents to market shards, and the cross-shard capacity coordinator.
//!
//! A sharded server (see [`crate::ServeConfig::with_shards`]) partitions
//! the agent population across N independent [`crate::ServiceCore`]s,
//! each with its own lock, thread, admission quotas, and WAL directory. Two
//! pieces of pure, deterministic logic live here:
//!
//! - [`HashRing`]: placement. Agent ids map to shards through a seeded
//!   consistent-hash ring, so placement is a pure function of
//!   `(RING_SEED, shard_count, agent_id)` — identical across processes,
//!   restarts, and replicas, and minimally disturbed when the shard
//!   count changes (growing from `k` to `k+1` shards remaps only
//!   ~`1/(k+1)` of the ids).
//! - [`Coordinator`]: fairness across shards. Each shard allocates its
//!   own capacity *allotment* to its own agents; after every epoch the
//!   coordinator compares per-shard aggregate demand and moves capacity
//!   between allotments with a damped proportional-share update in the
//!   style of Bonald & Roberts' decentralized multi-resource fairness
//!   algorithms. The update is delivered to each shard as a journaled
//!   [`ref_market::MarketEvent::CapacityRealloted`] event, so a shard's
//!   WAL remains a complete, byte-for-byte replayable history no matter
//!   what the coordinator did. The residual distance between the current
//!   allotments and the instantaneous fair targets is the *temporal
//!   drift*, audited against a bound alongside the per-shard SI/EF/PE
//!   checks.

use ref_core::resource::Capacity;
use ref_market::{AgentId, MarketConfig};

/// Seed of the consistent-hash ring a server places agents on: every
/// process that agrees on the shard count agrees on placement.
pub const RING_SEED: u64 = 0x5EED;

/// Virtual nodes per shard on the ring. More vnodes smooth the key
/// distribution and shrink remap variance at a small lookup cost.
const VNODES: u64 = 256;

/// Damping gain of the coordination update: each round moves allotments
/// this fraction of the way toward the instantaneous fair targets.
/// Under static demand the drift halves every round; under changing
/// demand it tracks with bounded lag.
const COORD_GAIN: f64 = 0.5;

/// Smoothing mass added to every shard's demand before computing
/// proportional targets, as a fraction of the mean demand. Keeps an
/// empty shard's allotment from collapsing (it must be able to admit
/// agents and serve them immediately) and the targets well-defined when
/// no shard reports demand.
const COORD_SMOOTHING: f64 = 0.05;

/// No shard's allotment may fall below this fraction of its equal-split
/// share, so every shard's market keeps a strictly positive capacity.
const COORD_FLOOR: f64 = 0.1;

/// Allotment changes smaller than this fraction of the total capacity
/// (per resource) are not delivered to the shard — they would add
/// journal noise without materially moving the allocation.
const REALLOT_EPSILON: f64 = 1e-4;

/// Coordination rounds before the drift audit arms, mirroring the
/// market's own warmup: the first rounds after boot or churn are
/// expected to be far from the fair point.
pub const COORD_WARMUP_ROUNDS: u64 = 8;

/// Router-observed health of one shard.
///
/// Driven entirely from the routing tier (no shard cooperation needed):
/// tick replies within budget are *clean*, tick timeouts are *misses*,
/// and an `internal` reply or a panic notice (a panic under its lock) is
/// an immediate failure. The lifecycle is
///
/// ```text
///            miss            2nd consecutive miss,
///  Healthy ───────▶ Suspect ─────────────────────▶ Down
///     ▲                │  ▲   panic / internal       │
///     │   M clean      │  └── probe or recovery ─────┘
///     └────ticks───────┘
/// ```
///
/// A Down shard is skipped by fan-outs and answered `shard_unavailable`
/// at dispatch. The supervisor probes it (or, after a panic, it is
/// restarted from its WAL or failed over), and it re-enters at Suspect,
/// which must then earn Healthy back with M consecutive clean ticks; the
/// rules are [`crate::RouterCore`]'s.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardHealth {
    /// Replying to ticks within budget.
    Healthy = 0,
    /// Missed a tick (or is freshly restarted); serving, but on watch.
    Suspect = 1,
    /// Not answering: fan-outs skip it, dispatch fails fast.
    Down = 2,
}

impl ShardHealth {
    /// Stable lowercase label, used in `ping` replies.
    pub fn as_str(self) -> &'static str {
        match self {
            ShardHealth::Healthy => "healthy",
            ShardHealth::Suspect => "suspect",
            ShardHealth::Down => "down",
        }
    }

    /// Decodes the atomic-stored representation (unknown values read as
    /// Down — fail safe).
    pub fn from_u64(raw: u64) -> ShardHealth {
        match raw {
            0 => ShardHealth::Healthy,
            1 => ShardHealth::Suspect,
            _ => ShardHealth::Down,
        }
    }
}

/// The default coordination quorum for `shards` shards: ⌈(N+1)/2⌉, a
/// strict majority that also rounds up on even fleets (4 shards → 3),
/// so a split 2/2 fleet never reallots capacity on half a picture.
pub fn default_quorum(shards: usize) -> usize {
    (shards + 1).div_ceil(2)
}

/// `splitmix64`: a full-avalanche 64-bit mixer. Pure arithmetic — no
/// process state — so ring placement is identical everywhere.
pub(crate) fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A seeded consistent-hash ring mapping agent ids to shards.
///
/// Each shard contributes [`VNODES`] points to a 64-bit ring; an agent
/// id hashes to a ring position and is owned by the first point at or
/// after it (wrapping). Construction and lookup are pure functions of
/// the seed, so every process that agrees on `(seed, shards)` agrees on
/// placement.
#[derive(Debug, Clone)]
pub struct HashRing {
    /// Sorted `(ring position, shard)` points.
    points: Vec<(u64, u32)>,
    shards: usize,
    seed: u64,
}

impl HashRing {
    /// Builds the ring for `shards` shards (at least 1) from `seed`.
    pub fn new(shards: usize, seed: u64) -> HashRing {
        assert!(shards >= 1, "a ring needs at least one shard");
        // Domain-separate the vnode point stream from the agent key
        // stream: without the tag, agent id `a < shards * VNODES` hashes
        // exactly onto a vnode point (`seed ^ mix64(a)` collides with
        // `seed ^ mix64(shard * VNODES + vnode)`), pinning every small
        // id to shard `a / VNODES` independent of the seed.
        let point_seed = mix64(seed ^ 0x9D39_247E_3377_6D41);
        let mut points = Vec::with_capacity(shards * VNODES as usize);
        for shard in 0..shards as u64 {
            for vnode in 0..VNODES {
                // Hash the (shard, vnode) pair under the tagged seed.
                // The vnode stream of a shard is independent of the
                // total shard count, which is what makes resizes
                // minimally disruptive: old shards keep their points.
                let h = mix64(point_seed ^ mix64(shard.wrapping_mul(VNODES).wrapping_add(vnode)));
                points.push((h, shard as u32));
            }
        }
        // Sort by position; break (astronomically unlikely) position
        // ties by shard so the order is still fully deterministic.
        points.sort_unstable();
        HashRing {
            points,
            shards,
            seed,
        }
    }

    /// Number of shards on the ring.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The seed the ring was built from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The shard owning `agent`. Total: every id maps to exactly one
    /// shard.
    pub fn shard_of(&self, agent: AgentId) -> usize {
        let h = mix64(self.seed ^ mix64(agent));
        let idx = self.points.partition_point(|&(pos, _)| pos < h);
        let (_, shard) = self.points[idx % self.points.len()];
        shard as usize
    }
}

/// The market configuration one shard of an `n`-shard deployment boots
/// with: the base configuration with every resource capacity split
/// equally. The coordinator reallots capacity between shards from this
/// starting point at runtime; replay and recovery always start from the
/// equal split and reapply the journaled reallotments.
pub fn shard_market_config(base: &MarketConfig, shards: usize) -> MarketConfig {
    let mut config = base.clone();
    let split: Vec<f64> = config
        .capacity
        .as_slice()
        .iter()
        .map(|c| c / shards as f64)
        .collect();
    config.capacity = Capacity::new(split).expect("an equal split of a valid capacity is valid");
    config
}

/// Cross-shard capacity coordinator: a damped decentralized
/// proportional-share update over per-shard aggregate demand.
///
/// Every round (one fleet-wide epoch), each shard reports its aggregate
/// demand vector (per-resource sum of its agents' reported
/// elasticities). The coordinator computes each shard's instantaneous
/// fair *target* — capacity proportional to smoothed demand — and moves
/// the live allotments a fixed fraction ([`COORD_GAIN`]) of the way
/// there, floored and renormalized so the allotments always sum to the
/// cluster capacity and stay strictly positive. The worst per-resource
/// distance between allotment and target, as a fraction of total
/// capacity, is the round's *temporal drift*; after
/// [`COORD_WARMUP_ROUNDS`] it must stay within the configured bound.
#[derive(Debug, Clone)]
pub struct Coordinator {
    /// Cluster-wide capacity per resource (the sum of all allotments).
    total: Vec<f64>,
    /// Current per-shard allotments, `allotments[shard][resource]`.
    /// These always sum (per resource) to `total` exactly.
    allotments: Vec<Vec<f64>>,
    /// The allotment each shard was last *delivered*. Deliveries are
    /// epsilon-thresholded to keep journals quiet near the fixed point,
    /// so a shard's live capacity may lag `allotments` by less than
    /// [`REALLOT_EPSILON`] of the total per resource.
    delivered: Vec<Vec<f64>>,
    rounds: u64,
    drift: f64,
    max_drift_after_warmup: f64,
    drift_bound: f64,
}

/// Point-in-time view of the coordinator, for audits and benches.
#[derive(Debug, Clone, PartialEq)]
pub struct CoordinationStatus {
    /// Coordination rounds executed.
    pub rounds: u64,
    /// Drift of the latest round.
    pub drift: f64,
    /// Worst drift seen after the warmup rounds.
    pub max_drift_after_warmup: f64,
    /// The configured drift bound.
    pub drift_bound: f64,
    /// Whether the post-warmup drift has stayed within the bound.
    pub within_bound: bool,
    /// The current per-shard allotments, `allotments[shard][resource]`.
    pub allotments: Vec<Vec<f64>>,
}

impl Coordinator {
    /// A coordinator for `shards` shards splitting `total` capacity,
    /// starting from the equal split (matching
    /// [`shard_market_config`]).
    pub fn new(total: Vec<f64>, shards: usize, drift_bound: f64) -> Coordinator {
        assert!(shards >= 1, "coordination needs at least one shard");
        let split: Vec<f64> = total.iter().map(|c| c / shards as f64).collect();
        Coordinator {
            total,
            allotments: vec![split.clone(); shards],
            delivered: vec![split; shards],
            rounds: 0,
            drift: 0.0,
            max_drift_after_warmup: 0.0,
            drift_bound,
        }
    }

    /// Runs one coordination round over the shards' demand vectors.
    ///
    /// Returns, per shard, the new allotment to deliver — `None` when
    /// the shard's allotment moved less than [`REALLOT_EPSILON`] of the
    /// total on every resource and no event needs to be journaled.
    pub fn step(&mut self, demands: &[Vec<f64>]) -> Vec<Option<Vec<f64>>> {
        let n = self.allotments.len();
        assert_eq!(demands.len(), n, "one demand vector per shard");
        let resources = self.total.len();
        let mut next = self.allotments.clone();
        let mut drift: f64 = 0.0;
        // `r` indexes four parallel structures (total, demands, targets,
        // next) — an iterator form over any one of them reads worse.
        #[allow(clippy::needless_range_loop)]
        for r in 0..resources {
            let total = self.total[r];
            let sum_demand: f64 = demands
                .iter()
                .map(|d| d.get(r).copied().unwrap_or(0.0))
                .sum();
            let kappa = COORD_SMOOTHING * (sum_demand + 1.0) / n as f64;
            let weights: Vec<f64> = demands
                .iter()
                .map(|d| d.get(r).copied().unwrap_or(0.0) + kappa)
                .collect();
            let floor = total * COORD_FLOOR / n as f64;
            // Feasible fair targets: proportional to smoothed demand,
            // floored, with the floored mass redistributed over the
            // remaining shards (water-filling). Both the current
            // allotments and the targets are feasible points (each
            // component >= floor, summing to the total), so the damped
            // convex step below stays feasible without re-clamping.
            let mut fixed = vec![false; n];
            let mut targets = vec![0.0; n];
            loop {
                let fixed_count = fixed.iter().filter(|&&f| f).count();
                let avail = total - floor * fixed_count as f64;
                let free_weight: f64 = (0..n).filter(|&s| !fixed[s]).map(|s| weights[s]).sum();
                let mut changed = false;
                for s in 0..n {
                    targets[s] = if fixed[s] {
                        floor
                    } else {
                        let t = avail * weights[s] / free_weight;
                        if t < floor {
                            fixed[s] = true;
                            changed = true;
                            floor
                        } else {
                            t
                        }
                    };
                }
                if !changed {
                    break;
                }
            }
            for s in 0..n {
                let a = self.allotments[s][r];
                next[s][r] = a + COORD_GAIN * (targets[s] - a);
            }
            // Renormalize away floating-point dust so the per-resource
            // sum stays exactly the cluster total.
            let sum_next: f64 = (0..n).map(|s| next[s][r]).sum();
            let scale = total / sum_next;
            for s in 0..n {
                next[s][r] *= scale;
                drift = drift.max((next[s][r] - targets[s]).abs() / total);
            }
        }
        self.rounds += 1;
        self.drift = drift;
        if self.rounds > COORD_WARMUP_ROUNDS {
            self.max_drift_after_warmup = self.max_drift_after_warmup.max(drift);
        }
        self.allotments = next;
        let mut updates = Vec::with_capacity(n);
        for s in 0..n {
            let moved = (0..resources).any(|r| {
                (self.allotments[s][r] - self.delivered[s][r]).abs()
                    > REALLOT_EPSILON * self.total[r]
            });
            if moved {
                self.delivered[s] = self.allotments[s].clone();
                updates.push(Some(self.allotments[s].clone()));
            } else {
                updates.push(None);
            }
        }
        updates
    }

    /// The current per-shard allotments.
    pub fn allotments(&self) -> &[Vec<f64>] {
        &self.allotments
    }

    /// Records that `shard` did *not* receive the allotment a step
    /// returned for it (it was Down when the router went to deliver):
    /// the next step unconditionally returns an update for the shard,
    /// so a recovering shard is offered its current allotment again
    /// instead of silently drifting on a stale capacity split.
    pub fn mark_undelivered(&mut self, shard: usize) {
        for slot in &mut self.delivered[shard] {
            *slot = f64::INFINITY;
        }
    }

    /// The allotment to replay onto a freshly recovered `shard`, marked
    /// delivered: WAL recovery restored the shard to the last allotment
    /// it *journaled*, which may predate reallotments issued while it
    /// was Down — the supervisor pushes this as one catch-up `reallot`.
    pub fn resync_delivery(&mut self, shard: usize) -> Vec<f64> {
        self.delivered[shard] = self.allotments[shard].clone();
        self.allotments[shard].clone()
    }

    /// Snapshot of the coordination audit state.
    pub fn status(&self) -> CoordinationStatus {
        CoordinationStatus {
            rounds: self.rounds,
            drift: self.drift,
            max_drift_after_warmup: self.max_drift_after_warmup,
            drift_bound: self.drift_bound,
            within_bound: self.max_drift_after_warmup <= self.drift_bound,
            allotments: self.allotments.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_is_deterministic_and_total() {
        let a = HashRing::new(4, 0x5EED);
        let b = HashRing::new(4, 0x5EED);
        for agent in 0..1000u64 {
            let s = a.shard_of(agent);
            assert!(s < 4);
            assert_eq!(s, b.shard_of(agent));
        }
        // A different seed produces a genuinely different placement.
        let c = HashRing::new(4, 0x5EED + 1);
        let moved = (0..1000u64)
            .filter(|&x| a.shard_of(x) != c.shard_of(x))
            .count();
        assert!(moved > 500, "reseeding moved only {moved}/1000 keys");
    }

    #[test]
    fn ring_spreads_keys_roughly_evenly() {
        let ring = HashRing::new(4, 7);
        let mut counts = [0usize; 4];
        for agent in 0..4000u64 {
            counts[ring.shard_of(agent)] += 1;
        }
        for (shard, &count) in counts.iter().enumerate() {
            assert!(
                (400..=1800).contains(&count),
                "shard {shard} owns {count}/4000 keys"
            );
        }
    }

    #[test]
    fn growing_the_ring_remaps_a_bounded_fraction() {
        for k in 1..8usize {
            let before = HashRing::new(k, 0x5EED);
            let after = HashRing::new(k + 1, 0x5EED);
            let keys = 4000u64;
            let moved = (0..keys)
                .filter(|&x| before.shard_of(x) != after.shard_of(x))
                .count();
            let bound = (1.6 / (k + 1) as f64 + 0.05) * keys as f64;
            assert!(
                (moved as f64) < bound,
                "k={k}: {moved}/{keys} moved (bound {bound:.0})"
            );
        }
    }

    #[test]
    fn shard_config_splits_capacity_equally() {
        let base = MarketConfig::new(Capacity::new(vec![64.0, 32.0]).unwrap());
        let shard = shard_market_config(&base, 4);
        assert_eq!(shard.capacity.as_slice(), &[16.0, 8.0]);
        assert!(shard.compatible_with(&base));
    }

    #[test]
    fn coordinator_converges_on_static_demand() {
        let mut coord = Coordinator::new(vec![64.0, 32.0], 4, 0.25);
        // Shard 0 carries 4x the demand of the others; shard 3 is empty.
        let demands = vec![
            vec![8.0, 4.0],
            vec![2.0, 1.0],
            vec![2.0, 1.0],
            vec![0.0, 0.0],
        ];
        let mut delivered = 0;
        for _ in 0..32 {
            let updates = coord.step(&demands);
            delivered += updates.iter().flatten().count();
            for (s, row) in coord.allotments().iter().enumerate() {
                for (r, &a) in row.iter().enumerate() {
                    assert!(a > 0.0, "shard {s} resource {r} allotment {a}");
                }
            }
            for r in 0..2 {
                let sum: f64 = coord.allotments().iter().map(|row| row[r]).sum();
                let total = [64.0, 32.0][r];
                assert!(
                    (sum - total).abs() < 1e-9 * total,
                    "resource {r} sums to {sum}"
                );
            }
        }
        assert!(delivered > 0, "static demand skew never produced an update");
        // The damped update converges: drift shrinks under the bound and
        // the loaded shard ends up with the largest allotment.
        let status = coord.status();
        assert!(status.drift < 0.01, "drift {}", status.drift);
        assert!(status.within_bound, "{status:?}");
        let rows = coord.allotments();
        assert!(
            rows[0][0] > rows[1][0] && rows[0][0] > rows[3][0],
            "{rows:?}"
        );
        // Once converged, further rounds deliver nothing (journal quiet).
        assert_eq!(coord.step(&demands).iter().flatten().count(), 0);
    }

    #[test]
    fn default_quorum_is_a_rounded_up_majority() {
        assert_eq!(default_quorum(1), 1);
        assert_eq!(default_quorum(2), 2);
        assert_eq!(default_quorum(3), 2);
        assert_eq!(default_quorum(4), 3);
        assert_eq!(default_quorum(5), 3);
        assert_eq!(default_quorum(8), 5);
    }

    #[test]
    fn undelivered_allotments_are_offered_again() {
        let mut coord = Coordinator::new(vec![64.0, 32.0], 2, 0.25);
        let demands = vec![vec![8.0, 4.0], vec![1.0, 0.5]];
        // Converge so further steps stop producing updates.
        for _ in 0..64 {
            coord.step(&demands);
        }
        assert_eq!(coord.step(&demands).iter().flatten().count(), 0);
        // A shard that missed its delivery gets the full allotment again
        // on the next step, even at the fixed point.
        coord.mark_undelivered(1);
        let updates = coord.step(&demands);
        assert!(updates[0].is_none());
        let offered = updates[1].as_ref().expect("redelivery");
        assert_eq!(offered, &coord.allotments()[1]);
        // resync_delivery hands back the same vector and quiets the
        // coordinator again.
        coord.mark_undelivered(1);
        let replayed = coord.resync_delivery(1);
        assert_eq!(&replayed, &coord.allotments()[1]);
        assert_eq!(coord.step(&demands).iter().flatten().count(), 0);
    }

    #[test]
    fn coordinator_equalizes_when_no_shard_reports_demand() {
        let mut coord = Coordinator::new(vec![10.0], 2, 0.25);
        let updates = coord.step(&[vec![0.0], vec![0.0]]);
        // Already at the equal split: nothing to deliver, zero drift.
        assert_eq!(updates.iter().flatten().count(), 0);
        assert!(coord.status().drift < 1e-12);
    }
}
