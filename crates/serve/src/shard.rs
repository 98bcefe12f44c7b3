//! Sharding primitives: the seeded consistent-hash ring that assigns
//! agents to market shards, and the cross-shard capacity allotter.
//!
//! A sharded server (see [`crate::ServeConfig::with_shards`]) partitions
//! the agent population across N independent [`crate::ServiceCore`]s,
//! each with its own lock, thread, in-flight count, and WAL directory. Two
//! pieces of pure, deterministic logic live here:
//!
//! - [`HashRing`]: placement. Agent ids map to shards through a seeded
//!   consistent-hash ring, so placement is a pure function of
//!   `(RING_SEED, shard_count, agent_id)` — identical across processes,
//!   restarts, and replicas, and minimally disturbed when the shard
//!   count changes (growing from `k` to `k+1` shards remaps only
//!   ~`1/(k+1)` of the ids).
//! - [`Coordinator`]: fairness across shards. REF is separable (paper
//!   Eq. 12–13): agent `i` receives `x_ir = C_r · â_ir / Σ_j â_jr`, its
//!   rescaled elasticity's part of the fleet-wide sum. A shard `k` that
//!   holds `C_r · D_kr / D_r`, where `D_kr` is the sum of its own agents'
//!   rescaled elasticities, therefore hands each of its agents exactly
//!   the one-market REF share — to rounding, with no iteration. Every
//!   fleet tick re-derives every allotment from the shards' `D_k`; a
//!   moved allotment reaches its shard as a journaled
//!   [`ref_market::MarketEvent::CapacityRealloted`] event, so a shard's
//!   WAL remains a complete, byte-for-byte replayable history.

use ref_core::resource::Capacity;
use ref_market::{AgentId, MarketConfig};

/// Seed of the consistent-hash ring a server places agents on: every
/// process that agrees on the shard count agrees on placement.
pub const RING_SEED: u64 = 0x5EED;

/// Virtual nodes per shard on the ring. More vnodes smooth the key
/// distribution and shrink remap variance at a small lookup cost.
const VNODES: u64 = 256;

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
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            ShardHealth::Healthy => "healthy",
            ShardHealth::Suspect => "suspect",
            ShardHealth::Down => "down",
        }
    }

    /// Decodes the atomic-stored representation (unknown values read as
    /// Down — fail safe).
    pub(crate) fn from_u64(raw: u64) -> ShardHealth {
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
/// process state — so ring placement is identical everywhere, and the
/// simulator's random streams share the same arithmetic.
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A seeded consistent-hash ring mapping agent ids to shards.
///
/// Each shard contributes `VNODES` points to a 64-bit ring; an agent
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
/// equally. The router reallots capacity between shards from this
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

/// Cross-shard capacity allotter: REF's closed form (paper Eq. 12–13)
/// over the shards' rescaled-elasticity sums.
///
/// Each round, every shard that reports gives its `D_k`, the
/// per-resource sum of its agents' rescaled elasticities
/// ([`ref_market::MarketEngine::aggregate_demand`]). A shard that did not
/// report keeps its allotment, and the reporters split what the others
/// leave, `A_r = C_r − Σ_{silent} L_kr`, in proportion to `D_kr`; when
/// every shard reports that is `C_r · D_kr / D_r`, and each shard's
/// prices `D_k / L_k` are the fleet's `D / C`. The reporter with the most
/// demand on a resource takes the remainder, and gives up the last
/// rounding ulps if it must, so the allotments summed in shard order
/// never exceed `C_r`. Capacities must be positive: a shard with no
/// demand on a resource (no agents, or agents that do not value it) is
/// allotted one ulp of `C_r`, which its agents value at nothing.
#[derive(Debug, Clone)]
pub struct Coordinator {
    /// Cluster-wide capacity per resource.
    total: Vec<f64>,
    /// Current per-shard allotments, `allotments[shard][resource]`.
    allotments: Vec<Vec<f64>>,
}

impl Coordinator {
    /// A coordinator for `shards` shards splitting `total` capacity,
    /// starting from the equal split (matching [`shard_market_config`]).
    /// The third argument is ignored: it is held, with
    /// `ServeConfig::drift_bound`, for refbench until ROADMAP item 6.
    pub fn new(total: Vec<f64>, shards: usize, _drift_bound: f64) -> Coordinator {
        assert!(shards >= 1, "coordination needs at least one shard");
        let split: Vec<f64> = total.iter().map(|c| c / shards as f64).collect();
        Coordinator {
            total,
            allotments: vec![split; shards],
        }
    }

    /// One round: `demands[k]` is shard `k`'s `D_k`, or `None` when it has
    /// none this round. Returns every shard's allotment after the round.
    pub(crate) fn allot(&mut self, demands: &[Option<&[f64]>]) -> &[Vec<f64>] {
        assert_eq!(demands.len(), self.allotments.len(), "one entry per shard");
        let reporters: Vec<(usize, &[f64])> = (demands.iter().enumerate())
            .filter_map(|(k, demand)| Some((k, (*demand)?)))
            .collect();
        for (r, &total) in self.total.iter().enumerate() {
            // With no demand on `r` anywhere, every agent's share is the
            // equal split (as one market's): weigh by agent counts, which
            // are the sums of the rescaled elasticities.
            let by_count = reporters.iter().all(|(_, d)| d[r] == 0.0);
            let weight = |d: &[f64]| if by_count { d.iter().sum() } else { d[r] };
            let weights: f64 = reporters.iter().map(|(_, d)| weight(d)).sum();
            // The remainder goes to the heaviest reporter (the last on a
            // tie): its rounding error is the smallest part of its share.
            let heaviest =
                (reporters.iter()).max_by(|(_, a), (_, b)| weight(a).total_cmp(&weight(b)));
            let (Some(&(taker, _)), true) = (heaviest, weights > 0.0) else {
                continue;
            };
            let held: f64 = (0..demands.len())
                .filter(|&k| demands[k].is_none())
                .map(|k| self.allotments[k][r])
                .sum();
            let available = (total - held).max(0.0);
            let floor = total * f64::EPSILON;
            for &(k, d) in reporters.iter().filter(|(k, _)| *k != taker) {
                self.allotments[k][r] = (available * weight(d) / weights).max(floor);
            }
            let others: f64 = (0..demands.len())
                .filter(|&k| k != taker)
                .map(|k| self.allotments[k][r])
                .sum();
            let mut rest = (total - others).max(floor);
            loop {
                self.allotments[taker][r] = rest;
                let sum: f64 = self.allotments.iter().map(|a| a[r]).sum();
                if sum <= total || rest <= floor {
                    break;
                }
                rest = rest.next_down();
            }
        }
        &self.allotments
    }

    /// The current per-shard allotments.
    pub(crate) fn allotments(&self) -> &[Vec<f64>] {
        &self.allotments
    }

    /// Held for refbench until ROADMAP item 6: one round in which every
    /// shard reports. Returns, per shard, its new allotment when it moved
    /// and `None` when it is the one the shard already holds.
    pub fn step(&mut self, demands: &[Vec<f64>]) -> Vec<Option<Vec<f64>>> {
        let before = self.allotments.clone();
        let reported: Vec<Option<&[f64]>> = demands.iter().map(|d| Some(d.as_slice())).collect();
        self.allot(&reported)
            .iter()
            .zip(before)
            .map(|(now, was)| (*now != was).then(|| now.clone()))
            .collect()
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

    /// Per resource, the allotments summed in shard order.
    fn sums(coord: &Coordinator) -> Vec<f64> {
        (0..coord.total.len())
            .map(|r| coord.allotments.iter().map(|a| a[r]).sum())
            .collect()
    }

    #[test]
    fn coordinator_converges_on_static_demand() {
        let mut coord = Coordinator::new(vec![64.0, 32.0], 4, 0.25);
        // Shard 0 carries 4x the demand of shards 1 and 2; shard 3 is empty.
        let demands = vec![
            vec![8.0, 4.0],
            vec![2.0, 1.0],
            vec![2.0, 1.0],
            vec![0.0, 0.0],
        ];
        let moved = coord.step(&demands);
        assert!(moved.iter().all(Option::is_some), "{moved:?}");
        // One round lands on the closed form C_r · D_kr / D_r; the empty
        // shard holds one ulp's worth, and the sums never exceed C_r.
        for (k, row) in coord.allotments.iter().enumerate().take(3) {
            for (r, &a) in row.iter().enumerate() {
                let want = [64.0, 32.0][r] * demands[k][r] / [12.0, 6.0][r];
                assert!((a - want).abs() <= 1e-14 * want, "shard {k}: {row:?}");
            }
        }
        assert_eq!(
            coord.allotments[3],
            vec![64.0 * f64::EPSILON, 32.0 * f64::EPSILON]
        );
        for (sum, total) in sums(&coord).into_iter().zip([64.0, 32.0]) {
            assert!(sum <= total, "{sum} > {total}");
        }
        // The same demand again moves nothing: no journal noise.
        assert!(coord.step(&demands).iter().all(Option::is_none));
    }

    #[test]
    fn silent_shards_keep_their_allotments_and_the_rest_split_what_they_leave() {
        let mut coord = Coordinator::new(vec![30.0], 3, 0.0);
        coord.allot(&[Some(&[1.0]), Some(&[1.0]), Some(&[4.0])]);
        assert_eq!(coord.allotments[2], vec![20.0]);
        // Shard 2 is silent: its 20 stay reserved, and 0 and 1 split 10.
        let after = coord.allot(&[Some(&[3.0]), Some(&[1.0]), None]).to_vec();
        assert_eq!(after, [[7.5], [2.5], [20.0]]);
        // Nobody reports: nothing moves.
        assert_eq!(coord.allot(&[None, None, None]), after);
    }

    #[test]
    fn a_resource_no_agent_values_is_split_by_agent_count() {
        // Three agents on shard 0, one on shard 1; none values resource 1,
        // so each gets the equal split 8 / 4 of it, as in one market.
        let mut coord = Coordinator::new(vec![4.0, 8.0], 2, 0.0);
        coord.allot(&[Some(&[3.0, 0.0]), Some(&[1.0, 0.0])]);
        assert_eq!(coord.allotments[0][1], 6.0);
        assert_eq!(coord.allotments[1][1], 2.0);
    }

    #[test]
    fn allotments_never_sum_above_capacity() {
        // Awkward capacities and demands, summed in shard order, as the
        // simulator's conservation check sums them.
        let mut seed = 0x5EEDu64;
        for shards in [2usize, 3, 4, 7, 16] {
            let total = vec![1.0 / 3.0, 1e9 + 7.0, 0.1];
            let mut coord = Coordinator::new(total.clone(), shards, 0.0);
            for _ in 0..200 {
                let demands: Vec<Option<Vec<f64>>> = (0..shards)
                    .map(|_| {
                        seed = mix64(seed);
                        let silent = seed.is_multiple_of(5);
                        let d = (0..3)
                            .map(|r| ((mix64(seed ^ r) >> 11) as f64) / (1u64 << 40) as f64)
                            .collect();
                        (!silent).then_some(d)
                    })
                    .collect();
                coord.allot(&demands.iter().map(Option::as_deref).collect::<Vec<_>>());
                for (r, sum) in sums(&coord).into_iter().enumerate() {
                    assert!(sum <= total[r], "{shards} shards, resource {r}: {sum}");
                }
                assert!(coord.allotments.iter().flatten().all(|a| *a > 0.0));
            }
        }
    }

    #[test]
    fn coordinator_equalizes_when_no_shard_reports_demand() {
        // No agents anywhere: the shards keep the equal split.
        let mut coord = Coordinator::new(vec![10.0], 2, 0.25);
        assert_eq!(coord.step(&[vec![0.0], vec![0.0]]), vec![None, None]);
        assert_eq!(coord.allotments, vec![vec![5.0], vec![5.0]]);
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
}
