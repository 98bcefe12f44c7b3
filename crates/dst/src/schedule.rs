//! Seeded fault-schedule generation.
//!
//! A schedule is the complete script of one simulated run: client
//! operations, fleet ticks, and fault injections, each pinned to a
//! virtual instant. Generation is a pure function of `(seed, quick)`,
//! so `dst_sweep --seed N` rebuilds the exact run that failed.
//!
//! Fault classes mix freely across a run with one safety constraint: a
//! shard given a **divergence** fault (a standby that silently corrupts
//! an apply) never also gets a partition, a primary crash or a panic. Divergence
//! detection rides the ack fingerprint channel; cutting that channel
//! while the replica is divergent models a *doubly* faulty world the
//! fencing invariant does not claim to cover.

use std::time::Duration;

use crate::sim::SimRng;

/// Number of shards in the simulated fleet.
pub(crate) const SHARDS: usize = 2;
/// Replicas per shard (primary + standby).
pub(crate) const REPLICAS: usize = 2;
/// Total simulated nodes.
pub(crate) const NODES: usize = SHARDS * REPLICAS;
/// The router's timed-epoch cadence: one fleet coordination tick every
/// interval.
pub(crate) const TICK_EVERY: Duration = Duration::from_millis(20);

/// A scripted client-side operation.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum ClientOp {
    /// Admit agent `agent` with a ground-truth Cobb-Douglas utility of
    /// bandwidth elasticity `e0` (cache elasticity is `1 - e0`).
    Join {
        /// Agent id.
        agent: u64,
        /// Bandwidth elasticity in `(0, 1)`.
        e0: f64,
    },
    /// Remove the agent.
    Leave {
        /// Agent id.
        agent: u64,
    },
    /// Reset the agent's estimator with a new hidden truth.
    Demand {
        /// Agent id.
        agent: u64,
        /// New bandwidth elasticity.
        e0: f64,
    },
    /// Read-only market query (exercises the non-mutating path).
    Query {
        /// Agent id.
        agent: u64,
    },
}

/// A scripted fault injection.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum FaultOp {
    /// Kill the node (its disk survives; a restart is scheduled).
    Crash {
        /// Node id.
        node: usize,
    },
    /// Recover the node from its own disk.
    Restart {
        /// Node id.
        node: usize,
    },
    /// Cut the replication links of `shard`: primary→standby always,
    /// and standby→primary too when `both`.
    Partition {
        /// Shard index.
        shard: usize,
        /// Sever both directions.
        both: bool,
    },
    /// Reopen every link of `shard`.
    Heal {
        /// Shard index.
        shard: usize,
    },
    /// Arm a torn write on the node's disk: the next WAL append lands
    /// partially, self-heal fails, the WAL poisons, the node crashes
    /// and recovers through torn-tail repair.
    TornWrite {
        /// Node id.
        node: usize,
    },
    /// Fail the node's next `n` fsyncs (transient append errors).
    FailSync {
        /// Node id.
        node: usize,
        /// Number of consecutive sync failures.
        n: u32,
    },
    /// Flip a bit in a covered checkpoint on the node's disk, then
    /// scrub to surface it.
    BitFlip {
        /// Node id.
        node: usize,
    },
    /// Make the shard's standby silently skip one engine apply — the
    /// fingerprint channel must catch and fence it.
    Diverge {
        /// Shard index.
        shard: usize,
    },
    /// Multiply network delay/jitter for the rest of the run.
    DelayBump {
        /// Multiplier applied to base delay and jitter.
        factor: u32,
    },
    /// Panic under the lock of the node serving a shard: the node goes
    /// Down through the router core's panic notice, as a caught panic
    /// does in the server (skipped when the node is not serving).
    Panic {
        /// Node id.
        node: usize,
    },
}

/// One scheduled operation.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Op {
    /// A client request.
    Client(ClientOp),
    /// A fault injection.
    Fault(FaultOp),
    /// An online `scrub` request against the node.
    Scrub {
        /// Node id.
        node: usize,
    },
}

/// An operation pinned to a virtual instant.
#[derive(Debug, Clone)]
pub(crate) struct Scheduled {
    /// When the operation fires.
    pub at: Duration,
    /// What fires.
    pub op: Op,
}

/// A complete generated run script.
#[derive(Debug, Clone)]
pub(crate) struct Schedule {
    /// Operations in chronological order (stable on ties).
    pub ops: Vec<Scheduled>,
    /// Distinct fault classes present (for sweep accounting).
    pub classes: Vec<&'static str>,
    /// End of the scripted window; the simulator heals and settles after.
    pub horizon: Duration,
    /// Agents the script admits.
    pub agents: u64,
}

fn ms(x: u64) -> Duration {
    Duration::from_millis(x)
}

/// Generates the run script for `seed`. `quick` shortens the horizon
/// for CI smoke sweeps; the structure is identical.
pub(crate) fn generate(seed: u64, quick: bool) -> Schedule {
    let mut rng = SimRng::new(seed ^ 0x5C8E_D01E);
    let horizon = if quick { ms(280) } else { ms(640) };
    let mut ops: Vec<Scheduled> = Vec::new();
    let mut classes: Vec<&'static str> = Vec::new();

    // Clients: admissions early, demand churn and departures later.
    let agents = rng.range(4, 8);
    for agent in 1..=agents {
        ops.push(Scheduled {
            at: Duration::from_micros(rng.range(500, 12_000)),
            op: Op::Client(ClientOp::Join {
                agent,
                e0: 0.15 + 0.7 * rng.next_f64(),
            }),
        });
        if rng.chance(0.3) {
            ops.push(Scheduled {
                at: horizon / 4 + Duration::from_micros(rng.below(horizon.as_micros() as u64 / 2)),
                op: Op::Client(ClientOp::Demand {
                    agent,
                    e0: 0.15 + 0.7 * rng.next_f64(),
                }),
            });
        }
        if rng.chance(0.2) {
            ops.push(Scheduled {
                at: horizon / 2 + Duration::from_micros(rng.below(horizon.as_micros() as u64 / 3)),
                op: Op::Client(ClientOp::Leave { agent }),
            });
        }
    }
    for _ in 0..rng.range(2, 6) {
        ops.push(Scheduled {
            at: Duration::from_micros(rng.below(horizon.as_micros() as u64)),
            op: Op::Client(ClientOp::Query {
                agent: rng.range(1, agents + 1),
            }),
        });
    }

    // Fault incidents. Track, per shard, whether a divergence fault or
    // a connectivity fault landed, to keep the two apart.
    let mut diverged_shard = [false; SHARDS];
    let mut connectivity_shard = [false; SHARDS];
    let mut crashed_node = [false; NODES];
    let mut fsync_shard = [false; SHARDS];
    let incidents = rng.range(1, 4);
    let push_class = |classes: &mut Vec<&'static str>, c: &'static str| {
        if !classes.contains(&c) {
            classes.push(c);
        }
    };
    for _ in 0..incidents {
        let lo = horizon.as_millis() as u64 / 5;
        let hi = horizon.as_millis() as u64 * 7 / 10;
        let at = ms(rng.range(lo, hi));
        match rng.below(110) {
            // Crash one node; restart it after a spell. Never crash a
            // node twice, and never both replicas of one shard.
            0..=24 => {
                let node = rng.below(NODES as u64) as usize;
                let peer = node ^ 1;
                if crashed_node[node] || crashed_node[peer] || diverged_shard[node / REPLICAS] {
                    continue;
                }
                crashed_node[node] = true;
                connectivity_shard[node / REPLICAS] = true;
                push_class(&mut classes, "crash");
                ops.push(Scheduled {
                    at,
                    op: Op::Fault(FaultOp::Crash { node }),
                });
                ops.push(Scheduled {
                    at: at + ms(rng.range(40, 90)),
                    op: Op::Fault(FaultOp::Restart { node }),
                });
            }
            // Partition a shard's replication links; heal later.
            25..=49 => {
                let shard = rng.below(SHARDS as u64) as usize;
                if diverged_shard[shard] || connectivity_shard[shard] {
                    continue;
                }
                connectivity_shard[shard] = true;
                push_class(&mut classes, "partition");
                let both = rng.chance(0.5);
                ops.push(Scheduled {
                    at,
                    op: Op::Fault(FaultOp::Partition { shard, both }),
                });
                ops.push(Scheduled {
                    at: at + ms(rng.range(70, 130)),
                    op: Op::Fault(FaultOp::Heal { shard }),
                });
            }
            // Torn write: partial append + failed self-heal + recovery.
            50..=64 => {
                let node = rng.below(NODES as u64) as usize;
                if crashed_node[node] || diverged_shard[node / REPLICAS] {
                    continue;
                }
                crashed_node[node] = true;
                connectivity_shard[node / REPLICAS] = true;
                push_class(&mut classes, "torn-write");
                ops.push(Scheduled {
                    at,
                    op: Op::Fault(FaultOp::TornWrite { node }),
                });
            }
            // Delay storm for the rest of the run.
            65..=74 => {
                push_class(&mut classes, "delay");
                ops.push(Scheduled {
                    at,
                    op: Op::Fault(FaultOp::DelayBump {
                        factor: rng.range(2, 5) as u32,
                    }),
                });
            }
            // Transient fsync failures. Kept off diverge shards: a
            // poisoned primary self-crashes, and no protocol can stop a
            // silently-corrupted standby from electing before the first
            // fingerprint audit has had a chance to run.
            75..=84 => {
                let node = rng.below(NODES as u64) as usize;
                if diverged_shard[node / REPLICAS] {
                    continue;
                }
                fsync_shard[node / REPLICAS] = true;
                push_class(&mut classes, "fsync");
                ops.push(Scheduled {
                    at,
                    op: Op::Fault(FaultOp::FailSync {
                        node,
                        n: rng.range(1, 4) as u32,
                    }),
                });
            }
            // Latent rot in a covered checkpoint, then an online scrub.
            85..=92 => {
                let node = rng.below(NODES as u64) as usize;
                // Late enough that two checkpoints exist.
                let at = ms(rng.range(hi.saturating_sub(40).max(lo), hi));
                push_class(&mut classes, "bit-flip");
                ops.push(Scheduled {
                    at,
                    op: Op::Fault(FaultOp::BitFlip { node }),
                });
                ops.push(Scheduled {
                    at: at + ms(15),
                    op: Op::Scrub { node },
                });
            }
            // Divergence: the fingerprint channel must fence the replica.
            93..=99 => {
                let shard = rng.below(SHARDS as u64) as usize;
                if connectivity_shard[shard] || diverged_shard[shard] || fsync_shard[shard] {
                    continue;
                }
                diverged_shard[shard] = true;
                push_class(&mut classes, "diverge");
                ops.push(Scheduled {
                    at,
                    op: Op::Fault(FaultOp::Diverge { shard }),
                });
            }
            // A panic on the shard's booted primary: it stays Down and
            // its standby's election replaces it. Kept apart from other
            // node faults on the shard, like a crash.
            _ => {
                let node = rng.below(SHARDS as u64) as usize * REPLICAS;
                if crashed_node[node] || crashed_node[node ^ 1] || diverged_shard[node / REPLICAS] {
                    continue;
                }
                crashed_node[node] = true;
                connectivity_shard[node / REPLICAS] = true;
                push_class(&mut classes, "panic");
                ops.push(Scheduled {
                    at,
                    op: Op::Fault(FaultOp::Panic { node }),
                });
            }
        }
    }
    if classes.is_empty() {
        classes.push("clean");
    }

    // Stable chronological order; ties keep generation order.
    ops.sort_by_key(|s| s.at);
    Schedule {
        ops,
        classes,
        horizon,
        agents,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = generate(1234, true);
        let b = generate(1234, true);
        assert_eq!(a.ops.len(), b.ops.len());
        for (x, y) in a.ops.iter().zip(&b.ops) {
            assert_eq!(x.at, y.at);
            assert_eq!(x.op, y.op);
        }
        assert_eq!(a.classes, b.classes);
    }

    #[test]
    fn schedules_are_chronological_and_classified() {
        for seed in 0..200 {
            let s = generate(seed, true);
            assert!(!s.classes.is_empty(), "seed {seed} has no classes");
            assert!(s.ops.windows(2).all(|w| w[0].at <= w[1].at));
            assert!(s.agents >= 4);
            // Divergence never shares a shard with connectivity faults.
            for shard in 0..SHARDS {
                let diverge = s.ops.iter().any(
                    |o| matches!(o.op, Op::Fault(FaultOp::Diverge { shard: sh }) if sh == shard),
                );
                let connectivity = s.ops.iter().any(|o| match &o.op {
                    Op::Fault(FaultOp::Partition { shard: sh, .. }) => *sh == shard,
                    Op::Fault(
                        FaultOp::Crash { node }
                        | FaultOp::TornWrite { node }
                        | FaultOp::Panic { node },
                    ) => node / REPLICAS == shard,
                    _ => false,
                });
                assert!(
                    !(diverge && connectivity),
                    "seed {seed}: diverge and connectivity faults share shard {shard}"
                );
            }
        }
    }

    #[test]
    fn fault_classes_all_appear_across_seeds() {
        let mut seen: Vec<&'static str> = Vec::new();
        for seed in 0..400 {
            for class in generate(seed, true).classes {
                if !seen.contains(&class) {
                    seen.push(class);
                }
            }
        }
        for class in [
            "crash",
            "partition",
            "torn-write",
            "delay",
            "fsync",
            "bit-flip",
            "diverge",
            "panic",
        ] {
            assert!(seen.contains(&class), "class {class} never generated");
        }
    }
}
