//! The six workloads and their seeded op scripts.
//!
//! A script is a pure function of `(workload, seed, scale)`: op `i` of a
//! stream can be generated on its own (see [`crate::rng::Rng::keyed`]), so
//! the two load threads, the traced in-process replay and the tests all see
//! the same request lines. The server receives only the generated lines.
//!
//! Agents measured from outside (`External`) have a hidden Cobb-Douglas
//! utility with elasticities in `[0.1, 0.9]` summing to one; an `observe`
//! reports an allocation drawn log-uniformly in `[1/4, 4]` times the equal
//! share and the utility there times `exp(eps)`, `eps ~ N(0, 0.02^2)`. The
//! log-design is therefore well conditioned, fits converge, and no agent is
//! ever quarantined — no op in any script fails.

use ref_core::resource::Capacity;
use ref_market::{MarketConfig, MechanismKind};

use crate::rng::Rng;

/// What an op is timed as.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// `observe`, `join`, `leave` or `demand`.
    Mutate,
    /// An agent `query`.
    Query,
    /// An explicit epoch `tick`.
    Tick,
}

/// One request line and how to account for it.
#[derive(Debug, Clone, PartialEq)]
pub struct Op {
    pub kind: OpKind,
    pub line: String,
}

/// What stands between an accepted mutation and its reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Durability {
    /// Nothing: the engine applies it in memory.
    None,
    /// A write-ahead log with `fsync` per record.
    WalFsync,
    /// A write-ahead log (no fsync) shipped synchronously to a standby.
    ReplSync,
}

/// The op mix of a workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Shape {
    /// Both connections run the `serve_*` op rule over their own External
    /// agents: a closed phase of `closed_ops` per connection, then a paced
    /// phase at `paced_rate` ops/s in total.
    Serve { closed_ops: usize, paced_rate: f64 },
    /// Connection 0 runs `rounds` closed rounds of membership churn,
    /// demand changes, reports, queries and one `tick`; connection 1 sends
    /// paced queries and reports at `paced_rate` ops/s until it finishes.
    Epoch {
        /// Ground-truth agents that stay for the whole run.
        stable: u64,
        /// Ground-truth agents in the sliding churn window.
        churn_pool: u64,
        /// External agents (the targets of `observe`).
        reporters: u64,
        rounds: usize,
        /// `leave` + `join` pairs per round.
        churn: u64,
        /// `observe` ops per round (connection 0).
        observes: u64,
        /// `demand` ops per round, sent on rounds where `round %
        /// demand_every == demand_every - 1`.
        demands: u64,
        demand_every: usize,
        /// Agent queries per round (connection 0).
        queries: u64,
        paced_rate: f64,
        /// Rounds the traced in-process replay covers.
        trace_rounds: usize,
    },
}

/// One workload: its server, population and op mix.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    pub name: &'static str,
    /// Why the benchmark has this workload (copied into `BENCHMARK.json`).
    pub why: &'static str,
    pub capacity: [f64; 2],
    pub mechanism: MechanismKind,
    pub shards: usize,
    pub durability: Durability,
    /// The server child of the measured phases runs on one CPU, the load
    /// threads on another.
    ///
    /// `serve_*` time the request path: a request is four thread hand-offs,
    /// and with the server's threads free to move, a hand-off flips between
    /// staying on a CPU and waking the other, halted one (2-3x dearer on a
    /// virtual machine) in stretches that last a whole run, so closed-loop
    /// latency and CPU time per op are bimodal from run to run. Confined,
    /// every hand-off between client and server crosses CPUs, every time;
    /// the price is a `ref_pool` of width 1. `epoch_*` time the epoch, where
    /// hand-offs are nothing and the pool does part of the work: there the
    /// server has every CPU, as in production.
    pub server_confined: bool,
    /// The REF epoch at scale, on ground truth: every tick's report must
    /// carry the paper's three properties (SI, EF, PE) as true, and the
    /// traced run adds the epoch-scaling curve.
    pub ref_epoch: bool,
    pub shape: Shape,
}

/// External agents each connection of a `serve_*` workload owns.
pub const SERVE_AGENTS_PER_CONN: u64 = 64;
/// `serve_*`: connection 0 sends a `tick` at every op index congruent to
/// `TICK_EVERY - 1`.
pub const TICK_EVERY: usize = 128;
/// Seconds the paced phase lasts at scale 1.
pub const PACED_SECONDS: f64 = 6.0;
/// Ops of a `serve_*` script the traced in-process replay covers at scale 1.
pub const TRACE_SERVE_OPS: usize = 15_000;
/// Every other paced op of an `epoch_*` workload is an `observe`.
const EPOCH_PACED_OBSERVE_EVERY: usize = 2;

/// Paced ops per second on connection 1 of `epoch_ref_churn` and of
/// `epoch_gp_credit`. Connection 0 keeps the server busy with back-to-back
/// epochs, and between two epochs the server takes the two connections' ops
/// in turn: the paced connection gets about as many ops through per round as
/// a round has other ops (50 and 9). At these rates about a quarter of that
/// comes due per round (13 in ~130 ms, 2 in ~36 ms), so an op mostly waits
/// for the epoch in progress and seldom for a backlog: its latency follows
/// the length of an epoch, not a queue that a slow minute of the host
/// doubles. Lower rates leave too few samples for a steady median.
const REF_CHURN_PACED_RATE: f64 = 100.0;
const GP_CREDIT_PACED_RATE: f64 = 50.0;

/// Distinct hidden utilities agents draw from.
const TRUTH_LEVELS: u64 = 16;
/// Keys the draws that shape the market itself: which agent changes its
/// demand when, and to what.
const POPULATION_SEED: u64 = 0x5EED;

const STABLE_BASE: u64 = 1_000;
const CHURN_BASE: u64 = 100_000;

/// The workloads, in the order every report lists them. Counts are what a
/// run at `BENCHMARK.json`'s `run_seconds` sends (scale 1); every workload
/// has at least 100 ticks, so `tick_p90_ms` has ten samples beyond it.
pub fn workloads() -> Vec<Workload> {
    let serve = |name, why, shards, durability, closed_ops, paced_rate| Workload {
        name,
        why,
        capacity: [64.0, 32.0],
        mechanism: MechanismKind::ProportionalElasticity,
        shards,
        durability,
        server_confined: true,
        ref_epoch: false,
        shape: Shape::Serve {
            closed_ops,
            paced_rate,
        },
    };
    vec![
        serve(
            "serve_mem",
            "transport, bus hand-off and JSON codec do all the work; WAL, replication and router idle: the bypass workload for every durability change",
            1,
            Durability::None,
            36_000,
            4_000.0,
        ),
        serve(
            "serve_wal_fsync",
            "per-record append + fsync + periodic checkpoint dominate mutations while queries bypass the log; paced latency is the counter-metric for group commit",
            1,
            Durability::WalFsync,
            13_056,
            1_000.0,
        ),
        serve(
            "serve_repl_sync",
            "send, standby apply, ack and the per-epoch state fingerprint dominate; paced against closed latency exposes ack batching",
            1,
            Durability::ReplSync,
            13_056,
            1_000.0,
        ),
        serve(
            "serve_shard4",
            "ring lookup, tick fan-out/merge and the cross-shard coordinator; guards the one-code-path-for-1-and-N-shards refactor",
            4,
            Durability::None,
            30_000,
            4_000.0,
        ),
        Workload {
            name: "epoch_ref_churn",
            why: "the REF epoch at 2,000 agents (audit, refit, enforcement, large tick reply) under arrivals and departures; paced ops show head-of-line blocking behind an epoch",
            capacity: [4000.0, 2000.0],
            mechanism: MechanismKind::ProportionalElasticity,
            shards: 1,
            durability: Durability::None,
            server_confined: false,
            ref_epoch: true,
            shape: Shape::Epoch {
                stable: 992,
                churn_pool: 1_000,
                reporters: 8,
                rounds: 100,
                churn: 10,
                observes: 0,
                demands: 20,
                demand_every: 1,
                queries: 10,
                paced_rate: REF_CHURN_PACED_RATE,
                trace_rounds: 8,
            },
        },
        Workload {
            name: "epoch_gp_credit",
            why: "the geometric-program solve, warm-start cache and credit ledger at 48 agents, where the audit is negligible: the same epoch layer used differently",
            capacity: [96.0, 48.0],
            mechanism: MechanismKind::from_label("credit-max-welfare")
                .expect("credit-max-welfare is a mechanism label"),
            shards: 1,
            durability: Durability::None,
            server_confined: false,
            ref_epoch: false,
            shape: Shape::Epoch {
                stable: 44,
                churn_pool: 0,
                reporters: 4,
                rounds: 240,
                churn: 0,
                observes: 4,
                demands: 1,
                demand_every: 4,
                queries: 4,
                paced_rate: GP_CREDIT_PACED_RATE,
                trace_rounds: 18,
            },
        },
    ]
}

impl Workload {
    /// The market the server fronts.
    pub fn market(&self) -> MarketConfig {
        MarketConfig::new(Capacity::new(self.capacity.to_vec()).expect("static capacity"))
            .with_mechanism(self.mechanism)
    }
}

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<Workload> {
    workloads().into_iter().find(|w| w.name == name)
}

/// `count` scaled, never below `floor`.
fn scaled(count: usize, scale: f64, floor: usize) -> usize {
    ((count as f64 * scale).round() as usize).max(floor)
}

// RNG streams: one per kind of draw, so adding a draw to one never shifts
// another.
const STREAM_TRUTH: u64 = 1;
const STREAM_OBSERVE: u64 = 2;
const STREAM_TARGET: u64 = 3;
const STREAM_DEMAND: u64 = 4;

/// A workload's script under one seed and scale.
#[derive(Debug, Clone)]
pub struct Script {
    pub workload: Workload,
    pub seed: u64,
    pub scale: f64,
}

impl Script {
    pub fn new(workload: Workload, seed: u64, scale: f64) -> Script {
        Script {
            workload,
            seed,
            scale,
        }
    }

    /// Agents live after set-up (the population size `N`).
    pub fn population(&self) -> u64 {
        match self.workload.shape {
            Shape::Serve { .. } => 2 * SERVE_AGENTS_PER_CONN,
            Shape::Epoch {
                stable,
                churn_pool,
                reporters,
                ..
            } => stable + churn_pool + reporters,
        }
    }

    fn equal_share(&self) -> [f64; 2] {
        let n = self.population() as f64;
        self.workload.capacity.map(|c| c / n)
    }

    /// Hidden elasticities of `agent`: `[a, 1 - a]`, `a` one of
    /// [`TRUTH_LEVELS`] evenly spaced values in `[0.1, 0.9]`. `regime` counts
    /// the agent's demand changes.
    ///
    /// Agents take the levels in turn by id, and a demand change draws any
    /// level under [`POPULATION_SEED`]: the market itself is the same under
    /// every `--seed`, which draws only what is measured in it (the
    /// observations) and asked of it (the query targets). The driver
    /// compares runs of different seeds, and the work of an epoch must not
    /// depend on the seed: a warm GP solve takes from 10 to 250 ms depending
    /// on whose demand just changed and to what.
    fn truth(agent: u64, regime: u64) -> [f64; 2] {
        let level = if regime == 0 {
            agent % TRUTH_LEVELS
        } else {
            Rng::keyed(POPULATION_SEED, STREAM_TRUTH, agent ^ (regime << 40)).below(TRUTH_LEVELS)
        };
        let a = 0.1 + 0.8 * (level as f64 + 0.5) / TRUTH_LEVELS as f64;
        [a, 1.0 - a]
    }

    fn join_truth(agent: u64) -> String {
        let [a, b] = Script::truth(agent, 0);
        format!(
            r#"{{"op":"join","agent":{agent},"source":{{"kind":"truth","scale":1,"elasticities":[{a},{b}]}}}}"#
        )
    }

    fn join_external(agent: u64) -> String {
        format!(r#"{{"op":"join","agent":{agent},"source":{{"kind":"external"}}}}"#)
    }

    fn query(agent: u64) -> Op {
        Op {
            kind: OpKind::Query,
            line: format!(r#"{{"op":"query","agent":{agent}}}"#),
        }
    }

    fn tick() -> Op {
        Op {
            kind: OpKind::Tick,
            line: r#"{"op":"tick"}"#.to_string(),
        }
    }

    /// An `observe` of External `agent`; `draw` keys the measurement.
    fn observe(&self, agent: u64, draw: u64) -> Op {
        let mut rng = Rng::keyed(self.seed, STREAM_OBSERVE, draw);
        let [a, b] = Script::truth(agent, 0);
        let [ex, ey] = self.equal_share();
        // exp(U(-ln 4, ln 4)) is log-uniform in [1/4, 4].
        let ln4 = 4f64.ln();
        let x = ex * rng.range(-ln4, ln4).exp();
        let y = ey * rng.range(-ln4, ln4).exp();
        let performance = x.powf(a) * y.powf(b) * (0.02 * rng.normal()).exp();
        Op {
            kind: OpKind::Mutate,
            line: format!(
                r#"{{"op":"observe","agent":{agent},"allocation":[{x},{y}],"performance":{performance}}}"#
            ),
        }
    }

    /// The `join` lines that build the population, in sending order.
    pub fn setup_lines(&self) -> Vec<String> {
        match self.workload.shape {
            Shape::Serve { .. } => (1..=2 * SERVE_AGENTS_PER_CONN)
                .map(Script::join_external)
                .collect(),
            Shape::Epoch {
                stable,
                churn_pool,
                reporters,
                ..
            } => (1..=reporters)
                .map(Script::join_external)
                .chain((1..=stable).map(|k| Script::join_truth(STABLE_BASE + k)))
                .chain((0..churn_pool).map(|k| Script::join_truth(CHURN_BASE + k)))
                .collect(),
        }
    }

    /// Closed-phase ops of connection `conn`.
    pub fn closed_len(&self, conn: usize) -> usize {
        match self.workload.shape {
            Shape::Serve { closed_ops, .. } => scaled(closed_ops, self.scale, TICK_EVERY * 4),
            Shape::Epoch { .. } if conn == 1 => 0,
            Shape::Epoch { .. } => self.rounds() * self.round_len(),
        }
    }

    /// Closed rounds of an `epoch_*` workload (0 for `serve_*`).
    pub fn rounds(&self) -> usize {
        match self.workload.shape {
            Shape::Serve { .. } => 0,
            Shape::Epoch { rounds, .. } => scaled(rounds, self.scale, 5),
        }
    }

    /// Ops in one closed round of an `epoch_*` workload.
    pub fn round_len(&self) -> usize {
        match self.workload.shape {
            Shape::Serve { .. } => 0,
            Shape::Epoch {
                churn,
                observes,
                demands,
                queries,
                ..
            } => (2 * churn + observes + demands + queries + 1) as usize,
        }
    }

    /// Paced ops per second on connection `conn`.
    pub fn paced_rate(&self, conn: usize) -> f64 {
        match self.workload.shape {
            Shape::Serve { paced_rate, .. } => paced_rate / 2.0,
            Shape::Epoch { .. } if conn == 0 => 0.0,
            Shape::Epoch { paced_rate, .. } => paced_rate,
        }
    }

    /// Paced ops of connection `conn`; `None` when the connection paces
    /// until the other one finishes its closed rounds.
    pub fn paced_len(&self, conn: usize) -> Option<usize> {
        match self.workload.shape {
            Shape::Serve { .. } => {
                Some((self.paced_rate(conn) * PACED_SECONDS * self.scale).round() as usize)
            }
            Shape::Epoch { .. } if conn == 0 => Some(0),
            Shape::Epoch { .. } => None,
        }
    }

    /// Ops of this script the traced replay covers, per connection for
    /// `serve_*` and in rounds for `epoch_*`.
    pub fn trace_len(&self) -> usize {
        match self.workload.shape {
            Shape::Serve { .. } => {
                scaled(TRACE_SERVE_OPS / 2, self.scale, TICK_EVERY * 4).min(self.closed_len(0))
            }
            Shape::Epoch { trace_rounds, .. } => {
                scaled(trace_rounds, self.scale, 5).min(self.rounds())
            }
        }
    }

    /// Op `i` of connection `conn`'s closed phase.
    pub fn closed_op(&self, conn: usize, i: usize) -> Op {
        match self.workload.shape {
            Shape::Serve { .. } => self.serve_op(conn, 0, i),
            Shape::Epoch { .. } => self.round_op(i / self.round_len(), i % self.round_len()),
        }
    }

    /// Op `i` of connection `conn`'s paced phase.
    pub fn paced_op(&self, conn: usize, i: usize) -> Op {
        match self.workload.shape {
            Shape::Serve { .. } => self.serve_op(conn, 1, i),
            Shape::Epoch {
                stable, reporters, ..
            } => {
                let i = i as u64;
                if i as usize % EPOCH_PACED_OBSERVE_EVERY == EPOCH_PACED_OBSERVE_EVERY - 1 {
                    let k = i / EPOCH_PACED_OBSERVE_EVERY as u64;
                    self.observe(1 + k % reporters, (3 << 48) | i)
                } else {
                    let pick = Rng::keyed(self.seed, STREAM_TARGET, (3 << 48) | i).below(stable);
                    Script::query(STABLE_BASE + 1 + pick)
                }
            }
        }
    }

    /// The `serve_*` op rule: `tick` on connection 0 when `i % 128 == 127`,
    /// else an agent `query` when `i % 3 == 2`, else an `observe`; targets
    /// rotate over the connection's own agents.
    fn serve_op(&self, conn: usize, phase: u64, i: usize) -> Op {
        if conn == 0 && i % TICK_EVERY == TICK_EVERY - 1 {
            return Script::tick();
        }
        let agent = 1 + conn as u64 * SERVE_AGENTS_PER_CONN + i as u64 % SERVE_AGENTS_PER_CONN;
        if i % 3 == 2 {
            Script::query(agent)
        } else {
            self.observe(agent, (phase << 48) | ((conn as u64) << 40) | i as u64)
        }
    }

    /// Op `slot` of closed round `round` (connection 0 of `epoch_*`): the
    /// oldest `churn` agents of the sliding window leave, `churn` new ones
    /// join, then reports, demand changes and queries, then the `tick`.
    fn round_op(&self, round: usize, slot: usize) -> Op {
        let Shape::Epoch {
            stable,
            churn_pool,
            reporters,
            churn,
            observes,
            demands,
            demand_every,
            queries,
            ..
        } = self.workload.shape
        else {
            unreachable!("round_op is only called for epoch workloads");
        };
        let (r, mut k) = (round as u64, slot as u64);
        let key = (2 << 48) | (r << 16) | k;
        if k < churn {
            let agent = CHURN_BASE + r * churn + k;
            return Op {
                kind: OpKind::Mutate,
                line: format!(r#"{{"op":"leave","agent":{agent}}}"#),
            };
        }
        k -= churn;
        if k < churn {
            return Op {
                kind: OpKind::Mutate,
                line: Script::join_truth(CHURN_BASE + churn_pool + r * churn + k),
            };
        }
        k -= churn;
        if k < observes {
            return self.observe(1 + (r * observes + k) % reporters, key);
        }
        k -= observes;
        // Ground-truth agents live after this round's churn: the stable ones
        // and the window `[CHURN_BASE + (r+1)*churn, CHURN_BASE + churn_pool
        // + (r+1)*churn)`.
        let live = |pick: u64| {
            if pick < stable {
                STABLE_BASE + 1 + pick
            } else {
                CHURN_BASE + (r + 1) * churn + (pick - stable)
            }
        };
        let mut rng = Rng::keyed(self.seed, STREAM_TARGET, key);
        if k < demands {
            // On the other rounds the slot still exists, so a round always
            // has `round_len` ops: it is spent on one more query.
            if round % demand_every == demand_every - 1 {
                let mut change = Rng::keyed(POPULATION_SEED, STREAM_DEMAND, key);
                let agent = live(change.below(stable + churn_pool));
                let regime = 1 + change.below(1 << 20);
                let [a, b] = Script::truth(agent, regime);
                return Op {
                    kind: OpKind::Mutate,
                    line: format!(
                        r#"{{"op":"demand","agent":{agent},"truth":{{"scale":1,"elasticities":[{a},{b}]}}}}"#
                    ),
                };
            }
            return Script::query(live(rng.below(stable + churn_pool)));
        }
        k -= demands;
        if k < queries {
            return Script::query(live(rng.below(stable + churn_pool)));
        }
        Script::tick()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::fnv1a64;
    use ref_serve::parse_request;

    /// The set-up lines, the first `n` closed ops (connections taking
    /// turns) and the first `n / 5` paced ops of each paced connection.
    fn first_lines(name: &str, seed: u64, n: usize) -> Vec<String> {
        let script = Script::new(workload(name).unwrap(), seed, 1.0);
        let mut lines = script.setup_lines();
        let setup = lines.len();
        for i in 0..n {
            for conn in 0..2 {
                if i < script.closed_len(conn) {
                    lines.push(script.closed_op(conn, i).line);
                }
            }
        }
        lines.truncate(setup + n);
        for conn in (0..2).filter(|&conn| script.paced_rate(conn) > 0.0) {
            lines.extend((0..n / 5).map(|i| script.paced_op(conn, i).line));
        }
        lines
    }

    fn golden(name: &str, seed: u64) -> u64 {
        fnv1a64(first_lines(name, seed, 1_000).join("\n").as_bytes())
    }

    #[test]
    fn script_is_a_pure_function_of_the_seed() {
        // Golden hashes of the set-up and the first 1,000 ops: a change here
        // is a change of workload, and every committed baseline goes stale.
        assert_eq!(golden("serve_mem", 11), 0x6724120dda382831);
        assert_eq!(golden("serve_mem", 12), 0xcda0413a50f06db5);
        assert_eq!(golden("epoch_ref_churn", 11), 0x51d6bafcd0b9869a);
        assert_eq!(golden("epoch_gp_credit", 12), 0xe643715c00363e7a);
        assert_eq!(golden("serve_mem", 11), golden("serve_wal_fsync", 11));
        assert_ne!(golden("serve_mem", 11), golden("serve_mem", 12));
    }

    #[test]
    fn every_generated_line_parses() {
        for w in workloads() {
            let script = Script::new(w.clone(), 11, 0.05);
            for line in script.setup_lines() {
                parse_request(&line).unwrap_or_else(|e| panic!("{}: {line}: {e}", w.name));
            }
            for conn in 0..2 {
                for i in 0..script.closed_len(conn).min(600) {
                    let op = script.closed_op(conn, i);
                    parse_request(&op.line).unwrap_or_else(|e| panic!("{}: {e}", op.line));
                }
                for i in 0..200 {
                    if script.paced_rate(conn) > 0.0 {
                        let op = script.paced_op(conn, i);
                        parse_request(&op.line).unwrap_or_else(|e| panic!("{}: {e}", op.line));
                    }
                }
            }
        }
    }

    #[test]
    fn serve_rule_places_ticks_queries_and_observes() {
        let script = Script::new(workload("serve_mem").unwrap(), 11, 1.0);
        assert_eq!(script.closed_op(0, 127).kind, OpKind::Tick);
        assert_eq!(script.closed_op(1, 127).kind, OpKind::Mutate);
        assert_eq!(script.closed_op(0, 2).kind, OpKind::Query);
        assert_eq!(script.closed_op(0, 0).kind, OpKind::Mutate);
        assert_eq!(script.closed_len(0), 36_000);
        assert_eq!(script.paced_len(0), Some(12_000));
        assert!(script.closed_op(1, 0).line.contains(r#""agent":65,"#));
    }

    #[test]
    fn every_workload_has_a_hundred_ticks() {
        for w in workloads() {
            let script = Script::new(w, 11, 1.0);
            let ticks = (0..script.closed_len(0))
                .filter(|&i| script.closed_op(0, i).kind == OpKind::Tick)
                .count();
            assert!(ticks >= 100, "{}: {ticks} ticks", script.workload.name);
        }
    }

    #[test]
    fn churn_rounds_never_touch_a_departed_agent() {
        let script = Script::new(workload("epoch_ref_churn").unwrap(), 11, 0.2);
        let mut live: std::collections::BTreeSet<u64> =
            script.setup_lines().iter().map(|l| agent_of(l)).collect();
        assert_eq!(live.len() as u64, script.population());
        let mut ticks = 0;
        for i in 0..script.closed_len(0) {
            let op = script.closed_op(0, i);
            if op.kind == OpKind::Tick {
                ticks += 1;
                continue;
            }
            let agent = agent_of(&op.line);
            if op.line.contains(r#""op":"leave""#) {
                assert!(live.remove(&agent), "leave of absent {agent}");
            } else if op.line.contains(r#""op":"join""#) {
                assert!(live.insert(agent), "duplicate join of {agent}");
            } else {
                assert!(live.contains(&agent), "{} targets absent agent", op.line);
            }
        }
        assert_eq!(ticks, script.rounds());
        assert_eq!(live.len() as u64, script.population());
        // The paced connection only ever names agents that never leave.
        for i in 0..500 {
            assert!(live.contains(&agent_of(&script.paced_op(1, i).line)));
        }
    }

    fn agent_of(line: &str) -> u64 {
        let rest = line
            .split(r#""agent":"#)
            .nth(1)
            .expect("line names an agent");
        rest.split(|c: char| !c.is_ascii_digit())
            .next()
            .unwrap()
            .parse()
            .unwrap()
    }
}
