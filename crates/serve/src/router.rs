//! `RouterCore`: the fleet-routing and node-supervision rules as one
//! sans-IO state machine (DESIGN.md §9, §14).
//!
//! Inputs are the shards' tick replies and demand summaries, the replies
//! to reallotments and probes, a panic notice for a shard, the notice
//! that a shard is served from a recovered WAL, and clock readings.
//! Outputs are verdicts: the round's (which shards are missing, whether
//! the quorum froze, which reallotments to deliver), the clock's
//! [`Duty`] (fan a timed tick, restart or probe a shard), what a panic
//! makes of a shard ([`AfterPanic`]), and how a shard comes back
//! ([`Readmit`]). The threaded server (`server.rs`) and the
//! deterministic simulator (`ref-dst`) drive this one machine; neither
//! compares a health, a role or an epoch itself.
//!
//! What lives here: the `Healthy → Suspect → Down` transitions, which
//! shards a fan asks ([`asks`]), the restart-or-failover rule, the
//! supervisor's sweep and the timed-epoch clock, the quorum gate around
//! the [`Coordinator`] with delivery, rollback and resync of allotments,
//! catch-up tick counts, the partial-stamped merge of per-shard epoch
//! reports, and the per-shard fencing-token floor (`TermFloor`) that
//! [`crate::Client`] shares.

use std::collections::BTreeMap;
use std::time::Duration;

use crate::json::Value;
use crate::protocol::{ok_response, Request};
use crate::repl_core::Role;
use crate::shard::{CoordinationStatus, Coordinator, ShardHealth};

/// How often the supervisor sweeps the fleet for shards to restart or
/// probe.
pub(crate) const SWEEP_EVERY: Duration = Duration::from_millis(25);

/// Whether a request is put to a shard of `health` at all. A Down shard
/// is answered `shard_unavailable` without being asked — except for
/// `shutdown`, which must close every bus, and `promote`, which must
/// reach every shard.
pub fn asks(health: ShardHealth, request: &Request) -> bool {
    health != ShardHealth::Down || matches!(request, Request::Shutdown | Request::Promote)
}

/// What the node's clock asks of its driver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Duty {
    /// Fan a timed tick to the fleet.
    Tick,
    /// Restart this shard in place from its WAL, then report the
    /// recovered core through [`RouterCore::recovered`].
    Restart(usize),
    /// Ask this Down shard a quick query and feed the reply to
    /// [`RouterCore::probed`].
    Probe(usize),
}

/// What a panic makes of a shard (see [`RouterCore::panicked`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AfterPanic {
    /// The sweep restarts it in place from its WAL: it is durable and
    /// unreplicated.
    Restart,
    /// It stays Down for failover, and its node stops leading — no
    /// heartbeat, no election — so a standby's election replaces it.
    /// Without a WAL there is nothing to restart from; with replication
    /// the record whose apply panicked was appended but never streamed,
    /// so a restart from the log would leave the standby one record
    /// short.
    StopLeading,
}

/// How a shard comes back into the fleet: deliver `capacity` (when some)
/// as a journaled `reallot`, then push `catch_up` quota-exempt ticks, in
/// that order and ahead of anything the fleet pushes later.
#[derive(Debug, Clone, PartialEq)]
pub struct Readmit {
    /// The shard.
    pub shard: usize,
    /// The allotment to re-offer: a recovered WAL holds the split the
    /// shard last journaled, which may predate reallotments issued while
    /// it was away.
    pub capacity: Option<Vec<f64>>,
    /// Ticks that close the epoch gap to the rest of the fleet.
    pub catch_up: u64,
}

/// What one shard's tick reply tells the router about the shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TickOutcome {
    /// Replied `ok` within budget.
    Clean,
    /// Missed the tick budget (`timeout`): Suspect, Down on repeat.
    Missed,
    /// The shard dropped the reply (`internal`): the shard itself
    /// failed, no grace period.
    Failed,
    /// Not asked or not answering for a reason that says nothing new
    /// about its health (`shard_unavailable`, `shutting_down`, a
    /// replicated primary inside its recovery lease).
    Silent,
}

impl TickOutcome {
    /// Classifies a shard's tick reply.
    pub fn of(reply: &Value) -> TickOutcome {
        if is_ok(reply) {
            return TickOutcome::Clean;
        }
        match reply.get("error").and_then(Value::as_str) {
            Some("timeout") => TickOutcome::Missed,
            Some("internal") => TickOutcome::Failed,
            _ => TickOutcome::Silent,
        }
    }
}

/// Per-shard fencing-token floor: the highest primary term seen for each
/// shard. Whoever routes by it never again adopts a primary below it — a
/// crashed high-term primary must not fail routing back to a deposed one
/// whose solo acks would die with its branch.
#[derive(Debug, Clone, Default)]
pub(crate) struct TermFloor(BTreeMap<u64, u64>);

impl TermFloor {
    /// Whether a primary of `shard` at `term` may be adopted; adopting
    /// ratchets the floor up to `term`.
    pub(crate) fn admit(&mut self, shard: u64, term: u64) -> bool {
        let floor = self.0.entry(shard).or_insert(0);
        if term < *floor {
            return false;
        }
        *floor = term;
        true
    }
}

#[derive(Debug, Clone)]
struct Watch {
    health: ShardHealth,
    /// Consecutive fleet ticks the shard failed to answer.
    missed: u64,
    /// Consecutive clean replies since it was last Suspect.
    clean: u64,
    /// Down by a panic: its engine is behind its log, so only a recovery
    /// (never a probe) brings it back.
    panicked: bool,
}

impl Watch {
    fn entering(health: ShardHealth) -> Watch {
        Watch {
            health,
            missed: 0,
            clean: 0,
            panicked: false,
        }
    }
}

/// One fleet tick's verdict.
#[derive(Debug, Clone)]
pub struct Round {
    /// Shards that delivered no report this tick. Non-empty means the
    /// epoch is *partial*: no fleet-wide fairness may be merged from it.
    pub missing: Vec<u64>,
    /// Fewer shards than the quorum reported: allotments froze.
    pub frozen: bool,
    /// Reallotments to deliver, as journaled `reallot` events. Each
    /// shard's reply goes back through [`RouterCore::delivered`].
    pub reallots: Vec<(usize, Vec<f64>)>,
    /// Shards Down after the round.
    pub down: usize,
    /// The coordinator's audit state after the round.
    pub status: CoordinationStatus,
}

/// The routing and supervision state machine of one node's fleet (see
/// the module docs).
#[derive(Debug)]
pub struct RouterCore {
    coord: Coordinator,
    quorum: usize,
    recovery_clean_ticks: u64,
    watch: Vec<Watch>,
    router_term: TermFloor,
    durable: bool,
    replicated: bool,
    /// Each shard's epoch as its replies last showed it.
    epochs: Vec<u64>,
    epoch_interval: Option<Duration>,
    next_epoch: Option<Duration>,
    next_sweep: Duration,
}

impl RouterCore {
    /// A router over `shards` shards splitting `total` capacity, with no
    /// WAL, no replication and no timed epochs (see
    /// [`RouterCore::with_node`]).
    pub fn new(
        total: Vec<f64>,
        shards: usize,
        drift_bound: f64,
        quorum: usize,
        recovery_clean_ticks: u64,
    ) -> RouterCore {
        RouterCore {
            coord: Coordinator::new(total, shards, drift_bound),
            quorum,
            recovery_clean_ticks,
            watch: vec![Watch::entering(ShardHealth::Healthy); shards],
            router_term: TermFloor::default(),
            durable: false,
            replicated: false,
            epochs: vec![0; shards],
            epoch_interval: None,
            next_epoch: None,
            next_sweep: Duration::ZERO,
        }
    }

    /// The node the router runs in: whether its shards keep a WAL,
    /// whether they are replicated, and the timed-epoch cadence (`None`:
    /// epochs run only on `tick` requests).
    #[must_use]
    pub fn with_node(
        mut self,
        durable: bool,
        replicated: bool,
        epoch_interval: Option<Duration>,
    ) -> RouterCore {
        self.durable = durable;
        self.replicated = replicated;
        self.epoch_interval = epoch_interval;
        self
    }

    /// The router's assessment of `shard`.
    pub fn health(&self, shard: usize) -> ShardHealth {
        self.watch[shard].health
    }

    /// The restart-or-failover rule: a panicked shard is restarted in
    /// place iff it is durable and unreplicated.
    fn restarts_in_place(&self) -> bool {
        self.durable && !self.replicated
    }

    /// A panic under `shard`'s lock: the shard is Down at once (it knows
    /// before any tick can time out), and the verdict says whether the
    /// sweep restarts it or its node stops leading.
    pub fn panicked(&mut self, shard: usize) -> AfterPanic {
        self.watch[shard] = Watch {
            panicked: true,
            ..Watch::entering(ShardHealth::Down)
        };
        if self.restarts_in_place() {
            AfterPanic::Restart
        } else {
            AfterPanic::StopLeading
        }
    }

    /// The node's clocks at `now`: a timed tick every `epoch_interval`
    /// while the node `leads`, and every `SWEEP_EVERY` (25 ms) the
    /// supervisor's sweep — restart a panicked shard the rule restarts,
    /// probe one Down on timeouts alone (a Down shard is skipped by the
    /// fan, so without a probe it could never produce the clean replies
    /// that heal it). A panicked shard left for failover gets neither.
    pub fn clock(&mut self, now: Duration, leads: bool) -> Vec<Duty> {
        let mut duties = Vec::new();
        if let Some(interval) = self.epoch_interval {
            let due = *self.next_epoch.get_or_insert(now + interval);
            if now >= due {
                self.next_epoch = Some(now + interval);
                if leads {
                    duties.push(Duty::Tick);
                }
            }
        }
        if now >= self.next_sweep {
            self.next_sweep = now + SWEEP_EVERY;
            for (shard, watch) in self.watch.iter().enumerate() {
                match (watch.health, watch.panicked) {
                    (_, true) if self.restarts_in_place() => duties.push(Duty::Restart(shard)),
                    (ShardHealth::Down, false) => duties.push(Duty::Probe(shard)),
                    _ => {}
                }
            }
        }
        duties
    }

    /// The clock reading at which [`RouterCore::clock`] next has
    /// something to say.
    pub(crate) fn next_clock(&self) -> Duration {
        self.next_epoch
            .map_or(self.next_sweep, |epoch| epoch.min(self.next_sweep))
    }

    /// `shard` is now served from a recovered WAL — restarted in place,
    /// or a new primary. It re-enters at Suspect, must earn Healthy back
    /// with clean ticks, and is re-offered its allotment and caught up to
    /// the fleet from `epoch`, the recovered one.
    pub fn recovered(&mut self, shard: usize, epoch: u64) -> Readmit {
        let capacity = self.coord.resync_delivery(shard);
        self.readmit(shard, epoch, Some(capacity))
    }

    /// A reply to the probe of `shard`. Answered in time, a shard Down on
    /// timeouts alone re-enters at Suspect (the fan includes Suspect
    /// shards, so clean ticks can finish the healing) after catch-up
    /// ticks close the gap it accumulated while skipped.
    pub fn probed(&mut self, shard: usize, reply: &Value) -> Option<Readmit> {
        let watch = &self.watch[shard];
        if !is_ok(reply) || watch.health != ShardHealth::Down || watch.panicked {
            return None;
        }
        Some(self.readmit(shard, epoch_of(reply), None))
    }

    /// Re-enters `shard`, now at `epoch`, at Suspect, with the ticks that
    /// bring it up to the furthest any *other* shard got.
    fn readmit(&mut self, shard: usize, epoch: u64, capacity: Option<Vec<f64>>) -> Readmit {
        self.watch[shard] = Watch::entering(ShardHealth::Suspect);
        let fleet = (self.epochs.iter().enumerate())
            .filter(|(other, _)| *other != shard)
            .map(|(_, epoch)| *epoch)
            .max()
            .unwrap_or(0);
        let catch_up = fleet.saturating_sub(epoch);
        self.epochs[shard] = epoch + catch_up;
        Readmit {
            shard,
            capacity,
            catch_up,
        }
    }

    /// `shard`'s reply to a reallotment or re-offer. A shard that did not
    /// journal the split (a WAL append error, a recovery lease, a Down
    /// shard) is offered it again on the next round instead of drifting.
    pub fn delivered(&mut self, shard: usize, reply: &Value) {
        if !is_ok(reply) {
            self.coord.mark_undelivered(shard);
        }
    }

    /// The coordinator's audit state.
    #[cfg(test)]
    pub(crate) fn status(&self) -> CoordinationStatus {
        self.coord.status()
    }

    /// The current per-shard allotments.
    pub fn allotments(&self) -> &[Vec<f64>] {
        self.coord.allotments()
    }

    /// Folds one fleet tick in: health from each shard's reply (and, from
    /// a clean one, the epoch catch-up counts start from), then
    /// the quorum gate — below quorum the demand picture is too partial
    /// to act on and allotments freeze; at or above it the coordinator
    /// steps, and an update for a shard that did not report is rolled
    /// back (marked undelivered, re-offered once it reports again).
    pub fn tick_round(&mut self, replies: &[Value], demands: &[Vec<f64>]) -> Round {
        let outcomes: Vec<TickOutcome> = replies.iter().map(TickOutcome::of).collect();
        for (shard, (watch, outcome)) in self.watch.iter_mut().zip(&outcomes).enumerate() {
            match outcome {
                TickOutcome::Clean => {
                    self.epochs[shard] = epoch_of(&replies[shard]);
                    watch.missed = 0;
                    if watch.health != ShardHealth::Healthy {
                        watch.clean += 1;
                        if watch.clean >= self.recovery_clean_ticks {
                            *watch = Watch::entering(ShardHealth::Healthy);
                        }
                    }
                }
                TickOutcome::Missed => {
                    watch.clean = 0;
                    watch.missed += 1;
                    watch.health = if watch.missed >= 2 {
                        ShardHealth::Down
                    } else {
                        ShardHealth::Suspect
                    };
                }
                TickOutcome::Failed => {
                    watch.clean = 0;
                    watch.health = ShardHealth::Down;
                }
                TickOutcome::Silent => {}
            }
        }
        let reported = |shard: usize| outcomes[shard] == TickOutcome::Clean;
        let missing: Vec<u64> = (0..outcomes.len())
            .filter(|shard| !reported(*shard))
            .map(|shard| shard as u64)
            .collect();
        let frozen = outcomes.len() - missing.len() < self.quorum;
        let mut reallots = Vec::new();
        if !frozen {
            for (shard, update) in self.coord.step(demands).into_iter().enumerate() {
                match update {
                    Some(capacity) if reported(shard) => reallots.push((shard, capacity)),
                    Some(_) => self.coord.mark_undelivered(shard),
                    None => {}
                }
            }
        }
        Round {
            missing,
            frozen,
            reallots,
            down: self
                .watch
                .iter()
                .filter(|watch| watch.health == ShardHealth::Down)
                .count(),
            status: self.coord.status(),
        }
    }

    /// Picks the node serving `shard` among `(node, role, term)`
    /// candidates: the highest-term primary (lowest node on a tie) — if
    /// it clears the shard's `TermFloor`, which it then ratchets.
    pub fn pick_primary(
        &mut self,
        shard: usize,
        candidates: impl IntoIterator<Item = (usize, Role, u64)>,
    ) -> Option<usize> {
        let (node, _, term) = candidates
            .into_iter()
            .filter(|(_, role, _)| *role == Role::Primary)
            .max_by_key(|(node, _, term)| (*term, usize::MAX - node))?;
        self.router_term.admit(shard as u64, term).then_some(node)
    }
}

fn is_ok(reply: &Value) -> bool {
    reply.get("ok") == Some(&Value::Bool(true))
}

fn epoch_of(reply: &Value) -> u64 {
    reply.get("epoch").and_then(Value::as_u64).unwrap_or(0)
}

/// Inserts a `"shard": k` tag right after the leading `ok`/`error`
/// marker of a shard's reply, so aggregated arrays stay attributable. A
/// reply that already names its shard (`shard_unavailable`, or a
/// redirect from one shard of an externally sharded deployment) keeps
/// that tag.
pub(crate) fn tag_shard(value: Value, shard: usize) -> Value {
    match value {
        Value::Obj(mut pairs) if !pairs.iter().any(|(key, _)| key == "shard") => {
            let at = pairs.len().min(1);
            pairs.insert(at, ("shard".to_string(), Value::from_u64(shard as u64)));
            Value::Obj(pairs)
        }
        other => other,
    }
}

/// The reply to a fleet op: the merged scalars `fields` and every
/// shard's own reply in a shard-tagged `shards` array. When no shard
/// answered `ok` there is nothing to merge, and the reply is the first
/// shard's error, tagged — so a lone standby still answers `not_primary`
/// with its `leader`, and a fleet with every shard Down answers
/// `shard_unavailable` with its `retry_after_ms`.
pub(crate) fn fleet_reply(mut fields: Vec<(&str, Value)>, replies: Vec<Value>) -> Value {
    let ok = Value::Bool(true);
    let answered = replies.iter().any(|reply| reply.get("ok") == Some(&ok));
    let mut tagged = replies
        .into_iter()
        .enumerate()
        .map(|(shard, reply)| tag_shard(reply, shard));
    if !answered {
        return tagged.next().expect("a fleet has at least one shard");
    }
    fields.push(("shards", Value::Arr(tagged.collect())));
    ok_response(fields)
}

/// The merged reply to a fleet `tick`: the fleet epoch, the combined
/// report, the coordinator's drift audit, and every shard's own reply.
pub(crate) fn tick_reply(replies: Vec<Value>, round: &Round) -> Value {
    let epoch = replies
        .iter()
        .filter_map(|r| r.get("epoch").and_then(Value::as_u64))
        .max()
        .unwrap_or(0);
    let mut fields: Vec<(&str, Value)> = vec![("epoch", Value::from_u64(epoch))];
    if let Some(report) = merge_reports(&replies, &round.missing) {
        fields.push(("report", report));
    }
    fields.push(("drift", Value::Num(round.status.drift)));
    fields.push(("drift_bound_ok", Value::Bool(round.status.within_bound)));
    fleet_reply(fields, replies)
}

/// Combines per-shard epoch verdicts into a fleet-wide view: agent and
/// temporal-violation counts sum, warm-up ORs, fairness flags AND (with
/// violation counts summed and the worst ratios kept), and the
/// enforcement deviation takes the worst shard. `None` if no shard
/// produced a report this tick. When any shard missed the tick
/// (`missing` non-empty) the merged report is stamped `partial: true`
/// with those shard ids and carries no fairness block: a fleet audit
/// over a partial fleet would be phantom data.
pub(crate) fn merge_reports(replies: &[Value], missing: &[u64]) -> Option<Value> {
    let reports: Vec<&Value> = replies.iter().filter_map(|r| r.get("report")).collect();
    if reports.is_empty() {
        return None;
    }
    let sum =
        |of: &[&Value], key: &str| -> u64 { of.iter().filter_map(|v| v.get(key)?.as_u64()).sum() };
    let worst = |of: &[&Value], key: &str| -> f64 {
        of.iter()
            .filter_map(|v| v.get(key)?.as_f64())
            .fold(0.0f64, f64::max)
    };
    let all = |of: &[&Value], key: &str| {
        let yes = Value::Bool(true);
        of.iter().all(|v| v.get(key) == Some(&yes))
    };
    let epoch = reports
        .iter()
        .filter_map(|r| r.get("epoch")?.as_u64())
        .max();
    let warm = reports
        .iter()
        .any(|r| r.get("warm") == Some(&Value::Bool(true)));
    let mut fields: Vec<(&str, Value)> = vec![
        ("epoch", Value::from_u64(epoch.unwrap_or(0))),
        ("agents", Value::from_u64(sum(&reports, "agents"))),
        ("warm", Value::Bool(warm)),
        (
            "temporal_violations",
            Value::from_u64(sum(&reports, "temporal_violations")),
        ),
        (
            "worst_enforcement_deviation",
            Value::Num(worst(&reports, "worst_enforcement_deviation")),
        ),
    ];
    if !missing.is_empty() {
        fields.push(("partial", Value::Bool(true)));
        fields.push((
            "missing_shards",
            Value::Arr(missing.iter().copied().map(Value::from_u64).collect()),
        ));
    }
    // A shard without agents has nothing to audit (`"fairness": null`)
    // and no say in the fleet verdict; with no audit anywhere there is no
    // verdict. Per-shard reports emit `envy_edges` (violation count) and
    // `max_mrs_mismatch`; the merged view renames them to the fleet-wide
    // reading: total violations, worst spread anywhere.
    let f: Vec<&Value> = reports
        .iter()
        .filter_map(|r| r.get("fairness"))
        .filter(|fairness| **fairness != Value::Null)
        .collect();
    if missing.is_empty() && !f.is_empty() {
        fields.push((
            "fairness",
            Value::obj(vec![
                (
                    "sharing_incentives",
                    Value::Bool(all(&f, "sharing_incentives")),
                ),
                ("si_violations", Value::from_u64(sum(&f, "si_violations"))),
                ("envy_free", Value::Bool(all(&f, "envy_free"))),
                ("ef_violations", Value::from_u64(sum(&f, "envy_edges"))),
                ("pareto_efficient", Value::Bool(all(&f, "pareto_efficient"))),
                ("max_mrs_spread", Value::Num(worst(&f, "max_mrs_mismatch"))),
            ]),
        ));
    }
    Some(Value::obj(fields))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core::{JournalLimit, ServiceCore};
    use crate::metrics::ServeMetrics;
    use crate::protocol::{error_response, shard_unavailable_response, Request};
    use ref_core::resource::Capacity;
    use ref_core::utility::CobbDouglas;
    use ref_market::{MarketConfig, ObservationSource};
    use TickOutcome::{Clean, Failed, Missed, Silent};

    fn router(shards: usize, quorum: usize) -> RouterCore {
        RouterCore::new(vec![64.0, 32.0], shards, 0.25, quorum, 2)
    }

    /// Tick replies that classify as `outcomes`, the clean ones at epoch 1.
    fn said(outcomes: &[TickOutcome]) -> Vec<Value> {
        let reply = |outcome: &TickOutcome| match outcome {
            Clean => ok_response(vec![("epoch", Value::from_u64(1))]),
            Missed => error_response("timeout", None, None),
            Failed => error_response("internal", None, None),
            Silent => shard_unavailable_response(0, 5),
        };
        outcomes.iter().map(reply).collect()
    }

    fn skewed(shards: usize) -> Vec<Vec<f64>> {
        let mut demands = vec![vec![1.0, 0.5]; shards];
        demands[0] = vec![8.0, 4.0];
        demands
    }

    #[test]
    fn tick_replies_classify_into_outcomes() {
        let table = [
            (ok_response(vec![]), Clean),
            (error_response("timeout", None, None), Missed),
            (error_response("internal", None, None), Failed),
            (error_response("shard_unavailable", None, None), Silent),
            (error_response("shutting_down", None, None), Silent),
            (error_response("unavailable", None, Some(5)), Silent),
        ];
        for (reply, want) in table {
            assert_eq!(TickOutcome::of(&reply), want, "{reply}");
        }
    }

    #[test]
    fn health_transitions() {
        use ShardHealth::{Down, Healthy, Suspect};
        // Each row: outcomes fed to shard 0 in order → health after each.
        let table: [(&[TickOutcome], &[ShardHealth]); 5] = [
            (&[Missed, Missed], &[Suspect, Down]),
            (&[Missed, Clean, Clean], &[Suspect, Suspect, Healthy]),
            // A clean tick resets the miss count but a miss resets the
            // healing progress: two *consecutive* clean ticks heal.
            (
                &[Missed, Clean, Missed, Clean, Clean],
                &[Suspect, Suspect, Suspect, Suspect, Healthy],
            ),
            (&[Failed, Silent, Clean], &[Down, Down, Down]),
            (&[Clean, Silent], &[Healthy, Healthy]),
        ];
        for (outcomes, want) in table {
            let mut router = router(2, 1);
            for (outcome, health) in outcomes.iter().zip(want) {
                router.tick_round(&said(&[*outcome, Clean]), &skewed(2));
                assert_eq!(router.health(0), *health, "{outcomes:?}");
                assert_eq!(router.health(1), Healthy);
            }
        }
        // An answered probe re-enters at Suspect.
        let mut router = router(2, 1);
        router.tick_round(&said(&[Failed, Clean]), &skewed(2));
        assert!(router.probed(0, &ok_response(vec![])).is_some());
        assert_eq!(router.health(0), Suspect);
        router.tick_round(&said(&[Clean, Clean]), &skewed(2));
        router.tick_round(&said(&[Clean, Clean]), &skewed(2));
        assert_eq!(router.health(0), Healthy);
    }

    #[test]
    fn fans_skip_down_shards_but_shutdown_and_promote_reach_them() {
        use ShardHealth::{Down, Healthy, Suspect};
        for health in [Healthy, Suspect] {
            assert!(asks(health, &Request::Tick));
        }
        assert!(!asks(Down, &Request::Tick));
        assert!(!asks(Down, &Request::Query { agent: Some(1) }));
        assert!(asks(Down, &Request::Shutdown));
        assert!(asks(Down, &Request::Promote));
    }

    #[test]
    fn a_panic_restarts_in_place_iff_durable_and_unreplicated() {
        use ShardHealth::{Down, Suspect};
        // (durable, replicated) → verdict; the sweep restarts exactly the
        // shards the verdict says, and probes none of them.
        let table = [
            (true, false, AfterPanic::Restart),
            (true, true, AfterPanic::StopLeading),
            (false, false, AfterPanic::StopLeading),
            (false, true, AfterPanic::StopLeading),
        ];
        for (durable, replicated, want) in table {
            let mut router = router(2, 1).with_node(durable, replicated, None);
            router.tick_round(&said(&[Clean, Clean]), &skewed(2));
            assert_eq!(router.panicked(1), want, "{durable} {replicated}");
            assert_eq!(router.health(1), Down);
            let sweep = router.clock(Duration::ZERO, true);
            let restart = (want == AfterPanic::Restart).then_some(Duty::Restart(1));
            assert_eq!(sweep, restart.into_iter().collect::<Vec<_>>());
            // A probe answer never readmits a panicked shard: its engine
            // is behind its log.
            assert!(router.probed(1, &ok_response(vec![])).is_none());
            assert_eq!(router.health(1), Down);
            // Served from a recovered WAL, it re-enters at Suspect with
            // its allotment and the ticks it missed, and is not swept.
            let readmit = router.recovered(1, 0);
            assert_eq!(
                readmit.capacity.as_deref(),
                Some(&router.allotments()[1][..])
            );
            assert_eq!(readmit.catch_up, 1);
            assert_eq!(router.health(1), Suspect);
            assert!(router.clock(SWEEP_EVERY, true).is_empty());
        }
    }

    #[test]
    fn the_clock_ticks_while_leading_and_sweeps_on_its_own_cadence() {
        let ms = Duration::from_millis;
        let mut router = router(2, 1).with_node(false, false, Some(ms(10)));
        // The first sweep is at once; the first tick one interval later.
        assert!(router.clock(ms(0), true).is_empty());
        assert_eq!(router.next_clock(), ms(10));
        assert_eq!(router.clock(ms(10), true), vec![Duty::Tick]);
        // A node that does not lead lets its beat pass.
        assert!(router.clock(ms(20), false).is_empty());
        assert_eq!(router.clock(ms(25), true), vec![]);
        // Down on timeouts: probed on the sweep, and readmitted with the
        // ticks it missed once it answers.
        router.tick_round(&said(&[Missed, Clean]), &skewed(2));
        router.tick_round(&said(&[Missed, Clean]), &skewed(2));
        assert_eq!(router.next_clock(), ms(30));
        assert_eq!(router.clock(ms(30), true), vec![Duty::Tick]);
        assert_eq!(router.clock(ms(50), true), vec![Duty::Tick, Duty::Probe(0)]);
        let refused = error_response("timeout", None, None);
        assert!(router.probed(0, &refused).is_none());
        let readmit = router.probed(0, &ok_response(vec![])).unwrap();
        assert_eq!((readmit.capacity, readmit.catch_up), (None, 1));
        assert!(router.clock(ms(75), false).is_empty());
    }

    #[test]
    fn below_quorum_freezes_and_marks_undelivered_without_moving_allotments() {
        let mut router = router(3, 2);
        let before = router.allotments().to_vec();
        // One of three reported: below quorum. Nothing moves.
        let round = router.tick_round(&said(&[Clean, Missed, Failed]), &skewed(3));
        assert!(round.frozen);
        assert_eq!(round.missing, vec![1, 2]);
        assert!(round.reallots.is_empty());
        assert_eq!(round.status.rounds, 0);
        assert_eq!(router.allotments(), &before[..]);
        // At quorum the coordinator steps, but the shard that did not
        // report gets nothing pushed: its update is rolled back...
        let round = router.tick_round(&said(&[Clean, Clean, Silent]), &skewed(3));
        assert!(!round.frozen);
        assert_eq!(round.missing, vec![2]);
        let delivered: Vec<usize> = round.reallots.iter().map(|(s, _)| *s).collect();
        assert_eq!(delivered, vec![0, 1]);
        // ...and re-offered, in full, the moment it reports again — even
        // if a freeze intervened.
        assert!(router.tick_round(&said(&[Silent; 3]), &skewed(3)).frozen);
        let round = router.tick_round(&said(&[Clean; 3]), &skewed(3));
        let (shard, capacity) = round.reallots.last().unwrap();
        assert_eq!(*shard, 2);
        assert_eq!(capacity, &router.allotments()[2]);
        // A delivery the shard refused is offered again too.
        for _ in 0..64 {
            router.tick_round(&said(&[Clean; 3]), &skewed(3));
        }
        assert!(router
            .tick_round(&said(&[Clean; 3]), &skewed(3))
            .reallots
            .is_empty());
        let refused = error_response("wal", None, None);
        router.delivered(1, &ok_response(vec![]));
        assert!(router
            .tick_round(&said(&[Clean; 3]), &skewed(3))
            .reallots
            .is_empty());
        router.delivered(1, &refused);
        let round = router.tick_round(&said(&[Clean; 3]), &skewed(3));
        assert_eq!(round.reallots.len(), 1);
        // A recovery hands back the same vector and quiets the shard.
        router.delivered(1, &refused);
        let readmit = router.recovered(1, 0);
        assert_eq!(readmit.capacity.unwrap(), router.allotments()[1]);
        assert!(router
            .tick_round(&said(&[Clean; 3]), &skewed(3))
            .reallots
            .is_empty());
    }

    #[test]
    fn term_floor_ratchets() {
        let mut floor = TermFloor::default();
        assert!(floor.admit(0, 0));
        assert!(floor.admit(0, 3));
        assert!(!floor.admit(0, 2), "a deposed primary is never adopted");
        assert!(floor.admit(0, 3));
        assert!(floor.admit(1, 1), "floors are per shard");

        let mut router = router(2, 1);
        use Role::{Fenced, Primary, Standby};
        // Highest term wins a split brain; standbys and fenced nodes
        // are never picked.
        let pick = router.pick_primary(0, [(0, Primary, 1), (1, Primary, 2)]);
        assert_eq!(pick, Some(1));
        // The high-term primary crashed: never fail back below the floor.
        assert_eq!(router.pick_primary(0, [(0, Primary, 1)]), None);
        assert_eq!(
            router.pick_primary(0, [(0, Standby, 2), (1, Fenced, 9)]),
            None
        );
        assert_eq!(router.pick_primary(0, [(0, Primary, 2)]), Some(0));
        assert_eq!(router.pick_primary(1, [(2, Primary, 0)]), Some(2));
    }

    #[test]
    fn catch_up_counts_the_gap_to_the_rest_of_the_fleet() {
        let at = |epoch| ok_response(vec![("epoch", Value::from_u64(epoch))]);
        let mut fleet = router(3, 1);
        fleet.tick_round(&[at(7), at(3), at(5)], &skewed(3));
        assert_eq!(fleet.recovered(1, 3).catch_up, 4);
        // The recovered shard now counts at the epoch it catches up to.
        assert_eq!(fleet.recovered(0, 7).catch_up, 0);
        assert_eq!(router(1, 1).recovered(0, 4).catch_up, 0);
    }

    /// A real shard's reply to its first tick after `agents` joined: the
    /// bytes `merge_reports` meets on the wire.
    fn shard_tick(agents: &[u64]) -> Value {
        let metrics = ServeMetrics::new();
        let market = MarketConfig::new(Capacity::new(vec![24.0, 12.0]).unwrap());
        let mut core = ServiceCore::new(market, JournalLimit::default()).unwrap();
        for &agent in agents {
            let e0 = 0.2 + 0.1 * agent as f64;
            let truth = CobbDouglas::new(1.0, vec![e0, 1.0 - e0]).unwrap();
            let source = ObservationSource::GroundTruth(truth);
            core.handle(&Request::Join { agent, source }, &metrics);
        }
        core.handle(&Request::Tick, &metrics)
    }

    #[test]
    fn merges_count_agents_and_leave_shards_without_an_audit_out() {
        let replies = vec![shard_tick(&[1, 2]), shard_tick(&[]), shard_tick(&[3, 4, 5])];
        let round = router(3, 1).tick_round(&said(&[Clean; 3]), &skewed(3));
        let full = tick_reply(replies.clone(), &round);
        let report = full.get("report").unwrap();
        assert_eq!(full.get("epoch").and_then(Value::as_u64), Some(1));
        assert_eq!(report.get("agents").and_then(Value::as_u64), Some(5));
        let temporal: u64 = replies
            .iter()
            .filter_map(|r| r.get("report")?.get("temporal_violations")?.as_u64())
            .sum();
        assert_eq!(
            report.get("temporal_violations").and_then(Value::as_u64),
            Some(temporal)
        );
        assert!(report.get("partial").is_none());
        // Shard 1 has no agents and reports `"fairness": null`; it has no
        // say in the verdict of the two that audited.
        assert_eq!(
            replies[1].get("report").unwrap().get("fairness"),
            Some(&Value::Null)
        );
        let fairness = report.get("fairness").expect("full rounds audit");
        for property in ["sharing_incentives", "envy_free", "pareto_efficient"] {
            assert_eq!(fairness.get(property), Some(&Value::Bool(true)), "{full}");
        }
        assert_eq!(
            fairness.get("si_violations").and_then(Value::as_u64),
            Some(0)
        );
        let shards = full.get("shards").and_then(Value::as_array).unwrap();
        assert_eq!(shards[1].get("shard").and_then(Value::as_u64), Some(1));

        // One shard's failed audit fails the fleet's, and its violations
        // are counted; the fair shard beside it changes nothing.
        let fair = r#""fairness":{"sharing_incentives":true,"envy_free":true,"pareto_efficient":true,"si_violations":0,"envy_edges":0,"#;
        let unfair = r#""fairness":{"sharing_incentives":false,"envy_free":false,"pareto_efficient":false,"si_violations":1,"envy_edges":2,"#;
        let text = replies[0].encode();
        assert!(text.contains(fair), "{text}");
        let violated = Value::parse(&text.replace(fair, unfair)).unwrap();
        let merged = tick_reply(
            vec![violated, replies[1].clone(), replies[2].clone()],
            &round,
        );
        let fairness = merged.get("report").unwrap().get("fairness").unwrap();
        for property in ["sharing_incentives", "envy_free", "pareto_efficient"] {
            assert_eq!(
                fairness.get(property),
                Some(&Value::Bool(false)),
                "{merged}"
            );
        }
        assert_eq!(
            fairness.get("si_violations").and_then(Value::as_u64),
            Some(1)
        );
        assert_eq!(
            fairness.get("ef_violations").and_then(Value::as_u64),
            Some(2)
        );

        // No shard audited: no verdict, as for a single empty market.
        let round = router(2, 1).tick_round(&said(&[Clean; 2]), &skewed(2));
        let idle = tick_reply(vec![shard_tick(&[]), shard_tick(&[])], &round);
        let report = idle.get("report").unwrap();
        assert_eq!(report.get("agents").and_then(Value::as_u64), Some(0));
        assert!(report.get("fairness").is_none(), "{idle}");

        // A shard missed the tick: the merge is stamped and drops fairness.
        let replies = vec![replies[0].clone(), error_response("timeout", None, None)];
        let round = router(2, 1).tick_round(&replies, &skewed(2));
        let partial = tick_reply(replies, &round);
        let report = partial.get("report").unwrap();
        assert_eq!(report.get("partial"), Some(&Value::Bool(true)));
        assert_eq!(
            report.get("missing_shards"),
            Some(&Value::Arr(vec![Value::from_u64(1)]))
        );
        assert!(report.get("fairness").is_none());
    }

    #[test]
    fn a_fleet_reply_with_no_ok_shard_is_the_first_error_tagged() {
        let refused = |shard| error_response("not_primary", Some(&format!("{shard}")), None);
        let reply = fleet_reply(
            vec![("epoch", Value::from_u64(3))],
            vec![refused(0), refused(1)],
        );
        assert_eq!(
            reply.encode(),
            r#"{"ok":false,"shard":0,"error":"not_primary","detail":"0"}"#
        );
        // A reply that already names its shard keeps the name.
        let down = shard_unavailable_response(7, 5);
        assert_eq!(fleet_reply(vec![], vec![down.clone()]), down);
        // One `ok` is enough for the merged shape.
        let reply = fleet_reply(vec![], vec![down, ok_response(vec![])]);
        assert_eq!(
            reply.encode(),
            r#"{"ok":true,"shards":[{"ok":false,"error":"shard_unavailable","shard":7,"detail":"the owning shard is down; retry after backoff","retry_after_ms":5},{"ok":true,"shard":1}]}"#
        );
    }
}
