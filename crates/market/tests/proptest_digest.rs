//! The state fingerprint and the snapshot against their oracle: replay.
//!
//! A snapshot holds each estimator's state, not the observations behind
//! it, so nothing in a snapshot can be re-derived to check the engine's
//! own fingerprint against. The oracle is the event log instead: after
//! every event of random interleavings, a fresh engine fed the same
//! prefix must reach the same fingerprint and the same snapshot text, the
//! text the engine streams must equal its snapshot's, and the market
//! restored from the encoded text must fingerprint the same — and, fed
//! the events that followed, end exactly where the original ended. The
//! second property shows the digest is as sensitive as the text format:
//! every single-token perturbation of an encoded snapshot that still
//! decodes changes it.

use std::collections::BTreeMap;

use proptest::prelude::*;

use ref_core::mechanism::CreditInner;
use ref_core::resource::Capacity;
use ref_core::utility::CobbDouglas;
use ref_market::{
    MarketConfig, MarketEngine, MarketEvent, MarketSnapshot, MechanismKind, ObservationSource,
};

const CREDIT: MechanismKind = MechanismKind::Credit {
    inner: CreditInner::MaxWelfare,
};

fn market(resources: usize, mechanism: MechanismKind, seed: u64) -> MarketEngine {
    let capacity: Vec<f64> = (0..resources).map(|r| 24.0 / (1.0 + r as f64)).collect();
    let config = MarketConfig::new(Capacity::new(capacity).expect("positive capacity"))
        .with_seed(seed)
        .with_warmup_epochs(2)
        .with_temporal_window(4)
        .with_mechanism(mechanism);
    MarketEngine::new(config).expect("valid config")
}

/// Strictly interior elasticities over `resources`, varied by `frac`.
fn truth(resources: usize, frac: u32) -> CobbDouglas {
    let raw: Vec<f64> = (0..resources)
        .map(|r| 1.0 + f64::from((frac + 7 * r as u32) % 13))
        .collect();
    let total: f64 = raw.iter().sum();
    CobbDouglas::new(1.0, raw.iter().map(|x| x / total).collect()).expect("interior elasticities")
}

/// Decoded op: 0 = join, 1 = leave, 2 = demand, 3 = observe, 4 = reallot,
/// anything else = tick. Rejected events (a ghost id, a measurement for
/// an agent the market measures itself) are part of the interleaving.
fn event(
    (kind, pick, frac): (u32, u32, u32),
    resources: usize,
    live: &mut Vec<u64>,
    next_id: &mut u64,
) -> MarketEvent {
    let picked = |live: &[u64]| {
        if live.is_empty() || pick % 11 == 0 {
            999
        } else {
            live[pick as usize % live.len()]
        }
    };
    match kind {
        0 => {
            *next_id += 1;
            live.push(*next_id);
            MarketEvent::AgentJoined {
                id: *next_id,
                source: if pick % 3 == 0 {
                    ObservationSource::External
                } else {
                    ObservationSource::GroundTruth(truth(resources, frac))
                },
            }
        }
        1 => {
            let id = picked(live);
            live.retain(|x| *x != id);
            MarketEvent::AgentLeft { id }
        }
        2 => MarketEvent::DemandChanged {
            id: picked(live),
            new_truth: (frac % 2 == 0).then(|| truth(resources, frac + 1)),
        },
        3 => MarketEvent::ObservationReported {
            id: picked(live),
            allocation: (0..resources)
                .map(|r| 0.5 + f64::from((frac + r as u32) % 9))
                .collect(),
            performance: 0.25 + f64::from(frac % 17),
        },
        4 => MarketEvent::CapacityRealloted {
            capacity: (0..resources)
                .map(|r| (8.0 + f64::from(frac % 20)) / (1.0 + r as f64))
                .collect(),
        },
        _ => MarketEvent::EpochTick,
    }
}

/// Checks `market`, which has applied `events` since it was built as
/// `fresh()` builds one, against a replay of them; returns the market
/// restored from its encoded snapshot.
fn check_identities(
    market: &MarketEngine,
    events: &[MarketEvent],
    fresh: impl Fn() -> MarketEngine,
) -> Result<MarketEngine, TestCaseError> {
    let fingerprint = market.state_fingerprint();
    let text = market.encode_snapshot();
    let mut replayed = fresh();
    for event in events {
        // Rejections replay as rejections.
        let _ = replayed.apply_now(event.clone());
    }
    prop_assert_eq!(
        fingerprint,
        replayed.state_fingerprint(),
        "engine vs its replay"
    );
    prop_assert_eq!(&text, &replayed.encode_snapshot(), "engine vs its replay");
    let snapshot = market.snapshot();
    prop_assert_eq!(
        &snapshot.encode(),
        &text,
        "engine's streamed text vs its snapshot's"
    );
    prop_assert_eq!(fingerprint, snapshot.fingerprint(), "engine vs snapshot");
    let decoded = MarketSnapshot::decode(&text).expect("own text decodes");
    prop_assert_eq!(&decoded, &snapshot, "snapshot vs decoded");
    let restored = MarketEngine::restore(&decoded).expect("own snapshot restores");
    prop_assert_eq!(
        fingerprint,
        restored.state_fingerprint(),
        "engine vs restored"
    );
    prop_assert_eq!(&text, &restored.encode_snapshot(), "engine vs restored");
    Ok(restored)
}

fn drive(
    ops: &[(u32, u32, u32)],
    resources: usize,
    mechanism: MechanismKind,
    seed: u64,
) -> Result<(), TestCaseError> {
    let fresh = || market(resources, mechanism, seed);
    let mut market = fresh();
    let (mut live, mut next_id) = (Vec::new(), 0);
    let mut events = Vec::new();
    let mut restored = vec![check_identities(&market, &events, fresh)?];
    let mut seen = vec![market.state_fingerprint()];
    for &op in ops {
        // Errors are rejections the engine counted; the identities hold
        // after those too.
        let event = event(op, resources, &mut live, &mut next_id);
        let _ = market.apply_now(event.clone());
        events.push(event);
        restored.push(check_identities(&market, &events, fresh)?);
        seen.push(market.state_fingerprint());
    }
    // A market restored after any event, fed the events that followed,
    // ends bit for bit where the original ended.
    let end = market.encode_snapshot();
    for (at, mut resumed) in restored.into_iter().enumerate() {
        for event in &events[at..] {
            let _ = resumed.apply_now(event.clone());
        }
        prop_assert_eq!(
            &resumed.encode_snapshot(),
            &end,
            "restored after event {}",
            at
        );
    }
    // Every event moves at least one counter, so no two states along one
    // run are equal — and neither may their fingerprints be.
    let states = seen.len();
    seen.sort_unstable();
    seen.dedup();
    prop_assert_eq!(
        seen.len(),
        states,
        "two states of one run share a fingerprint"
    );
    Ok(())
}

/// Flips the lowest mantissa bit of a hex-encoded `f64` (or the lowest
/// bit of a hex `u64`), or adds one to a decimal counter; `None` for
/// tokens that are words of the format.
fn perturb(token: &str) -> Option<String> {
    if token.len() == 16 {
        let bits = u64::from_str_radix(token, 16).ok()?;
        return Some(format!("{:016x}", bits ^ 1));
    }
    token.parse::<i64>().ok().map(|n| (n + 1).to_string())
}

/// Perturbs every token of every line, one at a time. Returns, per line
/// tag, how many perturbed documents decoded into a different snapshot;
/// each of those must fingerprint differently.
fn perturb_every_token(text: &str) -> Result<BTreeMap<String, usize>, TestCaseError> {
    let original = MarketSnapshot::decode(text).expect("own text decodes");
    let fingerprint = original.fingerprint();
    let lines: Vec<&str> = text.lines().collect();
    let mut accepted = BTreeMap::new();
    for (at, line) in lines.iter().enumerate() {
        let tokens: Vec<&str> = line.split(' ').collect();
        for t in 1..tokens.len() {
            let Some(changed) = perturb(tokens[t]) else {
                continue;
            };
            let mut new_tokens = tokens.clone();
            new_tokens[t] = &changed;
            let new_line = new_tokens.join(" ");
            let mut doc = lines.clone();
            doc[at] = &new_line;
            // A perturbed count or an out-of-range value no longer
            // decodes: nothing to compare.
            let Ok(other) = MarketSnapshot::decode(&doc.join("\n")) else {
                continue;
            };
            prop_assert!(other != original, "line {at}: {new_line:?} decodes equal");
            prop_assert!(
                other.fingerprint() != fingerprint,
                "line {at} token {t}: {line:?} -> {new_line:?} is invisible to the fingerprint"
            );
            *accepted.entry(tokens[0].to_string()).or_insert(0) += 1;
        }
    }
    Ok(accepted)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn incremental_digest_equals_the_from_scratch_one_under_ref(
        ops in proptest::collection::vec((0u32..7, 0u32..16, 0u32..100), 1..40),
        resources in 1usize..=4,
        seed in 0u64..1_000_000,
    ) {
        drive(&ops, resources, MechanismKind::ProportionalElasticity, seed)?;
    }
}

proptest! {
    // A GP solve per reallocation: fewer, shorter cases.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn incremental_digest_equals_the_from_scratch_one_under_credit(
        ops in proptest::collection::vec((0u32..7, 0u32..16, 0u32..100), 1..24),
        resources in 1usize..=4,
        seed in 0u64..1_000_000,
    ) {
        drive(&ops, resources, CREDIT, seed)?;
    }

    #[test]
    fn every_section_of_the_snapshot_moves_the_fingerprint(
        resources in 1usize..=4,
        agents in 2u32..5,
        ticks in 6usize..10,
        frac in 0u32..100,
        slowdown in 0u32..2,
        seed in 0u64..1_000_000,
    ) {
        // A credit market a few epochs in: allocation cache and ledger
        // windows populated, one externally measured agent beside the
        // ground-truth ones. Only the equal-slowdown GP fills the
        // warm-start cache (weighted Nash is closed-form), and only it has
        // an auxiliary variable to warm-start.
        let slowdown = slowdown == 1;
        let inner = if slowdown { CreditInner::EqualSlowdown } else { CreditInner::MaxWelfare };
        let mut market = market(resources, MechanismKind::Credit { inner }, seed);
        let mut events: Vec<MarketEvent> = (1..=u64::from(agents))
            .map(|id| MarketEvent::AgentJoined {
                id,
                source: ObservationSource::GroundTruth(truth(resources, frac + id as u32)),
            })
            .collect();
        events.push(MarketEvent::AgentJoined { id: 9, source: ObservationSource::External });
        events.extend(std::iter::repeat_n(MarketEvent::EpochTick, ticks));
        events.extend((0..3).map(|i| MarketEvent::ObservationReported {
            id: 9,
            allocation: (0..resources).map(|r| 1.0 + f64::from(i + r as u32)).collect(),
            performance: 2.0 + f64::from(i),
        }));
        events.push(MarketEvent::EpochTick);
        for event in events {
            market.apply_now(event).expect("every event is valid");
        }
        let text = market.snapshot().encode();

        let accepted = perturb_every_token(&text)?;
        // Not vacuous: each section had a perturbation that decoded.
        for tag in [
            "capacity", "tolerance", "audit-tolerance", "warmup", "excitation", "quanta",
            "sim-instructions", "seed", "temporal-window", "temporal-slack", "epoch",
            "stable-since", "auditor", "metrics", "fp-ids", "fp-quant", "fp-capacity",
            "fp-tilt", "bundle", "l", "agent", "source", "fit", "r2", "factor",
        ] {
            prop_assert!(accepted.contains_key(tag), "no {tag:?} token was perturbed: {accepted:?}");
        }
        for tag in ["w", "warm-t", "warm-aux"] {
            prop_assert_eq!(accepted.contains_key(tag), slowdown, "{:?}: {:?}", tag, accepted);
        }
        prop_assert_eq!(accepted["auditor"], 9);
        prop_assert_eq!(accepted["metrics"], 18);
        prop_assert_eq!(accepted["agent"], 2 * (agents as usize + 1));

        // The words of the format: the mechanism, and how an agent is
        // measured (kind, then benchmark name).
        let lines: Vec<&str> = text.lines().collect();
        let mut seen = vec![market.state_fingerprint()];
        for (line, replacement) in [
            ("mechanism", "mechanism proportional-elasticity"),
            ("source external", "source sim histogram"),
            ("source external", "source sim dedup"),
        ] {
            let at = lines.iter().position(|l| l.starts_with(line)).expect("line present");
            let mut doc = lines.clone();
            doc[at] = replacement;
            let other = MarketSnapshot::decode(&doc.join("\n")).expect("substituted text decodes");
            seen.push(other.fingerprint());
        }
        seen.sort_unstable();
        seen.dedup();
        prop_assert_eq!(seen.len(), 4, "a mechanism or source change is invisible");

        // Order within one run of floats: swap two unequal entries of an
        // agent's triangular factor.
        let at = lines.iter().position(|l| l.starts_with("factor ")).expect("an agent");
        let mut tokens: Vec<&str> = lines[at].split(' ').collect();
        let (i, j) = (4..tokens.len())
            .flat_map(|i| (i + 1..tokens.len()).map(move |j| (i, j)))
            .find(|&(i, j)| tokens[i] != tokens[j])
            .expect("a factor holds two different entries");
        tokens.swap(i, j);
        let line = tokens.join(" ");
        let mut swapped = lines.clone();
        swapped[at] = &line;
        let swapped = MarketSnapshot::decode(&swapped.join("\n")).expect("reordered text decodes");
        prop_assert_ne!(swapped.fingerprint(), market.state_fingerprint());
    }
}
