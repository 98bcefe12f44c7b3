//! Differential oracle for the credit ledger's slot columns.
//!
//! The reference is the ledger as it stood before the column layout
//! (`support/reference_ledger.rs`: a `BTreeMap` of entries, each with a
//! `VecDeque` window). Random sequences of admissions, settlements,
//! re-baselines, window clears, accruals and temporal checks drive both,
//! and after every step every balance, every window pair, the sums, each
//! `AccrualSummary` and each temporal verdict must agree *by bits*. Accrual
//! batches come sorted, shuffled, with duplicates, with ids neither ledger
//! holds and without ids both hold, under a window bound that changes
//! mid-run. Every few steps the ledger section of an encoded snapshot must
//! equal the reference's text, and decode must give the ledger back.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use ref_core::resource::Capacity;
use ref_market::ledger::CreditLedger;
use ref_market::{MarketConfig, MarketEngine, MarketSnapshot};

#[path = "support/reference_ledger.rs"]
mod reference;

use reference::ReferenceLedger;

/// Ids are drawn from `0..ID_POOL`, so batches mix held and new ids.
const ID_POOL: u64 = 48;

/// Window bounds a run switches between; 0 empties every window it
/// advances, and 40 outgrows the first ring.
const WINDOWS: [usize; 9] = [0, 1, 2, 3, 4, 8, 16, 20, 40];

/// Asserts the two ledgers hold the same entries, bit for bit.
fn assert_same(columns: &CreditLedger, reference: &ReferenceLedger, step: &str) {
    assert_eq!(columns.len(), reference.len(), "{step}: entry count");
    for ((id, entry), (ref_id, ref_entry)) in columns.iter().zip(reference.entries()) {
        assert_eq!(id, ref_id, "{step}: ids");
        assert_eq!(
            entry.balance.to_bits(),
            ref_entry.balance.to_bits(),
            "{step}: agent {id}'s balance"
        );
        let window: Vec<(u64, u64)> = entry
            .window
            .iter()
            .map(|(d, e)| (d.to_bits(), e.to_bits()))
            .collect();
        let ref_window: Vec<(u64, u64)> = ref_entry
            .window
            .iter()
            .map(|(d, e)| (d.to_bits(), e.to_bits()))
            .collect();
        assert_eq!(window, ref_window, "{step}: agent {id}'s window");
        assert_eq!(
            columns.entry(id).map(|e| e.balance.to_bits()),
            Some(ref_entry.balance.to_bits()),
            "{step}: entry({id})"
        );
    }
    for (what, a, b) in [
        ("total", columns.total(), reference.total()),
        ("total_abs", columns.total_abs(), reference.total_abs()),
        ("max_abs", columns.max_abs(), reference.max_abs()),
    ] {
        assert_eq!(a.to_bits(), b.to_bits(), "{step}: {what}");
    }
}

/// The ledger section of `columns` in an encoded snapshot, which must
/// equal the reference's; decoding the document must restore the ledger.
fn assert_same_text(columns: &CreditLedger, reference: &ReferenceLedger, base: &MarketSnapshot) {
    let mut snapshot = base.clone();
    snapshot.ledger = columns.clone();
    let text = snapshot.encode();
    let start = text.find("\nledger ").expect("a ledger section") + 1;
    let end = text.find("\nagents ").expect("an agents section");
    assert_eq!(&text[start..end], reference.snapshot_section());
    // The text carries every bit, so re-encoding compares the decoded
    // ledger by bits (equality would fail on the NaN a window may hold).
    let decoded = MarketSnapshot::decode(&text).expect("the document decodes");
    assert_eq!(decoded.encode(), text);
}

/// One accrual batch: random ids (held, new, repeated), in id order or
/// shuffled, with per-id skews that drive balances into the cap.
fn batch(rng: &mut ChaCha8Rng) -> Vec<(u64, f64, f64)> {
    let n = rng.gen_range(0..ID_POOL as usize);
    let mut rows: Vec<(u64, f64, f64)> = (0..n)
        .map(|_| {
            let id = rng.gen_range(0..ID_POOL);
            let entitled = match rng.gen_range(0..40) {
                0 => 0.0,
                1 => f64::NAN,
                2 => f64::INFINITY,
                _ => rng.gen_range(0.5..1.5),
            };
            // Agents below 16 are starved, above 32 flooded: their gaps
            // keep a sign, so balances saturate and the clamp residual
            // is exercised.
            let skew = match id {
                0..=15 => 0.1,
                16..=31 => 1.0,
                _ => 1.9,
            };
            let delivered = match rng.gen_range(0..60) {
                0 => f64::NAN,
                _ => entitled * skew * rng.gen_range(0.8..1.2),
            };
            (id, delivered, entitled)
        })
        .collect();
    match rng.gen_range(0..4) {
        // Shuffled (and possibly repeated) ids take the lookup path.
        0 => {}
        // Sorted with repeats, as a caller with duplicates would pass.
        1 => rows.sort_by_key(|r| r.0),
        // Strictly ascending, as the engine passes.
        _ => {
            rows.sort_by_key(|r| r.0);
            rows.dedup_by_key(|r| r.0);
        }
    }
    rows
}

fn run(seed: u64, steps: usize, base: &MarketSnapshot) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut columns = CreditLedger::new();
    let mut reference = ReferenceLedger::new();
    let mut window = WINDOWS[rng.gen_range(0..WINDOWS.len())];
    for step in 0..steps {
        let label = format!("seed {seed} step {step}");
        match rng.gen_range(0..100) {
            0..=9 => {
                let id = rng.gen_range(0..ID_POOL);
                columns.admit(id);
                reference.admit(id);
            }
            10..=17 => {
                let id = rng.gen_range(0..ID_POOL);
                columns.settle(id);
                reference.settle(id);
            }
            18..=25 => {
                let id = rng.gen_range(0..ID_POOL);
                columns.rebaseline(id);
                reference.rebaseline(id);
            }
            26..=27 => {
                columns.clear_windows();
                reference.clear_windows();
            }
            28..=31 => window = WINDOWS[rng.gen_range(0..WINDOWS.len())],
            32..=41 => {
                let check = rng.gen_range(0..=window + 1);
                let slack = rng.gen_range(0.0..0.2);
                let (count, worst) = columns.temporal_check(check, slack);
                let (ref_count, ref_worst) = reference.temporal_check(check, slack);
                assert_eq!(
                    (count, worst.to_bits()),
                    (ref_count, ref_worst.to_bits()),
                    "{label}: temporal_check({check})"
                );
            }
            42..=44 => {
                let ids: Vec<u64> = (0..8).map(|_| rng.gen_range(0..ID_POOL)).collect();
                let bits = |w: Vec<f64>| w.into_iter().map(f64::to_bits).collect::<Vec<_>>();
                assert_eq!(
                    bits(columns.weights(&ids)),
                    bits(reference.weights(&ids)),
                    "{label}: weights"
                );
            }
            _ => {
                let rows = batch(&mut rng);
                assert_eq!(
                    columns.accrue(&rows, window),
                    reference.accrue(&rows, window),
                    "{label}: accrue over {window}"
                );
            }
        }
        assert_same(&columns, &reference, &label);
        if step % 25 == 0 {
            assert_same_text(&columns, &reference, base);
        }
    }
    assert_same_text(&columns, &reference, base);
}

#[test]
fn slot_columns_match_the_reference_ledger_bit_for_bit() {
    // An empty market's snapshot, with a temporal window no test window
    // exceeds, carries the ledgers through encode and decode.
    let config = MarketConfig::new(Capacity::new(vec![4.0, 2.0]).unwrap())
        .with_temporal_window(*WINDOWS.iter().max().unwrap() as u64);
    let base = MarketEngine::new(config).unwrap().snapshot();
    for seed in 0..64 {
        run(seed, 400, &base);
    }
}

#[test]
fn an_epochs_new_ids_are_admitted_in_the_merge_walk() {
    // A shadow ledger that never settles sees new ids every epoch, some
    // below ids it holds: both must land in id order.
    let mut columns = CreditLedger::new();
    let mut reference = ReferenceLedger::new();
    for epoch in 0..50_u64 {
        let mut rows: Vec<(u64, f64, f64)> = (0..20)
            .map(|k| {
                let id = (epoch * 7 + k * 13) % 400;
                (id, 0.5 + (id % 5) as f64 * 0.3, 1.0)
            })
            .collect();
        rows.sort_by_key(|r| r.0);
        rows.dedup_by_key(|r| r.0);
        assert_eq!(columns.accrue(&rows, 16), reference.accrue(&rows, 16));
        assert_same(&columns, &reference, &format!("epoch {epoch}"));
        assert_eq!(
            columns.temporal_check(16, 0.05).0,
            reference.temporal_check(16, 0.05).0
        );
    }
    let ids: Vec<u64> = columns.iter().map(|(id, _)| id).collect();
    assert!(ids.windows(2).all(|w| w[0] < w[1]), "index out of order");
}
