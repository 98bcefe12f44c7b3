//! The credit ledger's per-epoch calls at 2,000 agents and a 16-epoch
//! window — `accrue`, `temporal_check`, and a churn step's `settle` (an
//! agent leaves and its id rejoins) — on the slot columns and on the
//! `BTreeMap`/`VecDeque` reference they replaced. Before anything is
//! timed, both are driven through the same epochs and churn and asserted
//! equal: every summary, verdict, balance and window pair by bits.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use ref_market::ledger::CreditLedger;

#[path = "../../market/tests/support/reference_ledger.rs"]
mod reference;

use reference::ReferenceLedger;

const AGENTS: u64 = 2_000;
const WINDOW: usize = 16;
const SLACK: f64 = 0.05;

/// One epoch's measurements, in id order as the engine passes them: ids
/// spaced by 3, each agent's delivered utility skewed by its id.
fn epoch(seed: u64) -> Vec<(u64, f64, f64)> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..AGENTS)
        .map(|k| {
            let entitled = rng.gen_range(0.5..1.5);
            let skew = 0.6 + 0.8 * (k % 7) as f64 / 6.0;
            (3 * k, entitled * skew * rng.gen_range(0.9..1.1), entitled)
        })
        .collect()
}

fn bits(x: f64) -> u64 {
    x.to_bits()
}

fn assert_same(columns: &CreditLedger, reference: &ReferenceLedger) {
    assert_eq!(columns.len(), reference.len());
    for ((id, entry), (ref_id, ref_entry)) in columns.iter().zip(reference.entries()) {
        assert_eq!(id, ref_id);
        assert_eq!(bits(entry.balance), bits(ref_entry.balance), "agent {id}");
        let pairs = entry.window.iter().map(|(d, e)| (bits(d), bits(e)));
        let ref_pairs = ref_entry.window.iter().map(|(d, e)| (bits(*d), bits(*e)));
        assert!(pairs.eq(ref_pairs), "agent {id}'s window");
    }
}

fn bench_ledger(c: &mut Criterion) {
    let epochs: Vec<_> = (0..WINDOW as u64 + 4).map(epoch).collect();
    let churned: Vec<u64> = (0..AGENTS).step_by(97).map(|k| 3 * k).collect();
    let mut columns = CreditLedger::new();
    let mut reference = ReferenceLedger::new();
    for (e, rows) in epochs.iter().enumerate() {
        assert_eq!(
            columns.accrue(rows, WINDOW),
            reference.accrue(rows, WINDOW),
            "epoch {e}"
        );
        let (count, worst) = columns.temporal_check(WINDOW, SLACK);
        let (ref_count, ref_worst) = reference.temporal_check(WINDOW, SLACK);
        assert_eq!(
            (count, bits(worst)),
            (ref_count, bits(ref_worst)),
            "epoch {e}"
        );
        let id = churned[e % churned.len()];
        columns.settle(id);
        reference.settle(id);
        columns.admit(id);
        reference.admit(id);
        assert_same(&columns, &reference);
    }
    assert!(
        columns.temporal_check(WINDOW, SLACK).0 > 0,
        "no verdict to time"
    );

    let mut group = c.benchmark_group("ledger");
    group.throughput(Throughput::Elements(AGENTS));
    let rows = &epochs[0];
    group.bench_function("accrue_columns", |b| {
        let mut ledger = columns.clone();
        b.iter(|| ledger.accrue(rows, WINDOW))
    });
    group.bench_function("accrue_reference", |b| {
        let mut ledger = reference.clone();
        b.iter(|| ledger.accrue(rows, WINDOW))
    });
    group.bench_function("temporal_check_columns", |b| {
        b.iter(|| columns.temporal_check(WINDOW, SLACK))
    });
    group.bench_function("temporal_check_reference", |b| {
        b.iter(|| reference.temporal_check(WINDOW, SLACK))
    });
    group.bench_function("settle_columns", |b| {
        let mut ledger = columns.clone();
        let mut next = churned.iter().cycle();
        b.iter(|| {
            let id = *next.next().unwrap();
            ledger.settle(id);
            ledger.admit(id);
        })
    });
    group.bench_function("settle_reference", |b| {
        let mut ledger = reference.clone();
        let mut next = churned.iter().cycle();
        b.iter(|| {
            let id = *next.next().unwrap();
            ledger.settle(id);
            ledger.admit(id);
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(200);
    targets = bench_ledger
}
criterion_main!(benches);
