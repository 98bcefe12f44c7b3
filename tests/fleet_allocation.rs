//! A 4-shard fleet allocates what one market would. REF is separable
//! (paper Eq. 12–13), so a shard allotted `C_r · D_kr / D_r` of the
//! capacity hands each of its agents the one-market share. The same
//! churning event script — joins, leaves, demand changes, external
//! observations and ticks — is fed to a 4-shard and a 1-shard server on a
//! reallocation grid finer than an ulp of any rescaled elasticity near
//! one (the engine refuses a zero tolerance), so neither serves a stale
//! cached allocation.
//! After every tick every agent's bundle agrees to 1e-12 relative, and the
//! fleet's merged SI/EF/PE verdict is the one `FairnessReport` gives the
//! fleet's allocation checked as one market.

use ref_fairness::core::properties::FairnessReport;
use ref_fairness::core::resource::{Allocation, Bundle, Capacity};
use ref_fairness::core::utility::CobbDouglas;
use ref_fairness::market::MarketConfig;
use ref_fairness::serve::{Client, ServeConfig, Server, Value};

const CAPACITY: [f64; 2] = [384.0, 192.0];
const ROUNDS: usize = 40;

/// splitmix64: the script's only randomness.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut x = *state;
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A uniform draw in `[lo, hi)`.
fn uniform(state: &mut u64, lo: f64, hi: f64) -> f64 {
    lo + (hi - lo) * (next(state) >> 11) as f64 / (1u64 << 53) as f64
}

fn market() -> MarketConfig {
    let mut market = MarketConfig::new(Capacity::new(CAPACITY.to_vec()).unwrap());
    market.realloc_tolerance = 1e-18;
    market
}

/// One live agent of the script: ground truth drives its observations,
/// either inside the engine or through `observe` from outside.
struct Agent {
    id: u64,
    external: bool,
    truth: [f64; 2],
}

/// The two markets the script is fed to.
struct Pair {
    one: Client,
    four: Client,
}

impl Pair {
    /// Sends one call to both markets; both must accept it.
    fn both(
        &mut self,
        call: impl Fn(&mut Client) -> Result<Value, ref_fairness::serve::ClientError>,
    ) {
        call(&mut self.one).unwrap();
        call(&mut self.four).unwrap();
    }
}

fn bundle_of(client: &mut Client, agent: u64) -> Option<Vec<f64>> {
    let reply = client.query_agent(agent).unwrap();
    let bundle = reply.get("bundle")?.as_array()?;
    Some(bundle.iter().map(|q| q.as_f64().unwrap()).collect())
}

fn elasticities_of(client: &mut Client, agent: u64) -> Vec<f64> {
    let reply = client.query_agent(agent).unwrap();
    let elasticities = reply.get("elasticities").and_then(Value::as_array).unwrap();
    elasticities.iter().map(|e| e.as_f64().unwrap()).collect()
}

#[test]
fn a_four_shard_fleet_allocates_what_one_market_would() {
    let start = |shards| {
        let config = ServeConfig::new(market())
            .with_epoch_interval(None)
            .with_shards(shards);
        Server::start("127.0.0.1:0", config).unwrap()
    };
    let (one, four) = (start(1), start(4));
    let mut pair = Pair {
        one: Client::connect(one.addr()).unwrap(),
        four: Client::connect(four.addr()).unwrap(),
    };
    let mut rng = 0x000F_1EE7_u64;
    let mut live: Vec<Agent> = Vec::new();
    let mut next_id = 0u64;
    let mut worst = 0.0f64;
    let mut verdicts = 0;
    for round in 0..ROUNDS {
        // Churn: a few arrivals every round, a departure and a demand
        // change most rounds.
        let arrivals = if round == 0 {
            48
        } else {
            1 + next(&mut rng) % 3
        };
        for _ in 0..arrivals {
            let e0 = uniform(&mut rng, 0.05, 0.95);
            let agent = Agent {
                id: next_id,
                external: next(&mut rng).is_multiple_of(3),
                truth: [e0, 1.0 - e0],
            };
            next_id += 1;
            if agent.external {
                pair.both(|c| c.join_external(agent.id));
            } else {
                pair.both(|c| c.join_truth(agent.id, 1.0, &agent.truth));
            }
            live.push(agent);
        }
        if round > 0 && !next(&mut rng).is_multiple_of(4) {
            let gone = live.remove((next(&mut rng) % live.len() as u64) as usize);
            pair.both(|c| c.leave(gone.id));
        }
        if round > 0 && !next(&mut rng).is_multiple_of(3) {
            let slot = (next(&mut rng) % live.len() as u64) as usize;
            let e0 = uniform(&mut rng, 0.05, 0.95);
            let agent = &mut live[slot];
            if !agent.external {
                agent.truth = [e0, 1.0 - e0];
                let (id, truth) = (agent.id, agent.truth);
                pair.both(|c| c.demand(id, Some((1.0, &truth))));
            }
        }
        // External agents report what their truth makes of a spread of
        // allocations, as a measuring client would.
        for agent in live.iter().filter(|a| a.external) {
            for _ in 0..2 {
                let x = [uniform(&mut rng, 1.0, 16.0), uniform(&mut rng, 1.0, 8.0)];
                let perf = x[0].powf(agent.truth[0]) * x[1].powf(agent.truth[1]);
                pair.both(|c| c.observe(agent.id, &x, perf));
            }
        }

        // The utilities this epoch allocates on, read before the tick.
        let reported: Vec<CobbDouglas> = (live.iter())
            .map(|a| CobbDouglas::new(1.0, elasticities_of(&mut pair.one, a.id)).unwrap())
            .collect();
        pair.one.tick().unwrap();
        let tick = pair.four.tick().unwrap();

        let mut bundles = Vec::with_capacity(live.len());
        for agent in &live {
            let want = bundle_of(&mut pair.one, agent.id).expect("allocated");
            let got = bundle_of(&mut pair.four, agent.id).expect("allocated");
            for (g, w) in got.iter().zip(&want) {
                let diff = (g - w).abs() / w.abs().max(g.abs());
                worst = worst.max(diff);
                assert!(
                    diff <= 1e-12,
                    "round {round}: agent {} holds {got:?} on the fleet, {want:?} in one market",
                    agent.id
                );
            }
            bundles.push(Bundle::new(got).unwrap());
        }
        let capacity = Capacity::new(CAPACITY.to_vec()).unwrap();
        let allocation = Allocation::new(bundles, &capacity).unwrap();
        let audit = market().audit_tolerance;
        let one_market =
            FairnessReport::check_with_tolerance(&reported, &allocation, &capacity, audit);
        let report = tick.get("report").expect("a merged report");
        assert!(report.get("partial").is_none(), "round {round}: {tick}");
        let fairness = report.get("fairness").expect("a fleet verdict");
        let flag = |key: &str| fairness.get(key).and_then(Value::as_bool).unwrap();
        assert_eq!(
            [
                flag("sharing_incentives"),
                flag("envy_free"),
                flag("pareto_efficient"),
            ],
            [
                one_market.sharing_incentives(),
                one_market.envy_free(),
                one_market.pareto_efficient,
            ],
            "round {round}: the fleet's verdict is not the one market's: {tick}"
        );
        verdicts += 1;
    }
    eprintln!("{verdicts} verdicts; worst relative bundle difference {worst:e}");
    one.shutdown();
    four.shutdown();
}
