//! Reproducibility guarantees: everything EXPERIMENTS.md claims is
//! bit-reproducible must actually be bit-reproducible.

use idde::prelude::*;

fn sampled_problem(seed: u64) -> Problem {
    let mut rng = idde::seeded_rng(seed);
    let scenario = SyntheticEua::default().sample(20, 100, 4, &mut rng);
    Problem::standard(scenario, &mut rng)
}

#[test]
fn every_deterministic_approach_reproduces_bit_identically() {
    let p1 = sampled_problem(42);
    let p2 = sampled_problem(42);
    let approaches: Vec<Box<dyn idde_baselines::Approach>> = vec![
        Box::new(IddeGStrategy::default()),
        Box::new(Saa::default()),
        Box::new(Cdp),
        Box::new(DupG::default()),
        // IDDE-IP under *node* limits is deterministic too (wall-clock
        // budgets are not).
        Box::new(IddeIp::with_node_limits(5_000, 5_000)),
    ];
    for approach in approaches {
        let a = approach.solve_seeded(&p1, 7);
        let b = approach.solve_seeded(&p2, 7);
        assert_eq!(a, b, "{} is not reproducible", approach.name());
        let ma = p1.evaluate(&a);
        let mb = p2.evaluate(&b);
        assert_eq!(
            ma.average_data_rate.value().to_bits(),
            mb.average_data_rate.value().to_bits(),
            "{} rate differs at the bit level",
            approach.name()
        );
        assert_eq!(
            ma.average_delivery_latency.value().to_bits(),
            mb.average_delivery_latency.value().to_bits(),
            "{} latency differs at the bit level",
            approach.name()
        );
    }
}

#[test]
fn different_strategy_seeds_change_randomised_approaches_only() {
    let p = sampled_problem(43);
    // Deterministic approaches ignore the seed entirely.
    assert_eq!(Cdp.solve_seeded(&p, 1), Cdp.solve_seeded(&p, 2));
    // SAA's random allocation must react to it.
    assert_ne!(
        Saa::default().solve_seeded(&p, 1).allocation,
        Saa::default().solve_seeded(&p, 2).allocation
    );
}

#[test]
fn scenario_io_round_trips_sampled_float_precision() {
    // The plain-text format writes floats with Rust's shortest-round-trip
    // Display; a sampled scenario full of irrational-looking coordinates
    // must survive a save/load cycle exactly.
    let mut rng = idde::seeded_rng(44);
    let scenario = SyntheticEua::default().sample(12, 60, 3, &mut rng);
    let text = idde::model::io::to_string(&scenario);
    let parsed = idde::model::io::from_str(&text).expect("round trip parses");
    assert_eq!(parsed.servers, scenario.servers);
    assert_eq!(parsed.users, scenario.users);
    assert_eq!(parsed.data, scenario.data);
    assert_eq!(parsed.requests, scenario.requests);
    // And the *solutions* on both copies agree bit-for-bit.
    let mut rng_a = idde::seeded_rng(45);
    let mut rng_b = idde::seeded_rng(45);
    let pa = Problem::with_density(scenario, 1.0, &mut rng_a);
    let pb = Problem::with_density(parsed, 1.0, &mut rng_b);
    let sa = IddeGStrategy::default().solve_seeded(&pa, 0);
    let sb = IddeGStrategy::default().solve_seeded(&pb, 0);
    assert_eq!(sa, sb);
}

#[test]
fn svg_rendering_is_stable_across_runs() {
    let mut rng = idde::seeded_rng(46);
    let scenario = SyntheticEua::default().sample(8, 30, 2, &mut rng);
    let problem = Problem::standard(scenario, &mut rng);
    let strategy = IddeGStrategy::default().solve_seeded(&problem, 0);
    let opts = idde::model::svg::SvgOptions::default();
    let a = idde::model::svg::render(
        &problem.scenario,
        Some(&strategy.allocation),
        Some(&strategy.placement),
        &opts,
    );
    let b = idde::model::svg::render(
        &problem.scenario,
        Some(&strategy.allocation),
        Some(&strategy.placement),
        &opts,
    );
    assert_eq!(a, b);
    assert!(a.contains("<line "), "strategy render should include spokes");
}

#[test]
fn serving_engine_metrics_csv_is_byte_identical() {
    let run = || {
        let mut rng = idde::seeded_rng(42);
        let scenario = SyntheticEua::default().sample(12, 50, 3, &mut rng);
        let problem = Problem::standard(scenario, &mut rng);
        let config = idde::engine::EngineConfig { checkpoint_interval: 10, ..Default::default() };
        let mut workload = WorkloadGenerator::new(WorkloadConfig::default(), 3, 42);
        let initial = workload.initial_active(problem.scenario.num_users());
        let mut engine = Engine::new(problem, config, initial);
        engine.run(&mut workload, 30);
        engine.metrics().to_csv()
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "same (seed, workload config) must produce identical CSV bytes");
    assert!(a.contains("ticks,30\n"));
    assert!(a.contains("checkpoints,3\n"));
}

#[test]
fn fig1_and_table2_artifacts_are_deterministic() {
    use idde::sim::figures::{fig1_latency_test, Fig1Config};
    let a = fig1_latency_test(&Fig1Config::default());
    let b = fig1_latency_test(&Fig1Config::default());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.summary, y.summary);
    }
    let sets_a = idde::sim::table2_sets();
    let sets_b = idde::sim::table2_sets();
    assert_eq!(sets_a, sets_b);
}

/// FNV-1a over a byte stream.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// Pins the serve output of the engine's ingestion path: the FNV digest of
/// the metrics CSV plus the bit patterns of the average latency and rate,
/// for a plain per-event serve, a faulted per-event serve, a faulted group
/// commit of 16 and a faulted 3-shard group commit of 8 with LCE caching
/// and Steiner distribution. The digests were recorded before per-event
/// serving became a commit of one; repairing channel-less neighbours in
/// every commit, or in none, moves at least one of them.
#[test]
fn engine_serves_match_their_pinned_digests() {
    use idde::dist::{DistConfig, StrategyKind};
    let serve = |batch: u64, chaos: Option<&str>, shards: Option<usize>| {
        let mut rng = idde::seeded_rng(31);
        let scenario = SyntheticEua::default().sample(20, 100, 4, &mut rng);
        let problem = Problem::standard(scenario, &mut rng);
        let mut workload = WorkloadGenerator::new(WorkloadConfig::default(), 4, 31);
        let initial = workload.initial_active(problem.scenario.num_users());
        let mut plan = chaos.map(|spec| {
            FaultSpec::parse(spec).and_then(|s| s.compile(problem.topology.graph())).unwrap()
        });
        let mut config = EngineConfig { batch, checkpoint_interval: 20, ..Default::default() };
        let metrics = match shards {
            None => {
                let mut engine = Engine::new(problem, config, initial);
                match plan.as_mut() {
                    Some(plan) => engine.run_sources(&mut [plan, &mut workload], 60),
                    None => engine.run(&mut workload, 60),
                }
                engine.metrics().clone()
            }
            Some(k) => {
                config.cache = CacheConfig { policy: PolicyKind::Lce, ..CacheConfig::default() };
                config.dist = DistConfig {
                    strategy: StrategyKind::Steiner,
                    record: true,
                    ..Default::default()
                };
                let mut router = ShardRouter::new(problem, config, k, initial).unwrap();
                let plan = plan.as_mut().expect("the sharded case is faulted");
                router.run_sources(&mut [plan, &mut workload], 60);
                router.metrics()
            }
        };
        let faults = metrics.link_faults + metrics.server_outages + metrics.jam_events;
        assert_eq!(faults > 0, chaos.is_some(), "the fault plan must fire, and only when given");
        (
            fnv1a(metrics.to_csv().as_bytes()),
            metrics.average_latency_ms().to_bits(),
            metrics.average_rate().to_bits(),
        )
    };
    let cases = [
        (
            "plain, B = 1",
            serve(1, None, None),
            (0x9f04_12a3_cdee_9fbc, 0x402e_7a2e_6b0b_11be, 0x4064_d732_5b13_cd70),
        ),
        (
            "chaos, B = 1",
            serve(1, Some("rand:5:2:2:1@10+25"), None),
            (0x1dd1_bd56_48c2_d64b, 0x4032_cc7b_1eb3_70bd, 0x4064_9de1_2b17_13f4),
        ),
        (
            "chaos, B = 16",
            serve(16, Some("rand:6:3:2:2@10+25"), None),
            (0xe563_93d0_4759_a598, 0x4039_654a_6d31_3097, 0x4063_aa4e_95bb_2bb0),
        ),
        (
            "3 shards, chaos, B = 8",
            serve(8, Some("rand:7:3:2:2@10+25"), Some(3)),
            (0xc6b5_db80_613d_e400, 0x403d_e646_3243_ecc5, 0x4062_c24c_985d_f7d5),
        ),
    ];
    for (name, got, pinned) in cases {
        assert_eq!(got, pinned, "{name}: serve output moved (got {got:#018x?})");
    }
}
