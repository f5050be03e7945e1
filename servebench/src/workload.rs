//! The two serve workloads: their set-up, the timed serve loop, the
//! untimed correctness gate and the traced run's layer probes.
//!
//! The serve loop is the one `Engine::run_sources` runs at `batch = 1`
//! (`EventSource::push_tick` → `Engine::apply` per event →
//! `Engine::end_tick`), or `ShardRouter::tick` for the sharded workload,
//! driven from here so each layer call can be timed from outside.

use std::time::{Duration, Instant};

use idde_cache::{CacheConfig, PolicyKind};
use idde_chaos::{FaultPlan, FaultSpec};
use idde_core::{evict_useless_replicas, GreedyDelivery, IddeUGame, Problem};
use idde_dist::{DistConfig, StrategyKind};
use idde_engine::{
    metrics::PhaseTimings, DriftProfile, Engine, EngineConfig, Event, EventQueue, EventSource,
    ScheduledEvent, ServeMetrics, WorkloadConfig, WorkloadGenerator,
};
use idde_eua::{SampleConfig, SyntheticEua};
use idde_model::{Allocation, Placement, UserId};
use idde_net::{generate_topology, TopologyConfig};
use idde_radio::{RadioEnvironment, RadioParams};
use idde_shard::ShardRouter;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::trace::Tracer;

/// Network density of every workload's topology.
pub const DENSITY: f64 = 1.0;
/// Tiles of the sharded workload.
pub const SHARDS: usize = 4;

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Write-heavy churn on the monolithic engine: every arrival and
    /// departure runs a placement repair.
    MetroChurn,
    /// Sharded serve of drifting requests through the LCE cache under a
    /// seeded fault storm with Steiner bulk distribution: outages drive
    /// the re-replication repairs.
    OutageStorm,
}

/// Input size of one workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Scale {
    /// Servers sampled into the scenario (also the geography's site count).
    pub servers: usize,
    /// Users sampled into the scenario (also the geography's user sites).
    pub users: usize,
    /// Data items.
    pub data: usize,
    /// Ticks in one serve episode.
    pub ticks: u64,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 2] = [Workload::MetroChurn, Workload::OutageStorm];

    /// The name the command line and the output use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::MetroChurn => "metro_churn",
            Workload::OutageStorm => "outage_storm",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The benchmarked size: a 400-server / 1000-user slice with 5 items.
    pub fn full_scale(self) -> Scale {
        let ticks = match self {
            Workload::MetroChurn => 30,
            Workload::OutageStorm => 200,
        };
        Scale { servers: 400, users: 1000, data: 5, ticks }
    }

    /// Nominal wall time, seconds, of one episode (build plus serve) at
    /// full scale on a 2-core x86-64 host with one worker.
    fn nominal_episode_s(self) -> f64 {
        match self {
            Workload::MetroChurn => 1.7,
            Workload::OutageStorm => 2.7,
        }
    }

    /// Episodes a run of `seconds` serves: as many as fill `seconds` at
    /// the nominal episode cost, and at least one. The count depends on
    /// the arguments alone, never on how fast the code runs, so two
    /// builds of the benchmark time identical inputs.
    pub fn episodes(self, seconds: f64) -> usize {
        ((seconds / self.nominal_episode_s()).round() as usize).max(1)
    }

    /// The toy size the self-test runs.
    #[cfg(test)]
    pub fn smoke_scale(self) -> Scale {
        Scale { servers: 30, users: 100, data: 3, ticks: 40 }
    }

    fn workload_config(self) -> WorkloadConfig {
        let base = WorkloadConfig::default();
        match self {
            Workload::MetroChurn => WorkloadConfig {
                arrival_rate: 0.5,
                departure_rate: 0.5,
                move_probability: 0.003,
                ..base
            },
            Workload::OutageStorm => WorkloadConfig {
                arrival_rate: 0.0,
                departure_rate: 0.0,
                move_probability: 0.002,
                request_rate: 100.0,
                drift: DriftProfile::drifting(),
                ..base
            },
        }
    }

    fn engine_config(self, seed: u64) -> EngineConfig {
        let base = EngineConfig::default();
        match self {
            Workload::MetroChurn => base,
            Workload::OutageStorm => EngineConfig {
                cache: CacheConfig { policy: PolicyKind::Lce, seed, ..CacheConfig::default() },
                dist: DistConfig {
                    strategy: StrategyKind::Steiner,
                    record: true,
                    ..DistConfig::default()
                },
                ..base
            },
        }
    }

    /// The seeded `rand:` fault storm: faults start in the first three
    /// quarters of the episode and each lasts a sixth of it, so every fault
    /// is restored before the episode ends.
    fn chaos_spec(self, chaos_seed: u64, ticks: u64) -> Option<String> {
        (self == Workload::OutageStorm).then(|| {
            format!("rand:{chaos_seed}:12:16:6@{}+{}", (ticks * 3 / 4).max(1), (ticks / 6).max(1))
        })
    }
}

/// Seed of the one geography every run serves. The geography (server
/// sites, users, the catalogue and its item sizes) is the benchmark's fixed
/// input; with only a handful of items, resampling it per seed would move
/// every latency figure by the item sizes drawn rather than by the code.
pub const GEOGRAPHY_SEED: u64 = 2022;

const NET_SALT: u64 = 0x6e65_745f_7365_6564;
const CHAOS_SALT: u64 = 0x6368_616f_735f_7364;
const EPISODE_SALT: u64 = 0x6570_6973_6f64_6573;

/// SplitMix64 of `seed ^ salt`: independent sub-seeds from one workload seed.
pub fn derive(seed: u64, salt: u64) -> u64 {
    let mut z = (seed ^ salt).wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Seed of episode `k` of a run. The run seed is mixed before `k` joins
/// it: XOR-ing `k` into the run seed directly would give runs whose seeds
/// differ in their low bits the same set of episodes.
pub fn episode_seed(run_seed: u64, k: u64) -> u64 {
    derive(derive(run_seed, EPISODE_SALT), k)
}

/// Wall time of each set-up stage of one build.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    pub sample: Duration,
    pub radio: Duration,
    pub topology: Duration,
    pub engine: Duration,
}

impl SetupTimes {
    pub fn total(&self) -> Duration {
        self.sample + self.radio + self.topology + self.engine
    }
}

/// The serving side: one monolithic engine or the shard router.
#[derive(Debug)]
pub enum Target {
    Mono(Box<Engine>),
    Sharded(Box<ShardRouter>),
}

impl Target {
    fn active(&self) -> &[bool] {
        match self {
            Target::Mono(e) => e.active(),
            Target::Sharded(r) => r.active(),
        }
    }

    /// Merged serve metrics.
    pub fn metrics(&self) -> ServeMetrics {
        match self {
            Target::Mono(e) => e.metrics().clone(),
            Target::Sharded(r) => r.metrics(),
        }
    }

    /// The engines whose `(problem, allocation, placement)` the probes
    /// snapshot: the engine itself, or one per shard.
    fn engines(&self) -> Vec<&Engine> {
        match self {
            Target::Mono(e) => vec![e],
            Target::Sharded(r) => r.engines().iter().map(|s| s.engine()).collect(),
        }
    }
}

/// A built serve: the target plus its event sources, ready for an episode.
#[derive(Debug)]
pub struct Serve {
    pub target: Target,
    /// Phase timings the build already accrued (the initial bulk install
    /// records its time under placement).
    built: PhaseTimings,
    workload: WorkloadGenerator,
    plan: Option<FaultPlan>,
    config: EngineConfig,
    ticks: u64,
}

/// Builds the scenario (from [`GEOGRAPHY_SEED`]), radio environment,
/// topology with its all-pairs paths (net seed derived from `seed`), the
/// event sources (workload stream from `seed`, chaos seed derived from it)
/// and the engine or router, timing each stage.
pub fn build(workload: Workload, scale: Scale, seed: u64) -> Result<(Serve, SetupTimes), String> {
    let mut times = SetupTimes::default();

    let t = Instant::now();
    let mut rng = ChaCha8Rng::seed_from_u64(GEOGRAPHY_SEED);
    let population = SyntheticEua::scaled(scale.servers, scale.users)
        .map_err(|e| format!("geography: {e}"))?
        .generate(&mut rng);
    let scenario =
        SampleConfig::paper(scale.servers, scale.users, scale.data).sample(&population, &mut rng);
    times.sample = t.elapsed();

    let t = Instant::now();
    let radio = RadioEnvironment::new(&scenario, RadioParams::paper());
    times.radio = t.elapsed();

    let t = Instant::now();
    let mut net_rng = ChaCha8Rng::seed_from_u64(derive(seed, NET_SALT));
    let topology =
        generate_topology(scenario.num_servers(), &TopologyConfig::paper(DENSITY), &mut net_rng);
    let problem = Problem::new(scenario, radio, topology);
    times.topology = t.elapsed();

    // Engine construction includes drawing the initially active users,
    // compiling the fault storm against the healthy topology and the
    // initial solve.
    let t = Instant::now();
    let config = workload.engine_config(seed);
    let mut generator =
        WorkloadGenerator::new(workload.workload_config(), problem.scenario.num_data(), seed);
    let initial = generator.initial_active(problem.scenario.num_users());
    let plan = match workload.chaos_spec(derive(seed, CHAOS_SALT), scale.ticks) {
        Some(spec) => Some(
            FaultSpec::parse(&spec)
                .and_then(|f| f.compile(problem.topology.graph()))
                .map_err(|e| format!("chaos spec {spec}: {e}"))?,
        ),
        None => None,
    };
    let target = match workload {
        Workload::OutageStorm => Target::Sharded(Box::new(
            ShardRouter::new(problem, config, SHARDS, initial)
                .map_err(|e| format!("shards: {e}"))?,
        )),
        Workload::MetroChurn => Target::Mono(Box::new(Engine::new(problem, config, initial))),
    };
    times.engine = t.elapsed();

    let built = target.metrics().timings;
    Ok((Serve { target, built, workload: generator, plan, config, ticks: scale.ticks }, times))
}

impl Serve {
    /// Merged serve metrics, with the phase timings of the build taken
    /// out so that they cover the serve loop only.
    pub fn metrics(&self) -> ServeMetrics {
        let mut m = self.target.metrics();
        let (t, b) = (&mut m.timings, &self.built);
        // The timings only grow, so a subtraction that underflows (and
        // panics) would be a bookkeeping bug.
        t.equilibrium -= b.equilibrium;
        t.placement -= b.placement;
        t.checkpoint -= b.checkpoint;
        t.audit -= b.audit;
        m
    }
}

/// Timings of one serve episode.
#[derive(Clone, Debug, Default)]
pub struct EpisodeTimes {
    /// Wall time of the whole serve loop, event generation included.
    pub loop_s: f64,
    /// Wall time to apply each tick's events and close the tick, ms.
    pub tick_ms: Vec<f64>,
    /// Events applied.
    pub events: u64,
}

/// Span names of the apply runs, by event kind.
fn kind_span(event: &Event) -> &'static str {
    match event {
        Event::Arrive { .. } | Event::Depart { .. } => "engine.arrive_depart",
        Event::Move { .. } => "engine.move",
        Event::Request { .. } => "engine.request",
        _ => "engine.fault",
    }
}

/// Serves `ticks` ticks. With a tracer, a span is recorded around each
/// tick, its event generation, each run of same-kind events and
/// `end_tick` (or the router's `tick`); without one, only the tick clock
/// runs.
pub fn serve(serve: &mut Serve, mut tracer: Option<&mut Tracer>) -> EpisodeTimes {
    let ticks = serve.ticks;
    let mut out =
        EpisodeTimes { tick_ms: Vec::with_capacity(ticks as usize), ..Default::default() };
    let mut queue = EventQueue::new();
    let mut events: Vec<ScheduledEvent> = Vec::new();
    let started = Instant::now();
    for tick in 0..ticks {
        let root = tracer.as_deref_mut().map(|t| t.begin("tick", None));
        let gen = tracer.as_deref_mut().map(|t| t.begin("engine.workload_gen", root));
        // Faults are polled before the workload, as in `idde serve`.
        if let Some(plan) = serve.plan.as_mut() {
            plan.push_tick(tick, serve.target.active(), &mut queue);
        }
        serve.workload.push_tick(tick, serve.target.active(), &mut queue);
        events.clear();
        while let Some(scheduled) = queue.pop() {
            events.push(scheduled);
        }
        if let (Some(t), Some(id)) = (tracer.as_deref_mut(), gen) {
            t.end(id);
        }
        out.events += events.len() as u64;

        let applied = Instant::now();
        match &mut serve.target {
            Target::Mono(engine) => {
                let mut rest = &events[..];
                while let Some(first) = rest.first() {
                    let name = kind_span(&first.event);
                    let len = rest.iter().take_while(|s| kind_span(&s.event) == name).count();
                    let span = tracer.as_deref_mut().map(|t| t.begin(name, root));
                    for scheduled in &rest[..len] {
                        engine.apply(&scheduled.event);
                    }
                    if let (Some(t), Some(id)) = (tracer.as_deref_mut(), span) {
                        t.end(id);
                    }
                    rest = &rest[len..];
                }
                let span = tracer.as_deref_mut().map(|t| t.begin("engine.end_tick", root));
                engine.end_tick(tick);
                if let (Some(t), Some(id)) = (tracer.as_deref_mut(), span) {
                    t.end(id);
                }
            }
            Target::Sharded(router) => {
                let span = tracer.as_deref_mut().map(|t| t.begin("shard.tick", root));
                router.tick(tick, &events);
                if let (Some(t), Some(id)) = (tracer.as_deref_mut(), span) {
                    t.end(id);
                }
            }
        }
        out.tick_ms.push(applied.elapsed().as_secs_f64() * 1e3);
        if let (Some(t), Some(id)) = (tracer.as_deref_mut(), root) {
            t.end(id);
        }
    }
    out.loop_s = started.elapsed().as_secs_f64();
    out
}

/// Outcome of the untimed correctness gate.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Gate {
    /// Invariant checks the final audit evaluated.
    pub checks: u64,
    /// Audit, certificate and counter-consistency violations.
    pub violations: u64,
    /// Cross-shard audit violations (sharded workload only).
    pub cross_violations: u64,
    /// The deterministic counter block: events by kind, repairs, replicas,
    /// cache/chaos/dist counters and the quality metrics, bit-exact.
    pub counters: String,
}

/// Runs the final audit (plus the cross-shard audit when sharded) and
/// reads the deterministic counter block.
pub fn gate(serve: &mut Serve) -> Gate {
    let (report, cross_violations, handoffs) = match &mut serve.target {
        Target::Mono(engine) => (engine.run_audit(), 0, 0),
        Target::Sharded(router) => {
            let report = router.run_audit();
            (report, router.cross_audit_stats().2, router.handoffs())
        }
    };
    let m = serve.metrics();
    let mut violations =
        report.violations.len() as u64 + m.audit_violations + m.certificate_violations;
    // Every request is served exactly once, from the edge or the cloud.
    if m.edge_served + m.cloud_served != m.requests {
        violations += 1;
    }
    if m.arrivals + m.departures + m.moves + m.requests > m.events {
        violations += 1;
    }
    let mut counters = m.to_csv();
    counters.push_str(&format!(
        "handoffs,{handoffs}\nlatency_bits,{:016x}\nrate_bits,{:016x}\ndist_cost_bits,{:016x}\n",
        m.average_latency_ms().to_bits(),
        m.average_rate().to_bits(),
        m.dist.map_or(0.0, |d| d.dist_cost_ms).to_bits(),
    ));
    Gate { checks: report.checks, violations, cross_violations, counters }
}

/// Median wall time, ms, of direct calls into single layers on a snapshot
/// of the final state, summed over the engines (one per shard).
#[derive(Clone, Copy, Debug, Default)]
pub struct Probes {
    /// `idde_core::evict_useless_replicas`.
    pub evict_ms: f64,
    /// `GreedyDelivery::run_from` warm-started from the placement.
    pub greedy_ms: f64,
    /// `IddeUGame::run_restricted` over the active users from scratch,
    /// the re-solve a drift checkpoint runs.
    pub game_ms: f64,
}

/// Times each probe `reps` times per engine and keeps the median.
pub fn probe(serve: &Serve, reps: usize) -> Probes {
    let mut out = Probes::default();
    for engine in serve.target.engines() {
        let problem: &Problem = engine.problem();
        let allocation: &Allocation = engine.allocation();
        let placement: &Placement = engine.placement();
        let active: Vec<UserId> = engine.active_users();
        out.evict_ms += median_ms(reps, || {
            let mut p = placement.clone();
            let t = Instant::now();
            std::hint::black_box(evict_useless_replicas(problem, allocation, &mut p));
            t.elapsed()
        });
        let greedy = GreedyDelivery::new(serve.config.delivery);
        out.greedy_ms += median_ms(reps, || {
            let t = Instant::now();
            std::hint::black_box(greedy.run_from(problem, allocation, Some(placement)));
            t.elapsed()
        });
        let game = IddeUGame::new(serve.config.game);
        out.game_ms += median_ms(reps, || {
            let t = Instant::now();
            std::hint::black_box(game.run_restricted(problem.field(), &active).moves);
            t.elapsed()
        });
    }
    out
}

fn median_ms(reps: usize, mut f: impl FnMut() -> Duration) -> f64 {
    let mut v: Vec<f64> = (0..reps.max(1)).map(|_| f().as_secs_f64() * 1e3).collect();
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}
