//! Serve-level benchmark of the idde engine.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path servebench/Cargo.toml -- \
//!     --workload metro_churn --seed 1 --seconds 30 --trace 0
//! ```
//!
//! One run serves a fixed number of fixed-length episodes of one workload,
//! as many as fill `--seconds` at their nominal cost. Each episode builds
//! the serve afresh from a seed derived from `--seed` (the median build is
//! `setup_s`), serves it, and ends with an untimed audit; a replay must
//! reproduce its deterministic counters. The last stdout line is the result
//! object; `--trace 1` swaps the end-to-end metrics for the per-layer ones.
//! See `servebench/README.md`.

mod trace;
mod workload;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Duration;

use idde_engine::ServeMetrics;

use trace::Tracer;
use workload::{build, gate, probe, serve, Gate, Scale, Serve, SetupTimes, Workload};

/// Repetitions of each layer probe; the median is reported.
const PROBE_REPS: usize = 3;

/// End-to-end metrics (`--trace 0`), name and unit.
const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("events_per_s", "events/s"),
    ("tick_p50_ms", "ms"),
    ("tick_p95_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("mean_delivery_ms", "ms"),
    ("avg_rate_mbps", "MB/s"),
    ("edge_share", "ratio"),
    ("reach_share", "ratio"),
];

/// Per-layer metrics (`--trace 1`), name and unit.
const PER_LAYER: [(&str, &str); 58] = [
    ("core.placement_repair_s", "s"),
    ("core.placement_share", "ratio"),
    ("core.placement_repairs", "count"),
    ("core.evicted_replicas", "count"),
    ("core.new_replicas", "count"),
    ("core.evictions_per_placement_repair", "ratio"),
    ("core.evict_call_ms", "ms"),
    ("core.greedy_call_ms", "ms"),
    ("engine.arrive_depart_s", "s"),
    ("engine.move_s", "s"),
    ("core.nash_repair_s", "s"),
    ("core.repairs", "count"),
    ("core.repair_moves", "count"),
    ("core.moves_per_repair", "ratio"),
    ("core.game_resolve_ms", "ms"),
    ("engine.request_s", "s"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.insertions", "count"),
    ("cache.evictions", "count"),
    ("cache.rejected", "count"),
    ("cache.admit_ratio", "ratio"),
    ("engine.end_tick_s", "s"),
    ("engine.checkpoint_s", "s"),
    ("engine.checkpoints", "count"),
    ("engine.checkpoint_fallbacks", "count"),
    ("engine.loop_s", "s"),
    ("chaos.link_faults", "count"),
    ("chaos.server_outages", "count"),
    ("chaos.jam_events", "count"),
    ("chaos.displaced_users", "count"),
    ("chaos.lost_replicas", "count"),
    ("chaos.re_replications", "count"),
    ("chaos.unreachable_item_ticks", "count"),
    ("chaos.fallback_share", "ratio"),
    ("dist.bulk_installs", "count"),
    ("dist.tree_installs", "count"),
    ("dist.replicas_installed", "count"),
    ("dist.cloud_seeds", "count"),
    ("dist.cost_ms", "ms"),
    ("dist.cost_per_replica_ms", "ms"),
    ("dist.delay_violations", "count"),
    ("shard.tick_s", "s"),
    ("shard.unattributed_s", "s"),
    ("shard.handoffs", "count"),
    ("shard.halo_servers", "count"),
    ("shard.max_shard_servers", "count"),
    ("eua.sample_s", "s"),
    ("radio.env_build_s", "s"),
    ("net.topology_build_s", "s"),
    ("engine.new_s", "s"),
    ("engine.workload_gen_s", "s"),
    ("audit.checks", "count"),
    ("audit.violations", "count"),
    ("audit.cross_violations", "count"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.spans", "count"),
];

/// Parsed command line.
#[derive(Clone, Copy, Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed {value}: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// One served episode: its timings, metrics and gate outcome.
struct Episode {
    times: workload::EpisodeTimes,
    metrics: ServeMetrics,
    gate: Gate,
    /// Span aggregates of a traced episode.
    spans: Option<SpanTotals>,
}

/// Per-name span seconds of one traced episode.
struct SpanTotals {
    inclusive: BTreeMap<&'static str, f64>,
    own: BTreeMap<&'static str, f64>,
    count: usize,
}

impl Episode {
    fn events_per_s(&self) -> f64 {
        self.times.events as f64 / self.times.loop_s
    }

    fn span_s(&self, name: &str) -> f64 {
        self.spans.as_ref().and_then(|s| s.inclusive.get(name)).copied().unwrap_or(0.0)
    }
}

/// Everything a run prints.
struct Outcome {
    meta: String,
    design: Vec<String>,
    result: String,
    trace_jsonl: Option<String>,
}

fn run(args: Args, scale: Scale) -> Result<Outcome, String> {
    idde_par::set_threads(1);

    // Episode k builds the serve afresh from its own seed (net topology,
    // initially active users, event stream and fault storm) and serves it.
    // The episode count follows from the arguments alone, so two commits
    // time the same inputs however fast each runs. Every build is timed, and
    // `setup_s` is their median. An untimed replay must reproduce an
    // episode's counters exactly: a plain run replays episode 0 at the
    // end, and a traced run serves every episode twice, untraced and then
    // traced, which also measures the tracing overhead on identical work.
    // Both fill about `--seconds`.
    let slots = args.workload.episodes(args.seconds);
    let episodes = (if args.trace { slots / 2 } else { slots - 1 }).max(1) as u64;
    let episode_seed = |k: u64| workload::episode_seed(args.seed, k);
    let mut setups: Vec<SetupTimes> = Vec::new();
    let mut untraced: Vec<Episode> = Vec::new();
    let mut traced: Vec<Episode> = Vec::new();
    let mut trace_jsonl = args.trace.then(String::new);
    let mut last: Option<Serve> = None;
    for k in 0..episodes {
        let (built, times) = build(args.workload, scale, episode_seed(k))?;
        setups.push(times);
        untraced.push(episode(built, k, None)?.0);
        if args.trace {
            // Drop the previous traced serve first, so at most one is alive.
            drop(last.take());
            let mut tracer = Tracer::new();
            let (built, _) = build(args.workload, scale, episode_seed(k))?;
            let (mut e, s) = episode(built, k, Some(&mut tracer))?;
            check_replay(&untraced[k as usize], &e, k)?;
            if let Some(out) = trace_jsonl.as_mut() {
                out.push_str(&tracer.to_jsonl(k as usize));
            }
            e.spans = Some(SpanTotals {
                inclusive: tracer.inclusive_s(),
                own: tracer.self_s(),
                count: tracer.len(),
            });
            traced.push(e);
            last = Some(s);
        }
    }
    if !args.trace {
        let (built, _) = build(args.workload, scale, episode_seed(0))?;
        let (replay, s) = episode(built, 0, None)?;
        check_replay(&untraced[0], &replay, 0)?;
        last = Some(s);
    }
    let last = last.expect("at least one episode ran");
    let reference = &untraced[0];
    let mut m = ServeMetrics::default();
    for e in &untraced {
        m.merge(&e.metrics);
    }

    let mut meta = String::new();
    let _ = write!(
        meta,
        "{{\"meta\":{{\"workload\":\"{}\",\"seed\":{},\"nproc\":{},\"workers\":{},\
         \"rustc\":\"{}\",\"geography\":\"SyntheticEua::scaled({s}, {u}) sampled with \
         SampleConfig::paper({s}, {u}, {d}) from seed {}, density {}\",\"shards\":{},\
         \"ticks_per_episode\":{},\"episodes_untraced\":{},\"episodes_traced\":{},\
         \"episode0_counters_fnv64\":\"{:016x}\"}}}}",
        args.workload.name(),
        args.seed,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        idde_par::num_threads(),
        env!("SERVEBENCH_RUSTC"),
        workload::GEOGRAPHY_SEED,
        workload::DENSITY,
        if args.workload == Workload::OutageStorm { workload::SHARDS } else { 1 },
        scale.ticks,
        untraced.len(),
        traced.len(),
        fnv64(&reference.gate.counters),
        s = scale.servers,
        u = scale.users,
        d = scale.data,
    );

    let requests = m.requests as f64;
    let metrics: Vec<(&str, f64)> = if args.trace {
        per_layer(&setups, &untraced, &traced, &last)
    } else {
        let mut ticks: Vec<f64> =
            untraced.iter().flat_map(|e| e.times.tick_ms.iter().copied()).collect();
        ticks.sort_by(f64::total_cmp);
        vec![
            ("setup_s", median(setups.iter().map(|t| t.total().as_secs_f64()))),
            (
                "events_per_s",
                untraced.iter().map(|e| e.times.events as f64).sum::<f64>()
                    / untraced.iter().map(|e| e.times.loop_s).sum::<f64>(),
            ),
            ("tick_p50_ms", quantile(&ticks, 0.50)),
            ("tick_p95_ms", quantile(&ticks, 0.95)),
            ("peak_rss_mb", peak_rss_mb()?),
            ("mean_delivery_ms", m.average_latency_ms()),
            ("avg_rate_mbps", m.average_rate()),
            ("edge_share", ratio(m.edge_served as f64, requests)),
            ("reach_share", 1.0 - ratio(m.cloud_fallback_requests as f64, requests)),
        ]
    };
    let mut design = Vec::new();
    if args.trace {
        design.push(design_check(args.workload, &metrics));
        let mut line = String::from("self seconds per episode:");
        if let Some(spans) = traced.last().and_then(|e| e.spans.as_ref()) {
            for name in spans.own.keys() {
                let own = median(traced.iter().map(|e| {
                    e.spans.as_ref().and_then(|s| s.own.get(name)).copied().unwrap_or(0.0)
                }));
                let _ = write!(line, " {name}={own:.4}");
            }
        }
        design.push(line);
    }

    let units = if args.trace { &PER_LAYER[..] } else { &END_TO_END[..] };
    let mut result = String::new();
    let _ = write!(
        result,
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        untraced.iter().chain(&traced).map(|e| e.metrics.requests).sum::<u64>(),
        // Requests neither edge- nor cloud-served; the gate holds this at 0.
        untraced
            .iter()
            .chain(&traced)
            .map(|e| e.metrics.requests - e.metrics.edge_served - e.metrics.cloud_served)
            .sum::<u64>(),
    );
    for (i, (name, value)) in metrics.iter().enumerate() {
        if !(value.is_finite() && *value >= 0.0) {
            return Err(format!("metric {name} is negative or not finite: {value}"));
        }
        let unit = units.iter().find(|(n, _)| n == name).map(|(_, u)| *u).ok_or(*name)?;
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(result, "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
    }
    result.push_str("}}");

    Ok(Outcome { meta, design, result, trace_jsonl })
}

/// Serves episode `k` on a fresh build and gates it.
fn episode(mut s: Serve, k: u64, tracer: Option<&mut Tracer>) -> Result<(Episode, Serve), String> {
    let times = serve(&mut s, tracer);
    let metrics = s.metrics();
    let gate = gate(&mut s);
    if gate.violations > 0 || gate.cross_violations > 0 {
        return Err(format!(
            "correctness gate failed in episode {k}: {} audit violations, {} cross-shard \
             violations",
            gate.violations, gate.cross_violations
        ));
    }
    Ok((Episode { times, metrics, gate, spans: None }, s))
}

/// Fails unless `replay` reproduced `first`'s counter block bit for bit.
fn check_replay(first: &Episode, replay: &Episode, k: u64) -> Result<(), String> {
    if first.gate.counters == replay.gate.counters {
        Ok(())
    } else {
        Err(format!(
            "episode {k} did not reproduce its deterministic counters:\n{}",
            diff(&first.gate.counters, &replay.gate.counters)
        ))
    }
}

/// The per-layer metrics of a traced run. Times are per episode, the
/// median over the traced episodes; counters are those of episode 0, so
/// they are a function of the seed alone.
fn per_layer(
    setups: &[SetupTimes],
    untraced: &[Episode],
    traced: &[Episode],
    last: &Serve,
) -> Vec<(&'static str, f64)> {
    let t = |f: &dyn Fn(&Episode) -> f64| median(traced.iter().map(f));
    let phase = |e: &Episode| {
        let p = &e.metrics.timings;
        (
            p.placement.as_secs_f64(),
            p.equilibrium.as_secs_f64(),
            p.checkpoint.as_secs_f64(),
            p.audit.as_secs_f64(),
        )
    };
    let m = &traced[0].metrics;
    let g = &traced[0].gate;
    let cache = m.cache.unwrap_or_default();
    let dist = m.dist.unwrap_or_default();
    let (handoffs, halo, max_servers) = match &last.target {
        workload::Target::Sharded(r) => {
            let plan = r.plan();
            (
                r.handoffs() as f64,
                (0..plan.num_shards()).map(|k| plan.halo(k).len()).sum::<usize>() as f64,
                plan.server_counts().into_iter().max().unwrap_or(0) as f64,
            )
        }
        workload::Target::Mono(_) => (0.0, 0.0, 0.0),
    };
    let probes = probe(last, PROBE_REPS);
    let setup = |f: fn(&SetupTimes) -> Duration| median(setups.iter().map(|s| f(s).as_secs_f64()));
    let overhead =
        median(traced.iter().zip(untraced).map(|(t, u)| t.events_per_s() / u.events_per_s()));
    let c = |v: u64| v as f64;
    vec![
        ("core.placement_repair_s", t(&|e| phase(e).0)),
        ("core.placement_share", t(&|e| phase(e).0 / e.times.loop_s)),
        ("core.placement_repairs", c(m.placement_repairs)),
        ("core.evicted_replicas", c(m.evicted_replicas)),
        ("core.new_replicas", c(m.new_replicas)),
        (
            "core.evictions_per_placement_repair",
            ratio(m.evicted_replicas as f64, m.placement_repairs as f64),
        ),
        ("core.evict_call_ms", probes.evict_ms),
        ("core.greedy_call_ms", probes.greedy_ms),
        ("engine.arrive_depart_s", t(&|e| e.span_s("engine.arrive_depart"))),
        ("engine.move_s", t(&|e| e.span_s("engine.move"))),
        ("core.nash_repair_s", t(&|e| phase(e).1)),
        ("core.repairs", c(m.repairs)),
        ("core.repair_moves", c(m.repair_moves)),
        ("core.moves_per_repair", ratio(m.repair_moves as f64, m.repairs as f64)),
        ("core.game_resolve_ms", probes.game_ms),
        ("engine.request_s", t(&|e| e.span_s("engine.request"))),
        ("cache.hits", c(cache.hits)),
        ("cache.misses", c(cache.misses)),
        ("cache.hit_ratio", ratio(cache.hits as f64, (cache.hits + cache.misses) as f64)),
        ("cache.insertions", c(cache.insertions)),
        ("cache.evictions", c(cache.total_evictions())),
        ("cache.rejected", c(cache.rejected)),
        (
            "cache.admit_ratio",
            ratio(cache.insertions as f64, (cache.insertions + cache.rejected) as f64),
        ),
        ("engine.end_tick_s", t(&|e| e.span_s("engine.end_tick"))),
        ("engine.checkpoint_s", t(&|e| phase(e).2)),
        ("engine.checkpoints", c(m.checkpoints)),
        ("engine.checkpoint_fallbacks", c(m.fallbacks)),
        ("engine.loop_s", t(&|e| e.times.loop_s)),
        ("chaos.link_faults", c(m.link_faults)),
        ("chaos.server_outages", c(m.server_outages)),
        ("chaos.jam_events", c(m.jam_events)),
        ("chaos.displaced_users", c(m.displaced_users)),
        ("chaos.lost_replicas", c(m.lost_replicas)),
        ("chaos.re_replications", c(m.re_replications)),
        ("chaos.unreachable_item_ticks", c(m.unreachable_item_ticks)),
        ("chaos.fallback_share", ratio(m.cloud_fallback_requests as f64, m.requests as f64)),
        ("dist.bulk_installs", c(dist.bulk_installs)),
        ("dist.tree_installs", c(dist.tree_installs)),
        ("dist.replicas_installed", c(dist.replicas_installed)),
        ("dist.cloud_seeds", c(dist.cloud_seeds)),
        ("dist.cost_ms", dist.dist_cost_ms),
        ("dist.cost_per_replica_ms", ratio(dist.dist_cost_ms, dist.replicas_installed as f64)),
        ("dist.delay_violations", c(dist.delay_violations)),
        ("shard.tick_s", t(&|e| e.span_s("shard.tick"))),
        (
            "shard.unattributed_s",
            t(&|e| match e.spans.as_ref().and_then(|s| s.inclusive.get("shard.tick")) {
                Some(tick) => {
                    let (p, q, r, a) = phase(e);
                    tick - p - q - r - a
                }
                None => 0.0,
            }),
        ),
        ("shard.handoffs", handoffs),
        ("shard.halo_servers", halo),
        ("shard.max_shard_servers", max_servers),
        ("eua.sample_s", setup(|s| s.sample)),
        ("radio.env_build_s", setup(|s| s.radio)),
        ("net.topology_build_s", setup(|s| s.topology)),
        ("engine.new_s", setup(|s| s.engine)),
        ("engine.workload_gen_s", t(&|e| e.span_s("engine.workload_gen"))),
        ("audit.checks", c(g.checks)),
        ("audit.violations", c(g.violations)),
        ("audit.cross_violations", c(g.cross_violations)),
        ("trace.overhead_ratio", overhead),
        ("trace.spans", t(&|e| e.spans.as_ref().map_or(0.0, |s| s.count as f64))),
    ]
}

/// The traced run's confirmation of what each workload is built to
/// exercise. Informational: a change may legitimately move these.
fn design_check(workload: Workload, metrics: &[(&str, f64)]) -> String {
    let get = |name: &str| metrics.iter().find(|(n, _)| *n == name).map_or(0.0, |(_, v)| *v);
    let verdict = |ok: bool| if ok { "met" } else { "NOT MET" };
    match workload {
        Workload::MetroChurn => {
            let share = get("core.placement_share");
            format!(
                "design: placement repair is {:.1}% of the loop (expected >= 90%): {}",
                share * 100.0,
                verdict(share >= 0.9)
            )
        }
        Workload::OutageStorm => {
            let (o, r, d, h, c) = (
                get("chaos.server_outages"),
                get("chaos.re_replications"),
                get("dist.bulk_installs"),
                get("cache.hits"),
                get("engine.checkpoints"),
            );
            format!(
                "design: {o} outages, {r} re-replications, {d} bulk installs, {h} cache hits, \
                 {c} checkpoints (expected all > 0): {}",
                verdict([o, r, d, h, c].iter().all(|&v| v > 0.0))
            )
        }
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn median(values: impl Iterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = values.collect();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank quantile of sorted values.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The process's resident-set high-water mark (`VmHWM`), MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

fn fnv64(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
}

/// The lines where two counter blocks differ.
fn diff(a: &str, b: &str) -> String {
    a.lines()
        .zip(b.lines())
        .filter(|(x, y)| x != y)
        .map(|(x, y)| format!("  {x}  vs  {y}\n"))
        .collect()
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("servebench: {e}");
            eprintln!(
                "usage: servebench --workload metro_churn|outage_storm --seed N \
                 --seconds S [--trace 0|1]"
            );
            return ExitCode::from(2);
        }
    };
    match run(args, args.workload.full_scale()) {
        Ok(out) => {
            if let Some(jsonl) = &out.trace_jsonl {
                match write_trace(&args, jsonl) {
                    Ok(path) => eprintln!("servebench: spans written to {path}"),
                    Err(e) => {
                        eprintln!("servebench: {e}");
                        return ExitCode::from(1);
                    }
                }
            }
            println!("{}", out.meta);
            for line in &out.design {
                println!("{line}");
            }
            println!("{}", out.result);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("servebench: {e}");
            ExitCode::from(1)
        }
    }
}

/// Writes the traced run's spans next to the executable (inside the build
/// directory) and returns the path.
fn write_trace(args: &Args, jsonl: &str) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate executable: {e}"))?;
    let dir = exe.parent().ok_or("executable has no parent directory")?.join("servebench-traces");
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let path = dir.join(format!("{}-seed{}.jsonl", args.workload.name(), args.seed));
    std::fs::write(&path, jsonl).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(path.display().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The episode-0 counter digest printed in a metadata line.
    fn digest(meta: &str) -> &str {
        let key = "\"episode0_counters_fnv64\":\"";
        let at = meta.find(key).expect("metadata carries the counter digest") + key.len();
        &meta[at..at + 16]
    }

    /// The unit printed for `name` in a result line.
    fn unit_of<'a>(result: &'a str, name: &str) -> Option<&'a str> {
        let rest = &result[result.find(&format!("\"{name}\": {{\"value\": "))?..];
        let rest = &rest[rest.find("\"unit\": \"")? + 9..];
        Some(&rest[..rest.find('"')?])
    }

    #[test]
    fn smoke_runs_emit_every_metric_and_repeat_their_counters() {
        for workload in Workload::ALL {
            for trace in [false, true] {
                let args = Args { workload, seed: 7, seconds: 0.001, trace };
                let first = run(args, workload.smoke_scale()).expect("first smoke run");
                let second = run(args, workload.smoke_scale()).expect("second smoke run");
                assert_eq!(
                    digest(&first.meta),
                    digest(&second.meta),
                    "{} counters differ between two runs of one seed",
                    workload.name()
                );
                assert!(first.result.starts_with("{\"correct\": true, "), "{}", first.result);
                let table = if trace { &PER_LAYER[..] } else { &END_TO_END[..] };
                for (name, unit) in table {
                    assert_eq!(
                        unit_of(&first.result, name),
                        Some(*unit),
                        "{} (trace {trace}) is missing {name} in {unit}",
                        workload.name()
                    );
                }
            }
        }
    }

    #[test]
    fn metric_tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json next to servebench/");
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = json.matches("\"unit\": ").count();
        assert_eq!(
            listed,
            END_TO_END.len() + PER_LAYER.len(),
            "BENCHMARK.json lists extra metrics"
        );
        for workload in Workload::ALL {
            assert!(json.contains(&format!("\"name\": \"{}\"", workload.name())));
        }
        assert_eq!(json.matches("\"why\": ").count(), Workload::ALL.len(), "workload count");
    }

    #[test]
    fn runs_of_different_seeds_serve_different_episodes() {
        let mut seen = std::collections::HashSet::new();
        for seed in 0..64 {
            for k in 0..32 {
                assert!(seen.insert(workload::episode_seed(seed, k)), "seed {seed} episode {k}");
            }
        }
    }

    #[test]
    fn arguments_are_checked() {
        let parse =
            |s: &str| parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>());
        let ok = parse("--workload outage_storm --seed 3 --seconds 10 --trace 1").expect("valid");
        assert_eq!((ok.workload, ok.seed, ok.trace), (Workload::OutageStorm, 3, true));
        for bad in [
            "--workload nope --seed 1 --seconds 1",
            "--workload metro_churn --seed x --seconds 1",
            "--workload metro_churn --seed 1 --seconds 0",
            "--workload metro_churn --seed 1 --seconds 1 --trace 2",
            "--workload metro_churn --seconds 1",
            "--workload metro_churn --seed 1 --seconds",
        ] {
            assert!(parse(bad).is_err(), "{bad} should be rejected");
        }
    }
}
