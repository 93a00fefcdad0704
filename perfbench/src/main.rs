//! Host-time benchmark of the secsim simulator and its `secsim-serve`
//! service. See README.md in this directory for the workloads, the
//! metrics and how to run it.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --pin      # print pins.txt: digests of every pool point's report
//! perfbench --setup-rep <workload> --dir <d>   # one set-up rep; prints its seconds
//! ```
//!
//! Each run does a fixed amount of work: the number of passes (or jobs)
//! is a function of `--seconds` alone, never of elapsed time, so every
//! run with the same arguments has the same composition. The last line
//! of standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`.

mod check;
mod harness;
mod serve;
mod sim;
mod sweep;

use check::{Checker, PoolPoint};
use harness::{median, percentile, Spans};
use secsim_stats::Json;
use secsim_workloads::{BenchId, SplitMix64};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

/// Layer metrics of a traced run, by name.
pub type Layers = BTreeMap<&'static str, f64>;

/// What one measured loop did.
#[derive(Debug, Default)]
pub struct Run {
    pub attempted: u64,
    pub failed: u64,
    /// Simulated instructions in the reports returned.
    pub insts: u64,
    /// Point latencies, ms, in the order measured.
    pub latencies_ms: Vec<f64>,
    /// sim-miss and sweep-warm: the pool's size, and the pool point of
    /// each latency; every run visits each pool point equally often.
    pub pool_len: Option<usize>,
    pub point_ids: Vec<usize>,
    /// serve-mixed: points/s of each client block of equal composition.
    pub block_rates: Vec<f64>,
    pub wall_s: f64,
}

/// Throughput and latency of a run.
struct Summary {
    points_per_s: f64,
    p50_ms: f64,
    p90_ms: f64,
}

impl Run {
    fn merge(&mut self, other: Run) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.insts += other.insts;
        self.wall_s += other.wall_s;
        self.latencies_ms.extend(other.latencies_ms);
        self.point_ids.extend(other.point_ids);
        self.block_rates.extend(other.block_rates);
    }

    /// sim-miss and sweep-warm report the fastest visits of each pool
    /// point: its [`FAST_SIDE`] share of them, and at least
    /// [`MIN_POINTS`] visits over the pool. points/s is over those
    /// visits' summed latencies, p50 and p90 over their raw latencies.
    /// Other tenants of the host slow it by up to ~1.8× for seconds to
    /// minutes and interference only ever adds time, but even a slow
    /// stretch has quiet moments, and single points (~12 ms on
    /// sim-miss, ~0.05 ms on sweep-warm) fall in them. serve-mixed's
    /// points are all distinct; its points/s is the median over its
    /// client blocks and its percentiles are over all its raw
    /// latencies.
    fn summary(&self) -> Summary {
        let Some(pool_len) = self.pool_len else {
            let mut raw = self.latencies_ms.clone();
            raw.sort_by(f64::total_cmp);
            return Summary {
                points_per_s: median(&self.block_rates),
                p50_ms: percentile(&raw, 0.5),
                p90_ms: percentile(&raw, 0.9),
            };
        };
        let mut visits: Vec<Vec<f64>> = vec![Vec::new(); pool_len];
        for (&i, &ms) in self.point_ids.iter().zip(&self.latencies_ms) {
            visits[i].push(ms);
        }
        let mut raw = Vec::new();
        for mut v in visits {
            v.sort_by(f64::total_cmp);
            let keep = ((v.len() as f64 * FAST_SIDE).ceil() as usize)
                .max((MIN_POINTS as usize).div_ceil(pool_len))
                .min(v.len());
            raw.extend_from_slice(&v[..keep]);
        }
        raw.sort_by(f64::total_cmp);
        Summary {
            points_per_s: 1e3 * raw.len() as f64 / raw.iter().sum::<f64>(),
            p50_ms: percentile(&raw, 0.5),
            p90_ms: percentile(&raw, 0.9),
        }
    }
}

/// The share of each pool point's visits a run reports, from the fast
/// end.
const FAST_SIDE: f64 = 0.05;

/// Where set-up reps go inside a measured loop of `units` units (passes,
/// or serve-mixed client blocks): `reps` of them (at most `units - 1`),
/// spread evenly, none after the last unit.
#[derive(Debug, Clone, Copy)]
pub struct Interleave {
    pub units: u64,
    pub reps: u64,
}

impl Interleave {
    /// Whether a rep follows unit `u` (0-based).
    pub fn after(self, u: u64) -> bool {
        let slots = self.reps + 1;
        u + 1 < self.units && (u + 1) * slots / self.units > u * slots / self.units
    }
}

/// Set-up reps run between units of a measured loop, and where.
pub type Reps<'a> = Option<(Interleave, &'a mut dyn FnMut() -> Result<(), String>)>;

/// The seed-determined visiting order of pass `pass` over `n` points.
pub fn shuffled(n: usize, seed: u64, pass: u64) -> Vec<usize> {
    let mut rng = SplitMix64::new(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ pass);
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.index(i + 1));
    }
    order
}

/// End-to-end metrics: printed with `--trace 0`.
const END_TO_END: [(&str, &str); 6] = [
    ("sim_insts_per_s", "insts/s"),
    ("points_per_s", "points/s"),
    ("point_p50_ms", "ms"),
    ("point_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: printed with `--trace 1`.
const PER_LAYER: [(&str, &str); 33] = [
    ("workloads.build_ms", "ms"),
    ("workloads.restore_ms", "ms"),
    ("cpu.run_ns_per_inst", "ns"),
    ("cpu.self_ns_per_inst", "ns"),
    ("mem.l2_miss_per_kinst", "count"),
    ("mem.writeback_per_kinst", "count"),
    ("core.auth_requests_per_kinst", "count"),
    ("core.tree_node_miss_per_kinst", "count"),
    ("core.remap_miss_per_kinst", "count"),
    ("mem.cache_access_ns", "ns"),
    ("mem.dram_access_ns", "ns"),
    ("core.secure_fill_ns", "ns"),
    ("core.auth_queue_ns", "ns"),
    ("core.tree_walk_ns", "ns"),
    ("core.obf_lookup_ns", "ns"),
    ("server.admit_ms", "ms"),
    ("server.queue_ms", "ms"),
    ("server.run_ms", "ms"),
    ("server.stream_ms", "ms"),
    ("server.job_ms", "ms"),
    ("protocol.encode_us", "us"),
    ("protocol.decode_us", "us"),
    ("sweep.memo_hit_ratio", "ratio"),
    ("sweep.simulated_per_point", "ratio"),
    ("store.hit_ratio", "ratio"),
    ("store.puts", "count"),
    ("store.open_ms", "ms"),
    ("store.load_us", "us"),
    ("stats.json_parse_us", "us"),
    ("cpu.report_from_json_us", "us"),
    ("bench.timer_overhead_ns", "ns"),
    ("bench.window_spread", "ratio"),
    ("trace.overhead_pct", "%"),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    SimMiss,
    ServeMixed,
    SweepWarm,
}

impl Workload {
    fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "sim-miss" => Self::SimMiss,
            "serve-mixed" => Self::ServeMixed,
            "sweep-warm" => Self::SweepWarm,
            _ => return None,
        })
    }

    fn name(self) -> &'static str {
        match self {
            Self::SimMiss => "sim-miss",
            Self::ServeMixed => "serve-mixed",
            Self::SweepWarm => "sweep-warm",
        }
    }

    /// Units of work (passes, or jobs for serve-mixed) per second of
    /// `--seconds`, fixed from measurements on a 2-core x86-64 VM.
    fn units_per_second(self) -> f64 {
        match self {
            Self::SimMiss => 3.5,
            Self::ServeMixed => 84.0,
            Self::SweepWarm => 86.0,
        }
    }

    /// Fewest points per unit of work (a serve-mixed job has at least one).
    fn points_per_unit(self) -> u64 {
        match self {
            Self::SimMiss => check::sim_miss_pool().len() as u64,
            Self::ServeMixed => 1,
            Self::SweepWarm => check::figure_grid().len() as u64,
        }
    }

    /// The fixed work of a run of `seconds`: at least [`MIN_POINTS`]
    /// points.
    fn units(self, seconds: u64) -> u64 {
        let by_time = (seconds as f64 * self.units_per_second()).ceil() as u64;
        by_time.max(MIN_POINTS.div_ceil(self.points_per_unit()))
    }
}

/// Scratch directory for stores and traces, relative to the working
/// directory (the repository root).
const WORK_DIR: &str = ".bench_work";

/// Fewest points a metric run measures: ten samples beyond the p90.
const MIN_POINTS: u64 = 100;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

/// What the command line asks for.
enum Mode {
    /// Print pins.txt.
    Pin,
    /// One set-up rep of a workload under a directory (a child process
    /// of a metric run).
    SetupRep(Workload, PathBuf),
    Run(Args),
}

fn parse_args() -> Result<Mode, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--pin") {
        return Ok(Mode::Pin);
    }
    let mut flags = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let known = [
            "--workload",
            "--seed",
            "--seconds",
            "--trace",
            "--setup-rep",
            "--dir",
        ];
        if !known.contains(&flag.as_str()) {
            return Err(format!("unknown argument {flag}"));
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.insert(flag.as_str(), value.as_str());
    }
    let get = |f: &str| flags.get(f).copied().ok_or_else(|| format!("missing {f}"));
    let num = |f: &str| get(f)?.parse::<u64>().map_err(|e| format!("{f}: {e}"));
    let workload = |f: &str| {
        let w = get(f)?;
        Workload::parse(w).ok_or_else(|| format!("unknown workload {w}"))
    };
    if flags.contains_key("--setup-rep") {
        return Ok(Mode::SetupRep(
            workload("--setup-rep")?,
            PathBuf::from(get("--dir")?),
        ));
    }
    let args = Args {
        workload: workload("--workload")?,
        seed: num("--seed")?,
        seconds: num("--seconds")?.max(1),
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            t => return Err(format!("--trace must be 0 or 1, got {t}")),
        },
    };
    Ok(Mode::Run(args))
}

/// One set-up rep of `w` under `dir`, in this process. Returns its
/// time (s).
fn setup_once(w: Workload, dir: &Path) -> Result<f64, String> {
    Ok(match w {
        Workload::SimMiss => sim::setup(&check::sim_miss_pool(), 1).1[0],
        Workload::ServeMixed => serve::setup(dir)?.1,
        Workload::SweepWarm => sweep::setup(dir)?,
    })
}

/// One set-up rep of `w` in a child process of its own, so the rep's
/// memory never counts toward this process's peak RSS. Waits for the
/// child and returns the time it measured (s).
fn setup_rep(w: Workload, dir: &Path) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--setup-rep", w.name(), "--dir"])
        .arg(dir)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("set-up rep: {e}"))?;
    if !out.status.success() {
        return Err(format!("set-up rep failed ({})", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    text.trim()
        .parse()
        .map_err(|e| format!("set-up rep printed {text:?}: {e}"))
}

fn metric(value: f64, unit: &str) -> Json {
    Json::obj(vec![
        ("value", Json::Float(value)),
        ("unit", Json::Str(unit.into())),
    ])
}

/// The end-to-end metrics of one measured loop.
fn end_to_end(run: &Run, setup_s: f64) -> Result<Vec<(&'static str, f64)>, String> {
    if (run.latencies_ms.len() as u64) < MIN_POINTS {
        let n = run.latencies_ms.len();
        return Err(format!(
            "only {n} points measured; the p90 needs {MIN_POINTS}"
        ));
    }
    let rss = harness::peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?;
    let s = run.summary();
    Ok(vec![
        (
            "sim_insts_per_s",
            run.insts as f64 / run.attempted as f64 * s.points_per_s,
        ),
        ("points_per_s", s.points_per_s),
        ("point_p50_ms", s.p50_ms),
        ("point_p90_ms", s.p90_ms),
        ("setup_s", setup_s),
        ("peak_rss_mb", rss),
    ])
}

/// One metric run: set up once, then measure the fixed work untraced
/// with the remaining set-up reps spread through the loop, so set-up is
/// timed across the run like the points. Each of those reps runs in a
/// child process (see [`setup_rep`]). `setup_s` is the fastest rep:
/// interference from other tenants only adds time (see
/// [`Run::summary`]).
fn metric_run(a: &Args, dir: &Path, checker: &mut Checker) -> Result<(Run, f64), String> {
    let units = a.workload.units(a.seconds);
    let mut setup: Vec<f64> = Vec::new();
    let rep_dir = dir.join("rep");
    let mut rep = || {
        setup.push(setup_rep(a.workload, &rep_dir)?);
        Ok(())
    };
    let run = match a.workload {
        Workload::SimMiss => {
            let pool = check::sim_miss_pool();
            let (mut images, first, _) = sim::setup(&pool, 1);
            let spread = Interleave {
                units,
                reps: sim::SETUP_REPS as u64 - 1,
            };
            let (run, _) = sim::measure(
                &pool,
                &mut images,
                0..units,
                a.seed,
                checker,
                None,
                Some((spread, &mut rep)),
            )?;
            setup.extend(first);
            run
        }
        Workload::ServeMixed => {
            let jobs = serve::schedule(units, a.seed, checker)?;
            let (server, first) = serve::setup(dir)?;
            let spread = Interleave {
                units: serve::blocks(&jobs),
                reps: serve::SETUP_REPS as u64 - 1,
            };
            let (run, _) = serve::measure(server, &jobs, checker, None, Some((spread, &mut rep)))?;
            setup.push(first);
            run
        }
        Workload::SweepWarm => {
            let store = dir.join("store");
            let first = sweep::setup(&store)?;
            let spread = Interleave {
                units,
                reps: sweep::SETUP_REPS as u64 - 1,
            };
            let (run, _) = sweep::measure(
                &store,
                0..units,
                a.seed,
                checker,
                None,
                Some((spread, &mut rep)),
            )?;
            setup.push(first);
            run
        }
    };
    eprintln!(
        "perfbench: set-up reps (s): {}",
        setup
            .iter()
            .map(|s| format!("{s:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    Ok((run, setup.iter().copied().fold(f64::INFINITY, f64::min)))
}

/// Work of a traced run's untraced and traced halves: a quarter of a
/// metric run each.
fn traced_units(a: &Args) -> u64 {
    a.workload.units(a.seconds).div_ceil(4)
}

/// Runs `f` and returns its result with its wall-clock time (s).
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// The traced run: the workload's fixed work once untraced and once
/// with spans (a quarter of a metric run each; sim-miss and sweep-warm
/// alternate untraced and traced passes, so both halves meet the same
/// host interference), then every layer metric the workload does not
/// exercise from a short traced slice of the workload that does.
/// Writes the spans as a Chrome trace.
///
/// The tracing overhead is the drop in wall-clock points/s (points
/// over the whole measured calls, span recording and the traced
/// sweep-warm's extra loads included) from the untraced half to the
/// traced one.
fn traced_run(
    a: &Args,
    dir: &Path,
    checker: &mut Checker,
    spans: &mut Spans,
) -> Result<(Run, Layers), String> {
    let units = traced_units(a);
    // (run, wall-clock s) of the untraced half, then the traced half.
    let mut halves: [(Run, f64); 2] = Default::default();
    // sim-miss and sweep-warm alternate which half runs a pass first.
    let order = |pass: u64| [pass % 2 == 1, pass % 2 == 0];
    let mut layers = match a.workload {
        Workload::SimMiss => {
            let pool = check::sim_miss_pool();
            let (mut images, _, builds) = sim::setup(&pool, sim::SETUP_REPS);
            let mut per_point: Vec<sim::PointStats> = Vec::new();
            for pass in 0..units {
                for traced in order(pass) {
                    let sp = traced.then_some(&mut *spans);
                    let (r, s) = timed(|| {
                        sim::measure(
                            &pool,
                            &mut images,
                            pass..pass + 1,
                            a.seed,
                            checker,
                            sp,
                            None,
                        )
                    });
                    let (r, stats) = r?;
                    halves[usize::from(traced)].0.merge(r);
                    halves[usize::from(traced)].1 += s;
                    if per_point.is_empty() {
                        per_point = stats;
                    } else {
                        per_point
                            .iter_mut()
                            .zip(stats)
                            .for_each(|(p, s)| p.merge(s));
                    }
                }
            }
            sim::layers(&pool, &mut images, &builds, &per_point, spans)
        }
        Workload::ServeMixed => {
            let jobs = serve::schedule(units, a.seed, checker)?;
            let (server, _) = serve::setup(dir)?;
            let (r, s) = timed(|| serve::measure(server, &jobs, checker, None, None));
            halves[0] = (r?.0, s);
            let (server, _) = serve::setup(dir)?;
            let (r, s) = timed(|| serve::measure(server, &jobs, checker, Some(spans), None));
            let (r, layers) = r?;
            halves[1] = (r, s);
            layers
        }
        Workload::SweepWarm => {
            sweep::setup(dir)?;
            let mut layers = Layers::new();
            for pass in 0..units {
                for traced in order(pass) {
                    let sp = traced.then_some(&mut *spans);
                    let (r, s) =
                        timed(|| sweep::measure(dir, pass..pass + 1, a.seed, checker, sp, None));
                    let (r, l) = r?;
                    halves[usize::from(traced)].0.merge(r);
                    halves[usize::from(traced)].1 += s;
                    if traced {
                        layers = l;
                    }
                }
            }
            layers
        }
    };
    let [(untraced, untraced_s), (traced, traced_s)] = halves;
    let rate = |r: &Run, s: f64| r.attempted as f64 / s;
    let overhead = (1.0 - rate(&traced, traced_s) / rate(&untraced, untraced_s)) * 100.0;
    layers.insert("trace.overhead_pct", overhead);
    let mut run = untraced;
    run.merge(traced);

    if !layers.contains_key("core.tree_walk_ns") {
        // mcf's slice of sim-miss: all four secure fill paths.
        let pool: Vec<PoolPoint> = check::sim_miss_pool()
            .into_iter()
            .filter(|p| p.bench == BenchId::Mcf)
            .collect();
        let (mut images, _, builds) = sim::setup(&pool, sim::SETUP_REPS);
        let (r, per_point) =
            sim::measure(&pool, &mut images, 0..1, a.seed, checker, Some(spans), None)?;
        for (k, v) in sim::layers(&pool, &mut images, &builds, &per_point, spans) {
            layers.entry(k).or_insert(v);
        }
        run.merge(r);
    }
    if !layers.contains_key("server.admit_ms") {
        let jobs = serve::schedule(40, a.seed, checker)?;
        let (server, _) = serve::setup(&dir.join("serve"))?;
        let (r, l) = serve::measure(server, &jobs, checker, Some(spans), None)?;
        layers.extend(l);
        run.merge(r);
    }
    if !layers.contains_key("store.load_us") {
        let sweep_dir = dir.join("sweep");
        sweep::setup(&sweep_dir)?;
        let (r, l) = sweep::measure(&sweep_dir, 0..1, a.seed, checker, Some(spans), None)?;
        layers.extend(l);
        run.merge(r);
    }
    layers.insert("bench.timer_overhead_ns", harness::timer_overhead_ns());
    Ok((run, layers))
}

fn pin() -> Result<(), String> {
    let points = check::all_pinned();
    let reports: Vec<_> = points
        .iter()
        .map(|p| {
            let cfg = p.config();
            let mut w = p.bench.build(check::PROGRAM_SEED);
            let entry = w.entry;
            secsim_cpu::SimSession::new(&cfg)
                .run(&mut w.mem, entry)
                .into_report()
        })
        .collect();
    print!("{}", check::render_pins(&points, &reports));
    Ok(())
}

fn main() {
    if let Err(e) = real_main() {
        eprintln!("perfbench: error: {e}");
        std::process::exit(1);
    }
}

fn real_main() -> Result<(), String> {
    let a = match parse_args()? {
        Mode::Pin => return pin(),
        Mode::SetupRep(w, dir) => {
            let s = setup_once(w, &dir);
            let _ = std::fs::remove_dir_all(&dir);
            println!("{}", s?);
            return Ok(());
        }
        Mode::Run(a) => a,
    };
    let mut checker = Checker::new()?;
    let dir = Path::new(WORK_DIR).join(format!("{}-{}", a.workload.name(), std::process::id()));
    let result = if a.trace {
        let mut spans = Spans::new(Instant::now());
        let out = traced_run(&a, &dir, &mut checker, &mut spans);
        if out.is_ok() {
            let path = Path::new(WORK_DIR).join(format!("{}.trace.json", a.workload.name()));
            std::fs::write(&path, spans.chrome())
                .map_err(|e| format!("{}: {e}", path.display()))?;
            eprintln!("perfbench: Chrome trace written to {}", path.display());
        }
        out.and_then(|(run, layers)| {
            let metrics = PER_LAYER
                .iter()
                .map(|&(name, unit)| {
                    let v = layers
                        .get(name)
                        .ok_or_else(|| format!("layer metric {name} not measured"))?;
                    Ok((name, metric(*v, unit)))
                })
                .collect::<Result<Vec<_>, String>>()?;
            Ok((run, metrics))
        })
    } else {
        metric_run(&a, &dir, &mut checker).and_then(|(run, setup_s)| {
            let units: BTreeMap<_, _> = END_TO_END.into_iter().collect();
            let metrics = end_to_end(&run, setup_s)?
                .into_iter()
                .map(|(name, v)| (name, metric(v, units[name])))
                .collect();
            Ok((run, metrics))
        })
    };
    let _ = std::fs::remove_dir_all(&dir);
    let (run, metrics) = result?;
    let self_test = checker.self_test();
    if self_test != Some(true) {
        eprintln!("perfbench: self-test: a doctored report was not caught ({self_test:?})");
    }
    let correct = run.failed == 0 && self_test == Some(true);
    eprintln!(
        "perfbench: {} seed {}: {} points, {} failed, {:.2} s measured",
        a.workload.name(),
        a.seed,
        run.attempted,
        run.failed,
        run.wall_s
    );
    let out = Json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::UInt(run.attempted)),
        ("failed", Json::UInt(run.failed)),
        (
            "metrics",
            Json::Object(
                metrics
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), v))
                    .collect(),
            ),
        ),
    ]);
    println!("{}", out.render());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::{Interleave, Run};

    #[test]
    fn summary_keeps_the_fastest_visits_of_each_point() {
        // Two points, 100 visits each, every other visit slowed 3×.
        let mut run = Run {
            pool_len: Some(2),
            ..Run::default()
        };
        for visit in 0..100 {
            let slow = if visit % 2 == 0 { 1.0 } else { 3.0 };
            for (i, ms) in [(0, 1.0), (1, 2.0)] {
                run.point_ids.push(i);
                run.latencies_ms.push(ms * slow);
            }
        }
        let s = run.summary();
        // 50 kept visits per point (at least 100 over the pool): the fast ones.
        assert_eq!(s.points_per_s, 1e3 * 100.0 / 150.0);
        assert_eq!((s.p50_ms, s.p90_ms), (1.0, 2.0));
    }

    #[test]
    fn interleave_places_every_rep_before_the_last_unit() {
        for (units, reps) in [(10, 9), (132, 10), (2150, 8), (5, 1)] {
            let at = Interleave { units, reps };
            let placed: Vec<u64> = (0..units).filter(|&u| at.after(u)).collect();
            assert_eq!(placed.len() as u64, reps, "{units} units, {reps} reps");
            assert!(placed.iter().all(|&u| u + 1 < units));
        }
    }
}
