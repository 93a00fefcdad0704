//! sweep-warm: warm figure regeneration. Each pass opens a fresh
//! `Sweep` and `ResultStore` over the store populated during set-up
//! and resolves the full 18-bench × 8-policy grid through
//! `Sweep::run_point` on one thread, so every point is a
//! `ResultStore::load`: a file read, a checksum and a JSON decode.

use crate::check::{figure_grid, Checker};
use crate::harness::{ms, Spans};
use crate::{shuffled, Layers, Reps, Run};
use secsim_bench::{ResultStore, Sweep, SweepPoint};
use secsim_cpu::SimReport;
use secsim_stats::Json;
use std::ops::Range;
use std::path::Path;
use std::time::Instant;

/// Set-up repetitions in a metric run.
pub const SETUP_REPS: usize = 9;

/// Set-up into a fresh store at `dir`: simulate and store the whole
/// grid on this thread. Returns the set-up time (s).
pub fn setup(dir: &Path) -> Result<f64, String> {
    let _ = std::fs::remove_dir_all(dir);
    let t = Instant::now();
    let sweep = Sweep::new().with_store(ResultStore::new(dir.to_path_buf()));
    for p in figure_grid() {
        sweep
            .run_point(&p.sweep_point())
            .map_err(|e| format!("store population: {e}"))?;
    }
    Ok(t.elapsed().as_secs_f64())
}

/// Runs the passes `passes` over the grid, each in its seed-shuffled
/// order, with the set-up reps of `reps` between the passes they pick. With `spans`,
/// each point is also loaded, parsed and decoded directly, each step
/// under its own span, for the store layer metrics.
pub fn measure(
    dir: &Path,
    passes: Range<u64>,
    seed: u64,
    checker: &mut Checker,
    mut spans: Option<&mut Spans>,
    mut reps: Reps,
) -> Result<(Run, Layers), String> {
    let pool = figure_grid();
    let points: Vec<SweepPoint> = pool.iter().map(|p| p.sweep_point()).collect();
    let keys: Vec<u64> = points.iter().map(SweepPoint::key).collect();
    let expects = pool
        .iter()
        .map(|p| checker.pinned(p))
        .collect::<Result<Vec<_>, _>>()?;
    let mut run = Run {
        pool_len: Some(points.len()),
        ..Run::default()
    };
    let start = Instant::now();
    for pass in passes {
        let t_open = Instant::now();
        let sweep = Sweep::new().with_store(ResultStore::new(dir.to_path_buf()));
        if let Some(sp) = spans.as_deref_mut() {
            sp.span("store", "store.open", pass, t_open, Instant::now());
        }
        for i in shuffled(points.len(), seed, pass) {
            let id = run.attempted;
            let t0 = Instant::now();
            let out = sweep.run_point(&points[i]);
            let t1 = Instant::now();
            run.attempted += 1;
            run.point_ids.push(i);
            run.latencies_ms.push(ms(t0, t1));
            let mut ok = match out {
                Ok(report) => {
                    run.insts += report.insts;
                    checker.check(&report, expects[i])
                }
                Err(_) => false,
            };
            if let Some(sp) = spans.as_deref_mut() {
                sp.span("points", "point", id, t0, t1);
                let bench = points[i].bench.name();
                let store = sweep.store().expect("sweep has a store");
                let t = Instant::now();
                let loaded = store.load(bench, keys[i]);
                sp.span("store", "store.load", id, t, Instant::now());
                // The entry layout `<bench>-<key:016x>.json` is the
                // store's documented on-disk format.
                let path = dir.join(format!("{bench}-{:016x}.json", keys[i]));
                let text = std::fs::read_to_string(path).map_err(|e| format!("entry read: {e}"))?;
                let t = Instant::now();
                let entry = Json::parse(&text).map_err(|e| format!("entry parse: {e:?}"))?;
                sp.span("stats", "stats.json_parse", id, t, Instant::now());
                let t = Instant::now();
                let decoded = entry.get("report").and_then(SimReport::from_json);
                sp.span("cpu", "cpu.report_from_json", id, t, Instant::now());
                ok &= [loaded, decoded]
                    .iter()
                    .all(|r| r.as_ref().is_some_and(|r| checker.check(r, expects[i])));
            }
            run.failed += u64::from(!ok);
        }
        if sweep.stats().simulated > 0 {
            return Err(format!(
                "pass {pass} simulated instead of loading from the store"
            ));
        }
        if let Some((at, rep)) = reps.as_mut() {
            if at.after(pass) {
                rep()?;
            }
        }
    }
    run.wall_s = start.elapsed().as_secs_f64();
    let mut layers = Layers::new();
    if let Some(sp) = spans {
        layers.insert("store.open_ms", sp.mean_ms("store.open").unwrap_or(0.0));
        for (span, metric) in [
            ("store.load", "store.load_us"),
            ("stats.json_parse", "stats.json_parse_us"),
            ("cpu.report_from_json", "cpu.report_from_json_us"),
        ] {
            layers.insert(metric, sp.mean_ms(span).unwrap_or(0.0) * 1e3);
        }
    }
    Ok((run, layers))
}
