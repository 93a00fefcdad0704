//! sim-miss: one thread, closed loop, whole passes
//! over a fixed pool of 100k-instruction points, each simulated
//! in-process through `secsim-workloads` images and `SimSession`.

use crate::check::{Checker, PoolPoint, PROGRAM_SEED};
use crate::harness::{median, ms, time_calls, Spans};
use crate::{shuffled, Layers, Reps, Run};
use secsim_core::{AuthQueue, Obfuscator, SecureMemCtrl, TreeTiming};
use secsim_cpu::{SimConfig, SimOutcome, SimReport, SimSession};
use secsim_isa::FlatMem;
use secsim_mem::{AccessKind, BusEvent, BusKind, Cache, Channel, Dram, FillEngine, FillRequest};
use secsim_workloads::{BenchId, Workload};
use std::ops::Range;
use std::time::Instant;

/// Set-up repetitions in a metric run.
pub const SETUP_REPS: usize = 15;

/// The pristine images of a pool, one per benchmark, plus a scratch
/// copy each that points restore into.
pub struct Images {
    benches: Vec<BenchId>,
    pristine: Vec<Workload>,
    scratch: Vec<FlatMem>,
}

impl Images {
    fn slot(&self, b: BenchId) -> usize {
        self.benches
            .iter()
            .position(|&x| x == b)
            .expect("image built for every pool bench")
    }
}

/// Set-up: builds each distinct benchmark image of `pool`, `reps`
/// times. Returns the last images, each rep's time (s) and each
/// image build's time (ms).
pub fn setup(pool: &[PoolPoint], reps: usize) -> (Images, Vec<f64>, Vec<f64>) {
    let mut benches: Vec<BenchId> = Vec::new();
    for p in pool {
        if !benches.contains(&p.bench) {
            benches.push(p.bench);
        }
    }
    let (mut times, mut builds) = (Vec::new(), Vec::new());
    let mut pristine = Vec::new();
    for _ in 0..reps {
        let t = Instant::now();
        pristine = benches
            .iter()
            .map(|b| {
                let tb = Instant::now();
                let w = b.build(PROGRAM_SEED);
                builds.push(ms(tb, Instant::now()));
                w
            })
            .collect();
        times.push(t.elapsed().as_secs_f64());
    }
    let scratch = pristine.iter().map(|w| w.mem.clone()).collect();
    (
        Images {
            benches,
            pristine,
            scratch,
        },
        times,
        builds,
    )
}

/// Per-point figures of the traced passes, for the layer metrics.
#[derive(Default)]
pub struct PointStats {
    run_ns_per_inst: Vec<f64>,
    restore_ms: Vec<f64>,
    report: Option<SimReport>,
}

impl PointStats {
    /// Adds the figures of later passes over the same point.
    pub fn merge(&mut self, later: PointStats) {
        self.run_ns_per_inst.extend(later.run_ns_per_inst);
        self.restore_ms.extend(later.restore_ms);
        self.report = later.report.or(self.report.take());
    }
}

/// Runs the whole passes `passes` over `pool`, each in its
/// seed-shuffled order, with the set-up reps of `reps` between the
/// passes they pick.
pub fn measure(
    pool: &[PoolPoint],
    images: &mut Images,
    passes: Range<u64>,
    seed: u64,
    checker: &mut Checker,
    mut spans: Option<&mut Spans>,
    mut reps: Reps,
) -> Result<(Run, Vec<PointStats>), String> {
    let cfgs: Vec<SimConfig> = pool.iter().map(PoolPoint::config).collect();
    let expects = pool
        .iter()
        .map(|p| checker.pinned(p))
        .collect::<Result<Vec<_>, _>>()?;
    let slots: Vec<usize> = pool.iter().map(|p| images.slot(p.bench)).collect();
    let mut stats: Vec<PointStats> = pool.iter().map(|_| PointStats::default()).collect();
    let mut run = Run {
        pool_len: Some(pool.len()),
        ..Run::default()
    };
    let start = Instant::now();
    for pass in passes {
        for i in shuffled(pool.len(), seed, pass) {
            let s = slots[i];
            let id = run.attempted;
            let t0 = Instant::now();
            images.scratch[s].restore_from(&images.pristine[s].mem);
            let t1 = Instant::now();
            let out =
                SimSession::new(&cfgs[i]).run(&mut images.scratch[s], images.pristine[s].entry);
            let t2 = Instant::now();
            run.attempted += 1;
            run.point_ids.push(i);
            run.latencies_ms.push(ms(t0, t2));
            let ok = matches!(out, SimOutcome::Completed(_));
            let report = out.into_report();
            run.insts += report.insts;
            if !(ok && checker.check(&report, expects[i])) {
                run.failed += 1;
            }
            if let Some(sp) = spans.as_deref_mut() {
                sp.span("workloads", "workloads.restore", id, t0, t1);
                sp.span("cpu", "cpu.run", id, t1, t2);
                sp.span("points", "point", id, t0, t2);
                let st = &mut stats[i];
                st.restore_ms.push(ms(t0, t1));
                st.run_ns_per_inst
                    .push(ms(t1, t2) * 1e6 / report.insts.max(1) as f64);
                st.report = Some(report);
            }
        }
        if let Some((at, rep)) = reps.as_mut() {
            if at.after(pass) {
                rep()?;
            }
        }
    }
    run.wall_s = start.elapsed().as_secs_f64();
    Ok((run, stats))
}

/// Host time of each component, replayed over one point's own streams.
#[derive(Default)]
struct Replay {
    /// (metric, ns per call) of every component the point exercises.
    per_call: Vec<(&'static str, f64)>,
    /// Window spread (IQR / median) of each component timing.
    spreads: Vec<f64>,
    /// Replayed component ns per simulated instruction.
    component_ns_per_inst: f64,
}

/// Re-runs point `p` capturing its data-access stream (retire
/// observer) and its bus trace, then replays those streams through
/// each memory and secure-controller component with the batched timer.
fn replay(p: &PoolPoint, images: &mut Images) -> Replay {
    let cfg = p.config();
    let s = images.slot(p.bench);
    images.scratch[s].restore_from(&images.pristine[s].mem);
    let mut data: Vec<(u32, bool)> = Vec::new();
    let report = SimSession::new(&cfg)
        .trace_bus(true)
        .observe(|r| {
            if let Some(m) = r.mem {
                data.push((m.addr, m.is_store));
            }
        })
        .run(&mut images.scratch[s], images.pristine[s].entry)
        .into_report();
    let bus = &report.bus_events;
    let fills: Vec<&BusEvent> = bus
        .iter()
        .filter(|e| matches!(e.kind, BusKind::InstrFetch | BusKind::DataFetch))
        .collect();
    let writes = bus
        .iter()
        .filter(|e| {
            matches!(
                e.kind,
                BusKind::Writeback | BusKind::MacWrite | BusKind::RemapWrite
            )
        })
        .count();
    let line = |e: &BusEvent| e.addr & !(cfg.mem.l2.line_bytes - 1);
    let mut out = Replay::default();
    let mut component_ns = 0.0;

    let (mut l1, mut l2) = (Cache::new(cfg.mem.l1d), Cache::new(cfg.mem.l2));
    let mut cache_calls = 0u64;
    if let Some(t) = time_calls(&data, |&(addr, write)| {
        cache_calls += 1;
        if !l1.access(addr, write).hit {
            cache_calls += 1;
            l2.access(addr, write);
        }
    }) {
        let per_call = t.median_ns * data.len() as f64 / cache_calls as f64;
        out.per_call.push(("mem.cache_access_ns", per_call));
        out.spreads.push(t.spread);
        component_ns += per_call * cache_calls as f64;
    }

    let mut dram = Dram::new(cfg.mem.dram);
    if let Some(t) = time_calls(bus, |e| {
        dram.access(e.addr, 64, e.cycle);
    }) {
        out.per_call.push(("mem.dram_access_ns", t.median_ns));
        out.spreads.push(t.spread);
        component_ns += t.median_ns * writes as f64;
    }

    let ctrl_cfg = cfg.secure.ctrl;
    let mut ctrl = SecureMemCtrl::new(ctrl_cfg);
    let mut chan = Channel::new(cfg.mem.dram);
    if let Some(t) = time_calls(&fills, |e| {
        let kind = if e.kind == BusKind::InstrFetch {
            AccessKind::IFetch
        } else {
            AccessKind::Load
        };
        let req = FillRequest {
            line_addr: line(e),
            demand_addr: e.addr,
            bytes: cfg.mem.l2.line_bytes,
            kind,
            now: e.cycle,
            bus_not_before: 0,
        };
        ctrl.fill(req, &mut chan);
    }) {
        out.per_call.push(("core.secure_fill_ns", t.median_ns));
        out.spreads.push(t.spread);
        component_ns += t.median_ns * fills.len() as f64;
    }
    if ctrl_cfg.authenticate {
        let mut q = AuthQueue::new(ctrl_cfg.queue);
        if let Some(t) = time_calls(&fills, |e| {
            q.request(e.cycle, 0);
        }) {
            out.per_call.push(("core.auth_queue_ns", t.median_ns));
            out.spreads.push(t.spread);
        }
    }
    if let Some(tree_cfg) = ctrl_cfg.tree {
        let (mut tree, mut chan) = (TreeTiming::new(tree_cfg), Channel::new(cfg.mem.dram));
        if let Some(t) = time_calls(&fills, |e| {
            tree.walk(line(e), e.cycle, &mut chan);
        }) {
            out.per_call.push(("core.tree_walk_ns", t.median_ns));
            out.spreads.push(t.spread);
        }
    }
    if let Some(obf_cfg) = ctrl_cfg.obf {
        let (mut obf, mut chan) = (Obfuscator::new(obf_cfg), Channel::new(cfg.mem.dram));
        if let Some(t) = time_calls(&fills, |e| {
            obf.lookup(line(e), e.cycle, &mut chan);
        }) {
            out.per_call.push(("core.obf_lookup_ns", t.median_ns));
            out.spreads.push(t.spread);
        }
    }
    out.component_ns_per_inst = component_ns / report.insts.max(1) as f64;
    out
}

/// Counter `name` per thousand instructions, averaged over reports.
fn per_kinst(reports: &[&SimReport], name: &str) -> f64 {
    let per: Vec<f64> = reports
        .iter()
        .map(|r| r.counters.get(name) as f64 * 1e3 / r.insts.max(1) as f64)
        .collect();
    per.iter().sum::<f64>() / per.len().max(1) as f64
}

/// The `secsim-workloads`, `secsim-cpu`, `secsim-mem` and `secsim-core`
/// layer metrics of a traced pass over `pool`, with every pool point
/// replayed once.
pub fn layers(
    pool: &[PoolPoint],
    images: &mut Images,
    builds_ms: &[f64],
    per_point: &[PointStats],
    spans: &mut Spans,
) -> Layers {
    let mut l = Layers::new();
    l.insert("workloads.build_ms", median(builds_ms));
    let restores: Vec<f64> = per_point
        .iter()
        .flat_map(|p| p.restore_ms.iter().copied())
        .collect();
    l.insert("workloads.restore_ms", median(&restores));
    let run_ns = per_point
        .iter()
        .map(|p| median(&p.run_ns_per_inst))
        .sum::<f64>()
        / per_point.len() as f64;
    l.insert("cpu.run_ns_per_inst", run_ns);

    let reports: Vec<&SimReport> = per_point.iter().filter_map(|p| p.report.as_ref()).collect();
    l.insert("mem.l2_miss_per_kinst", per_kinst(&reports, "l2.miss"));
    l.insert(
        "mem.writeback_per_kinst",
        per_kinst(&reports, "l2.writebacks"),
    );
    l.insert(
        "core.auth_requests_per_kinst",
        per_kinst(&reports, "ctrl.auth_requests"),
    );
    l.insert(
        "core.tree_node_miss_per_kinst",
        per_kinst(&reports, "tree.node_miss"),
    );
    l.insert(
        "core.remap_miss_per_kinst",
        per_kinst(&reports, "obf.remap_miss"),
    );

    let mut per_call: Vec<(&'static str, Vec<f64>)> = Vec::new();
    let (mut component, mut spreads) = (0.0, Vec::new());
    for (id, p) in pool.iter().enumerate() {
        let t = Instant::now();
        let r = replay(p, images);
        spans.span("replay", "replay", id as u64, t, Instant::now());
        component += r.component_ns_per_inst;
        spreads.extend(r.spreads);
        for (name, ns) in r.per_call {
            match per_call.iter_mut().find(|(n, _)| *n == name) {
                Some((_, v)) => v.push(ns),
                None => per_call.push((name, vec![ns])),
            }
        }
    }
    for (name, v) in per_call {
        l.insert(name, median(&v));
    }
    l.insert(
        "cpu.self_ns_per_inst",
        run_ns - component / pool.len() as f64,
    );
    l.insert("bench.window_spread", median(&spreads));
    l
}
