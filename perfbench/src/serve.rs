//! serve-mixed: an in-process `JobServer` (2 workers, 1 thread each)
//! driven by 2 closed-loop clients over the raw line protocol, one
//! connection per job, like the figure binaries run with `--server`.
//! Jobs carry 1–8 short points; about half repeat a pinned point
//! (memo or store hit) and half are fresh (simulated, then stored).

use crate::check::{serve_repeat_pool, Checker, Expect, SHORT_INSTS};
use crate::harness::{ms, Spans};
use crate::{shuffled, Layers, Reps, Run};
use secsim_bench::{client, protocol, ResultStore, Sweep, SweepPoint};
use secsim_server::{JobServer, ServerConfig};
use secsim_stats::Json;
use secsim_workloads::SplitMix64;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::sync::{Barrier, Mutex};
use std::time::Instant;

const CLIENTS: usize = 2;
const MAX_JOB_POINTS: usize = 8;

/// One job of the schedule and what each of its reports must satisfy.
pub struct Job {
    points: Vec<SweepPoint>,
    expects: Vec<Expect>,
}

/// Jobs per client block: one of each size 1..=[`MAX_JOB_POINTS`].
const BLOCK_JOBS: usize = MAX_JOB_POINTS;

/// Jobs of a run of `units` jobs: whole blocks for every client.
fn jobs_for(units: u64) -> u64 {
    let group = (CLIENTS * BLOCK_JOBS) as u64;
    units.div_ceil(group) * group
}

/// Blocks each client works through in `jobs`.
pub fn blocks(jobs: &[Job]) -> u64 {
    (jobs.len() / (CLIENTS * BLOCK_JOBS)) as u64
}

/// The job schedule: every client block holds one job of each size
/// 1..=8, and a job of `k` points holds `ceil(k / 2)` fresh points, so
/// every block has the same composition (36 points, 20 fresh) and no
/// two jobs share a grid (the server's submission dedup never
/// attaches one to another). The seed picks the order of sizes, the
/// positions of fresh points, and which pool points fill them; repeats
/// and fresh points each cycle through the 32-point pool.
pub fn schedule(units: u64, seed: u64, checker: &Checker) -> Result<Vec<Job>, String> {
    let pool = serve_repeat_pool();
    let pinned = pool
        .iter()
        .map(|p| checker.pinned(p))
        .collect::<Result<Vec<_>, _>>()?;
    let (mut repeats, mut fresh) = (0u64, 0u64);
    let pick = |n: &mut u64, stream: u64| {
        let (cycle, at) = (*n / pool.len() as u64, (*n % pool.len() as u64) as usize);
        *n += 1;
        shuffled(pool.len(), seed ^ stream, cycle)[at]
    };
    let mut rng = SplitMix64::new(seed ^ 0x5e7e_d1ce);
    let mut jobs = Vec::new();
    for block in 0..jobs_for(units) as usize / (CLIENTS * BLOCK_JOBS) {
        let sizes: Vec<Vec<usize>> = (0..CLIENTS)
            .map(|c| {
                shuffled(BLOCK_JOBS, seed, (block * CLIENTS + c) as u64)
                    .iter()
                    .map(|s| s + 1)
                    .collect()
            })
            .collect();
        for slot in 0..BLOCK_JOBS {
            for client_sizes in &sizes {
                let k = client_sizes[slot];
                let fresh_at = shuffled(k, rng.next_u64(), 0);
                let (mut points, mut expects) = (Vec::new(), Vec::new());
                for &pos in &fresh_at {
                    if pos < k.div_ceil(2) {
                        let i = pick(&mut fresh, 1);
                        let p = pool[i].with_insts(SHORT_INSTS + fresh);
                        let commit_width = p.config().cpu.commit_width;
                        points.push(p.sweep_point());
                        expects.push(Expect::Fresh {
                            insts: p.insts,
                            commit_width,
                        });
                    } else {
                        let i = pick(&mut repeats, 2);
                        points.push(pool[i].sweep_point());
                        expects.push(pinned[i]);
                    }
                }
                jobs.push(Job { points, expects });
            }
        }
    }
    Ok(jobs)
}

/// Set-up repetitions in a metric run.
pub const SETUP_REPS: usize = 11;

/// Set-up in a fresh store under `dir`: simulate and store every repeat
/// point on this thread, then bind the server (ready once `bind`
/// returns). Returns the server and the set-up time (s).
pub fn setup(dir: &Path) -> Result<(JobServer, f64), String> {
    let store_dir = dir.join("store");
    let _ = std::fs::remove_dir_all(dir);
    let t = Instant::now();
    let sweep = Sweep::new().with_store(ResultStore::new(store_dir.clone()));
    for p in serve_repeat_pool() {
        sweep
            .run_point(&p.sweep_point())
            .map_err(|e| format!("pre-population: {e}"))?;
    }
    let cfg = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        threads: 1,
        store_dir,
        ..ServerConfig::default()
    };
    let server = JobServer::bind(&cfg).map_err(|e| format!("bind: {e}"))?;
    Ok((server, t.elapsed().as_secs_f64()))
}

/// Client-side timestamps of one job.
struct JobTimes {
    encode: (Instant, Instant),
    submit: Instant,
    queued: Instant,
    running: Instant,
    /// Arrival of each `point-done`, in arrival order.
    done: Vec<Instant>,
    complete: Instant,
    decode_ms: Vec<f64>,
}

/// Submits one job on a fresh connection and follows its events to
/// `complete`. Returns the job's timestamps and its failed points.
fn run_job(
    addr: &str,
    job: &Job,
    checker: &Mutex<&mut Checker>,
    run: &mut Run,
) -> Result<JobTimes, String> {
    let t_enc = Instant::now();
    let line = protocol::sweep_request_v2(&job.points);
    let encode = (t_enc, Instant::now());
    let submit = Instant::now();
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    writeln!(stream, "{line}").map_err(|e| format!("submit: {e}"))?;
    let mut reader = BufReader::new(stream);
    let (mut queued, mut running) = (None, None);
    let mut done = Vec::with_capacity(job.points.len());
    let mut decode_ms = Vec::with_capacity(job.points.len());
    let mut seen = vec![false; job.points.len()];
    let mut buf = String::new();
    loop {
        buf.clear();
        if reader
            .read_line(&mut buf)
            .map_err(|e| format!("read: {e}"))?
            == 0
        {
            return Err("connection closed before `complete`".to_string());
        }
        let now = Instant::now();
        let ev = Json::parse(buf.trim()).map_err(|e| format!("bad event: {e:?}"))?;
        match ev.get("event").and_then(Json::as_str) {
            Some("queued") => {
                if ev.get("attached").and_then(Json::as_bool) == Some(true) {
                    return Err("submission deduplicated onto an earlier job".to_string());
                }
                queued = Some(now);
            }
            Some("running") => running = Some(now),
            Some("point-done") => {
                let i = ev
                    .get("index")
                    .and_then(Json::as_u64)
                    .map(|i| i as usize)
                    .filter(|&i| i < seen.len() && !seen[i])
                    .ok_or("point-done with a bad index")?;
                seen[i] = true;
                done.push(now);
                run.latencies_ms.push(ms(submit, now));
                let t = Instant::now();
                let result = protocol::result_from_json(&ev);
                decode_ms.push(ms(t, Instant::now()));
                let ok = match result {
                    Ok(Ok(report)) => {
                        run.insts += report.insts;
                        checker
                            .lock()
                            .expect("checker lock")
                            .check(&report, job.expects[i])
                    }
                    _ => false,
                };
                run.attempted += 1;
                run.failed += u64::from(!ok);
            }
            Some("complete") => {
                let missing = seen.iter().filter(|s| !**s).count() as u64;
                run.attempted += missing;
                run.failed += missing;
                return Ok(JobTimes {
                    encode,
                    submit,
                    queued: queued.ok_or("no `queued` event")?,
                    running: running.ok_or("no `running` event")?,
                    done,
                    complete: now,
                    decode_ms,
                });
            }
            _ => return Err(format!("unexpected event: {}", buf.trim())),
        }
    }
}

/// Serves `jobs` with `server` and [`CLIENTS`] closed-loop clients
/// (client `c` runs jobs `c`, `c + CLIENTS`, …), then shuts the server
/// down and waits for it. Each client block of [`BLOCK_JOBS`] jobs
/// yields one points/s sample (its points × [`CLIENTS`] over its
/// time); each of `reps` runs between the blocks it picks, with every
/// client paused. With `spans`, also returns the server layer metrics.
pub fn measure(
    server: JobServer,
    jobs: &[Job],
    checker: &mut Checker,
    spans: Option<&mut Spans>,
    mut reps: Reps,
) -> Result<(Run, Layers), String> {
    let addr = server.local_addr().map_err(|e| e.to_string())?.to_string();
    let handle = std::thread::spawn(move || server.serve());
    let checker = Mutex::new(checker);
    // Clients and this thread meet here around each interleaved rep, so
    // a rep runs while the server is idle.
    let barrier = Barrier::new(CLIENTS + 1);
    let pauses = reps.as_ref().map(|(at, _)| *at);
    let pause_after = |b: u64| pauses.is_some_and(|at| at.after(b));
    let start = Instant::now();
    let per_client = std::thread::scope(|s| {
        let workers: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (addr, checker, barrier, pause_after) =
                    (&addr, &checker, &barrier, &pause_after);
                s.spawn(move || {
                    let mut run = Run::default();
                    let mut times = Vec::new();
                    let mine: Vec<&Job> = jobs.iter().skip(c).step_by(CLIENTS).collect();
                    for (b, block) in mine.chunks(BLOCK_JOBS).enumerate() {
                        if b > 0 && pause_after(b as u64 - 1) {
                            barrier.wait();
                            barrier.wait();
                        }
                        let (t, before) = (Instant::now(), run.attempted);
                        for &job in block {
                            let at = run.attempted;
                            match run_job(addr, job, checker, &mut run) {
                                Ok(t) => times.push(t),
                                Err(e) => {
                                    eprintln!("serve-mixed: job failed: {e}");
                                    let left = job.points.len() as u64 - (run.attempted - at);
                                    run.attempted += left;
                                    run.failed += left;
                                }
                            }
                        }
                        let points = (run.attempted - before) as f64;
                        run.block_rates
                            .push(CLIENTS as f64 * points / t.elapsed().as_secs_f64());
                    }
                    (run, times)
                })
            })
            .collect();
        let mut rep_result = Ok(());
        if let Some((at, rep)) = reps.as_mut() {
            for _ in (0..blocks(jobs)).filter(|&b| at.after(b)) {
                barrier.wait();
                if rep_result.is_ok() {
                    rep_result = rep();
                }
                barrier.wait();
            }
        }
        let per_client: Vec<(Run, Vec<JobTimes>)> = workers
            .into_iter()
            .map(|w| w.join().expect("client thread panicked"))
            .collect();
        rep_result.map(|()| per_client)
    })?;
    let wall_s = start.elapsed().as_secs_f64();
    let status = match spans {
        Some(_) => Some(client::status(&addr).map_err(|e| format!("status: {e}"))?),
        None => None,
    };
    client::shutdown(&addr).map_err(|e| format!("shutdown: {e}"))?;
    handle
        .join()
        .map_err(|_| "server thread panicked")?
        .map_err(|e| format!("serve: {e}"))?;

    let mut run = Run {
        wall_s,
        ..Run::default()
    };
    let mut times = Vec::new();
    for (r, t) in per_client {
        run.merge(r);
        times.extend(t);
    }
    let mut layers = Layers::new();
    if let (Some(sp), Some(status)) = (spans, status) {
        for (id, t) in times.iter().enumerate() {
            let id = id as u64;
            sp.span("client", "protocol.encode", id, t.encode.0, t.encode.1);
            sp.span("jobs", "job", id, t.submit, t.complete);
            sp.span("server", "server.admit", id, t.submit, t.queued);
            sp.span("server", "server.queue", id, t.queued, t.running);
            let mut prev = t.running;
            for &d in &t.done {
                sp.span("server", "server.run", id, prev, d);
                prev = d;
            }
            sp.span("server", "server.stream", id, prev, t.complete);
        }
        let decode: Vec<f64> = times
            .iter()
            .flat_map(|t| t.decode_ms.iter().copied())
            .collect();
        let points = run.attempted as f64;
        let parts = [
            ("server.admit", "server.admit_ms"),
            ("server.queue", "server.queue_ms"),
            ("server.run", "server.run_ms"),
            ("server.stream", "server.stream_ms"),
        ];
        for (span, metric) in parts {
            layers.insert(metric, sp.mean_ms(span).unwrap_or(0.0));
        }
        layers.insert("server.job_ms", sp.mean_ms("job").unwrap_or(0.0));
        layers.insert(
            "protocol.encode_us",
            sp.total_ms("protocol.encode") * 1e3 / points,
        );
        layers.insert(
            "protocol.decode_us",
            decode.iter().sum::<f64>() * 1e3 / decode.len().max(1) as f64,
        );
        let get = |path: [&str; 2]| {
            status
                .get(path[0])
                .and_then(|o| o.get(path[1]))
                .and_then(Json::as_u64)
                .unwrap_or(0) as f64
        };
        layers.insert("sweep.memo_hit_ratio", get(["sweep", "memo_hits"]) / points);
        layers.insert(
            "sweep.simulated_per_point",
            get(["sweep", "simulated"]) / points,
        );
        let (hits, misses) = (get(["store", "hits"]), get(["store", "misses"]));
        layers.insert("store.hit_ratio", hits / (hits + misses).max(1.0));
        layers.insert("store.puts", get(["store", "stores"]));
    }
    Ok((run, layers))
}
