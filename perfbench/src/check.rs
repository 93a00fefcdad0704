//! The point pools and the output checks.
//!
//! Every pool point's [`SimReport`] is pinned in `pins.txt` by a
//! digest of its instructions, cycles, stall breakdown and counters.
//! Each run checks every report it gets back (in-process, over the
//! server, or from a store load) against that digest; a mismatch is a
//! failed point. Fresh serve-mixed points have no pin; for them the
//! requested instruction count and the stall-accounting identity
//! `stall.total() + insts == commit_width × cycles` must hold.

use secsim_bench::{sim_config_id, RunOpts, SweepPoint};
use secsim_core::{FetchGateVariant, Policy};
use secsim_cpu::{SimConfig, SimReport};
use secsim_stats::{StableHash, StableHasher};
use secsim_workloads::BenchId;
use std::collections::BTreeMap;

/// Program seed of every image, as in the figures.
pub const PROGRAM_SEED: u64 = 2006;

/// Instructions per sim-miss point: a tenth of the figures' default,
/// so a point takes ~12 ms and a pass of the pool a quarter second,
/// short enough for a run's fastest passes to fall in quiet moments
/// of the host (see `Run::summary`).
pub const SIM_INSTS: u64 = 100_000;

/// Instructions per point of the serve-mixed and sweep-warm pools:
/// short, so a job's time is mostly service overhead.
pub const SHORT_INSTS: u64 = 20_000;

/// One point of a fixed pool, built with [`PROGRAM_SEED`].
#[derive(Debug, Clone, Copy)]
pub struct PoolPoint {
    pub bench: BenchId,
    pub label: &'static str,
    pub policy: Policy,
    pub tree: bool,
    pub insts: u64,
}

impl PoolPoint {
    fn opts(&self) -> RunOpts {
        RunOpts {
            max_insts: self.insts,
            tree: self.tree,
            seed: PROGRAM_SEED,
            ..RunOpts::default()
        }
    }

    pub fn config(&self) -> SimConfig {
        sim_config_id(self.bench, self.policy, &self.opts())
    }

    pub fn sweep_point(&self) -> SweepPoint {
        SweepPoint::of(self.bench, self.policy, &self.opts())
    }

    /// The same point with another instruction budget: a distinct
    /// cache key, so the server has to simulate it.
    pub fn with_insts(self, insts: u64) -> Self {
        Self { insts, ..self }
    }

    /// Key of this point in `pins.txt`.
    pub fn pin_key(&self) -> String {
        format!("{}/{}/{}", self.bench.name(), self.label, self.insts)
    }
}

fn point(
    bench: BenchId,
    (label, policy, tree): (&'static str, Policy, bool),
    insts: u64,
) -> PoolPoint {
    PoolPoint {
        bench,
        label,
        policy,
        tree,
        insts,
    }
}

/// The 8-policy grid of the figure binaries.
fn figure_policies() -> [(&'static str, Policy, bool); 8] {
    [
        ("baseline", Policy::baseline(), false),
        ("issue", Policy::authen_then_issue(), false),
        ("commit", Policy::authen_then_commit(), false),
        ("write", Policy::authen_then_write(), false),
        ("fetch", Policy::authen_then_fetch(), false),
        (
            "fetch-drain",
            Policy::authen_then_fetch().with_fetch_variant(FetchGateVariant::Drain),
            false,
        ),
        ("commit+fetch", Policy::commit_plus_fetch(), false),
        ("commit+obf", Policy::commit_plus_obfuscation(), false),
    ]
}

/// sim-miss: the L2-missing benchmarks under the policies whose secure
/// fill path differs (queue, tree walk, remap, fetch gate).
pub fn sim_miss_pool() -> Vec<PoolPoint> {
    let policies = [
        ("commit", Policy::authen_then_commit(), false),
        ("commit-tree", Policy::authen_then_commit(), true),
        ("commit+obf", Policy::commit_plus_obfuscation(), false),
        ("fetch", Policy::authen_then_fetch(), false),
    ];
    let benches = [
        BenchId::Mcf,
        BenchId::Art,
        BenchId::Mgrid,
        BenchId::Swim,
        BenchId::Bzip2,
    ];
    benches
        .iter()
        .flat_map(|&b| policies.map(|p| point(b, p, SIM_INSTS)))
        .collect()
}

/// sweep-warm: the full 18-bench × 8-policy figure grid.
pub fn figure_grid() -> Vec<PoolPoint> {
    BenchId::ALL
        .iter()
        .flat_map(|&b| figure_policies().map(|p| point(b, p, SHORT_INSTS)))
        .collect()
}

/// serve-mixed repeats: 4 benchmarks (two cache-resident, two
/// missing) × the 8-policy grid, a subset of [`figure_grid`].
pub fn serve_repeat_pool() -> Vec<PoolPoint> {
    let benches = [BenchId::Gzip, BenchId::Mcf, BenchId::Art, BenchId::Twolf];
    benches
        .iter()
        .flat_map(|&b| figure_policies().map(|p| point(b, p, SHORT_INSTS)))
        .collect()
}

/// Every pinned point, each key once.
pub fn all_pinned() -> Vec<PoolPoint> {
    let mut all = sim_miss_pool();
    all.extend(figure_grid());
    all
}

/// Digest of what a report says about the simulated machine.
pub fn digest(r: &SimReport) -> u64 {
    let mut h = StableHasher::new();
    r.insts.stable_hash(&mut h);
    r.cycles.stable_hash(&mut h);
    r.halted.stable_hash(&mut h);
    r.decode_fault.stable_hash(&mut h);
    r.exception.is_some().stable_hash(&mut h);
    for (cause, slots) in r.stall.iter() {
        cause.name().stable_hash(&mut h);
        slots.stable_hash(&mut h);
    }
    for (name, n) in r.counters.iter() {
        name.stable_hash(&mut h);
        n.stable_hash(&mut h);
    }
    h.finish()
}

/// What a returned report must satisfy.
#[derive(Debug, Clone, Copy)]
pub enum Expect {
    /// Equal to the pinned digest.
    Pinned(u64),
    /// A fresh point: the requested instruction count, and every lost
    /// commit slot attributed to exactly one stall cause.
    Fresh { insts: u64, commit_width: u32 },
}

impl Expect {
    fn holds(self, r: &SimReport) -> bool {
        match self {
            Expect::Pinned(d) => digest(r) == d,
            Expect::Fresh {
                insts,
                commit_width,
            } => {
                r.insts == insts
                    && r.exception.is_none()
                    && r.stall.total() + r.insts == u64::from(commit_width) * r.cycles
            }
        }
    }
}

/// The pinned digests of `pins.txt`, plus a self-test that the check
/// catches a doctored report, run on the first real report it sees.
pub struct Checker {
    pins: BTreeMap<String, u64>,
    self_test: Option<bool>,
}

impl Checker {
    pub fn new() -> Result<Self, String> {
        Self::parse(include_str!("../pins.txt"))
    }

    fn parse(text: &str) -> Result<Self, String> {
        let mut pins = BTreeMap::new();
        for line in text
            .lines()
            .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        {
            let (key, hex) = line
                .split_once(' ')
                .ok_or_else(|| format!("bad pin line: {line}"))?;
            let d = u64::from_str_radix(hex.trim(), 16).map_err(|e| format!("{line}: {e}"))?;
            pins.insert(key.to_string(), d);
        }
        Ok(Self {
            pins,
            self_test: None,
        })
    }

    /// The expectation for a pool point.
    pub fn pinned(&self, p: &PoolPoint) -> Result<Expect, String> {
        self.pins
            .get(&p.pin_key())
            .map(|&d| Expect::Pinned(d))
            .ok_or_else(|| format!("no pin for {}; regenerate pins.txt with --pin", p.pin_key()))
    }

    /// Checks one returned report. The first call also doctors a copy
    /// (one extra cycle) and confirms the check rejects it.
    pub fn check(&mut self, r: &SimReport, expect: Expect) -> bool {
        if self.self_test.is_none() {
            let mut doctored = r.clone();
            doctored.cycles += 1;
            self.self_test = Some(!expect.holds(&doctored));
        }
        expect.holds(r)
    }

    /// `Some(true)` once a doctored report was caught, `Some(false)` if
    /// one slipped through, `None` if nothing was checked yet.
    pub fn self_test(&self) -> Option<bool> {
        self.self_test
    }
}

/// Renders `pins.txt` for `points` from their reports.
pub fn render_pins(points: &[PoolPoint], reports: &[SimReport]) -> String {
    let mut out = String::from(
        "# <bench>/<policy>/<insts> <digest of the SimReport>; regenerate with --pin\n",
    );
    for (p, r) in points.iter().zip(reports) {
        out.push_str(&format!("{} {:016x}\n", p.pin_key(), digest(r)));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use secsim_cpu::StallCause;

    fn report() -> SimReport {
        let mut r = SimReport {
            insts: 100,
            cycles: 20,
            ..SimReport::default()
        };
        r.stall.add(StallCause::ALL[0], 60);
        r.counters.add("l2.miss", 3);
        r
    }

    #[test]
    fn doctored_reports_are_caught() {
        let r = report();
        let mut c = Checker::parse(&render_pins(
            &[sim_miss_pool()[0]],
            std::slice::from_ref(&r),
        ))
        .unwrap();
        let pinned = c.pinned(&sim_miss_pool()[0]).unwrap();
        assert!(c.check(&r, pinned));
        assert_eq!(c.self_test(), Some(true));
        let mut counter = r.clone();
        counter.counters.add("l2.miss", 1);
        assert!(!c.check(&counter, pinned));
        let mut stall = r.clone();
        stall.stall.add(StallCause::ALL[1], 1);
        assert!(!c.check(&stall, pinned));

        let fresh = Expect::Fresh {
            insts: 100,
            commit_width: 8,
        };
        assert!(c.check(&r, fresh));
        let mut cycles = r.clone();
        cycles.cycles += 1;
        assert!(!c.check(&cycles, fresh));
        assert!(!c.check(
            &r,
            Expect::Fresh {
                insts: 99,
                commit_width: 8
            }
        ));
    }

    #[test]
    fn pool_keys_are_unique() {
        let all = all_pinned();
        let keys: std::collections::BTreeSet<String> = all.iter().map(PoolPoint::pin_key).collect();
        assert_eq!(keys.len(), all.len());
        for p in serve_repeat_pool() {
            assert!(
                keys.contains(&p.pin_key()),
                "serve repeats are pinned via the figure grid"
            );
        }
    }
}
